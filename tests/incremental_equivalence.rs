//! Incremental soundness: a [`rsc_incr::CheckSession`] must be
//! observationally indistinguishable from cold whole-program checking.
//!
//! Two layers of evidence:
//!
//! 1. **Every seeded mutation** from the Fig. 6 corpus (the same table
//!    the rejection and golden-diagnostics suites pin) is edited *in*
//!    through a session — diagnostics must be byte-identical to a cold
//!    `check_program` of the mutated file — and then edited *back out* —
//!    the program must re-verify, with the re-check solving **strictly
//!    fewer** bundles than a cold run would (asserted via the per-bundle
//!    `cached` flags in `BundleReport`).
//!
//! 2. **Random edit scripts** (proptest): arbitrary sequences of
//!    mutation toggles applied to a corpus program, with the session
//!    compared against a cold check after every step. This catches
//!    retention bugs that only appear after a *sequence* of edits
//!    (stale verdicts resurrected from two edits ago, etc.).

use proptest::prelude::*;
use rsc_bench::{load_benchmark, seeded_mutations};
use rsc_core::{check_program, CheckResult, CheckerOptions};
use rsc_incr::CheckSession;

fn render(r: &CheckResult) -> String {
    r.diagnostics
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn solved_bundles(r: &CheckResult) -> usize {
    r.bundle_reports.iter().filter(|b| !b.cached).count()
}

/// The acceptance-criteria loop: mutation in (byte-identical to cold),
/// mutation out (re-verifies, strictly fewer bundles solved than cold).
#[test]
fn seeded_mutations_in_and_out() {
    for &(name, from, to) in seeded_mutations() {
        let clean = load_benchmark(name).expect("benchmark file");
        let mutated = clean.replacen(from, to, 1);
        if rsc_syntax::parse_program(&mutated).is_err() {
            continue; // mutation breaks the syntax — nothing to compare
        }
        let mut session = CheckSession::new(CheckerOptions::default());

        // Cold-start the session on the clean program.
        let first = session.check(&clean);
        assert!(first.result.ok(), "{name}: clean corpus must verify");
        let total = first.result.bundle_reports.len();
        assert_eq!(
            solved_bundles(&first.result),
            total,
            "{name}: first check has nothing to reuse"
        );

        // Edit the bug in: byte-identical diagnostics vs a cold check.
        let broken = session.check(&mutated);
        let cold_broken = check_program(&mutated, CheckerOptions::default());
        assert!(!broken.result.ok(), "{name}: seeded bug must be rejected");
        assert_eq!(
            render(&broken.result),
            render(&cold_broken),
            "{name}: session diagnostics drifted from cold check"
        );

        // Edit it back out: verifies again, and the session solved
        // strictly fewer bundles than the cold run (which solves all).
        let fixed = session.check(&clean);
        assert!(fixed.result.ok(), "{name}: reverting the bug must verify");
        assert_eq!(render(&fixed.result), "");
        let resolved = solved_bundles(&fixed.result);
        let cold_total = fixed.result.bundle_reports.len();
        assert!(
            resolved < cold_total,
            "{name}: re-check solved {resolved}/{cold_total} bundles — \
             expected strictly fewer than a cold run"
        );
        assert_eq!(
            fixed.result.stats.bundles_reused,
            cold_total - resolved,
            "{name}: reuse accounting disagrees with the cached flags"
        );
    }
}

/// Exact incremental reuse on the seven corpus programs, pinned against
/// `tests/golden/reuse-counters.txt`. One session per program checks
/// the clean program cold, then the seeded bug in, the bug out, a
/// comment line prepended (which moves every span and changes no
/// constraint) and the revert; each step records its bundle, solved and
/// reused counts and whether it took the fast path. Bundle identity
/// decides reuse, so these counts may only move with a deliberate change
/// to what a bundle fingerprint distinguishes.
///
/// Regenerate the fixture with `UPDATE_GOLDEN=1 cargo test -q --test
/// incremental_equivalence reuse_counters` after an intentional change.
#[test]
fn reuse_counters_match_golden() {
    let mut rendered = String::new();
    for &(name, from, to) in seeded_mutations() {
        let clean = load_benchmark(name).expect("benchmark file");
        let steps = [
            ("cold", clean.clone()),
            ("bug-in", clean.replacen(from, to, 1)),
            ("bug-out", clean.clone()),
            ("comment-only", format!("// a comment line\n{clean}")),
            ("revert", clean.clone()),
        ];
        let mut session = CheckSession::new(CheckerOptions::default());
        for (step, src) in &steps {
            let incr = session.check(src).incr;
            rendered.push_str(&format!(
                "{name} {step}: bundles={} solved={} reused={} fast_path={}\n",
                incr.bundles, incr.solved, incr.reused, incr.fast_path
            ));
        }
    }
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reuse-counters.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &rendered).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            golden.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "incremental reuse drifted from tests/golden/reuse-counters.txt"
    );
}

/// Session totals must stay meaningful under reuse: retained bundles
/// report their recorded counters (`cached: true`), and the per-bundle
/// query counts still sum to the run total exactly as they do cold.
#[test]
fn cached_reports_partition_totals() {
    // d3-arrays and its own seeded mutation: a genuine one-function
    // edit, so the run mixes cached and freshly solved reports.
    let (name, from, to) = seeded_mutations()
        .iter()
        .find(|(b, _, _)| *b == "d3-arrays")
        .copied()
        .expect("d3-arrays has a seeded mutation");
    let clean = load_benchmark(name).expect("benchmark file");
    let edited = clean.replacen(from, to, 1);
    assert_ne!(clean, edited, "mutation site must exist");
    assert!(rsc_syntax::parse_program(&edited).is_ok());

    let mut session = CheckSession::new(CheckerOptions::default());
    session.check(&clean);
    let outcome = session.check(&edited);
    let cached = outcome.result.bundle_reports.iter().filter(|b| b.cached);
    let solved = outcome.result.bundle_reports.iter().filter(|b| !b.cached);
    assert!(cached.count() > 0, "edit must retain some bundles");
    assert!(solved.count() > 0, "edit must re-solve some bundles");

    let per_bundle: u64 = outcome
        .result
        .bundle_reports
        .iter()
        .map(|b| b.smt_queries)
        .sum();
    assert_eq!(
        per_bundle, outcome.result.stats.smt_queries,
        "per-bundle smt_queries (cached + solved) must sum to the run total"
    );
    for b in &outcome.result.bundle_reports {
        assert_eq!(
            b.smt_queries,
            b.smt.queries + b.smt.cache_hits + b.smt.model_refuted,
            "a bundle's liquid queries are solved, cache hits or refuted by a pooled model"
        );
    }
}

/// The fingerprint-excludes-provenance invariant, end to end: an edit
/// that only inserts comments/blank lines shifts every span in the file
/// but changes no constraint *predicate*, so every bundle fingerprint is
/// unchanged and the session re-solves **zero** bundles — while the
/// reported diagnostics still move to the new line numbers (blame is
/// re-attached from the current run's constraints, not from retention).
#[test]
fn comment_only_edit_resolves_zero_bundles() {
    // A failing program, so we can watch the diagnostics' lines shift.
    let base = "type nat = {v: number | 0 <= v};\n\
                function dec(x: nat): nat {\n    return x - 1;\n}\n\
                function ok(x: nat): nat {\n    return x + 1;\n}\n";
    let mut session = CheckSession::new(CheckerOptions::default());
    let first = session.check(base);
    assert!(!first.result.ok(), "base program must be rejected");

    let shifted = format!("// a comment line\n\n{base}");
    let second = session.check(&shifted);
    assert_eq!(
        solved_bundles(&second.result),
        0,
        "a comment-only edit must re-solve zero bundles: {:?}",
        second.incr
    );
    assert_eq!(
        second.result.stats.bundles_reused,
        second.result.bundle_reports.len()
    );
    // Byte-identical to a cold check of the shifted source…
    let cold = check_program(&shifted, CheckerOptions::default());
    assert_eq!(render(&second.result), render(&cold));
    // …and the line numbers really moved (blame came from this run).
    assert_ne!(render(&first.result), render(&second.result));
    assert!(
        render(&second.result).contains("line 5"),
        "diagnostic should follow the two-line shift: {}",
        render(&second.result)
    );
}

/// The same invariant over a real corpus program: a blank-line insertion
/// at the top of navier-stokes re-solves nothing.
#[test]
fn corpus_blank_line_insertion_resolves_zero_bundles() {
    let clean = load_benchmark("navier-stokes").expect("benchmark file");
    let mut session = CheckSession::new(CheckerOptions::default());
    let first = session.check(&clean);
    assert!(first.result.ok());
    let total = first.result.bundle_reports.len();
    assert!(total > 1);

    let shifted = format!("\n{clean}");
    let second = session.check(&shifted);
    assert!(second.result.ok());
    assert_eq!(
        solved_bundles(&second.result),
        0,
        "blank-line insertion must re-solve zero of {total} bundles: {:?}",
        second.incr
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random mutation-toggle scripts over the d3-arrays benchmark:
    /// after every step the session must match a cold check byte for
    /// byte, and (after the first check) reuse at least one bundle
    /// whenever the program has more than one.
    #[test]
    fn edit_scripts_match_cold_checks(script in prop::collection::vec(0usize..2, 1..4)) {
        let name = "d3-arrays";
        let clean = load_benchmark(name).expect("benchmark file");
        let muts: Vec<(&str, &str)> = seeded_mutations()
            .iter()
            .filter(|(b, _, _)| *b == name)
            .map(|(_, f, t)| (*f, *t))
            .collect();
        prop_assert!(!muts.is_empty());

        let mut session = CheckSession::new(CheckerOptions::default());
        session.check(&clean);
        let mut applied = vec![false; muts.len()];
        for step in script {
            let slot = step % muts.len();
            applied[slot] = !applied[slot];
            let mut src = clean.clone();
            for (i, on) in applied.iter().enumerate() {
                if *on {
                    src = src.replacen(muts[i].0, muts[i].1, 1);
                }
            }
            if rsc_syntax::parse_program(&src).is_err() {
                applied[slot] = !applied[slot]; // skip unparseable snapshots
                continue;
            }
            let session_out = session.check(&src);
            let cold = check_program(&src, CheckerOptions::default());
            prop_assert_eq!(session_out.result.ok(), cold.ok());
            prop_assert_eq!(render(&session_out.result), render(&cold));
            let total = session_out.result.bundle_reports.len();
            if total > 1 {
                prop_assert!(
                    session_out.result.stats.bundles_reused > 0,
                    "one-mutation step should reuse something: {:?}",
                    session_out.incr
                );
            }
        }
    }
}
