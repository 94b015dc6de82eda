//! Solver-configuration equivalence: the incremental-SMT fixpoint, the
//! static discharge and the persistent `--vc-cache` disk tier are
//! performance features only — every benchmark of the Figure 6 corpus
//! (clean *and* with seeded bugs) must produce byte-identical
//! diagnostics, verdicts, and query counts with incremental contexts on
//! or off, and with a disk cache cold or warm, at any worker count, and
//! byte-identical diagnostics with the discharge on or off, where each
//! discharge replaces exactly one query.
//!
//! With incremental contexts off, every query runs on a one-shot
//! `IncrContext` with no model pool instead of the constraint's
//! persistent one. Why this holds: a persistent context answers exactly
//! the conjunction a one-shot context encodes (activation literals
//! select the same hypotheses; retained blocking clauses are implied by
//! the clause database), the VC disk tier stores only Unsat verdicts under a
//! versioned key, and bundle-verdict reuse replays a pure function of
//! the canonical bundle fingerprint. This suite is the regression net
//! under those arguments.

use rsc_bench::{benchmark_names, load_benchmark};
use rsc_core::{check_program, CheckResult, CheckerOptions};
use rsc_incr::CheckSession;
use rsc_smt::SolverStats;

fn options(incremental: bool, jobs: usize) -> CheckerOptions {
    CheckerOptions {
        incremental_smt: incremental,
        jobs,
        ..CheckerOptions::default()
    }
}

/// Renders a result exactly as consumers see it (severity, span, text).
fn render(r: &CheckResult) -> String {
    r.diagnostics
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_equivalent(name: &str, a_label: &str, a: &CheckResult, b_label: &str, b: &CheckResult) {
    assert_eq!(
        a.ok(),
        b.ok(),
        "{name}: verdict differs between {a_label} and {b_label}"
    );
    assert_eq!(
        render(a),
        render(b),
        "{name}: diagnostics differ between {a_label} and {b_label}"
    );
    assert_eq!(
        a.stats.smt_queries, b.stats.smt_queries,
        "{name}: liquid query count differs between {a_label} and {b_label}"
    );
    assert_eq!(a.stats.constraints, b.stats.constraints, "{name}");
    assert_eq!(a.stats.bundles, b.stats.bundles, "{name}");
}

/// Every (clean, seeded-bug) corpus source, parseable mutants only.
fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for name in benchmark_names() {
        let src = load_benchmark(name).expect("benchmark file");
        out.push((name.to_string(), src));
    }
    for &(name, from, to) in rsc_bench::seeded_mutations() {
        let src = load_benchmark(name).expect("benchmark file");
        let mutated = src.replacen(from, to, 1);
        if rsc_syntax::parse_program(&mutated).is_ok() {
            out.push((format!("{name}+bug"), mutated));
        }
    }
    out
}

/// A persistent context with a model pool per κ-headed constraint
/// (`incremental_smt: true`) against a one-shot context per query
/// without a pool (`false`).
#[test]
fn incremental_matches_fresh_on_corpus() {
    for (name, src) in corpus() {
        let incr = check_program(&src, options(true, 1));
        let fresh = check_program(&src, options(false, 1));
        assert_equivalent(&name, "incremental", &incr, "fresh", &fresh);
        // And across worker counts with incremental contexts on (each
        // bundle owns its contexts, so parallelism cannot interleave).
        let incr4 = check_program(&src, options(true, 4));
        assert_equivalent(&name, "jobs=1", &incr, "jobs=4", &incr4);
    }
}

/// The static discharge only skips queries the solver would answer
/// valid: with it on or off, every corpus input gives the same
/// diagnostics, and each discharge stands for exactly one query of the
/// run without it.
#[test]
fn absint_discharges_account_for_every_skipped_query() {
    let with = |absint: bool| CheckerOptions {
        absint,
        ..options(true, 1)
    };
    let mut unaccounted = Vec::new();
    for (name, src) in corpus() {
        let on = check_program(&src, with(true));
        let off = check_program(&src, with(false));
        assert_eq!(
            render(&on),
            render(&off),
            "{name}: diagnostics differ with the discharge on and off"
        );
        let (queries, discharged) = (on.stats.smt_queries, on.stats.obligations_discharged);
        if queries + discharged != off.stats.smt_queries {
            unaccounted.push(format!(
                "{name}: {queries} queries + {discharged} discharged on, {} queries off",
                off.stats.smt_queries
            ));
        }
    }
    assert!(
        unaccounted.is_empty(),
        "on.smt_queries + on.discharged != off.smt_queries:\n{}",
        unaccounted.join("\n")
    );
}

#[test]
fn disk_cache_warm_matches_cold_on_corpus() {
    let dir = std::env::temp_dir().join(format!("rsc-vcc-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (name, src) in corpus() {
        let cold = check_program(&src, CheckerOptions::default());

        // First session populates the disk tier; a second, fresh session
        // (simulating a process restart) must serve every bundle from
        // disk and still match the cold run byte for byte.
        let populate = CheckSession::with_disk(CheckerOptions::default(), &dir).check(&src);
        assert_equivalent(&name, "cold", &cold, "disk-cold", &populate.result);

        let warm = CheckSession::with_disk(CheckerOptions::default(), &dir).check(&src);
        assert_equivalent(&name, "cold", &cold, "disk-warm", &warm.result);
        assert_eq!(
            warm.incr.reused, warm.incr.bundles,
            "{name}: a warm disk cache must reuse every bundle"
        );
        assert_eq!(
            warm.incr.solved, 0,
            "{name}: a warm re-check must solve zero bundles"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The solver's deterministic work counters on the 14 `corpus-cold`
/// inputs (7 clean programs, 7 seeded bugs) at one worker, pinned
/// against `tests/golden/solver-counters.txt`. Solver-internal
/// shortcuts (model-guided probe skipping, caps, core minimization)
/// must keep every SAT trajectory identical, so these counts may only
/// move with a deliberate change to what the solver decides. A query a
/// pooled counterexample model refutes counts in `model_refuted` instead
/// of `queries`; their sum is the number of liquid queries that reached
/// the solver.
///
/// Regenerate the fixture with `UPDATE_GOLDEN=1 cargo test -q --test
/// solver_equivalence solver_counters` after an intentional change.
#[test]
fn solver_counters_match_golden() {
    let inputs = corpus();
    assert_eq!(inputs.len(), 14, "7 clean programs + 7 seeded bugs");
    let line = |name: &str, smt: &SolverStats, queries: u64, discharged: u64| {
        format!(
            "{name}: queries={} model_refuted={} valid={} sat_rounds={} theory_conflicts={} \
             smt_queries={queries} discharged={discharged}\n",
            smt.queries, smt.model_refuted, smt.valid, smt.sat_rounds, smt.theory_conflicts,
        )
    };
    let mut rendered = String::new();
    let (mut total, mut total_queries, mut total_discharged) = (SolverStats::default(), 0, 0);
    for (name, src) in inputs {
        let r = check_program(&src, options(true, 1));
        let mut smt = SolverStats::default();
        for b in &r.bundle_reports {
            smt.merge(&b.smt);
        }
        rendered.push_str(&line(
            &name,
            &smt,
            r.stats.smt_queries,
            r.stats.obligations_discharged,
        ));
        total.merge(&smt);
        total_queries += r.stats.smt_queries;
        total_discharged += r.stats.obligations_discharged;
    }
    rendered.push_str(&line("total", &total, total_queries, total_discharged));
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/solver-counters.txt");
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
        "solver work counters drifted from tests/golden/solver-counters.txt"
    );
}
