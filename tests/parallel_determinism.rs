//! Parallel determinism: checking with `jobs = 1` and `jobs = 8` must
//! produce byte-identical diagnostics and verdicts on every benchmark of
//! the Figure 6 corpus — clean *and* with seeded bugs, so the comparison
//! exercises non-empty diagnostic output too.
//!
//! This holds by construction: bundles are solved independently, every
//! validity verdict is a pure function of the canonical VC fingerprint
//! (see `rsc_smt::cache`), and per-bundle failures are merged back in
//! source order. This suite is the regression net under that argument.

use rsc_bench::{benchmark_names, load_benchmark};
use rsc_core::{check_program, CheckResult, CheckerOptions};

fn with_jobs(jobs: usize) -> CheckerOptions {
    CheckerOptions {
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

fn assert_identical(name: &str, src: &str) {
    let r1 = check_program(src, with_jobs(1));
    let r8 = check_program(src, with_jobs(8));
    assert_eq!(
        r1.ok(),
        r8.ok(),
        "{name}: verdict differs between jobs=1 and jobs=8"
    );
    assert_eq!(
        render(&r1),
        render(&r8),
        "{name}: diagnostics differ between jobs=1 and jobs=8"
    );
    // The partition itself is job-count independent, as are the solver
    // queries actually issued (hit/miss splits may differ, their sum and
    // every verdict may not).
    assert_eq!(r1.stats.constraints, r8.stats.constraints, "{name}");
    assert_eq!(r1.stats.kvars, r8.stats.kvars, "{name}");
    assert_eq!(r1.stats.bundles, r8.stats.bundles, "{name}");
    assert_eq!(r1.stats.smt_queries, r8.stats.smt_queries, "{name}");
}

#[test]
fn clean_corpus_is_deterministic_across_jobs() {
    for name in benchmark_names() {
        let src = load_benchmark(name).expect("benchmark file");
        assert_identical(name, &src);
    }
}

/// Per-bundle solver stats must partition the run's totals: every liquid
/// query is a cache hit, a pooled-model refutation or a solved query in
/// exactly one bundle's report. This is the regression net for the stats-reset fix — with
/// cumulative (unreset) counters the sum overcounts immediately.
#[test]
fn bundle_reports_partition_query_totals() {
    let src = load_benchmark("splay").expect("benchmark file");
    let r = check_program(&src, with_jobs(2));
    assert!(r.ok());
    assert_eq!(r.stats.bundles, r.bundle_reports.len());
    let per_bundle: u64 = r
        .bundle_reports
        .iter()
        .map(|b| b.smt.queries + b.smt.cache_hits + b.smt.model_refuted)
        .sum();
    assert_eq!(
        per_bundle, r.stats.smt_queries,
        "per-bundle counters must sum to the run total (reset between bundles)"
    );
    let constraints: usize = r.bundle_reports.iter().map(|b| b.constraints).sum();
    assert_eq!(constraints, r.stats.constraints);
    let kvars: usize = r.bundle_reports.iter().map(|b| b.kvars).sum();
    assert_eq!(
        kvars, r.stats.kvars,
        "every κ belongs to exactly one bundle"
    );
}

#[test]
fn seeded_bugs_are_deterministic_across_jobs() {
    // The same mutations `benchmarks_verify.rs` pins golden diagnostics
    // for: every one produces non-empty output, which is what makes this
    // comparison meaningful.
    for &(name, from, to) in rsc_bench::seeded_mutations() {
        let src = load_benchmark(name).expect("benchmark file");
        assert!(
            src.contains(from),
            "{name}: mutation site `{from}` not found"
        );
        let mutated = src.replacen(from, to, 1);
        if rsc_syntax::parse_program(&mutated).is_err() {
            continue;
        }
        assert_identical(name, &mutated);
    }
}
