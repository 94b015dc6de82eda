//! §5 safety properties: every benchmark in the corpus verifies
//! (property accesses, array bounds, overloads, downcasts), and seeded
//! errors are rejected.

use rsc_bench::load_benchmark;
use rsc_core::{check_program, CheckerOptions};

fn check_benchmark(name: &str) {
    let src = load_benchmark(name).expect("benchmark file");
    let r = check_program(&src, CheckerOptions::default());
    assert!(
        r.ok(),
        "benchmark {name} should verify, got:\n{}",
        r.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn navier_stokes_verifies() {
    check_benchmark("navier-stokes");
}

#[test]
fn splay_verifies() {
    check_benchmark("splay");
}

#[test]
fn richards_verifies() {
    check_benchmark("richards");
}

#[test]
fn raytrace_verifies() {
    check_benchmark("raytrace");
}

#[test]
fn transducers_verifies() {
    check_benchmark("transducers");
}

#[test]
fn d3_arrays_verifies() {
    check_benchmark("d3-arrays");
}

#[test]
fn tsc_checker_verifies() {
    check_benchmark("tsc-checker");
}

/// The path-sensitivity ablation (§2.1.1) changes the verdict, not just
/// the cost: d3-arrays' guarded accesses verify only with branch
/// conditions in the environment.
#[test]
fn d3_arrays_needs_path_sensitivity() {
    let src = load_benchmark("d3-arrays").expect("benchmark file");
    assert!(check_program(&src, CheckerOptions::default()).ok());
    let no_path = CheckerOptions {
        path_sensitivity: false,
        ..CheckerOptions::default()
    };
    assert!(
        !check_program(&src, no_path).ok(),
        "without path sensitivity the guarded accesses must fail"
    );
}

/// Seeded-bug rejection: flipping a guard or widening an index in each
/// benchmark must produce a verification error — and the *messages* are
/// pinned against golden snapshots in `tests/golden/`, so a refactor of
/// the solve pipeline cannot silently change what users are told, only
/// that "something" failed.
///
/// Regenerate the fixtures with `UPDATE_GOLDEN=1 cargo test -q
/// seeded_bugs_rejected` after an intentional diagnostics change.
#[test]
fn seeded_bugs_rejected() {
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    for &(name, from, to) in rsc_bench::seeded_mutations() {
        let src = load_benchmark(name).expect("benchmark file");
        assert!(
            src.contains(from),
            "{name}: mutation site `{from}` not found"
        );
        let mutated = src.replacen(from, to, 1);
        if rsc_syntax::parse_program(&mutated).is_err() {
            continue; // mutation broke the syntax: fine, still "rejected"
        }
        let r = check_program(&mutated, CheckerOptions::default());
        assert!(
            !r.ok(),
            "benchmark {name} with seeded bug `{from}` → `{to}` should be rejected"
        );
        // Every corpus rejection must carry full provenance: an
        // obligation-kind code and a real (non-dummy) byte range.
        for d in &r.diagnostics {
            assert!(
                d.code.is_some(),
                "{name}: rejection diagnostic without an obligation code: {d}"
            );
            assert!(
                d.span.hi > d.span.lo && d.span.line > 0,
                "{name}: rejection diagnostic with a dummy range: {d}"
            );
        }
        let mut rendered: String = r
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        rendered.push('\n');
        let golden_path = golden_dir.join(format!("seeded-{name}.diag"));
        if update {
            std::fs::write(&golden_path, &rendered).expect("write golden fixture");
            continue;
        }
        let expected = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                golden_path.display()
            )
        });
        assert_eq!(
            rendered, expected,
            "benchmark {name} with seeded bug `{from}` → `{to}`: rejection \
             messages drifted from tests/golden/seeded-{name}.diag"
        );
    }
}
