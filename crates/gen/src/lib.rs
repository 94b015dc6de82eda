//! # rsc-gen
//!
//! Adversarial testing for the RSC checker: a typing-rule-directed
//! generator that emits *well-refinement-typed programs by
//! construction* ([`generate()`]), a mutation mode that breaks exactly
//! one obligation per program ([`mutate`]), and six differential
//! oracles ([`oracle`]) any violation of which is a real bug:
//!
//! 1. **Soundness** — verified programs run on both interpreters
//!    without runtime errors and agree (the paper's Theorems 2–5,
//!    exercised adversarially instead of on hand-picked fixtures).
//! 2. **Determinism** — diagnostics are byte-identical for `jobs=1`
//!    and `jobs=N`.
//! 3. **Absint equivalence** — the abstract-interpretation pre-pass
//!    changes no diagnostic byte and its discharge count exactly
//!    accounts for the queries it saves.
//! 4. **Incremental equivalence** — replaying a generated edit script
//!    through a [`rsc_incr::CheckSession`] matches a cold check at
//!    every step.
//! 5. **Workspace-merge equivalence** — a generated multi-file import
//!    closure checks byte-identically to its concatenation.
//! 6. **Pool-free reference** — the fixpoint's per-check pool of
//!    counterexample models changes no diagnostic byte and no liquid
//!    query count against one-shot solving contexts, which pool no
//!    model.
//!
//! The `rsc fuzz` subcommand drives [`run_fuzz`]; `rsc check
//! --recursive` batch-checks the workspace [`workspace::emit_workspace`]
//! materializes. Failures always print the seed and case index, so
//! `rsc fuzz --seed S --cases 1 --skip K` replays a single case
//! exactly.

#![warn(missing_docs)]

pub mod generate;
pub mod mutate;
pub mod oracle;
pub mod workspace;

use proptest::test_runner::TestRng;

pub use generate::{generate, GenConfig, GenProgram};
pub use mutate::{coupled, templates, Mutation};
pub use workspace::{emit_workspace, EmitSummary};

/// Knobs for one fuzzing run.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Number of generated cases.
    pub cases: u32,
    /// Base seed; case `i` derives its own stream from `seed` and `i`.
    pub seed: u64,
    /// Cases to skip before running (replay: `--skip K --cases 1`).
    pub skip: u32,
    /// Functions per generated program.
    pub size: usize,
    /// Import-chain depth for the workspace-merge oracle (files − 1).
    pub workspace_depth: usize,
    /// Worker count for the determinism oracle's parallel leg.
    pub jobs: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 100,
            seed: 0,
            skip: 0,
            size: 8,
            workspace_depth: 2,
            jobs: 4,
        }
    }
}

/// One oracle violation, with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Case index within the run.
    pub case: u32,
    /// The run's base seed.
    pub seed: u64,
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// Failure description (includes program text where useful).
    pub detail: String,
}

/// Aggregate results of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzSummary {
    /// Cases completed.
    pub cases: u32,
    /// Mutants generated and checked.
    pub mutants: u32,
    /// Obligation codes exercised by mutations, with counts.
    pub kinds: std::collections::BTreeMap<&'static str, u32>,
    /// All violations found (empty on a clean run).
    pub violations: Vec<Violation>,
}

/// The per-case RNG: one splitmix64 stream per (seed, case), so any
/// failing case replays in isolation.
fn case_rng(seed: u64, case: u32) -> TestRng {
    TestRng::from_seed(seed ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1))
}

/// Runs every oracle over one generated case, appending violations and
/// mutation-kind counts to `out`.
pub fn run_case(cfg: &FuzzConfig, case: u32, out: &mut FuzzSummary) {
    let mut rng = case_rng(cfg.seed, case);
    let fail = |oracle: &'static str, detail: String| Violation {
        case,
        seed: cfg.seed,
        oracle,
        detail,
    };

    let p = generate(
        &mut rng,
        GenConfig {
            funs: cfg.size,
            cluster: None,
        },
    );
    let src = p.text();

    if let Err(e) = oracle::soundness(&src) {
        out.violations
            .push(fail("soundness", format!("{e}\n--- program\n{src}")));
        return; // Everything downstream assumes a verified base.
    }
    if let Err(e) = oracle::pretty_roundtrip(&src) {
        out.violations.push(fail("pretty-roundtrip", e));
    }

    // Mutation: rotate deterministically through the 13 standalone
    // templates plus the coupled call-argument mutation, so a couple
    // dozen cases cover every obligation kind.
    let ts = templates("m", "nat", "pos");
    let idx = case as usize % (ts.len() + 1);
    let m = if idx == ts.len() {
        coupled(&p, "m").unwrap_or_else(|| ts[0].clone())
    } else {
        ts[idx].clone()
    };
    out.mutants += 1;
    *out.kinds.entry(m.kind.code()).or_insert(0) += 1;
    if let Err(e) = oracle::mutant_rejected(&p, &m) {
        out.violations.push(fail("mutation", e));
    }
    let (mutant_src, _) = p.text_with_insert(&m.text);

    // Determinism, on the diagnostics-bearing mutant (rejections are
    // where ordering bugs would show) and on the clean base.
    if let Err(e) = oracle::determinism(&mutant_src, cfg.jobs) {
        out.violations.push(fail("determinism", e));
    }
    if let Err(e) = oracle::determinism(&src, cfg.jobs) {
        out.violations.push(fail("determinism", e));
    }

    // Absint: the pre-pass must be invisible in diagnostics and exact
    // in its query accounting — on the clean base and on the
    // diagnostics-bearing mutant (where a wrong discharge would flip a
    // failure).
    if let Err(e) = oracle::absint(&src) {
        out.violations
            .push(fail("absint", format!("{e}\n--- program\n{src}")));
    }
    if let Err(e) = oracle::absint(&mutant_src) {
        out.violations.push(fail("absint", e));
    }

    // Model pool: pooled refutations must be invisible against the
    // pool-free reference driver, on the base and on the mutant.
    if let Err(e) = oracle::model_pool(&src) {
        out.violations
            .push(fail("model-pool", format!("{e}\n--- program\n{src}")));
    }
    if let Err(e) = oracle::model_pool(&mutant_src) {
        out.violations.push(fail("model-pool", e));
    }

    // Incremental: an edit script that introduces the mutation and
    // reverts it must match cold checks step for step, and so must an
    // undo and a redo after each step, with no bundle re-solved.
    let steps = vec![src.clone(), mutant_src, src.clone()];
    if let Err(e) = oracle::incremental(&steps) {
        out.violations.push(fail("incremental", e));
    }

    // Workspace merge: the same program split into an import chain.
    let files = workspace::split(&p, cfg.workspace_depth, |k| format!("wsm{k}.rsc"), true);
    let root = files
        .last()
        .expect("split yields at least one file")
        .0
        .clone();
    if let Err(e) = oracle::workspace_merge(&files, &root) {
        out.violations.push(fail("workspace-merge", e));
    }

    out.cases += 1;
}

/// Runs the full fuzz loop. `progress` is called after every case with
/// the running summary (the CLI prints a heartbeat; tests pass a
/// no-op). Stops early once 5 violations have accumulated — each
/// violation is a real bug, and a broken invariant tends to fail every
/// case after it.
pub fn run_fuzz(cfg: &FuzzConfig, mut progress: impl FnMut(u32, &FuzzSummary)) -> FuzzSummary {
    let mut out = FuzzSummary::default();
    for case in cfg.skip..cfg.skip.saturating_add(cfg.cases) {
        run_case(cfg, case, &mut out);
        progress(case, &out);
        if out.violations.len() >= 5 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_core::ObligationKind;

    /// Every reachable obligation kind `R0001`–`R0013` is covered by at
    /// least one mutation template, and each template actually trips
    /// its kind against a generated base program.
    #[test]
    fn every_obligation_kind_has_a_mutation_template() {
        let ts = templates("k", "nat", "pos");
        for kind in ObligationKind::all() {
            if *kind == ObligationKind::Other {
                continue; // synthetic-only (hand-built constraint sets)
            }
            assert!(
                ts.iter().any(|m| m.kind == *kind),
                "no mutation template for {kind:?} ({})",
                kind.code()
            );
        }
        let mut rng = case_rng(7, 0);
        let p = generate(&mut rng, GenConfig::default());
        assert!(
            oracle::soundness(&p.text()).is_ok(),
            "base program must verify"
        );
        for m in &ts {
            oracle::mutant_rejected(&p, m)
                .unwrap_or_else(|e| panic!("{} template: {e}", m.kind.code()));
        }
    }

    /// The coupled mutation (bad argument into a generated function) is
    /// rejected with R0001 whenever a nat/pos parameter exists.
    #[test]
    fn coupled_mutation_rejected() {
        for seed in 0..4 {
            let mut rng = case_rng(seed, 1);
            let p = generate(&mut rng, GenConfig::default());
            if let Some(m) = coupled(&p, "k") {
                assert_eq!(m.kind, ObligationKind::CallArgument);
                oracle::mutant_rejected(&p, &m).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }

    /// A small end-to-end fuzz run is clean (the CI leg runs a larger
    /// one through the CLI).
    #[test]
    fn small_fuzz_run_is_clean() {
        let cfg = FuzzConfig {
            cases: 6,
            seed: 42,
            size: 5,
            ..FuzzConfig::default()
        };
        let out = run_fuzz(&cfg, |_, _| {});
        assert_eq!(out.cases, 6);
        assert!(
            out.violations.is_empty(),
            "violations: {:#?}",
            out.violations
        );
    }

    /// The workspace splitter round-trips: the closure concatenation
    /// has the same items in the same order as the single-file text.
    #[test]
    fn split_preserves_function_order() {
        let mut rng = case_rng(3, 2);
        let p = generate(
            &mut rng,
            GenConfig {
                funs: 6,
                cluster: None,
            },
        );
        let files = workspace::split(&p, 2, |k| format!("wsm{k}.rsc"), true);
        assert_eq!(files.len(), 3);
        let concat: String = files.iter().map(|(_, t)| t.as_str()).collect();
        for f in &p.funs {
            assert!(concat.contains(&f.text), "{} missing from split", f.name);
        }
        assert!(concat.ends_with(&p.tail));
    }
}
