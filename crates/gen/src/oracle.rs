//! The differential oracles: each takes generated input and returns
//! `Err(description)` on a violation — a real checker/toolchain bug by
//! construction, since generated programs are well-typed and mutants
//! break exactly one known obligation.

use rsc_core::{check_program, check_program_ast, CheckResult, CheckerOptions};
use rsc_incr::{qualified_program, resolve_closure, CheckSession, Merged, Workspace};
use rsc_interp::{run_frsc, run_irsc};

use crate::generate::GenProgram;
use crate::mutate::Mutation;

/// Interpreter fuel for the soundness oracle (generated programs are
/// cost-budgeted far below this).
const FUEL: u64 = 5_000_000;

/// Renders a result's diagnostics the way every suite pins them.
pub fn render(r: &CheckResult) -> String {
    r.diagnostics
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn opts_with_jobs(jobs: usize) -> CheckerOptions {
    CheckerOptions {
        jobs,
        ..CheckerOptions::default()
    }
}

/// **Soundness**: a generated (well-typed-by-construction) program must
/// verify, and then run to the same value on both semantics with no
/// runtime error (Theorems 2–5 of the paper, exercised adversarially).
pub fn soundness(src: &str) -> Result<(), String> {
    let r = check_program(src, CheckerOptions::default());
    if !r.ok() {
        return Err(format!(
            "generated well-typed program was rejected:\n{}",
            render(&r)
        ));
    }
    let prog = rsc_syntax::parse_program(src).map_err(|e| format!("parse failed: {e:?}"))?;
    let ir = rsc_ssa::transform_program(&prog);
    let a = run_frsc(&prog, FUEL);
    let b = run_irsc(&ir, FUEL);
    if a != b {
        return Err(format!("semantics disagree: frsc {a:?} vs irsc {b:?}"));
    }
    match a {
        Ok(_) => Ok(()),
        Err(e) => Err(format!("verified program hit a runtime error: {e}")),
    }
}

/// The pretty-printer round trip: print ∘ parse is idempotent on every
/// generated program (guards the printer the workspace emitter relies
/// on).
pub fn pretty_roundtrip(src: &str) -> Result<(), String> {
    let p1 = rsc_syntax::parse_program(src).map_err(|e| format!("parse failed: {e:?}"))?;
    let printed = rsc_syntax::pretty::program(&p1);
    let p2 = rsc_syntax::parse_program(&printed)
        .map_err(|e| format!("pretty output does not re-parse: {e:?}\n{printed}"))?;
    let printed2 = rsc_syntax::pretty::program(&p2);
    if printed != printed2 {
        return Err("pretty-print is not idempotent".to_string());
    }
    Ok(())
}

/// **Determinism**: diagnostics are byte-identical across worker
/// counts (`jobs=1` vs `jobs=N`).
pub fn determinism(src: &str, jobs: usize) -> Result<(), String> {
    let seq = check_program(src, opts_with_jobs(1));
    let par = check_program(src, opts_with_jobs(jobs.max(2)));
    let (a, b) = (render(&seq), render(&par));
    if a != b {
        return Err(format!(
            "diagnostics differ between jobs=1 and jobs={}:\n--- jobs=1\n{a}\n--- jobs=N\n{b}",
            jobs.max(2)
        ));
    }
    Ok(())
}

/// **Mutation rejection**: the mutant must be rejected, some diagnostic
/// must carry the mutation's obligation code, and every diagnostic
/// carrying it must sit at/after the insertion line.
pub fn mutant_rejected(base: &GenProgram, m: &Mutation) -> Result<(), String> {
    let (src, line) = base.text_with_insert(&m.text);
    let r = check_program(&src, CheckerOptions::default());
    if r.ok() {
        return Err(format!(
            "mutant `{}` ({}) was accepted:\n{src}",
            m.label,
            m.kind.code()
        ));
    }
    let hits: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.code == Some(m.kind.code()))
        .collect();
    if hits.is_empty() {
        return Err(format!(
            "mutant `{}` rejected without expected code {}:\n{}",
            m.label,
            m.kind.code(),
            render(&r)
        ));
    }
    for d in hits {
        if d.span.line < line {
            return Err(format!(
                "mutant `{}`: {} diagnostic at line {} precedes the mutated \
                 region (line {})",
                m.label,
                m.kind.code(),
                d.span.line,
                line
            ));
        }
    }
    Ok(())
}

/// **Absint equivalence**: the abstract-interpretation pre-pass may
/// only *discharge* SMT queries, never change answers. With the
/// pre-pass on and off: diagnostics are byte-identical, the verdict is
/// the same, the off run discharges nothing, and the on run's
/// `smt_queries + obligations_discharged` equals the off run's
/// `smt_queries` — i.e. every skipped query is one the solver would
/// have answered `Valid` (a discharged query that SMT would refute
/// necessarily changes the fixpoint trajectory and with it the
/// accounting or the diagnostics, so this equation is the replay
/// contract in differential form).
pub fn absint(src: &str) -> Result<(), String> {
    let on = check_program(src, CheckerOptions::default());
    let off = check_program(
        src,
        CheckerOptions {
            absint: false,
            ..CheckerOptions::default()
        },
    );
    let (a, b) = (render(&on), render(&off));
    if a != b {
        return Err(format!(
            "diagnostics differ with the absint pre-pass on vs off:\n--- on\n{a}\n--- off\n{b}"
        ));
    }
    if on.ok() != off.ok() {
        return Err(format!(
            "verdict differs with the absint pre-pass: on={} off={}",
            on.ok(),
            off.ok()
        ));
    }
    if off.stats.obligations_discharged != 0 {
        return Err(format!(
            "pre-pass disabled but {} obligations were discharged",
            off.stats.obligations_discharged
        ));
    }
    let attempted = on.stats.smt_queries + on.stats.obligations_discharged;
    if attempted != off.stats.smt_queries {
        return Err(format!(
            "query accounting broken: on ({} queries + {} discharged = {attempted}) \
             vs off ({} queries) — the pre-pass changed the fixpoint trajectory",
            on.stats.smt_queries, on.stats.obligations_discharged, off.stats.smt_queries
        ));
    }
    Ok(())
}

/// **Pool-free reference**: the per-check counterexample-model pool may
/// only drop candidates the solver would refute. With
/// `incremental_smt: false` every query runs on a one-shot context that
/// never pools a model, so against it the
/// pooled default run must give byte-identical diagnostics, the same
/// verdict and the same liquid query count, the reference must refute
/// nothing from a model, and on the pooled side every bundle's liquid
/// queries must be solved, cache hits or pooled refutations.
pub fn model_pool(src: &str) -> Result<(), String> {
    let pooled = check_program(src, CheckerOptions::default());
    let reference = check_program(
        src,
        CheckerOptions {
            incremental_smt: false,
            ..CheckerOptions::default()
        },
    );
    let (a, b) = (render(&pooled), render(&reference));
    if a != b {
        return Err(format!(
            "diagnostics differ between the pooled and the pool-free driver:\n\
             --- pooled\n{a}\n--- pool-free\n{b}"
        ));
    }
    if pooled.ok() != reference.ok() {
        return Err(format!(
            "verdict differs with the model pool: pooled={} pool-free={}",
            pooled.ok(),
            reference.ok()
        ));
    }
    if pooled.stats.smt_queries != reference.stats.smt_queries {
        return Err(format!(
            "liquid queries differ: pooled {} vs pool-free {} — a pooled model \
             changed the fixpoint trajectory",
            pooled.stats.smt_queries, reference.stats.smt_queries
        ));
    }
    if reference.stats.model_refuted != 0 {
        return Err(format!(
            "the pool-free driver refuted {} queries from a model",
            reference.stats.model_refuted
        ));
    }
    for (i, b) in pooled.bundle_reports.iter().enumerate() {
        let accounted = b.smt.queries + b.smt.cache_hits + b.smt.model_refuted;
        if b.smt_queries != accounted {
            return Err(format!(
                "bundle {i}: {} liquid queries but {} solved + {} cache hits + {} \
                 pooled refutations",
                b.smt_queries, b.smt.queries, b.smt.cache_hits, b.smt.model_refuted
            ));
        }
    }
    Ok(())
}

/// **Incremental equivalence**: replaying an edit script through a
/// persistent [`CheckSession`] produces, at every step, diagnostics
/// byte-identical to a cold `check_program` of that step. After each
/// step the session also re-checks the step before (undo) and then the
/// step again (redo): both must match their cold checks and solve no
/// bundle, because a session keeps every verdict of its last two runs.
pub fn incremental(steps: &[String]) -> Result<(), String> {
    let cold: Vec<String> = steps
        .iter()
        .map(|s| render(&check_program(s, CheckerOptions::default())))
        .collect();
    let mut script: Vec<(usize, &str)> = Vec::new();
    for i in 0..steps.len() {
        script.push((i, "edit"));
        if i > 0 {
            script.push((i - 1, "undo"));
            script.push((i, "redo"));
        }
    }
    let mut session = CheckSession::new(CheckerOptions::default());
    let outcomes = session.replay_script(script.iter().map(|&(i, _)| steps[i].as_str()));
    for (&(i, leg), outcome) in script.iter().zip(&outcomes) {
        let what = if leg == "edit" {
            format!("step {i}")
        } else {
            format!("{leg} to step {i}")
        };
        let s = render(&outcome.result);
        if s != cold[i] {
            return Err(format!(
                "incremental {what} diverged from cold check:\n--- session\n{s}\n--- cold\n{}",
                cold[i]
            ));
        }
        if leg != "edit" && outcome.incr.solved != 0 {
            return Err(format!(
                "incremental {what} re-solved {} of {} bundles the session had just solved",
                outcome.incr.solved, outcome.incr.bundles
            ));
        }
    }
    Ok(())
}

/// **Workspace-merge equivalence**: checking a generated multi-file
/// import closure through the [`Workspace`] is byte-identical to a
/// cold check of its **module-qualified** merged program, the merged
/// text *is* the concatenation of the closure files in topological
/// order, and the closure verifies — which fails if any module's
/// non-exported `sharedHelper` captures another module's (every file
/// declares one, with a file-specific refinement).
pub fn workspace_merge(files: &[(String, String)], root: &str) -> Result<(), String> {
    let mut ws = Workspace::new(CheckerOptions::default());
    for (name, text) in files {
        if name != root {
            ws.check_one(name, text.clone());
        }
    }
    let root_text = files
        .iter()
        .find(|(n, _)| n == root)
        .ok_or_else(|| "root file missing from file set".to_string())?
        .1
        .clone();
    let report = ws.check_one(root, root_text);
    if report.merged.files.len() != files.len() {
        return Err(format!(
            "closure of `{root}` has {} files, expected {}: {:?}",
            report.merged.files.len(),
            files.len(),
            report
                .merged
                .files
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>()
        ));
    }
    // The merged text must be exactly the concatenation of the closure
    // files (newline-terminated) in the workspace's topological order.
    let concat: String = report
        .merged
        .files
        .iter()
        .map(|f| {
            let t = &files
                .iter()
                .find(|(n, _)| n == &f.name)
                .expect("closure file")
                .1;
            if t.ends_with('\n') {
                t.clone()
            } else {
                format!("{t}\n")
            }
        })
        .collect();
    if concat != report.merged.text {
        return Err(format!(
            "merged text is not the closure concatenation for `{root}`"
        ));
    }
    // The cold side of the equivalence is the qualified merged program
    // — the semantics the workspace is defined to implement.
    let mut lookup = |name: &str| {
        files
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
    };
    let closure = resolve_closure(root, &mut lookup)
        .map_err(|e| format!("cold resolution of `{root}` failed: {e:?}"))?;
    let merged = Merged::build(&closure);
    let prog = qualified_program(&merged, &closure)
        .map_err(|e| format!("qualification of `{root}` failed: {e:?}"))?;
    let cold = check_program_ast(&prog, CheckerOptions::default());
    let (w, c) = (render(&report.outcome.result), render(&cold));
    if w != c {
        return Err(format!(
            "workspace check of `{root}` diverged from its qualified merge:\n\
             --- workspace\n{w}\n--- qualified\n{c}"
        ));
    }
    if !cold.ok() {
        return Err(format!(
            "generated workspace does not verify:\n{c}\n--- merged program\n{}",
            report.merged.text
        ));
    }
    Ok(())
}
