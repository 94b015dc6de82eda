//! The RSC refinement checker: declarative typing of IRSC (Figure 5)
//! implemented as constraint generation over Liquid templates, plus the
//! TypeScript-scaling features of §4 — reflection tags, interface
//! hierarchies with bit-vector flags, IGJ mutability, two-phase checking
//! of overloads, and constructor cooking.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use rsc_liquid::{
    bundle_fingerprint, global_fingerprint, partition, solve_with, Blame, CBind, CEnv,
    ConstraintBundle, ConstraintSet, LiquidResult, ObligationKind,
};
use rsc_logic::{CmpOp, Pred, Sort, SortScope, Subst, Sym, Term};
use rsc_smt::{CacheCounters, SolverStats, VcCache};
use rsc_ssa::{Body, IrClass, IrExpr, IrFun, IrProgram};
use rsc_syntax::ast::{BinOpE, UnOp};
use rsc_syntax::{Mutability, Span};

use crate::diag::Diagnostic;
use crate::rtype::{Base, Prim, RType};
use crate::table::ClassTable;

/// Checker options (used by the evaluation's ablation benchmarks).
#[derive(Clone, Copy, Debug)]
pub struct CheckerOptions {
    /// Add branch conditions to environments (§2.1.1 "path sensitivity").
    pub path_sensitivity: bool,
    /// Use the built-in qualifier prelude.
    pub prelude_qualifiers: bool,
    /// Mine additional qualifiers from the program's own annotations.
    pub mine_qualifiers: bool,
    /// Worker threads for the parallel solve step. `0` means auto: the
    /// `RSC_JOBS` environment variable if set, otherwise the machine's
    /// available parallelism (capped at 8). Diagnostics are byte-identical
    /// for every value — see `rsc_liquid::partition` and the VC cache.
    pub jobs: usize,
    /// Share a canonicalizing VC cache across narrowing checks and all
    /// bundle solvers (the `no_vc_cache` ablation turns this off).
    pub vc_cache: bool,
    /// Maximum canonical-VC entries retained by the cache; `0` means
    /// unbounded. Bounding matters for long-lived sessions — see
    /// `rsc_smt::VcCache`'s generation-count LRU eviction.
    pub cache_capacity: usize,
    /// Keep one persistent SMT context (`rsc_smt::IncrContext`) with a
    /// model pool per κ-headed constraint during the fixpoint, so
    /// weakening iterations re-solve deltas under activation literals
    /// instead of re-encoding from scratch. Off, every candidate query
    /// runs on a one-shot context with no pool — the same DPLL(T) loop,
    /// only the context's lifetime differs. Verdict- and
    /// diagnostic-preserving; off is the ablation/reference path
    /// (`--no-incremental-smt`).
    pub incremental_smt: bool,
    /// Run the abstract-interpretation pre-pass (`rsc_absint`) before
    /// each SMT validity query, statically discharging obligations whose
    /// goal is entailed by the interval/nullness facts. The pre-pass may
    /// only *discharge*, never report: every skipped query is re-derivable
    /// by the solver, so diagnostics are byte-identical with it off
    /// (`--no-absint` is the ablation path).
    pub absint: bool,
    /// Run the dataflow lint pass (`L0001`–`L0004`) and surface findings
    /// as warning diagnostics in [`CheckResult::lints`]. Lints never
    /// affect the error stream or the check verdict.
    pub lints: bool,
}

impl Default for CheckerOptions {
    fn default() -> Self {
        CheckerOptions {
            path_sensitivity: true,
            prelude_qualifiers: true,
            mine_qualifiers: true,
            jobs: 0,
            vc_cache: true,
            cache_capacity: 0,
            incremental_smt: true,
            absint: true,
            lints: true,
        }
    }
}

impl CheckerOptions {
    /// Resolves `jobs` to a concrete worker count (`RSC_DEBUG` forces 1
    /// so the fixpoint trace stays readable).
    pub fn effective_jobs(&self) -> usize {
        if std::env::var("RSC_DEBUG").is_ok() {
            return 1;
        }
        if self.jobs > 0 {
            return self.jobs;
        }
        if let Ok(v) = std::env::var("RSC_JOBS") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => return n,
                _ => eprintln!(
                    "rsc: ignoring invalid RSC_JOBS={v:?} (expected a positive \
                     integer); using auto worker count"
                ),
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// Statistics from one checker run (reported by the benchmark harness).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckStats {
    /// κ-variables allocated.
    pub kvars: usize,
    /// Subtyping constraints generated.
    pub constraints: usize,
    /// SMT validity queries issued by the fixpoint.
    pub smt_queries: u64,
    /// Independent constraint bundles solved (≥ 1 for non-empty programs).
    pub bundles: usize,
    /// VC-cache hits across the whole run (narrowing + all bundles).
    pub cache_hits: u64,
    /// VC-cache misses across the whole run.
    pub cache_misses: u64,
    /// Bundles whose verdicts were reused from a previous session run
    /// (always 0 for cold, non-session checks).
    pub bundles_reused: usize,
    /// VC-cache entries evicted during this run (non-zero only when a
    /// cache capacity is configured).
    pub cache_evictions: u64,
    /// Obligations discharged statically by the abstract-interpretation
    /// pre-pass instead of being sent to the SMT solver (always 0 when
    /// the pre-pass is disabled). `smt_queries` counts only the queries
    /// actually issued, so `smt_queries + obligations_discharged` is the
    /// pre-pass-off query count.
    pub obligations_discharged: u64,
    /// Liquid queries answered "not valid" by a pooled counterexample
    /// model without a solve (`rsc_smt::ModelPool`). Summed over the
    /// bundle reports, retained ones included, like `smt_queries`.
    pub model_refuted: u64,
}

impl CheckStats {
    /// VC-cache hit rate in `[0, 1]` (0 when the cache saw no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Per-bundle solver report (one entry per [`ConstraintBundle`], in
/// deterministic source order) — the per-unit artifact that incremental
/// check sessions retain between runs.
#[derive(Clone, Debug)]
pub struct BundleReport {
    /// Constraints in the bundle.
    pub constraints: usize,
    /// κ-variables owned by the bundle.
    pub kvars: usize,
    /// Solver counters for exactly this bundle (each bundle's solver
    /// stats are taken fresh, not accumulated across bundles). For a
    /// `cached` bundle these are the counters recorded when the bundle
    /// was last actually solved, so session totals stay meaningful.
    pub smt: SolverStats,
    /// The bundle's canonical cross-run identity
    /// ([`rsc_liquid::bundle_fingerprint`]).
    pub fingerprint: u128,
    /// True when the verdict was reused from a previous session run
    /// instead of re-solved.
    pub cached: bool,
    /// The bundle's failing constraints: local index (into the bundle's
    /// own constraint list) plus the structured blame. For a `cached`
    /// bundle the blame is re-attached from the *current* run's
    /// constraints, so spans stay fresh even when nothing re-solves.
    pub failures: Vec<(usize, Blame)>,
    /// Liquid-level validity queries the bundle's fixpoint issued when
    /// it was (last) solved — a pure function of the bundle's canonical
    /// problem, so it is also correct for `cached` bundles.
    pub smt_queries: u64,
    /// Obligations the abstract-interpretation pre-pass discharged
    /// without an SMT query when the bundle was (last) solved. Like
    /// `smt_queries`, a pure function of the canonical bundle problem
    /// (and the pre-pass setting), so it is retained for `cached`
    /// bundles.
    pub discharged: u64,
    /// Wall-clock nanoseconds spent solving this bundle when it was
    /// (last) actually solved (retained, like the counters, for `cached`
    /// bundles). Measurement only: timing never influences verdicts,
    /// and reports are merged by bundle index, never by completion time.
    pub solve_ns: u64,
}

impl BundleReport {
    /// The retained verdict a session stores for this bundle. Only the
    /// failing *indices* are retained, not their blame: provenance is
    /// excluded from bundle fingerprints, so a fingerprint-equal bundle
    /// in a later run may sit at different source positions — its blame
    /// must come from that run's constraints, never from retention.
    pub fn retained(&self) -> RetainedBundle {
        RetainedBundle {
            failures: self.failures.iter().map(|(i, _)| *i).collect(),
            smt: self.smt,
            smt_queries: self.smt_queries,
            discharged: self.discharged,
            solve_ns: self.solve_ns,
        }
    }
}

/// A previous run's verdict for a bundle, keyed by its fingerprint.
/// Because verdicts are pure functions of the canonical bundle problem
/// (see `rsc_liquid::fingerprint`), replaying a retained verdict for a
/// fingerprint-equal bundle is byte-identical to re-solving it.
#[derive(Clone, Debug)]
pub struct RetainedBundle {
    /// Failing constraints, as bundle-local indices. Blame is
    /// re-attached from the current run's constraints at merge time.
    pub failures: Vec<usize>,
    /// Solver counters from when the bundle was last solved.
    pub smt: SolverStats,
    /// Liquid-level validity queries from when it was last solved.
    pub smt_queries: u64,
    /// Pre-pass-discharged obligations from when it was last solved.
    pub discharged: u64,
    /// Wall-clock solve time from when it was last solved.
    pub solve_ns: u64,
}

/// The result of checking a program.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Verification errors (empty = the program is safe).
    pub diagnostics: Vec<Diagnostic>,
    /// Lint warnings from the dataflow lint pass (`L0001`–`L0004`),
    /// kept separate from `diagnostics` so the error stream — and with
    /// it every golden fixture and byte-identity invariant — is
    /// unaffected by whether linting is enabled. Warnings never make
    /// [`CheckResult::ok`] false.
    pub lints: Vec<Diagnostic>,
    /// Statistics.
    pub stats: CheckStats,
    /// Per-bundle solver statistics (empty when checking aborted before
    /// the solve step, e.g. on parse errors).
    pub bundle_reports: Vec<BundleReport>,
}

impl CheckResult {
    /// True if verification succeeded.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// One binding `x : T` of a typing environment, shared by the
/// environment and its clones (branches, loop bodies, deferred
/// closures). It carries its constraint-environment form, embedded on
/// first use, so every constraint generated under the binding shares
/// one [`CBind`].
#[derive(Debug)]
pub(crate) struct Binding {
    pub(crate) name: Sym,
    pub(crate) ty: RType,
    embedded: OnceCell<Arc<CBind>>,
}

/// A typing environment Γ: SSA bindings, guard predicates, rigid type
/// variables, the expected return type, and the cooking state.
#[derive(Clone, Debug)]
pub struct Env {
    pub(crate) binds: Vec<Rc<Binding>>,
    pub(crate) guards: Vec<Pred>,
    pub(crate) tparams: HashSet<Sym>,
    pub(crate) ret: RType,
    /// Where the expected return type was declared (the enclosing
    /// function's span), used as the secondary blame range on return
    /// obligations.
    pub(crate) ret_span: Span,
    /// `Some(C)` while checking the constructor of `C` (§4.4 internal
    /// initialization: field writes are deferred to `ctor_init` at exits).
    pub(crate) in_ctor_of: Option<Sym>,
}

impl Env {
    pub(crate) fn new() -> Env {
        Env {
            binds: Vec::new(),
            guards: Vec::new(),
            tparams: HashSet::new(),
            ret: RType::void(),
            ret_span: Span::dummy(),
            in_ctor_of: None,
        }
    }

    pub(crate) fn bind(&mut self, x: impl Into<Sym>, t: RType) {
        self.binds.push(Rc::new(Binding {
            name: x.into(),
            ty: t,
            embedded: OnceCell::new(),
        }));
    }

    pub(crate) fn lookup(&self, x: &Sym) -> Option<&RType> {
        self.binds
            .iter()
            .rev()
            .find(|b| b.name == *x)
            .map(|b| &b.ty)
    }

    /// The variables in scope with their sorts (a κ-variable's scope).
    pub(crate) fn scope(&self) -> Vec<(Sym, Sort)> {
        self.binds
            .iter()
            .map(|b| (b.name.clone(), b.ty.sort()))
            .collect()
    }

    pub(crate) fn guard(&mut self, p: Pred) {
        if !matches!(p, Pred::True) {
            self.guards.push(p);
        }
    }
}

/// The checker.
pub struct Checker {
    pub(crate) ct: ClassTable,
    pub(crate) cs: ConstraintSet,
    pub(crate) opts: CheckerOptions,
    pub(crate) diags: Vec<Diagnostic>,
    /// Unannotated nested functions, checked against expected arrow types
    /// at their use sites (context-sensitive closure checking, §2.2.1).
    pub(crate) deferred: HashMap<Sym, (IrFun, Env)>,
    /// Top-level functions by name.
    pub(crate) funs: HashMap<Sym, IrFun>,
    /// Ambient `declare`d values.
    pub(crate) declares: HashMap<Sym, RType>,
    /// Constructor scans: class → (immutable field → ctor param index).
    pub(crate) ctor_param_fields: HashMap<Sym, Vec<(Sym, usize)>>,
    /// Inference placeholders (array element types).
    pub(crate) infer: HashMap<u32, RType>,
    pub(crate) next_infer: u32,
    pub(crate) next_tmp: u32,
    /// The generating unit (function / class member / top level) of each
    /// constraint, parallel to `cs.subs` — the partition key for the
    /// parallel solve step.
    pub(crate) units: Vec<usize>,
    pub(crate) current_unit: usize,
    pub(crate) next_unit: usize,
    /// The run-wide VC cache, shared by narrowing refutation checks and
    /// every bundle solver.
    pub(crate) vc_cache: Arc<VcCache>,
}

/// Checks a program from source, running the full pipeline:
/// parse → SSA → constraint generation → Liquid fixpoint → SMT.
pub fn check_program(src: &str, opts: CheckerOptions) -> CheckResult {
    let mut diags = Vec::new();
    let prog = match rsc_syntax::parse_program(src) {
        Ok(p) => p,
        Err(e) => {
            diags.push(Diagnostic::error(e.message, e.span));
            return CheckResult {
                diagnostics: diags,
                lints: Vec::new(),
                stats: CheckStats::default(),
                bundle_reports: Vec::new(),
            };
        }
    };
    let ir = match rsc_ssa::transform_program(&prog) {
        Ok(i) => i,
        Err(e) => {
            diags.push(Diagnostic::error(e.message, e.span));
            return CheckResult {
                diagnostics: diags,
                lints: Vec::new(),
                stats: CheckStats::default(),
                bundle_reports: Vec::new(),
            };
        }
    };
    check_ir(&ir, opts)
}

/// Checks an already-parsed program: SSA → constraint generation →
/// Liquid fixpoint → SMT. Byte-identical to [`check_program`] on the
/// source the AST was parsed from; the workspace layer uses it to check
/// merged programs whose items were α-renamed in memory (so no source
/// text for the qualified program exists).
pub fn check_program_ast(prog: &rsc_syntax::Program, opts: CheckerOptions) -> CheckResult {
    let ir = match rsc_ssa::transform_program(prog) {
        Ok(i) => i,
        Err(e) => {
            return CheckResult {
                diagnostics: vec![Diagnostic::error(e.message, e.span)],
                lints: Vec::new(),
                stats: CheckStats::default(),
                bundle_reports: Vec::new(),
            };
        }
    };
    check_ir(&ir, opts)
}

/// Checks an already-SSA-translated program.
pub fn check_ir(ir: &IrProgram, opts: CheckerOptions) -> CheckResult {
    let cache = VcCache::shared_with_capacity(opts.cache_capacity);
    solve_artifacts(generate_artifacts(ir, opts, cache), &mut |_| None)
}

/// The generation half of the pipeline: class table, constraint
/// generation, and partitioning into per-function bundles — everything
/// up to (but not including) the solve step. Incremental check sessions
/// call this on every edit (generation is cheap and, with `cache`
/// persisting across runs, mostly VC-cache hits), then hand the
/// artifacts to [`solve_artifacts`] with a retention hook so only
/// changed bundles are re-solved.
pub fn generate_artifacts(
    ir: &IrProgram,
    opts: CheckerOptions,
    cache: Arc<VcCache>,
) -> CheckArtifacts {
    let cache_before = cache.counters();
    let ct = {
        let _sp = rsc_obs::span!("class-table");
        match ClassTable::build(&ir.aliases, &ir.enums, &ir.interfaces, &classes_of(ir)) {
            Ok(t) => t,
            Err(e) => {
                let diags = vec![Diagnostic::error(e.0, Span::dummy())];
                return CheckArtifacts::empty(diags, opts, cache, cache_before);
            }
        }
    };
    let mut cs = ConstraintSet::new();
    if !opts.prelude_qualifiers {
        Arc::make_mut(&mut cs.quals).clear();
    }
    ct.register_sorts(Arc::make_mut(&mut cs.sort_env));
    let mut art = Checker::new(ct, cs, opts, cache).generate(ir, cache_before);
    if opts.lints {
        let _sp = rsc_obs::span!("absint");
        art.lints = rsc_absint::lint_program(ir)
            .into_iter()
            .map(|l| Diagnostic::warning(l.code, l.message, l.span))
            .collect();
    }
    art
}

/// The generation phase's output: partitioned bundles plus everything
/// the solve step needs to produce a [`CheckResult`]. See
/// [`generate_artifacts`] / [`solve_artifacts`].
pub struct CheckArtifacts {
    /// Per-function constraint bundles, in source order. Each
    /// constraint carries its own [`Blame`] (span, obligation kind,
    /// refinement renderings) — there is no side table of spans.
    pub bundles: Vec<ConstraintBundle>,
    /// Diagnostics produced during generation (parse-independent resolve
    /// errors etc.), merged ahead of solve failures.
    pub gen_diags: Vec<Diagnostic>,
    /// Lint warnings from the dataflow pass over the IR (empty when
    /// `opts.lints` is off). Computed during generation — lints depend
    /// only on the IR, never on solver verdicts — and passed through to
    /// [`CheckResult::lints`] untouched by the solve step.
    pub lints: Vec<Diagnostic>,
    /// κ-variables allocated across the whole set.
    pub kvars: usize,
    /// Constraints generated across the whole set.
    pub constraints: usize,
    /// Fingerprint of the run-global solve inputs
    /// ([`rsc_liquid::global_fingerprint`]).
    pub global_fp: u64,
    /// The VC cache used during generation, shared into the solve step
    /// (and, for sessions, across runs).
    pub vc_cache: Arc<VcCache>,
    /// Cache counters when this run started — [`CheckStats`] reports the
    /// delta, so a session-shared cache still yields per-run numbers.
    pub cache_before: CacheCounters,
    /// The options generation ran under.
    pub opts: CheckerOptions,
}

impl CheckArtifacts {
    fn empty(
        gen_diags: Vec<Diagnostic>,
        opts: CheckerOptions,
        vc_cache: Arc<VcCache>,
        cache_before: CacheCounters,
    ) -> CheckArtifacts {
        CheckArtifacts {
            bundles: Vec::new(),
            gen_diags,
            lints: Vec::new(),
            kvars: 0,
            constraints: 0,
            global_fp: 0,
            vc_cache,
            cache_before,
            opts,
        }
    }
}

/// The solve half of the pipeline: fingerprints every bundle, asks
/// `reuse` whether a previous run's verdict can stand in, solves the
/// rest on a scoped work-stealing pool, and merges verdicts into a
/// [`CheckResult`] in deterministic source order.
///
/// Passing `&mut |_| None` for `reuse` is a cold check — exactly the
/// behavior of [`check_ir`]. Incremental sessions pass a lookup into the
/// previous run's fingerprint-keyed [`RetainedBundle`]s; because every
/// verdict is a pure function of the canonical bundle problem (and, with
/// a cache attached, of canonical VC fingerprints), the merged output is
/// byte-identical to the cold check either way.
pub fn solve_artifacts(
    art: CheckArtifacts,
    reuse: &mut dyn FnMut(u128) -> Option<RetainedBundle>,
) -> CheckResult {
    let _sp_solve = rsc_obs::span!("solve");
    let CheckArtifacts {
        bundles,
        gen_diags: mut diags,
        lints,
        kvars: total_kvars,
        constraints: total_constraints,
        global_fp,
        vc_cache,
        cache_before,
        opts,
    } = art;

    let fingerprints: Vec<u128> = bundles
        .iter()
        .map(|b| bundle_fingerprint(b, global_fp))
        .collect();
    let retained: Vec<Option<RetainedBundle>> = fingerprints.iter().map(|fp| reuse(*fp)).collect();

    // Solve the non-retained bundles on the pool, one solver per bundle,
    // all sharing the run-wide VC cache. With a cache attached each
    // validity verdict is a pure function of the canonical VC, so
    // scheduling cannot change any answer and the merged output is
    // byte-identical for every worker count.
    let jobs = opts.effective_jobs();
    let cache = &vc_cache;
    let use_cache = opts.vc_cache;
    let solve_opts = rsc_liquid::SolveOptions {
        incremental: opts.incremental_smt,
        absint: opts.absint,
    };
    let to_solve: Vec<usize> = (0..bundles.len())
        .filter(|i| retained[*i].is_none())
        .collect();
    // Each worker closure returns its *bundle index* alongside the
    // outcome, and placement below keys on that index — never on the
    // position a result came back in. The pool documents input-order
    // results, but per-bundle stats (and timings) must merge in
    // bundle-index order even if that contract ever changes, so the
    // ordering is structural here rather than inherited.
    type Outcome = (LiquidResult, SolverStats, u64);
    let outcomes: Vec<(usize, Outcome)> = threadpool::Pool::new(jobs).run(
        to_solve
            .iter()
            .map(|&i| {
                let b = &bundles[i];
                move || {
                    let _sp = rsc_obs::span!("solve-bundle", unit = i);
                    let started = std::time::Instant::now();
                    let mut smt = if use_cache {
                        rsc_smt::Solver::with_cache(Arc::clone(cache))
                    } else {
                        rsc_smt::Solver::new()
                    };
                    let result = solve_with(&b.cs, &mut smt, solve_opts);
                    let solve_ns = started.elapsed().as_nanos() as u64;
                    // Per-bundle counters: take (and thereby reset)
                    // rather than reading cumulative totals.
                    (i, (result, smt.stats.take(), solve_ns))
                }
            })
            .collect(),
    );
    let mut solved: Vec<Option<Outcome>> = bundles.iter().map(|_| None).collect();
    for (i, outcome) in outcomes {
        debug_assert!(solved[i].is_none(), "bundle {i} solved twice");
        solved[i] = Some(outcome);
    }

    // Merge deterministically: failures are reported in the source
    // order of their constraints, exactly as the sequential solver
    // did before partitioning.
    if std::env::var("RSC_DEBUG").is_ok() {
        for (b, outcome) in bundles.iter().zip(&solved) {
            if let Some((result, _, _)) = outcome {
                debug_dump(b, result);
            }
        }
    }
    let mut failures: Vec<(usize, Blame)> = Vec::new();
    let mut smt_queries = 0u64;
    let mut discharged = 0u64;
    let mut model_refuted = 0u64;
    let mut bundles_reused = 0usize;
    let mut bundle_reports = Vec::with_capacity(bundles.len());
    for (i, b) in bundles.iter().enumerate() {
        let report = match (&retained[i], &solved[i]) {
            (Some(r), _) => {
                bundles_reused += 1;
                // Provenance is excluded from fingerprints, so the
                // retained verdict only names failing *indices*; blame
                // (spans, renderings) is re-attached from this run's
                // constraints — that is what keeps line numbers fresh
                // across whitespace-only edits that re-solve nothing.
                let failures = r
                    .failures
                    .iter()
                    .filter_map(|&local| {
                        b.cs.subs
                            .get(local)
                            .map(|c| (local, c.blame_with_renderings()))
                    })
                    .collect();
                BundleReport {
                    constraints: b.cs.subs.len(),
                    kvars: b.cs.num_kvars(),
                    smt: r.smt,
                    fingerprint: fingerprints[i],
                    cached: true,
                    failures,
                    smt_queries: r.smt_queries,
                    discharged: r.discharged,
                    solve_ns: r.solve_ns,
                }
            }
            (None, Some((result, smt, solve_ns))) => BundleReport {
                constraints: b.cs.subs.len(),
                kvars: b.cs.num_kvars(),
                smt: *smt,
                fingerprint: fingerprints[i],
                cached: false,
                failures: result.failures.clone(),
                smt_queries: result.smt_queries,
                discharged: result.discharged,
                solve_ns: *solve_ns,
            },
            (None, None) => unreachable!("bundle neither retained nor solved"),
        };
        smt_queries += report.smt_queries;
        discharged += report.discharged;
        model_refuted += report.smt.model_refuted;
        for (local, blame) in &report.failures {
            failures.push((b.members[*local], blame.clone()));
        }
        bundle_reports.push(report);
    }
    failures.sort_by_key(|f| f.0);
    for (_, blame) in failures {
        diags.push(Diagnostic::from_blame(&blame));
    }
    let counters = vc_cache.counters();
    let stats = CheckStats {
        kvars: total_kvars,
        constraints: total_constraints,
        smt_queries,
        bundles: bundles.len(),
        cache_hits: counters.hits - cache_before.hits,
        cache_misses: counters.misses - cache_before.misses,
        bundles_reused,
        cache_evictions: counters.evictions - cache_before.evictions,
        obligations_discharged: discharged,
        model_refuted,
    };
    CheckResult {
        diagnostics: diags,
        lints,
        stats,
        bundle_reports,
    }
}

/// `"detail"` → `"detail: "` (empty stays empty), for composing nested
/// blame detail text.
fn prefix(detail: &str) -> String {
    if detail.is_empty() {
        String::new()
    } else {
        format!("{detail}: ")
    }
}

fn classes_of(ir: &IrProgram) -> Vec<rsc_syntax::ast::ClassDecl> {
    ir.classes.iter().map(|c| c.decl.clone()).collect()
}

impl Checker {
    // ------------------------------------------------------------ driver ---

    /// A checker over a class table and a constraint set with no
    /// constraints yet.
    fn new(ct: ClassTable, cs: ConstraintSet, opts: CheckerOptions, cache: Arc<VcCache>) -> Self {
        Checker {
            ct,
            cs,
            opts,
            diags: Vec::new(),
            deferred: HashMap::new(),
            funs: HashMap::new(),
            declares: HashMap::new(),
            ctor_param_fields: HashMap::new(),
            infer: HashMap::new(),
            next_infer: 0,
            next_tmp: 0,
            units: Vec::new(),
            current_unit: 0,
            next_unit: 1,
            vc_cache: cache,
        }
    }

    fn generate(mut self, ir: &IrProgram, cache_before: CacheCounters) -> CheckArtifacts {
        let gen_span = rsc_obs::span!("constraint-gen");
        // Ambient declarations.
        for d in &ir.declares {
            match self.ct.resolve(&d.ty) {
                Ok(t) => {
                    self.declares.insert(d.name.clone(), t);
                }
                Err(e) => self.diags.push(Diagnostic::error(e.0, d.span)),
            }
        }
        // User qualifiers.
        for q in &ir.quals {
            self.add_user_qualifier(q);
        }
        // Top-level functions.
        for f in &ir.funs {
            self.funs.insert(f.name.clone(), f.clone());
        }
        // Constructor scans (which immutable fields get which ctor param).
        for c in &ir.classes {
            let map = scan_ctor_params(c);
            self.ctor_param_fields.insert(c.decl.name.clone(), map);
        }
        if self.opts.mine_qualifiers {
            self.mine_qualifiers(ir);
        }

        // Check everything. Unannotated top-level functions are deferred:
        // they are checked at the call sites that receive them — their
        // constraints land in the calling unit. Every annotated function,
        // class member, and the top level opens its own unit; the
        // partitioner below merges units that share a κ-variable.
        for f in &ir.funs {
            if f.sigs.is_empty() {
                self.deferred
                    .insert(f.name.clone(), (f.clone(), Env::new()));
            } else {
                self.begin_unit();
                self.check_fun(f, &Env::new());
            }
        }
        for c in &ir.classes {
            self.check_class(c);
        }
        self.begin_unit();
        let mut env = Env::new();
        env.ret = RType::trivial(Base::Union(vec![])); // top-level return: anything
        self.check_body(&ir.top, &mut env);

        drop(gen_span);

        // Partition: one closed constraint problem per function-level unit.
        let _sp = rsc_obs::span!("partition");
        let total_kvars = self.cs.num_kvars();
        let total_constraints = self.cs.subs.len();
        let units = std::mem::take(&mut self.units);
        let cs = std::mem::replace(&mut self.cs, ConstraintSet::new());
        let global_fp = global_fingerprint(&cs.quals, &cs.sort_env);
        let bundles = partition(cs, &units);

        CheckArtifacts {
            bundles,
            gen_diags: self.diags,
            lints: Vec::new(),
            kvars: total_kvars,
            constraints: total_constraints,
            global_fp,
            vc_cache: self.vc_cache,
            cache_before,
            opts: self.opts,
        }
    }

    /// Opens a fresh constraint-generation unit; constraints pushed until
    /// the next call are partitioned (and solved) together. The temporary
    /// counter restarts per unit (temps are named `$u<unit>t<n>`), so an
    /// edit that adds or removes temps in one function cannot shift the
    /// names — and hence the bundle fingerprints — of any other unit.
    pub(crate) fn begin_unit(&mut self) {
        self.current_unit = self.next_unit;
        self.next_unit += 1;
        self.next_tmp = 0;
    }

    fn add_user_qualifier(&mut self, q: &rsc_syntax::ast::QualifDecl) {
        let mut params = Vec::new();
        let mut vv_sort = Sort::Int;
        for (i, (x, t)) in q.params.iter().enumerate() {
            let sort = match t {
                rsc_syntax::AnnTy::Name(n, _) => match n.as_str() {
                    "number" => Sort::Int,
                    "boolean" => Sort::Bool,
                    "string" => Sort::Str,
                    "ref" => Sort::Ref,
                    n if self.ct.enums.contains_key(n) => Sort::Bv32,
                    _ => Sort::Ref,
                },
                _ => Sort::Ref,
            };
            if i == 0 {
                vv_sort = sort;
            } else {
                params.push((x.clone(), sort));
            }
        }
        // Rename the first parameter to v.
        let body = if let Some((x0, _)) = q.params.first() {
            Subst::one(x0.clone(), Term::vv()).apply_pred(&self.resolve_pred(&q.body))
        } else {
            self.resolve_pred(&q.body)
        };
        Arc::make_mut(&mut self.cs.quals).push(rsc_logic::Qualifier::new(
            q.name.to_string(),
            vv_sort,
            params,
            body,
        ));
    }

    /// Rewrites enum member references (`Flags.Object`) into bit-vector
    /// literals inside a predicate.
    pub(crate) fn resolve_pred(&self, p: &Pred) -> Pred {
        fn go_term(ct: &ClassTable, t: &Term) -> Term {
            match t {
                Term::Field(b, f) => {
                    if let Term::Var(e) = b.as_ref() {
                        if let Some(members) = ct.enums.get(e) {
                            if let Some(v) = members.get(f) {
                                return Term::bv(*v);
                            }
                        }
                    }
                    Term::field(go_term(ct, b), f.clone())
                }
                Term::App(f, args) => {
                    Term::app(f.clone(), args.iter().map(|a| go_term(ct, a)).collect())
                }
                Term::Bin(op, a, b) => Term::bin(*op, go_term(ct, a), go_term(ct, b)),
                Term::Neg(a) => Term::neg(go_term(ct, a)),
                other => other.clone(),
            }
        }
        fn go(ct: &ClassTable, p: &Pred) -> Pred {
            match p {
                Pred::And(ps) => Pred::and(ps.iter().map(|q| go(ct, q)).collect()),
                Pred::Or(ps) => Pred::or(ps.iter().map(|q| go(ct, q)).collect()),
                Pred::Not(q) => Pred::not(go(ct, q)),
                Pred::Imp(a, b) => Pred::imp(go(ct, a), go(ct, b)),
                Pred::Iff(a, b) => Pred::iff(go(ct, a), go(ct, b)),
                Pred::Cmp(op, a, b) => Pred::cmp(*op, go_term(ct, a), go_term(ct, b)),
                Pred::App(f, args) => {
                    Pred::App(f.clone(), args.iter().map(|a| go_term(ct, a)).collect())
                }
                Pred::TermPred(t) => Pred::TermPred(go_term(ct, t)),
                other => other.clone(),
            }
        }
        go(&self.ct, p)
    }

    /// Mines qualifiers from the atoms of resolved signature refinements.
    fn mine_qualifiers(&mut self, ir: &IrProgram) {
        let mut mined: Vec<rsc_logic::Qualifier> = Vec::new();
        let mut tys: Vec<(RType, Vec<(Sym, Sort)>)> = Vec::new();
        let harvest_fun = |ct: &ClassTable, ft: &rsc_syntax::FunTy, out: &mut Vec<_>| {
            let tp: HashSet<Sym> = ft.tparams.iter().cloned().collect();
            if let Ok(rf) = ct.resolve_funty(ft, &tp) {
                let mut scope: Vec<(Sym, Sort)> = vec![(Sym::from("this"), Sort::Ref)];
                for (x, t) in &rf.params {
                    scope.push((x.clone(), t.sort()));
                }
                for (_, t) in &rf.params {
                    out.push((t.clone(), scope.clone()));
                }
                out.push((rf.ret.clone(), scope));
            }
        };
        for f in &ir.funs {
            for sig in &f.sigs {
                harvest_fun(&self.ct, sig, &mut tys);
            }
        }
        for c in &ir.classes {
            for m in &c.decl.methods {
                harvest_fun(&self.ct, &m.sig, &mut tys);
            }
            for fd in &c.decl.fields {
                if let Ok(t) = self.ct.resolve(&fd.ty) {
                    tys.push((t, vec![(Sym::from("this"), Sort::Ref)]));
                }
            }
        }
        let mut seen: HashSet<String> = HashSet::new();
        for (t, scope) in tys {
            let pred = self.resolve_pred(&t.pred);
            for atom in pred.conjuncts() {
                if !atom.free_vars().contains("v") {
                    continue;
                }
                // Generalize free variables to wildcard parameters.
                let mut params: Vec<(Sym, Sort)> = Vec::new();
                let mut subst = Subst::new();
                let mut ok = true;
                for fv in atom.free_vars() {
                    if fv == "v" {
                        continue;
                    }
                    let sort = if fv == "this" {
                        Some(Sort::Ref)
                    } else {
                        scope.iter().find(|(x, _)| *x == fv).map(|(_, s)| *s)
                    };
                    match sort {
                        Some(s) => {
                            let p = Sym::from(format!("★{}", params.len()));
                            params.push((p.clone(), s));
                            subst.push(fv.clone(), Term::var(p));
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let body = subst.apply_pred(&atom);
                let key = format!("{}|{:?}", body, t.sort());
                if seen.insert(key) {
                    mined.push(rsc_logic::Qualifier::new(
                        format!("Mined{}", mined.len()),
                        t.sort(),
                        params,
                        body,
                    ));
                }
            }
        }
        mined.truncate(48);
        Arc::make_mut(&mut self.cs.quals).extend(mined);
    }

    // ------------------------------------------------------- environment ---

    pub(crate) fn fresh_tmp(&mut self) -> Sym {
        self.next_tmp += 1;
        Sym::from(format!("$u{}t{}", self.current_unit, self.next_tmp))
    }

    /// The implicit predicate carried by a type's structure: reflection
    /// tags (§4.2), interface-inclusion facts (§4.3), null/undefined
    /// identities — conjoined with the explicit refinement.
    pub(crate) fn embed_pred(&self, t: &RType) -> Pred {
        let tag = self.tag_pred(&t.base);
        Pred::and(vec![tag, t.pred.clone()])
    }

    pub(crate) fn tag_pred(&self, b: &Base) -> Pred {
        let tt = |s: &str| Pred::eq(Term::ttag_of(Term::vv()), Term::str(s));
        match b {
            Base::Prim(Prim::Num) => tt("number"),
            Base::Prim(Prim::Bool) => tt("boolean"),
            Base::Prim(Prim::Str) => tt("string"),
            Base::Prim(Prim::Void) => Pred::True,
            Base::Prim(Prim::Undef) => Pred::and(vec![
                tt("undefined"),
                Pred::eq(Term::vv(), Term::app("undefv", vec![])),
            ]),
            Base::Prim(Prim::Null) => Pred::eq(Term::vv(), Term::app("nullv", vec![])),
            Base::Bv(_) => Pred::True,
            Base::Arr(..) => tt("object"),
            Base::Obj(c, _, _) => Pred::and(vec![tt("object"), self.ct.inv_pred(c, &Term::vv())]),
            Base::Fun(_) => tt("function"),
            Base::TVar(_) | Base::Infer(_) => Pred::True,
            Base::Union(parts) => Pred::or(
                parts
                    .iter()
                    .map(|p| Pred::and(vec![self.tag_pred(&p.base), p.pred.clone()]))
                    .collect(),
            ),
        }
    }

    /// The constraint environment of `env`. Each binding is embedded
    /// once, on its first use, and shared by every later constraint.
    pub(crate) fn to_cenv(&self, env: &Env) -> CEnv {
        let binds = env.binds.iter().map(|b| {
            let embedded = b.embedded.get_or_init(|| {
                Arc::new(CBind {
                    name: b.name.clone(),
                    sort: b.ty.sort(),
                    pred: self.embed_pred(&b.ty),
                })
            });
            Arc::clone(embedded)
        });
        CEnv {
            binds: binds.collect(),
            guards: env.guards.clone(),
        }
    }

    // -------------------------------------------------------- constraints ---

    pub(crate) fn push_sub_pred(
        &mut self,
        env: &Env,
        lhs: Pred,
        rhs: Pred,
        vv_sort: Sort,
        blame: &Blame,
    ) {
        if matches!(rhs, Pred::True) {
            return;
        }
        let cenv = self.to_cenv(env);
        let before = self.cs.subs.len();
        self.cs.push_sub(cenv, lhs, rhs, vv_sort, blame);
        for _ in before..self.cs.subs.len() {
            self.units.push(self.current_unit);
        }
    }

    /// Reports a base-type mismatch as a dead-code obligation: valid only
    /// if the environment is inconsistent — exactly the two-phase typing
    /// treatment of overload conjuncts (§2.1.2).
    pub(crate) fn base_error(&mut self, env: &Env, span: Span, msg: String) {
        let blame = Blame::new(ObligationKind::BaseType, msg, span);
        self.push_sub_pred(env, Pred::True, Pred::False, Sort::Int, &blame);
    }

    /// [`Checker::base_error`] under an inherited obligation kind: a
    /// structural mismatch discovered while discharging `blame` keeps
    /// that blame's kind/code (a bad call argument stays `R0001` even
    /// when it fails structurally) with the mismatch appended to the
    /// detail.
    pub(crate) fn base_error_blamed(&mut self, env: &Env, blame: &Blame, mismatch: String) {
        let mut blame = blame.clone();
        blame.detail = format!("{}{mismatch}", prefix(&blame.detail));
        self.push_sub_pred(env, Pred::True, Pred::False, Sort::Int, &blame);
    }

    /// Immediate (kvar-free, pessimistic) refutation check used for union
    /// narrowing decisions.
    pub(crate) fn refuted(&self, env: &Env, extra: &[Pred]) -> bool {
        let cenv = self.to_cenv(env);
        // Binder overlay over the shared sort environment — refutation
        // checks run once per union part per overload arm, so cloning
        // the environment here used to dominate the narrowing profile.
        let mut binders = cenv.scope();
        binders.push((Sym::from("v"), Sort::Ref));
        let sorts = SortScope::new(&*self.cs.sort_env, &binders);
        let mut hyps: Vec<Pred> = Vec::new();
        for h in cenv.embed() {
            hyps.extend(drop_kvars(h).conjuncts());
        }
        for e in extra {
            hyps.extend(drop_kvars(e.clone()).conjuncts());
        }
        hyps.retain(|p| sorts.check_pred(p).is_ok());
        let mut seeds: std::collections::BTreeSet<Sym> = std::collections::BTreeSet::new();
        seeds.insert(Sym::from("v"));
        for e in extra {
            seeds.extend(e.free_vars());
        }
        let hyps = rsc_liquid::filter_relevant(hyps, seeds);
        // Narrowing refutations run during (single-threaded) generation
        // but share the run-wide VC cache: overload arms and union parts
        // re-refute near-identical environments constantly.
        let mut smt = if self.opts.vc_cache {
            rsc_smt::Solver::with_cache(Arc::clone(&self.vc_cache))
        } else {
            rsc_smt::Solver::new()
        };
        smt.is_valid(&sorts, &hyps, &Pred::False)
    }

    // ----------------------------------------------------------- subtyping ---

    pub(crate) fn resolve_infer(&self, t: &RType) -> RType {
        if let Base::Infer(u) = t.base {
            if let Some(b) = self.infer.get(&u) {
                return b.clone().strengthen(t.pred.clone());
            }
        }
        t.clone()
    }

    /// `Γ ⊢ T1 ⊑ T2` — generates constraints; base mismatches become
    /// dead-code obligations. `blame` names the obligation being
    /// discharged (kind, detail, span) and is attached, with the
    /// refinement renderings of each split constraint, to everything
    /// pushed here.
    pub(crate) fn sub(&mut self, env: &Env, t1: &RType, t2: &RType, blame: &Blame) {
        let t1 = self.resolve_infer(t1);
        let t2 = self.resolve_infer(t2);
        // Inference placeholders: bind to the other side's structure. A
        // placeholder against itself (`[[]]`: both element types are the
        // inner literal's) has nothing to bind — binding it to itself
        // would recurse forever — and is compared like a type variable.
        let same_placeholder =
            matches!((&t1.base, &t2.base), (Base::Infer(a), Base::Infer(b)) if a == b);
        if let (Base::Infer(u), false) = (&t2.base, same_placeholder) {
            self.infer.insert(*u, RType::trivial(t1.base.clone()));
            return self.sub(env, &t1, &self.resolve_infer(&t2), blame);
        }
        if let (Base::Infer(u), false) = (&t1.base, same_placeholder) {
            self.infer.insert(*u, RType::trivial(t2.base.clone()));
            return self.sub(env, &self.resolve_infer(&t1), &t2, blame);
        }
        // Empty unions act as ⊥ on the left (error recovery) and ⊤ on the
        // right (e.g. the top-level "return anything" type).
        if matches!(&t1.base, Base::Union(ps) if ps.is_empty())
            || matches!(&t2.base, Base::Union(ps) if ps.is_empty())
        {
            return;
        }
        let vv_sort = t1.sort();
        let lhs_pred = self.embed_pred(&t1);
        let lhs = move || lhs_pred.clone();
        match (&t1.base, &t2.base) {
            (Base::Prim(p1), Base::Prim(p2)) if p1 == p2 => {
                let l = lhs();
                self.push_sub_pred(env, l, t2.pred.clone(), vv_sort, blame);
            }
            // Anything flows into void (statement position).
            (_, Base::Prim(Prim::Void)) => {}
            (Base::Bv(_), Base::Bv(_)) => {
                let l = lhs();
                self.push_sub_pred(env, l, t2.pred.clone(), Sort::Bv32, blame);
            }
            (Base::TVar(a), Base::TVar(b)) if a == b => {
                let l = lhs();
                self.push_sub_pred(env, l, t2.pred.clone(), vv_sort, blame);
            }
            (Base::Infer(_), Base::Infer(_)) if same_placeholder => {
                let l = lhs();
                self.push_sub_pred(env, l, t2.pred.clone(), vv_sort, blame);
            }
            (Base::Arr(e1, m1), Base::Arr(e2, m2)) => {
                if !m1.satisfies(*m2) {
                    return self.base_error_blamed(
                        env,
                        blame,
                        format!(
                            "array mutability {} does not satisfy {}",
                            m1.abbrev(),
                            m2.abbrev()
                        ),
                    );
                }
                let e1c = (**e1).clone();
                let e2c = (**e2).clone();
                self.sub(env, &e1c, &e2c, blame);
                if matches!(m2, Mutability::Mutable | Mutability::Unique) {
                    self.sub(env, &e2c, &e1c, blame);
                }
                let l = lhs();
                self.push_sub_pred(env, l, t2.pred.clone(), Sort::Ref, blame);
            }
            (Base::Obj(c1, m1, a1), Base::Obj(c2, m2, a2)) => {
                if !self.ct.is_subclass(c1, c2) {
                    return self.base_error_blamed(
                        env,
                        blame,
                        format!("{c1} is not a subtype of {c2}"),
                    );
                }
                if !m1.satisfies(*m2) {
                    return self.base_error_blamed(
                        env,
                        blame,
                        format!(
                            "mutability {} does not satisfy {}",
                            m1.abbrev(),
                            m2.abbrev()
                        ),
                    );
                }
                for (x, y) in a1.clone().iter().zip(a2.clone().iter()) {
                    self.sub(env, x, y, blame);
                    self.sub(env, y, x, blame);
                }
                let l = lhs();
                self.push_sub_pred(env, l, t2.pred.clone(), Sort::Ref, blame);
            }
            (Base::Fun(f1), Base::Fun(f2)) => {
                let (f1, f2) = (f1.clone(), f2.clone());
                if f1.params.len() > f2.params.len() {
                    return self.base_error_blamed(
                        env,
                        blame,
                        format!(
                            "function takes {} parameters, expected at most {}",
                            f1.params.len(),
                            f2.params.len()
                        ),
                    );
                }
                // Rename f1's parameters to f2's names.
                let mut rename = Subst::new();
                for ((x1, _), (x2, _)) in f1.params.iter().zip(f2.params.iter()) {
                    if x1 != x2 {
                        rename.push(x1.clone(), Term::var(x2.clone()));
                    }
                }
                let mut env2 = env.clone();
                for (x2, t2p) in &f2.params {
                    env2.bind(x2.clone(), t2p.clone());
                }
                for ((_, t1p), (_, t2p)) in f1.params.iter().zip(f2.params.iter()) {
                    let t1r = t1p.subst(&rename);
                    self.sub(&env2, t2p, &t1r, blame); // contravariant
                }
                let r1 = f1.ret.subst(&rename);
                self.sub(&env2, &r1, &f2.ret, blame);
            }
            (Base::Union(parts), _) => {
                let parts = parts.clone();
                for part in &parts {
                    let tagged = Pred::and(vec![
                        t1.pred.clone(),
                        self.tag_pred(&part.base),
                        part.pred.clone(),
                    ]);
                    // Find a compatible target.
                    let target: Option<RType> = match &t2.base {
                        Base::Union(t2parts) => t2parts
                            .iter()
                            .find(|q| self.base_compat(&part.base, &q.base))
                            .cloned()
                            .map(|q| q.strengthen(t2.pred.clone())),
                        b2 if self.base_compat(&part.base, b2) => Some(t2.clone()),
                        _ => None,
                    };
                    match target {
                        Some(tgt) => {
                            // Skip parts immediately refutable from the
                            // environment (cheap narrowing).
                            if !self.refuted(env, &[tagged]) {
                                let strong = part.clone().strengthen(t1.pred.clone());
                                self.sub(env, &strong, &tgt, blame);
                            }
                        }
                        None => {
                            // No structural target: the part must be DEAD.
                            // Defer the refutation so κ solutions (e.g.
                            // `ttag(v) = "number"` on a Φ variable) can
                            // participate (§4.2 narrowing). The blame
                            // keeps the enclosing obligation's kind — a
                            // possibly-null field read stays a field-read
                            // failure — with the unrefuted part named in
                            // the detail.
                            let mut b = blame.clone();
                            b.detail = format!(
                                "{}union part {} does not fit {}",
                                prefix(&blame.detail),
                                part.base.describe(),
                                t2.base.describe()
                            );
                            self.push_sub_pred(env, tagged, Pred::False, Sort::Ref, &b);
                        }
                    }
                }
            }
            (_, Base::Union(parts)) => {
                let target = parts
                    .iter()
                    .find(|q| self.base_compat(&t1.base, &q.base))
                    .cloned();
                match target {
                    Some(tgt) => {
                        let tgt = tgt.strengthen(t2.pred.clone());
                        self.sub(env, &t1, &tgt, blame)
                    }
                    None => self.base_error_blamed(
                        env,
                        blame,
                        format!(
                            "{} is not part of union {}",
                            t1.base.describe(),
                            t2.base.describe()
                        ),
                    ),
                }
            }
            (b1, b2) => self.base_error_blamed(
                env,
                blame,
                format!("base type mismatch, {} vs {}", b1.describe(), b2.describe()),
            ),
        }
    }

    pub(crate) fn base_compat(&self, b1: &Base, b2: &Base) -> bool {
        match (b1, b2) {
            (Base::Prim(a), Base::Prim(b)) => a == b,
            (Base::Bv(_), Base::Bv(_)) => true,
            (Base::Arr(..), Base::Arr(..)) => true,
            (Base::Obj(c1, _, _), Base::Obj(c2, _, _)) => self.ct.is_subclass(c1, c2),
            (Base::Fun(_), Base::Fun(_)) => true,
            (Base::TVar(a), Base::TVar(b)) => a == b,
            (Base::Infer(_), _) | (_, Base::Infer(_)) => true,
            _ => false,
        }
    }

    // ----------------------------------------------------------- guards ---

    /// A predicate implied by `e` being truthy (conservatively `true`).
    pub(crate) fn guard_pos(&self, e: &IrExpr, env: &Env) -> Pred {
        match e {
            IrExpr::Bool(b, _) => {
                if *b {
                    Pred::True
                } else {
                    Pred::False
                }
            }
            IrExpr::Unary(UnOp::Not, x, _) => self.guard_neg(x, env),
            IrExpr::Binary(BinOpE::And, a, b, _) => {
                Pred::and(vec![self.guard_pos(a, env), self.guard_pos(b, env)])
            }
            IrExpr::Binary(BinOpE::Or, a, b, _) => {
                Pred::or(vec![self.guard_pos(a, env), self.guard_pos(b, env)])
            }
            IrExpr::Binary(op, a, b, _) => {
                let cmp = match op {
                    BinOpE::Lt => Some(CmpOp::Lt),
                    BinOpE::Le => Some(CmpOp::Le),
                    BinOpE::Gt => Some(CmpOp::Gt),
                    BinOpE::Ge => Some(CmpOp::Ge),
                    BinOpE::Eq => Some(CmpOp::Eq),
                    BinOpE::Ne => Some(CmpOp::Ne),
                    _ => None,
                };
                match (cmp, self.term_of(a, env), self.term_of(b, env)) {
                    (Some(op), Some(ta), Some(tb)) => Pred::cmp(op, ta, tb),
                    _ => match (op, self.term_of(e, env)) {
                        // A bit-vector test like `flags & MASK`.
                        (BinOpE::BitAnd | BinOpE::BitOr, Some(t)) => {
                            Pred::cmp(CmpOp::Ne, t, Term::bv(0))
                        }
                        _ => Pred::True,
                    },
                }
            }
            _ => match self.term_of(e, env) {
                Some(t) => self.truthy_pred(e, t, env),
                None => Pred::True,
            },
        }
    }

    /// A predicate implied by `e` being falsy.
    pub(crate) fn guard_neg(&self, e: &IrExpr, env: &Env) -> Pred {
        match e {
            IrExpr::Bool(b, _) => {
                if *b {
                    Pred::False
                } else {
                    Pred::True
                }
            }
            IrExpr::Unary(UnOp::Not, x, _) => self.guard_pos(x, env),
            IrExpr::Binary(BinOpE::And, a, b, _) => {
                Pred::or(vec![self.guard_neg(a, env), self.guard_neg(b, env)])
            }
            IrExpr::Binary(BinOpE::Or, a, b, _) => {
                Pred::and(vec![self.guard_neg(a, env), self.guard_neg(b, env)])
            }
            IrExpr::Binary(op, a, b, _) => {
                let cmp = match op {
                    BinOpE::Lt => Some(CmpOp::Ge),
                    BinOpE::Le => Some(CmpOp::Gt),
                    BinOpE::Gt => Some(CmpOp::Le),
                    BinOpE::Ge => Some(CmpOp::Lt),
                    BinOpE::Eq => Some(CmpOp::Ne),
                    BinOpE::Ne => Some(CmpOp::Eq),
                    _ => None,
                };
                match (cmp, self.term_of(a, env), self.term_of(b, env)) {
                    (Some(op), Some(ta), Some(tb)) => Pred::cmp(op, ta, tb),
                    _ => match (op, self.term_of(e, env)) {
                        (BinOpE::BitAnd | BinOpE::BitOr, Some(t)) => {
                            Pred::cmp(CmpOp::Eq, t, Term::bv(0))
                        }
                        _ => Pred::True,
                    },
                }
            }
            _ => match self.term_of(e, env) {
                Some(t) => Pred::not(self.truthy_pred(e, t, env)),
                None => Pred::True,
            },
        }
    }

    /// Truthiness of a term, by the sort of the expression's type.
    /// For reference sorts we only use `≠ null ∧ ≠ undefined` (weaker than
    /// JS truthiness, hence sound as a guard hypothesis).
    pub(crate) fn truthy_pred(&self, e: &IrExpr, t: Term, env: &Env) -> Pred {
        let sort = self.quick_type(e, env).map(|ty| ty.sort());
        match sort {
            Some(Sort::Bool) => Pred::TermPred(t),
            Some(Sort::Int) => Pred::cmp(CmpOp::Ne, t, Term::int(0)),
            Some(Sort::Bv32) => Pred::cmp(CmpOp::Ne, t, Term::bv(0)),
            Some(Sort::Ref) => Pred::and(vec![
                Pred::cmp(CmpOp::Ne, t.clone(), Term::app("nullv", vec![])),
                Pred::cmp(CmpOp::Ne, t, Term::app("undefv", vec![])),
            ]),
            _ => Pred::True,
        }
    }

    /// A logic term denoting `e`, when one exists (variables, literals,
    /// immutable field chains, `length`, arithmetic, `typeof`).
    pub(crate) fn term_of(&self, e: &IrExpr, env: &Env) -> Option<Term> {
        match e {
            IrExpr::Num(n, _) => Some(Term::int(*n)),
            IrExpr::Bv(n, _) => Some(Term::bv(*n)),
            IrExpr::Str(s, _) => Some(Term::str(s.clone())),
            IrExpr::Bool(b, _) => Some(Term::bool(*b)),
            IrExpr::Null(_) => Some(Term::app("nullv", vec![])),
            IrExpr::Undefined(_) => Some(Term::app("undefv", vec![])),
            IrExpr::Var(x, _) => {
                if env.lookup(x).is_some() {
                    Some(Term::var(x.clone()))
                } else {
                    None
                }
            }
            IrExpr::This(_) => env.lookup(&Sym::from("this")).map(|_| Term::this()),
            IrExpr::Field(b, f, _) => {
                // Enum member?
                if let IrExpr::Var(n, _) = b.as_ref() {
                    if env.lookup(n).is_none() {
                        if let Some(members) = self.ct.enums.get(n) {
                            return members.get(f).map(|v| Term::bv(*v));
                        }
                    }
                }
                let bt = self.quick_type(b, env)?;
                let tb = self.term_of(b, env)?;
                match &bt.base {
                    Base::Arr(..) if f.as_str() == "length" => Some(Term::len_of(tb)),
                    Base::Prim(Prim::Str) if f.as_str() == "length" => Some(Term::len_of(tb)),
                    Base::Obj(c, _, _) => {
                        let fi = self.ct.lookup_field(c, f)?;
                        if fi.imm {
                            Some(Term::field(tb, f.clone()))
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            IrExpr::Unary(UnOp::TypeOf, x, _) => Some(Term::ttag_of(self.term_of(x, env)?)),
            IrExpr::Unary(UnOp::Neg, x, _) => Some(Term::neg(self.term_of(x, env)?)),
            IrExpr::Binary(op, a, b, _) => {
                let bop = match op {
                    BinOpE::Add => rsc_logic::BinOp::Add,
                    BinOpE::Sub => rsc_logic::BinOp::Sub,
                    BinOpE::Mul => rsc_logic::BinOp::Mul,
                    BinOpE::Div => rsc_logic::BinOp::Div,
                    BinOpE::Mod => rsc_logic::BinOp::Mod,
                    BinOpE::BitAnd => rsc_logic::BinOp::BvAnd,
                    BinOpE::BitOr => rsc_logic::BinOp::BvOr,
                    _ => return None,
                };
                let ta = self.coerce_bv_lit(op, self.term_of(a, env)?);
                let tb = self.coerce_bv_lit(op, self.term_of(b, env)?);
                Some(Term::bin(bop, ta, tb))
            }
            _ => None,
        }
    }

    pub(crate) fn coerce_bv_lit(&self, op: &BinOpE, t: Term) -> Term {
        if matches!(op, BinOpE::BitAnd | BinOpE::BitOr) {
            if let Term::IntLit(n) = t {
                if (0..=u32::MAX as i64).contains(&n) {
                    return Term::bv(n as u32);
                }
            }
        }
        t
    }

    /// A cheap, constraint-free type lookup used by guards and `term_of`.
    pub(crate) fn quick_type(&self, e: &IrExpr, env: &Env) -> Option<RType> {
        match e {
            IrExpr::Var(x, _) => env
                .lookup(x)
                .cloned()
                .or_else(|| self.declares.get(x).cloned()),
            IrExpr::This(_) => env.lookup(&Sym::from("this")).cloned(),
            IrExpr::Num(..) => Some(RType::number()),
            IrExpr::Bv(..) => Some(RType::trivial(Base::Bv(Sym::from("bitvector32")))),
            IrExpr::Str(..) => Some(RType::string()),
            IrExpr::Bool(..) => Some(RType::boolean()),
            IrExpr::Null(_) => Some(RType::null()),
            IrExpr::Undefined(_) => Some(RType::undefined()),
            IrExpr::Field(b, f, _) => {
                if let IrExpr::Var(n, _) = b.as_ref() {
                    if env.lookup(n).is_none() && self.ct.enums.contains_key(n) {
                        return Some(RType::trivial(Base::Bv(n.clone())));
                    }
                }
                let bt = self.quick_type(b, env)?;
                match &bt.base {
                    Base::Arr(..) if f.as_str() == "length" => Some(RType::number()),
                    Base::Obj(c, _, _) => self.ct.lookup_field(c, f).map(|fi| fi.ty.clone()),
                    Base::Union(parts) => parts.iter().find_map(|p| {
                        if let Base::Obj(c, _, _) = &p.base {
                            self.ct.lookup_field(c, f).map(|fi| fi.ty.clone())
                        } else if matches!(p.base, Base::Arr(..)) && f.as_str() == "length" {
                            Some(RType::number())
                        } else {
                            None
                        }
                    }),
                    _ => None,
                }
            }
            IrExpr::Unary(UnOp::TypeOf, _, _) => Some(RType::string()),
            IrExpr::Unary(UnOp::Not, _, _) => Some(RType::boolean()),
            IrExpr::Unary(UnOp::Neg, _, _) => Some(RType::number()),
            IrExpr::Binary(op, a, _, _) => match op {
                BinOpE::Add | BinOpE::Sub | BinOpE::Mul | BinOpE::Div | BinOpE::Mod => {
                    Some(RType::number())
                }
                BinOpE::BitAnd | BinOpE::BitOr => self.quick_type(a, env),
                _ => Some(RType::boolean()),
            },
            _ => None,
        }
    }
}

/// `RSC_DEBUG` dump of one solved bundle: κ solutions and failed
/// constraints under the solution.
fn debug_dump(b: &ConstraintBundle, result: &LiquidResult) {
    for (id, kv) in &b.cs.kvars {
        let sol: Vec<String> = result
            .solution
            .of(*id)
            .iter()
            .map(|p| p.to_string())
            .collect();
        eprintln!("[debug] {id} ({}) = {sol:?}", kv.origin);
    }
    for (ci, blame) in &result.failures {
        let c = &b.cs.subs[*ci];
        eprintln!("[debug] FAILED {}", blame.message());
        eprintln!("[debug]   lhs = {}", result.solution.apply(&c.lhs));
        eprintln!("[debug]   rhs = {}", result.solution.apply(&c.rhs));
        for h in c.env.embed() {
            eprintln!("[debug]   hyp {}", result.solution.apply(&h));
        }
    }
}

fn drop_kvars(p: Pred) -> Pred {
    match p {
        Pred::KVar(..) => Pred::True,
        Pred::And(ps) => Pred::and(ps.into_iter().map(drop_kvars).collect()),
        Pred::Or(ps) => Pred::or(ps.into_iter().map(drop_kvars).collect()),
        Pred::Not(q) => match drop_kvars(*q) {
            Pred::True => Pred::True, // ¬κ weakens to true, not false
            q => Pred::not(q),
        },
        Pred::Imp(a, b) => Pred::imp(drop_kvars(*a), drop_kvars(*b)),
        other => other,
    }
}

/// Scans a constructor body for direct `this.f = p` assignments of
/// unmodified constructor parameters, used to seed `new C(...)` result
/// refinements (`ν.f = argᵢ`).
fn scan_ctor_params(c: &IrClass) -> Vec<(Sym, usize)> {
    let mut out = Vec::new();
    let Some(ctor) = &c.ctor else {
        return out;
    };
    let params: Vec<Sym> = ctor.params.iter().map(|(p, _)| p.clone()).collect();
    fn walk(b: &Body, params: &[Sym], out: &mut Vec<(Sym, usize)>) {
        match b {
            Body::Effect { e, rest, .. } => {
                if let IrExpr::FieldAssign(recv, f, val, _) = e {
                    if matches!(recv.as_ref(), IrExpr::This(_)) {
                        if let IrExpr::Var(x, _) = val.as_ref() {
                            if let Some(i) = params.iter().position(|p| p == x) {
                                out.push((f.clone(), i));
                            }
                        }
                    }
                }
                walk(rest, params, out);
            }
            Body::Let { rest, .. } | Body::LetFun { rest, .. } => walk(rest, params, out),
            Body::If { .. } | Body::Loop { .. } => {} // only the linear prefix
            _ => {}
        }
    }
    walk(&ctor.body, &params, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Γ is built once per binding: every constraint pushed under an
    /// environment, under its clones and as a split-off conjunct shares
    /// the binding's one embedding, and a `true` right-hand side builds
    /// nothing.
    #[test]
    fn each_binding_is_embedded_once() {
        let ct = ClassTable::build(&[], &[], &[], &[]).expect("empty class table");
        let opts = CheckerOptions::default();
        let mut ck = Checker::new(ct, ConstraintSet::new(), opts, VcCache::shared());
        let mut env = Env::new();
        env.bind("x", RType::number());
        env.bind("y", RType::number());
        let blame = Blame::synthetic("t");
        let goal = |k| Pred::cmp(CmpOp::Le, Term::int(k), Term::vv());

        ck.push_sub_pred(&env, Pred::True, Pred::True, Sort::Int, &blame);
        assert!(ck.cs.subs.is_empty());
        assert!(env.binds.iter().all(|b| b.embedded.get().is_none()));

        let both = Pred::and(vec![goal(0), goal(1)]);
        ck.push_sub_pred(&env, Pred::True, both, Sort::Int, &blame);
        let mut branch = env.clone();
        branch.bind("z", RType::number());
        ck.push_sub_pred(&branch, Pred::True, goal(2), Sort::Int, &blame);
        assert_eq!(ck.cs.subs.len(), 3);
        assert_eq!(ck.units.len(), 3);

        let first = &ck.cs.subs[0].env.binds;
        assert_eq!(first.len(), 2);
        for c in &ck.cs.subs {
            assert!(first
                .iter()
                .zip(&c.env.binds)
                .all(|(a, b)| Arc::ptr_eq(a, b)));
        }
        assert_eq!(ck.cs.subs[2].env.binds.len(), 3);
    }
}
