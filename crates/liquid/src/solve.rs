//! The predicate-abstraction fixpoint (Step 3 of §2.2.1): initialize each
//! κ to all well-sorted qualifier instantiations, iteratively weaken until
//! every κ-headed constraint is valid, then check concrete constraints.
//!
//! Four cold-path optimizations keep the solver off the critical path
//! without changing any verdict or diagnostic:
//!
//! * **Constraint memoization.** The round-robin weakening loop re-checks
//!   every κ-headed constraint each iteration, but a re-check can only
//!   change the outcome if some κ it *depends on* (a κ in its environment,
//!   left-hand side, guards — or its own head, the candidate source) was
//!   weakened since its last check. Each κ carries a version counter,
//!   bumped on every weakening; a constraint whose dependency versions
//!   match its last-checked snapshot is skipped. The skipped re-check
//!   would have issued exactly the queries of the previous check (the
//!   solver is deterministic), kept every candidate, and left `changed`
//!   untouched, so the iteration trajectory — and with it every
//!   diagnostic — is byte-identical; only the redundant SMT queries
//!   disappear.
//! * **Incremental SMT.** Each κ-headed constraint keeps one persistent
//!   [`IncrContext`]: its hypotheses and candidate goals are encoded once
//!   under activation literals, and each weakening iteration re-solves
//!   the delta under assumptions instead of re-encoding the whole query
//!   (see `rsc_smt::incr`). [`SolveOptions::incremental`] = `false`
//!   (CLI: `--no-incremental-smt`) solves each query on a one-shot
//!   context with no model pool instead.
//! * **Per-check hypothesis sharing.** Every candidate of a κ-headed
//!   constraint check is tested against the same constraint environment,
//!   and its query sees that environment filtered to the hypotheses
//!   relevant to its goal. Candidates whose goals add the same variables
//!   to the check's base seeds share one relevance mask, candidates with
//!   the same mask share one hypothesis list, and the discharge pre-pass
//!   folds each list once ([`FactEnv::of_hyps`]) and asks each candidate
//!   of it with the read-only [`FactEnv::entails`]. On the cold corpus a
//!   pass makes 9,872 candidate checks over 1,692 distinct lists. The
//!   groups live for one check only (the hypotheses depend on the
//!   solution, which changes only after the candidate loop), so every
//!   discharge decision and every SMT query sees the identical list in
//!   the identical order, and the work counters are unchanged.
//! * **Counterexample models.** Most candidate queries are refutations.
//!   Each check owns a [`ModelPool`]: a refuting incremental query's
//!   counterexample model joins it once it checks against that query,
//!   and [`Solver::is_valid_ctx`] answers "not valid" without solving
//!   when a pooled model makes a later candidate's own hypothesis list
//!   true and its goal false (`rsc_smt::model`). The model witnesses that
//!   the query is satisfiable, so the solver could only have answered
//!   Sat or Unknown: the decision, the trajectory, every diagnostic and
//!   the liquid query count are unchanged. The pool names hypothesis
//!   lists by their group index and is dropped with the check; models of
//!   an earlier check satisfy every survivor. On the cold corpus it
//!   answers 2,086 of the 4,551 liquid queries per pass.

use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap, HashSet};

use rsc_absint::FactEnv;
use rsc_logic::{KVarId, Pred, Sort, SortScope, Sym, Term};
use rsc_smt::{IncrContext, ModelPool, Solver};

use crate::blame::Blame;
use crate::constraint::{ConstraintSet, SubC};

/// A solution: each κ maps to the conjunction of surviving qualifier
/// instances.
#[derive(Clone, Debug, Default)]
pub struct Solution {
    assignment: HashMap<KVarId, Vec<Pred>>,
}

impl Solution {
    /// The predicates assigned to κ (empty slice = `true`).
    pub fn of(&self, k: KVarId) -> &[Pred] {
        self.assignment.get(&k).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Substitutes the solution into a predicate: every `κ[θ]` becomes
    /// `θ(⋀ A(κ))`.
    pub fn apply(&self, p: &Pred) -> Pred {
        match p {
            Pred::KVar(k, theta) => {
                let body = Pred::and(self.of(*k).to_vec());
                theta.apply_pred(&body)
            }
            Pred::And(ps) => Pred::and(ps.iter().map(|q| self.apply(q)).collect()),
            Pred::Or(ps) => Pred::or(ps.iter().map(|q| self.apply(q)).collect()),
            Pred::Not(q) => Pred::not(self.apply(q)),
            Pred::Imp(a, b) => Pred::imp(self.apply(a), self.apply(b)),
            Pred::Iff(a, b) => Pred::iff(self.apply(a), self.apply(b)),
            other => other.clone(),
        }
    }
}

/// The outcome of constraint solving.
#[derive(Debug)]
pub struct LiquidResult {
    /// The inferred κ assignment.
    pub solution: Solution,
    /// Concrete constraints that failed under the solution (type errors):
    /// indices into `ConstraintSet::subs` plus the structured blame.
    pub failures: Vec<(usize, Blame)>,
    /// Number of SMT validity queries issued.
    pub smt_queries: u64,
    /// Obligations discharged by the abstract-interpretation pre-pass
    /// without an SMT query (candidate checks and concrete obligations).
    pub discharged: u64,
}

/// Tuning knobs for [`solve_with`]. Copy-cheap so callers can thread it
/// through per-bundle solver setup.
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Use a persistent incremental SMT context with a model pool per
    /// κ-headed constraint (default). When `false`, every validity query
    /// runs on a one-shot context with no pool ([`Solver::is_valid`]) —
    /// the same DPLL(T) loop with a shorter-lived context, and the
    /// reference the differential tests and the `model-pool` fuzz oracle
    /// compare against.
    pub incremental: bool,
    /// Try the abstract-interpretation pre-pass before each SMT query
    /// (default). The pre-pass may only *discharge* obligations (skip
    /// queries whose goal its abstract state entails), never report
    /// errors; because the entailment procedure is confined to the
    /// solver's provable fragment, every discharge is re-derivable by
    /// the solver from the same hypotheses, so the fixpoint trajectory,
    /// the solution and every diagnostic are byte-identical with the
    /// pre-pass on or off. Disable with `--no-absint`.
    pub absint: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            incremental: true,
            absint: true,
        }
    }
}

/// Solves the constraint set with default options.
pub fn solve(cs: &ConstraintSet, smt: &mut Solver) -> LiquidResult {
    solve_with(cs, smt, SolveOptions::default())
}

/// Every κ a constraint's verdict depends on: κs in the environment
/// bindings, guards and left-hand side (they shape the hypotheses) plus
/// the head κ itself (the candidate source).
fn constraint_deps(c: &SubC) -> Vec<KVarId> {
    let mut ks: BTreeSet<KVarId> = BTreeSet::new();
    if let Pred::KVar(k, _) = &c.rhs {
        ks.insert(*k);
    }
    let binds = c.env.binds.iter().map(|b| &b.pred);
    for p in binds.chain(&c.env.guards).chain([&c.lhs]) {
        ks.extend(p.kvars());
    }
    ks.into_iter().collect()
}

/// True when one well-sortedness check of the qualifier *template*
/// decides every instantiation: the body mentions nothing beyond `v` and
/// the parameters (mined qualifiers may reference scope variables
/// directly), and no scope name shadows `v` or a `★`-style placeholder
/// (which would make the template environment diverge from the
/// instantiation environment).
fn prefilter_applies(
    body_fvs: &BTreeSet<Sym>,
    params: &[(Sym, Sort)],
    scope: &[(Sym, Sort)],
) -> bool {
    body_fvs
        .iter()
        .all(|x| x.as_str() == "v" || params.iter().any(|(p, _)| p == x))
        && scope
            .iter()
            .all(|(x, _)| x.as_str() != "v" && !x.as_str().starts_with('★'))
}

/// Solves the constraint set.
pub fn solve_with(cs: &ConstraintSet, smt: &mut Solver, opts: SolveOptions) -> LiquidResult {
    // --- Initial assignment -------------------------------------------------
    let mut sol = Solution::default();
    for (id, kv) in &cs.kvars {
        let mut cands: Vec<Pred> = Vec::new();
        // Hashed dedup: distinct qualifiers instantiate to overlapping
        // predicates (e.g. `v < ★p` and `v < len(★a)` over rich scopes),
        // and `Vec::contains` made initialization quadratic in the
        // candidate count.
        let mut seen: HashSet<Pred> = HashSet::new();
        // Well-sortedness scope: `v` then the κ's scope, layered over
        // the shared sort environment without cloning it (and built
        // once per κ, not per qualifier).
        let mut binders: Vec<(Sym, Sort)> = Vec::with_capacity(kv.scope.len() + 1);
        binders.push((Sym::from("v"), kv.vv_sort));
        binders.extend(kv.scope.iter().cloned());
        let env = SortScope::new(&*cs.sort_env, &binders);
        for q in cs.quals.iter() {
            if q.vv_sort != kv.vv_sort {
                continue;
            }
            // A parameter sort with no scope variable admits no
            // instantiations at all — skip before enumerating.
            if q.params
                .iter()
                .any(|(_, s)| !kv.scope.iter().any(|(_, t)| t == s))
            {
                continue;
            }
            // Sort-check the *template* once instead of every
            // instantiation: substituting same-sorted scope variables for
            // the parameters cannot change the sorting verdict, so when
            // the pre-filter applies, one check decides them all (in
            // either direction). Qualifiers outside the pre-filter's
            // conditions fall back to the per-instantiation check.
            let template_ok = if prefilter_applies(&q.body.free_vars(), &q.params, &kv.scope) {
                let mut tb: Vec<(Sym, Sort)> = Vec::with_capacity(q.params.len() + 1);
                tb.push((Sym::from("v"), kv.vv_sort));
                tb.extend(q.params.iter().cloned());
                let tenv = SortScope::new(&*cs.sort_env, &tb);
                Some(tenv.check_pred(&q.body).is_ok())
            } else {
                None
            };
            if template_ok == Some(false) {
                continue;
            }
            for inst in q.instantiate(&kv.scope) {
                let well_sorted = template_ok.unwrap_or_else(|| env.check_pred(&inst).is_ok());
                if well_sorted && seen.insert(inst.clone()) {
                    cands.push(inst);
                }
            }
        }
        sol.assignment.insert(*id, cands);
    }

    let mut queries = 0u64;
    let mut discharged = 0u64;
    // Read once per solve: the lookup sits on the per-dropped-candidate
    // path, which runs thousands of times per corpus check.
    let debug = std::env::var("RSC_DEBUG").is_ok();

    // --- Fixpoint: weaken κ-headed constraints ------------------------------
    let kvar_headed: Vec<usize> = cs
        .subs
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.rhs, Pred::KVar(..)))
        .map(|(i, _)| i)
        .collect();
    // Memoization state: per-κ weakening versions, each constraint's κ
    // dependencies, and the dependency-version snapshot at its last check.
    let mut versions: HashMap<KVarId, u64> = HashMap::new();
    let deps: HashMap<usize, Vec<KVarId>> = kvar_headed
        .iter()
        .map(|&ci| (ci, constraint_deps(&cs.subs[ci])))
        .collect();
    let mut last_checked: HashMap<usize, Vec<u64>> = HashMap::new();
    // One persistent incremental context per κ-headed constraint. The
    // constraint's binder overlay (its scope + `v`) is fixed across
    // iterations, which is exactly the context-reuse invariant
    // `rsc_smt::incr` requires.
    let mut ctxs: HashMap<usize, IncrContext> = HashMap::new();
    let mut iteration = 0u64;
    loop {
        let _sp = rsc_obs::span!("fixpoint-iter", unit = iteration);
        iteration += 1;
        let mut changed = false;
        for &ci in &kvar_headed {
            let c = &cs.subs[ci];
            let Pred::KVar(k, theta) = &c.rhs else {
                unreachable!()
            };
            let current = sol.of(*k).to_vec();
            if current.is_empty() {
                continue;
            }
            let snapshot: Vec<u64> = deps[&ci]
                .iter()
                .map(|d| versions.get(d).copied().unwrap_or(0))
                .collect();
            if last_checked.get(&ci) == Some(&snapshot) {
                // No dependency κ was weakened since this constraint's
                // last check: a re-check would repeat the same queries
                // and keep everything. Skip it wholesale.
                continue;
            }
            let (binders, all_hyps, guards) = prepare_hyps(cs, c, &sol);
            let env_sorts = SortScope::new(&*cs.sort_env, &binders);
            let mut groups = HypGroups::new(&all_hyps, &guards, sol.apply(&c.lhs).free_vars());
            let mut pool = ModelPool::new();
            let mut kept = Vec::with_capacity(current.len());
            let mut dropped = false;
            for q in current {
                let goal = theta.apply_pred(&q);
                let (gi, group) = groups.of_goal(&goal);
                // Abstract-interpretation pre-pass: if the exact
                // hypothesis list already abstractly entails the goal,
                // the SMT query is guaranteed valid (the entailment
                // procedure stays inside the solver's provable
                // fragment) — keep the candidate without querying.
                let discharge =
                    opts.absint && group.facts(&binders).is_some_and(|f| f.entails(&goal));
                let valid = if discharge {
                    discharged += 1;
                    true
                } else {
                    queries += 1;
                    if opts.incremental {
                        let ctx = ctxs.entry(ci).or_default();
                        smt.is_valid_ctx(ctx, &mut pool, gi, &env_sorts, &group.hyps, &goal)
                    } else {
                        smt.is_valid(&env_sorts, &group.hyps, &goal)
                    }
                };
                if valid {
                    kept.push(q);
                } else {
                    if debug {
                        eprintln!(
                            "[liquid] drop {q} from {k} at `{}`; hyps={:?}",
                            c.blame.message(),
                            group.hyps.iter().map(|h| h.to_string()).collect::<Vec<_>>()
                        );
                    }
                    changed = true;
                    dropped = true;
                }
            }
            // Record the *pre-check* snapshot: when this check weakened
            // its own κ, the version bump below makes the constraint
            // dirty again next iteration (weaker hypotheses can drop
            // more), exactly as the unmemoized loop would re-check it.
            last_checked.insert(ci, snapshot);
            if dropped {
                *versions.entry(*k).or_insert(0) += 1;
            }
            sol.assignment.insert(*k, kept);
        }
        if !changed {
            break;
        }
    }

    // --- Validate concrete constraints --------------------------------------
    let mut failures = Vec::new();
    for (i, c) in cs.subs.iter().enumerate() {
        if matches!(c.rhs, Pred::KVar(..)) {
            continue;
        }
        let (binders, all_hyps, guards) = prepare_hyps(cs, c, &sol);
        let env_sorts = SortScope::new(&*cs.sort_env, &binders);
        let goal = sol.apply(&c.rhs);
        // Dead-code obligations (`… ⊑ false`) need the whole environment
        // to exhibit the inconsistency; everything else is filtered.
        let mut hyps = if matches!(goal, Pred::False) {
            all_hyps
        } else {
            let mut seeds = goal.free_vars();
            seeds.insert(rsc_logic::Sym::from("v"));
            seeds.extend(sol.apply(&c.lhs).free_vars());
            for g in &guards {
                seeds.extend(g.free_vars());
            }
            filter_relevant(all_hyps, seeds)
        };
        hyps.extend(guards.iter().cloned());
        // Statically discharged obligations are valid by construction
        // (the abstract entailment is strictly weaker than the solver);
        // skip the query, never the failure check's soundness.
        if opts.absint && rsc_absint::entailed_by(&binders, &hyps, &goal) {
            discharged += 1;
            continue;
        }
        queries += 1;
        if !smt.is_valid(&env_sorts, &hyps, &goal) {
            failures.push((i, c.blame_with_renderings()));
        }
    }

    LiquidResult {
        solution: sol,
        failures,
        smt_queries: queries,
        discharged,
    }
}

/// One distinct hypothesis list of a κ-headed constraint check (the
/// relevant hypotheses, then the guards) and its abstract fold.
struct HypGroup {
    hyps: Vec<Pred>,
    facts: OnceCell<Option<FactEnv>>,
}

impl HypGroup {
    /// The list folded by [`FactEnv::of_hyps`] on first use; `None` when
    /// it is over the disequality cap.
    fn facts(&self, binders: &[(Sym, Sort)]) -> Option<&FactEnv> {
        self.facts
            .get_or_init(|| FactEnv::of_hyps(binders, &self.hyps))
            .as_ref()
    }
}

/// The candidates of one κ-headed constraint check, grouped by the
/// hypothesis list their queries see. A candidate's relevance seeds are
/// the check's base seeds (`v`, left-hand side, guards) plus its goal's
/// free variables, so the goal variables outside the base seeds decide
/// the mask; distinct masks decide distinct lists. Each mask, list and
/// fold is built once per check instead of once per candidate. A value
/// lives for one check only: the hypotheses depend on the solution,
/// which changes only after the candidate loop.
struct HypGroups<'a> {
    all_hyps: &'a [Pred],
    guards: &'a [Pred],
    hyp_fvs: Vec<BTreeSet<Sym>>,
    base_seeds: BTreeSet<Sym>,
    by_key: HashMap<Vec<Sym>, usize>,
    by_mask: HashMap<Vec<bool>, usize>,
    groups: Vec<HypGroup>,
}

impl<'a> HypGroups<'a> {
    fn new(all_hyps: &'a [Pred], guards: &'a [Pred], lhs_fvs: BTreeSet<Sym>) -> Self {
        let mut base_seeds = lhs_fvs;
        base_seeds.insert(Sym::from("v"));
        for g in guards {
            base_seeds.extend(g.free_vars());
        }
        HypGroups {
            all_hyps,
            guards,
            hyp_fvs: all_hyps.iter().map(Pred::free_vars).collect(),
            base_seeds,
            by_key: HashMap::new(),
            by_mask: HashMap::new(),
            groups: Vec::new(),
        }
    }

    /// The group whose list a query for `goal` sees, with its index: the
    /// hypotheses relevant to the base seeds plus the goal's variables,
    /// then the guards — the identical list, in the identical order, that
    /// a per-candidate filter would build.
    fn of_goal(&mut self, goal: &Pred) -> (usize, &HypGroup) {
        let key: Vec<Sym> = goal
            .free_vars()
            .into_iter()
            .filter(|x| !self.base_seeds.contains(x))
            .collect();
        let gi = match self.by_key.get(&key) {
            Some(&gi) => gi,
            None => {
                let mut seeds = self.base_seeds.clone();
                seeds.extend(key.iter().cloned());
                let mask = relevant_mask(&self.hyp_fvs, seeds);
                let (all_hyps, guards, groups) = (self.all_hyps, self.guards, &mut self.groups);
                let gi = *self.by_mask.entry(mask).or_insert_with_key(|mask| {
                    let mut hyps: Vec<Pred> = all_hyps
                        .iter()
                        .zip(mask)
                        .filter(|(_, keep)| **keep)
                        .map(|(h, _)| h.clone())
                        .collect();
                    hyps.extend(guards.iter().cloned());
                    groups.push(HypGroup {
                        hyps,
                        facts: OnceCell::new(),
                    });
                    groups.len() - 1
                });
                self.by_key.insert(key, gi);
                gi
            }
        };
        (gi, &self.groups[gi])
    }
}

/// The transitive-relevance mask over precomputed hypothesis
/// free-variable sets: `mask[i]` is true when hypothesis `i` shares
/// variables (within 3 closure rounds) with the seeds.
fn relevant_mask(fvs: &[BTreeSet<Sym>], seeds: BTreeSet<Sym>) -> Vec<bool> {
    let mut relevant = seeds;
    let mut keep = vec![false; fvs.len()];
    for _ in 0..3 {
        let mut changed = false;
        for (i, fv) in fvs.iter().enumerate() {
            if keep[i] {
                continue;
            }
            if fv.is_empty() || fv.iter().any(|x| relevant.contains(x)) {
                keep[i] = true;
                relevant.extend(fv.iter().cloned());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    keep
}

/// Keeps only hypotheses transitively sharing variables with the seeds
/// (goal + left-hand side). Dropping hypotheses is conservative, and the
/// filter tames the model-enumeration cost of disjunction-heavy union
/// embeddings.
pub fn filter_relevant(hyps: Vec<Pred>, seeds: BTreeSet<Sym>) -> Vec<Pred> {
    let fvs: Vec<BTreeSet<Sym>> = hyps.iter().map(|h| h.free_vars()).collect();
    let keep = relevant_mask(&fvs, seeds);
    hyps.into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(h, _)| h)
        .collect()
}

/// Builds the binder overlay and hypothesis list for one constraint:
/// ⟦Γ⟧ under the current solution, plus the (solved) left refinement.
/// The binders (constraint scope plus `v`) are layered over the shared
/// sort environment by the caller via [`SortScope`] — the shared
/// environment itself is never cloned per constraint.
fn prepare_hyps(
    cs: &ConstraintSet,
    c: &SubC,
    sol: &Solution,
) -> (Vec<(Sym, Sort)>, Vec<Pred>, Vec<Pred>) {
    let mut binders = c.env.scope();
    binders.push((Sym::from("v"), c.vv_sort));
    let env_sorts = SortScope::new(&*cs.sort_env, &binders);
    let (bind_preds, guard_preds) = c.env.embed_split();
    let mut guards: Vec<Pred> = Vec::new();
    for g in guard_preds {
        guards.extend(sol.apply(&g).conjuncts());
    }
    guards.retain(|p| env_sorts.check_pred(p).is_ok());
    let mut hyps: Vec<Pred> = bind_preds.iter().map(|p| sol.apply(p)).collect();
    hyps.push(sol.apply(&c.lhs));
    // The `len` measure is a natural number: 0 ≤ len(x) for every
    // reference in scope (and for ν itself when it is a reference).
    for (x, s) in c.env.scope() {
        if s == Sort::Ref {
            hyps.push(Pred::cmp(
                rsc_logic::CmpOp::Le,
                Term::int(0),
                Term::len_of(Term::var(x)),
            ));
        }
    }
    if c.vv_sort == Sort::Ref {
        hyps.push(Pred::cmp(
            rsc_logic::CmpOp::Le,
            Term::int(0),
            Term::len_of(Term::vv()),
        ));
    }
    // Split into conjuncts, then drop ill-sorted ones (conservative:
    // fewer hypotheses make validity harder, never easier). Splitting
    // first keeps the well-sorted parts of mixed conjunctions — e.g. the
    // `ttag(v) = "number"` next to a cross-sort `v = x` selfification.
    let mut flat: Vec<Pred> = Vec::new();
    for h in hyps {
        flat.extend(h.conjuncts());
    }
    flat.retain(|p| env_sorts.check_pred(p).is_ok());
    (binders, flat, guards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::ObligationKind;
    use crate::constraint::CEnv;
    use rsc_logic::{CmpOp, Subst, Term};

    fn counter_constraints() -> (ConstraintSet, KVarId) {
        let mut cs = ConstraintSet::new();
        let k = cs.fresh_kvar(Sort::Int, vec![], "phi i");
        let kapp = Pred::KVar(k, Subst::new());

        // init: ⊢ {v = 0} ⊑ κ
        cs.push_sub(
            CEnv::new(),
            Pred::vv_eq(Term::int(0)),
            kapp.clone(),
            Sort::Int,
            &Blame::synthetic("init"),
        );
        // step: i:κ, i < 10 ⊢ {v = i + 1} ⊑ κ
        let mut env = CEnv::new();
        env.bind("i", Sort::Int, kapp.clone());
        env.guard(Pred::cmp(CmpOp::Lt, Term::var("i"), Term::int(10)));
        cs.push_sub(
            env.clone(),
            Pred::vv_eq(Term::add(Term::var("i"), Term::int(1))),
            kapp.clone(),
            Sort::Int,
            &Blame::synthetic("step"),
        );
        // use: i:κ, ¬(i < 10) ⊢ {v = i} ⊑ {v = 10}  (exact exit value needs
        // more than the prelude, so check a weaker concrete bound: 0 ≤ v).
        let mut env2 = CEnv::new();
        env2.bind("i", Sort::Int, kapp);
        env2.guard(Pred::cmp(CmpOp::Ge, Term::var("i"), Term::int(10)));
        cs.push_sub(
            env2,
            Pred::vv_eq(Term::var("i")),
            Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
            Sort::Int,
            &Blame::synthetic("use"),
        );
        (cs, k)
    }

    /// The κ for a simple counter `i = 0; while (i < 10) i = i + 1`.
    #[test]
    fn counter_invariant() {
        let (cs, k) = counter_constraints();
        let mut smt = Solver::new();
        let r = solve(&cs, &mut smt);
        assert!(r.failures.is_empty(), "failures: {:?}", r.failures);
        let shown: Vec<String> = r.solution.of(k).iter().map(|p| p.to_string()).collect();
        assert!(
            shown.contains(&"0 <= v".to_string()),
            "κ should keep Nat, got {shown:?}"
        );
    }

    /// A persistent context with a model pool per constraint and a
    /// one-shot context per query must agree on the solution, the
    /// failures, and even the query count (memoization is independent of
    /// the context's lifetime).
    #[test]
    fn incremental_matches_fresh_path() {
        let (cs, k) = counter_constraints();
        let mut smt_a = Solver::new();
        let a = solve_with(
            &cs,
            &mut smt_a,
            SolveOptions {
                incremental: true,
                ..SolveOptions::default()
            },
        );
        let mut smt_b = Solver::new();
        let b = solve_with(
            &cs,
            &mut smt_b,
            SolveOptions {
                incremental: false,
                ..SolveOptions::default()
            },
        );
        let show = |r: &LiquidResult| {
            r.solution
                .of(k)
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(show(&a), show(&b));
        assert_eq!(a.failures.len(), b.failures.len());
        assert_eq!(a.smt_queries, b.smt_queries);
    }

    /// The absint pre-pass must change only the query count: solution,
    /// failures and the candidate trajectory are byte-identical with it
    /// on or off, and on this workload it discharges something.
    #[test]
    fn absint_prepass_is_query_only() {
        let (cs, k) = counter_constraints();
        let mut smt_on = Solver::new();
        let on = solve_with(&cs, &mut smt_on, SolveOptions::default());
        let mut smt_off = Solver::new();
        let off = solve_with(
            &cs,
            &mut smt_off,
            SolveOptions {
                absint: false,
                ..SolveOptions::default()
            },
        );
        let show = |r: &LiquidResult| {
            r.solution
                .of(k)
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(show(&on), show(&off), "solutions must agree");
        assert_eq!(on.failures.len(), off.failures.len());
        assert_eq!(off.discharged, 0);
        assert!(on.discharged > 0, "expected some static discharges");
        assert_eq!(
            on.smt_queries + on.discharged,
            off.smt_queries,
            "every skipped query must be a discharge, nothing else"
        );
    }

    /// The discharge soundness contract: each obligation the pre-pass
    /// discharges must be re-derivable by the SMT solver. Replay the
    /// concrete obligations of a discharging workload through the
    /// solver directly.
    #[test]
    fn discharged_obligations_replay_as_valid() {
        let (cs, _) = counter_constraints();
        let mut smt = Solver::new();
        let r = solve_with(&cs, &mut smt, SolveOptions::default());
        assert!(r.discharged > 0);
        for c in cs.subs.iter() {
            if matches!(c.rhs, Pred::KVar(..)) {
                continue;
            }
            let (binders, all_hyps, guards) = prepare_hyps(&cs, c, &r.solution);
            let env_sorts = SortScope::new(&*cs.sort_env, &binders);
            let goal = r.solution.apply(&c.rhs);
            let mut hyps = all_hyps;
            hyps.extend(guards.iter().cloned());
            if rsc_absint::entailed_by(&binders, &hyps, &goal) {
                assert!(
                    smt.is_valid(&env_sorts, &hyps, &goal),
                    "discharged obligation must replay as valid: {goal}"
                );
            }
        }
    }

    /// An unsatisfiable concrete constraint is reported as a failure.
    #[test]
    fn concrete_failure_detected() {
        let mut cs = ConstraintSet::new();
        cs.push_sub(
            CEnv::new(),
            Pred::vv_eq(Term::int(5)),
            Pred::cmp(CmpOp::Lt, Term::vv(), Term::int(3)),
            Sort::Int,
            &Blame::synthetic("bad bound"),
        );
        let mut smt = Solver::new();
        let r = solve(&cs, &mut smt);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].1.detail, "bad bound");
        assert_eq!(r.failures[0].1.kind, ObligationKind::Other);
        assert_eq!(r.failures[0].1.expected, "v < 3");
        assert_eq!(r.failures[0].1.actual, "v = 5");
    }
}
