//! The validity front end: [`Solver`] refutes `⟦Γ⟧ ∧ p ∧ ¬q` on an
//! [`IncrContext`] — a one-shot context per query, or the caller's
//! persistent one — through the optional VC cache and model pool.

use std::sync::Arc;

use rsc_logic::{Pred, SortLookup, SortScope};

use crate::cache::{canonical_query_refs, CanonicalQuery, VcCache};
use crate::incr::IncrContext;
use crate::model::ModelPool;

/// The answer of a satisfiability query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// A theory-consistent model exists.
    Sat,
    /// No model exists.
    Unsat,
    /// The solver gave up (resource caps or unencodable input). Validity
    /// checking treats this as "not proven".
    Unknown,
}

/// Per-solver statistics.
///
/// Counters accumulate from the last [`SolverStats::reset`] (or solver
/// creation). Callers that report per-unit numbers — e.g. the parallel
/// checking driver's per-function bundles — must [`SolverStats::take`]
/// between units; earlier versions of the pipeline read the cumulative
/// counters and mis-attributed all prior queries to the last unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of satisfiability queries actually solved (cache hits are
    /// counted in `cache_hits` instead).
    pub queries: u64,
    /// Number of validity queries answered "valid".
    pub valid: u64,
    /// Total SAT rounds across all queries.
    pub sat_rounds: u64,
    /// Total theory conflicts (blocking clauses added).
    pub theory_conflicts: u64,
    /// Validity queries answered from the shared VC cache.
    pub cache_hits: u64,
    /// Validity queries that missed the cache and ran the solver.
    pub cache_misses: u64,
    /// Validity queries answered "not valid" by a pooled counterexample
    /// model, without a cache probe or a solve ([`Solver::is_valid_ctx`]).
    pub model_refuted: u64,
}

impl SolverStats {
    /// Zeroes every counter.
    pub fn reset(&mut self) {
        *self = SolverStats::default();
    }

    /// Returns the counters accumulated so far and resets them — the
    /// per-bundle reporting primitive.
    pub fn take(&mut self) -> SolverStats {
        std::mem::take(self)
    }

    /// Adds `other`'s counters into `self` (merging per-bundle stats).
    pub fn merge(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.valid += other.valid;
        self.sat_rounds += other.sat_rounds;
        self.theory_conflicts += other.theory_conflicts;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.model_refuted += other.model_refuted;
    }
}

/// An SMT solver for the RSC refinement logic.
///
/// Validity of a verification condition `⟦Γ⟧ ⇒ p ⇒ q` is checked by
/// refuting `⟦Γ⟧ ∧ p ∧ ¬q` (§2.1.1 of the paper). Every query runs the
/// one DPLL(T) loop, [`IncrContext::query`]: [`Solver::is_sat`] and
/// [`Solver::is_valid`] on a one-shot context, [`Solver::is_valid_ctx`]
/// on the caller's persistent one.
///
/// ```
/// use rsc_logic::{CmpOp, Pred, Sort, SortEnv, Term};
/// use rsc_smt::Solver;
///
/// let mut env = SortEnv::new();
/// env.bind("a", Sort::Ref);
/// env.bind("v", Sort::Int);
/// // 0 < len(a) ⊢ v = 0 ⇒ 0 ≤ v ∧ v < len(a)   (the `head` example VC)
/// let len_a = Term::len_of(Term::var("a"));
/// let hyp = Pred::cmp(CmpOp::Lt, Term::int(0), len_a.clone());
/// let lhs = Pred::vv_eq(Term::int(0));
/// let rhs = Pred::and(vec![
///     Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
///     Pred::cmp(CmpOp::Lt, Term::vv(), len_a),
/// ]);
/// let mut solver = Solver::new();
/// assert!(solver.is_valid(&env, &[hyp, lhs], &rhs));
/// ```
pub struct Solver {
    /// Statistics since the last [`SolverStats::take`]/[`SolverStats::reset`].
    pub stats: SolverStats,
    cache: Option<Arc<VcCache>>,
}

impl Solver {
    /// Creates a solver with no VC cache.
    pub fn new() -> Self {
        Solver {
            stats: SolverStats::default(),
            cache: None,
        }
    }

    /// Creates a solver that shares `cache` for validity queries.
    ///
    /// With a cache attached, [`Solver::is_valid`] solves the *canonical*
    /// form of each query (see [`crate::cache`]), so its verdict is a
    /// pure function of the canonical fingerprint: hit or miss, and
    /// whichever thread gets there first, the answer is identical.
    pub fn with_cache(cache: Arc<VcCache>) -> Self {
        Solver {
            stats: SolverStats::default(),
            cache: Some(cache),
        }
    }

    /// The shared VC cache, when one is attached.
    pub fn cache(&self) -> Option<&Arc<VcCache>> {
        self.cache.as_ref()
    }

    /// Checks satisfiability of the conjunction of `preds` under `env`
    /// (an owned [`rsc_logic::SortEnv`] or a borrowed
    /// [`rsc_logic::SortScope`] overlay), on a one-shot context.
    pub fn is_sat(&mut self, env: &dyn SortLookup, preds: &[Pred]) -> SatResult {
        IncrContext::new().query_conj(env, preds, &mut self.stats).0
    }

    /// Checks validity of `hyps ⇒ goal`: true only when the negation is
    /// proven unsatisfiable (Unknown answers count as *not valid*, the
    /// conservative direction for verification). The query runs on a
    /// one-shot context.
    ///
    /// With a [`VcCache`] attached, the refutation query is canonicalized
    /// first; cached Unsat fingerprints answer without solving, and
    /// misses solve the canonical form and memoize an Unsat outcome.
    pub fn is_valid(&mut self, env: &dyn SortLookup, hyps: &[Pred], goal: &Pred) -> bool {
        let _sp = rsc_obs::span!("smt-query");
        self.validate(env, hyps, goal, |stats, canonical| {
            let mut ctx = IncrContext::new();
            let result = match canonical {
                // Solve the canonical form under an overlay of the
                // canonical binders — a pair of borrows, not a clone of
                // the source environment.
                Some(c) => ctx.query_conj(&SortScope::new(env, &c.binders), &c.preds, stats),
                None => ctx.query(env, hyps, goal, stats),
            };
            result.0 == SatResult::Unsat
        })
    }

    /// Like [`Solver::is_valid`], but solving inside the persistent
    /// incremental context `ctx` instead of a one-shot one, with the
    /// counterexample models of the current constraint check in `pool`.
    ///
    /// The pool answers first: when one of its checked models makes every
    /// hypothesis true and the goal false, the query is "not valid" with
    /// no cache probe and no solve, counted in
    /// [`SolverStats::model_refuted`]. Such a model witnesses that the
    /// query is satisfiable, so a sound solver could only have answered
    /// Sat or Unknown — the same decision (see [`crate::model`]). A debug
    /// build re-solves each pooled refutation on a one-shot context, with
    /// no pool, and asserts it is not Unsat. `list` names `hyps` within
    /// the pool's check: the same id must always come with the same list,
    /// so each list is evaluated once per model.
    ///
    /// Otherwise the context solves. It caches the encoding of every
    /// hypothesis and goal it has seen under activation literals, so
    /// repeated queries over the same constraint (the fixpoint weakening
    /// loop) re-solve only the delta, and a Sat answer's checked model
    /// joins the pool. With a [`VcCache`] attached, the canonical
    /// fingerprint is probed before solving; on a miss the *original*
    /// query form is solved — the canonical α-renamed form would defeat
    /// context reuse — and an Unsat verdict is recorded under the
    /// canonical key. Both forms are the same conjunction, so a cached
    /// Unsat is sound for either; their answers can still differ where the
    /// round cap or FM's integer reasoning depends on term order. A
    /// refutable query is satisfiable, so it is never an Unsat cache key:
    /// the pool moves no cache hit.
    pub fn is_valid_ctx(
        &mut self,
        ctx: &mut IncrContext,
        pool: &mut ModelPool,
        list: usize,
        env: &dyn SortLookup,
        hyps: &[Pred],
        goal: &Pred,
    ) -> bool {
        let _sp = rsc_obs::span!("smt-query");
        if pool.refutes(list, hyps, goal) {
            self.stats.model_refuted += 1;
            debug_assert!(
                IncrContext::new()
                    .query(env, hyps, goal, &mut SolverStats::default())
                    .0
                    != SatResult::Unsat,
                "a checked model refutes `{goal}`, which the solver proves valid"
            );
            return false;
        }
        self.validate(env, hyps, goal, |stats, _| {
            let (result, model) = ctx.query(env, hyps, goal, stats);
            if let Some(model) = model {
                pool.admit(model, list, hyps, goal);
            }
            result == SatResult::Unsat
        })
    }

    /// Decides `hyps ⇒ goal` through the VC cache, when one is attached:
    /// a hit is valid without solving; otherwise `solve` decides (given
    /// the canonical query on a miss), and a miss records an Unsat
    /// verdict under the canonical key. Counts the decision in `valid`.
    fn validate(
        &mut self,
        env: &dyn SortLookup,
        hyps: &[Pred],
        goal: &Pred,
        solve: impl FnOnce(&mut SolverStats, Option<&CanonicalQuery>) -> bool,
    ) -> bool {
        let r = match self.cache.clone() {
            Some(cache) => {
                let neg_goal = Pred::not(goal.clone());
                let mut preds: Vec<&Pred> = hyps.iter().collect();
                preds.push(&neg_goal);
                let canonical = canonical_query_refs(env, &preds);
                if cache.probe(&canonical.key) {
                    self.stats.cache_hits += 1;
                    true
                } else {
                    self.stats.cache_misses += 1;
                    let unsat = solve(&mut self.stats, Some(&canonical));
                    if unsat {
                        cache.record_unsat(canonical.key);
                    }
                    unsat
                }
            }
            None => solve(&mut self.stats, None),
        };
        if r {
            self.stats.valid += 1;
        }
        r
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::{CmpOp, SortEnv, Term};

    fn trivially_valid() -> Pred {
        Pred::cmp(CmpOp::Le, Term::int(0), Term::int(1))
    }

    /// Per-bundle reporting relies on `take` zeroing the counters: before
    /// this existed, readers of `stats` after each bundle saw cumulative
    /// totals and attributed every earlier bundle's queries to the last.
    #[test]
    fn stats_take_resets_per_bundle_counters() {
        let env = SortEnv::new();
        let goal = trivially_valid();
        let mut s = Solver::new();
        assert!(s.is_valid(&env, &[], &goal));
        let first = s.stats.take();
        assert_eq!(first.queries, 1);
        assert_eq!(s.stats, SolverStats::default(), "take must reset");
        assert!(s.is_valid(&env, &[], &goal));
        assert_eq!(s.stats.queries, 1, "second bundle counts only itself");
        let mut merged = first;
        merged.merge(&s.stats);
        assert_eq!(merged.queries, 2);
        assert_eq!(merged.valid, 2);
    }

    /// The model of one refuted candidate drops a sibling it also
    /// falsifies without a query, and never a valid one.
    #[test]
    fn pooled_model_refutes_siblings_without_a_query() {
        let mut env = SortEnv::new();
        env.bind("x", rsc_logic::Sort::Int);
        env.bind("a", rsc_logic::Sort::Ref);
        let x = || Term::var("x");
        let hyps = [
            Pred::cmp(CmpOp::Le, Term::int(0), x()),
            Pred::cmp(CmpOp::Le, x(), Term::len_of(Term::var("a"))),
        ];
        let mut s = Solver::new();
        let mut ctx = crate::IncrContext::new();
        let mut pool = ModelPool::new();
        let mut ask =
            |s: &mut Solver, goal: Pred| s.is_valid_ctx(&mut ctx, &mut pool, 0, &env, &hyps, &goal);
        // Refuted by a solve; its model (x ≥ 1) joins the pool.
        assert!(!ask(&mut s, Pred::cmp(CmpOp::Le, x(), Term::int(0))));
        assert_eq!((s.stats.queries, s.stats.model_refuted), (1, 0));
        // `x = 0` is false under that model: refuted from the pool.
        assert!(!ask(&mut s, Pred::eq(x(), Term::int(0))));
        assert_eq!((s.stats.queries, s.stats.model_refuted), (1, 1));
        // Valid goals always reach the solver.
        assert!(ask(
            &mut s,
            Pred::cmp(CmpOp::Le, Term::int(0), Term::len_of(Term::var("a")))
        ));
        assert_eq!((s.stats.queries, s.stats.model_refuted), (2, 1));
    }

    #[test]
    fn cache_hits_skip_solving() {
        let env = SortEnv::new();
        let goal = trivially_valid();
        let cache = VcCache::shared();
        let mut a = Solver::with_cache(cache.clone());
        assert!(a.is_valid(&env, &[], &goal));
        assert_eq!(a.stats.cache_misses, 1);
        let mut b = Solver::with_cache(cache);
        assert!(b.is_valid(&env, &[], &goal));
        assert_eq!(b.stats.cache_hits, 1);
        assert_eq!(b.stats.queries, 0, "hit must not run the SAT core");
    }
}
