//! Constraint environments and subtyping constraints over templates.
//!
//! A constraint environment Γ is a list of bindings `x : {v:sort | p}`
//! plus guards. Constraint generation emits thousands of constraints
//! under a handful of growing environments, so bindings are built once
//! and shared: each [`CBind`] sits behind an [`Arc`], and every
//! constraint generated under it, including every conjunct
//! [`ConstraintSet::push_sub`] splits off, holds a pointer to the same
//! allocation. This is the Liquid-style nesting of binders
//! (`∀x:b. p ⇒ c`) without the tree: readers walk a constraint's
//! bindings in order, and the ones that visit many constraints
//! (fingerprinting) can recognize a binding they have already seen by
//! its address.

use std::collections::HashMap;
use std::sync::Arc;

use rsc_logic::{KVar, KVarId, Pred, Qualifier, Sort, SortEnv, Subst, Sym, Term};

use crate::blame::{clip, Blame};

/// One binding `name : {v:sort | pred}` of a constraint environment.
#[derive(Debug)]
pub struct CBind {
    /// The bound variable.
    pub name: Sym,
    /// Its sort.
    pub sort: Sort,
    /// Its refinement, over the value variable `v`.
    pub pred: Pred,
}

impl CBind {
    /// The binding's fact `[name/v]pred`, or `None` when the refinement
    /// is `true` (no fact).
    pub(crate) fn embed(&self) -> Option<Pred> {
        if matches!(self.pred, Pred::True) {
            return None;
        }
        Some(Subst::one("v", Term::var(self.name.clone())).apply_pred(&self.pred))
    }
}

/// A constraint environment Γ: ordered bindings `x : {v:sort | pred}` plus
/// path-sensitivity guard predicates.
#[derive(Clone, Debug, Default)]
pub struct CEnv {
    /// Bindings in dependency order, shared with every other constraint
    /// generated under them.
    pub binds: Vec<Arc<CBind>>,
    /// Guard predicates (branch conditions).
    pub guards: Vec<Pred>,
}

impl CEnv {
    /// An empty environment.
    pub fn new() -> Self {
        CEnv::default()
    }

    /// Pushes a binding.
    pub fn bind(&mut self, x: impl Into<Sym>, sort: Sort, pred: Pred) {
        self.binds.push(Arc::new(CBind {
            name: x.into(),
            sort,
            pred,
        }));
    }

    /// Pushes a guard predicate.
    pub fn guard(&mut self, p: Pred) {
        self.guards.push(p);
    }

    /// The embedding ⟦Γ⟧ (§3.2): `[x/v]p` for every binding plus all
    /// guards. Predicates may still contain κ-variables; the solver
    /// substitutes the current assignment before calling the SMT solver.
    pub fn embed(&self) -> Vec<Pred> {
        let (mut out, guards) = self.embed_split();
        out.extend(guards);
        out
    }

    /// The variables in scope with their sorts (for qualifier
    /// instantiation and SMT sorting).
    pub fn scope(&self) -> Vec<(Sym, Sort)> {
        self.binds
            .iter()
            .map(|b| (b.name.clone(), b.sort))
            .collect()
    }

    /// The embedding split into binding facts and guard predicates.
    /// Guards carry path-sensitivity and are never relevance-filtered.
    pub fn embed_split(&self) -> (Vec<Pred>, Vec<Pred>) {
        let binds = self.binds.iter().filter_map(|b| b.embed()).collect();
        (binds, self.guards.clone())
    }
}

/// A subtyping constraint `Γ ⊢ {v | lhs} ⊑ {v | rhs}`.
///
/// After splitting, `rhs` is either concrete or a single κ application.
#[derive(Clone, Debug)]
pub struct SubC {
    /// The environment.
    pub env: CEnv,
    /// Left refinement (over `v`), possibly containing κ-variables.
    pub lhs: Pred,
    /// Right refinement (over `v`).
    pub rhs: Pred,
    /// Sort of the value variable.
    pub vv_sort: Sort,
    /// Structured provenance for diagnostics. **Excluded from
    /// [`crate::bundle_fingerprint`]** — blame never influences a
    /// verdict, so provenance-only edits (line shifts) keep bundles
    /// cache-equal.
    pub blame: Blame,
}

impl SubC {
    /// The constraint's blame with the expected/actual refinement
    /// renderings filled in from its own (post-split) sides. Rendered
    /// lazily — only failing constraints ever pay for it.
    pub fn blame_with_renderings(&self) -> Blame {
        let mut blame = self.blame.clone();
        blame.expected = clip(self.rhs.to_string());
        blame.actual = clip(self.lhs.to_string());
        blame
    }
}

/// A full constraint problem: κ declarations, subtyping constraints and
/// the qualifier pool.
///
/// The qualifier pool and the sort environment are run-global and shared
/// behind [`Arc`]s: partitioning a set into hundreds of per-function
/// bundles hands each bundle a pointer bump, not a deep copy — which is
/// also what keeps long-lived incremental check sessions (which hold a
/// bundle per function per run) at a sane memory footprint. Mutate them
/// during generation via [`Arc::make_mut`]; after partitioning they are
/// immutable by construction.
#[derive(Debug, Default)]
pub struct ConstraintSet {
    /// κ-variable metadata (scope for well-formedness).
    pub kvars: HashMap<KVarId, KVar>,
    /// Subtyping constraints.
    pub subs: Vec<SubC>,
    /// Qualifiers available to the fixpoint (shared across bundles).
    pub quals: Arc<Vec<Qualifier>>,
    /// The global sort environment: uninterpreted functions, field
    /// selectors, measures (shared across bundles). Variable sorts come
    /// from each constraint's environment.
    pub sort_env: Arc<SortEnv>,
    next_kvar: u32,
}

impl ConstraintSet {
    /// A fresh constraint set with the default qualifier prelude.
    pub fn new() -> Self {
        ConstraintSet {
            quals: Arc::new(rsc_logic::prelude_qualifiers()),
            sort_env: Arc::new(SortEnv::new()),
            ..Default::default()
        }
    }

    /// A constraint set with no constraints and no κ-variables, but the
    /// given qualifier pool and sort environment — the shell the
    /// partitioner ([`crate::partition`]) fills per bundle. κ allocation
    /// starts at 0; bundles never allocate, they inherit κ metadata.
    pub fn empty(quals: Arc<Vec<Qualifier>>, sort_env: Arc<SortEnv>) -> Self {
        ConstraintSet {
            quals,
            sort_env,
            ..Default::default()
        }
    }

    /// Allocates a fresh κ-variable with the given value-variable sort and
    /// scope.
    pub fn fresh_kvar(
        &mut self,
        vv_sort: Sort,
        scope: Vec<(Sym, Sort)>,
        origin: impl Into<String>,
    ) -> KVarId {
        let id = KVarId(self.next_kvar);
        self.next_kvar += 1;
        self.kvars.insert(id, KVar::new(id, vv_sort, scope, origin));
        id
    }

    /// Adds a subtyping constraint, splitting conjunctive right-hand sides
    /// so every stored constraint has either a concrete rhs or a single κ
    /// application. The split constraints share `env`'s bindings (a copy
    /// of the pointers, not of the bindings). Each stored constraint
    /// receives a copy of `blame`; the expected/actual refinement
    /// renderings are *not* produced here
    /// — rendering every constraint would put two `Pred` pretty-prints
    /// on the generation hot path for strings only failures ever read.
    /// Failure sites call [`SubC::blame_with_renderings`] instead.
    pub fn push_sub(&mut self, env: CEnv, lhs: Pred, rhs: Pred, vv_sort: Sort, blame: &Blame) {
        match rhs {
            Pred::True => {}
            Pred::And(parts) => {
                for p in parts {
                    self.push_sub(env.clone(), lhs.clone(), p, vv_sort, blame);
                }
            }
            rhs => self.subs.push(SubC {
                env,
                lhs,
                rhs,
                vv_sort,
                blame: blame.clone(),
            }),
        }
    }

    /// Number of κ variables allocated.
    pub fn num_kvars(&self) -> usize {
        self.kvars.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::{CmpOp, Term};

    #[test]
    fn embed_substitutes_vv() {
        let mut env = CEnv::new();
        env.bind(
            "x",
            Sort::Int,
            Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
        );
        env.guard(Pred::cmp(CmpOp::Lt, Term::var("x"), Term::int(10)));
        let h = env.embed();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].to_string(), "0 <= x");
    }

    #[test]
    fn push_sub_splits_conjunctions() {
        let mut cs = ConstraintSet::new();
        let rhs = Pred::and(vec![
            Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
            Pred::cmp(CmpOp::Lt, Term::vv(), Term::int(10)),
        ]);
        cs.push_sub(
            CEnv::new(),
            Pred::True,
            rhs,
            Sort::Int,
            &Blame::synthetic("t"),
        );
        assert_eq!(cs.subs.len(), 2);
        // Each split conjunct renders its own expected refinement.
        assert_eq!(cs.subs[0].blame_with_renderings().expected, "0 <= v");
        assert_eq!(cs.subs[1].blame_with_renderings().expected, "v < 10");
    }

    #[test]
    fn fresh_kvars_are_distinct() {
        let mut cs = ConstraintSet::new();
        let a = cs.fresh_kvar(Sort::Int, vec![], "a");
        let b = cs.fresh_kvar(Sort::Int, vec![], "b");
        assert_ne!(a, b);
        assert_eq!(cs.num_kvars(), 2);
    }
}
