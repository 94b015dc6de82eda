//! Partitioning a constraint set into independently solvable bundles.
//!
//! Liquid inference is embarrassingly parallel at function granularity:
//! the κ-variables allocated while checking one function only appear in
//! that function's constraints, so each function's slice of the
//! constraint set is a closed fixpoint problem. The checker tags every
//! constraint with the *unit* (function, class, or top level) that
//! generated it; [`partition`] groups constraints by unit, then merges
//! any units that turn out to share a κ-variable (e.g. a closure checked
//! at a call site in another unit) so no bundle ever reads a κ another
//! bundle writes.
//!
//! Each [`ConstraintBundle`] carries everything a worker thread needs:
//! its constraints, the κ metadata they mention, and an `Arc` share of
//! the run-global qualifier pool and sort environment (the bundle's
//! slice of the class table). Bundles are ordered by their first
//! constraint's
//! original index, so merging per-bundle results in bundle order
//! reproduces the sequential diagnostic order exactly.

use rsc_logic::{FxHashMap, KVarId};

use crate::constraint::{ConstraintSet, SubC};

/// One independently solvable slice of a [`ConstraintSet`].
#[derive(Debug)]
pub struct ConstraintBundle {
    /// The bundle's closed constraint problem.
    pub cs: ConstraintSet,
    /// Original indices (into the source set's `subs`) of this bundle's
    /// constraints, ascending; `members[i]` corresponds to `cs.subs[i]`.
    pub members: Vec<usize>,
}

/// Union-find over unit ids.
struct Uf(Vec<usize>);

impl Uf {
    fn new(n: usize) -> Uf {
        Uf((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let r = self.find(self.0[x]);
            self.0[x] = r;
        }
        self.0[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Attach the larger root under the smaller so roots stay
            // stable in source order.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.0[hi] = lo;
        }
    }
}

/// The κ-variables mentioned anywhere in a constraint (environment
/// bindings, guards, both refinements).
fn kvars_of(c: &SubC) -> Vec<KVarId> {
    let mut out: Vec<KVarId> = Vec::new();
    let preds = c.env.binds.iter().map(|b| b.pred());
    for p in preds.chain(&c.env.guards).chain([&c.lhs, &c.rhs]) {
        for k in p.kvars() {
            if !out.contains(&k) {
                out.push(k);
            }
        }
    }
    out
}

/// Splits `cs` into bundles along the per-constraint unit tags
/// (`unit_of[i]` is the unit that generated `cs.subs[i]`), merging units
/// that share a κ-variable. Panics if the tag vector's length does not
/// match the constraint count.
pub fn partition(cs: ConstraintSet, unit_of: &[usize]) -> Vec<ConstraintBundle> {
    assert_eq!(
        unit_of.len(),
        cs.subs.len(),
        "one unit tag per constraint required"
    );
    let units = unit_of.iter().copied().max().map_or(1, |m| m + 1);
    let mut uf = Uf::new(units);

    // Merge units sharing a κ.
    let per_constraint: Vec<Vec<KVarId>> = cs.subs.iter().map(kvars_of).collect();
    let mut kvar_home: FxHashMap<KVarId, usize> = FxHashMap::default();
    for (ci, ks) in per_constraint.iter().enumerate() {
        for k in ks {
            match kvar_home.get(k) {
                Some(&u) => uf.union(u, unit_of[ci]),
                None => {
                    kvar_home.insert(*k, unit_of[ci]);
                }
            }
        }
    }

    // Group constraint indices by root unit, in source order.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new(); // (root, members)
    let mut root_slot: FxHashMap<usize, usize> = FxHashMap::default();
    for (ci, &unit) in unit_of.iter().enumerate() {
        let root = uf.find(unit);
        let slot = *root_slot.entry(root).or_insert_with(|| {
            groups.push((root, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(ci);
    }

    // Materialize bundles. Constraints are moved out of the source set;
    // qualifiers and the sort environment are run-global and shared by
    // `Arc` — each bundle costs two refcount bumps, not two deep copies.
    let ConstraintSet {
        kvars,
        subs,
        quals,
        sort_env,
        ..
    } = cs;
    let mut subs: Vec<Option<SubC>> = subs.into_iter().map(Some).collect();
    let mut out = Vec::with_capacity(groups.len());
    for (_, members) in groups {
        let mut bundle_cs = ConstraintSet::empty(
            std::sync::Arc::clone(&quals),
            std::sync::Arc::clone(&sort_env),
        );
        for &ci in &members {
            let c = subs[ci].take().expect("constraint taken twice");
            for k in &per_constraint[ci] {
                if !bundle_cs.kvars.contains_key(k) {
                    if let Some(kv) = kvars.get(k) {
                        bundle_cs.kvars.insert(*k, kv.clone());
                    }
                }
            }
            bundle_cs.subs.push(c);
        }
        out.push(ConstraintBundle {
            cs: bundle_cs,
            members,
        });
    }
    // Bundles in the order their first constraint appeared, so merged
    // results reproduce the sequential order.
    out.sort_by_key(|b| b.members.first().copied().unwrap_or(usize::MAX));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::Blame;
    use crate::constraint::CEnv;
    use rsc_logic::{CmpOp, Pred, Sort, Subst, Term};

    fn push_concrete(cs: &mut ConstraintSet, origin: &str) {
        cs.push_sub(
            CEnv::new(),
            Pred::vv_eq(Term::int(1)),
            Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
            Sort::Int,
            &Blame::synthetic(origin),
        );
    }

    #[test]
    fn disjoint_units_split() {
        let mut cs = ConstraintSet::new();
        push_concrete(&mut cs, "a");
        push_concrete(&mut cs, "b");
        let bundles = partition(cs, &[0, 1]);
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].members, vec![0]);
        assert_eq!(bundles[1].members, vec![1]);
    }

    #[test]
    fn shared_kvar_merges_units() {
        let mut cs = ConstraintSet::new();
        let k = cs.fresh_kvar(Sort::Int, vec![], "shared");
        let kapp = Pred::KVar(k, Subst::new());
        cs.push_sub(
            CEnv::new(),
            Pred::vv_eq(Term::int(0)),
            kapp.clone(),
            Sort::Int,
            &Blame::synthetic("unit0"),
        );
        let mut env = CEnv::new();
        env.bind("i", Sort::Int, kapp);
        cs.push_sub(
            env,
            Pred::vv_eq(Term::var("i")),
            Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
            Sort::Int,
            &Blame::synthetic("unit1"),
        );
        push_concrete(&mut cs, "unit2");
        let bundles = partition(cs, &[0, 1, 2]);
        assert_eq!(bundles.len(), 2, "units 0 and 1 share κ, unit 2 is free");
        assert_eq!(bundles[0].members, vec![0, 1]);
        assert!(bundles[0].cs.kvars.contains_key(&k));
        assert_eq!(bundles[1].members, vec![2]);
        assert!(bundles[1].cs.kvars.is_empty());
    }

    #[test]
    fn bundle_solves_like_the_whole() {
        // Solving each bundle separately finds the same failure set as
        // solving the undivided constraint set.
        let mut cs = ConstraintSet::new();
        cs.push_sub(
            CEnv::new(),
            Pred::vv_eq(Term::int(5)),
            Pred::cmp(CmpOp::Lt, Term::vv(), Term::int(3)),
            Sort::Int,
            &Blame::synthetic("bad"),
        );
        cs.push_sub(
            CEnv::new(),
            Pred::vv_eq(Term::int(1)),
            Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
            Sort::Int,
            &Blame::synthetic("good"),
        );
        let bundles = partition(cs, &[0, 1]);
        let mut failed_origins = Vec::new();
        for b in &bundles {
            let mut smt = rsc_smt::Solver::new();
            let r = crate::solve(&b.cs, &mut smt);
            for (local, blame) in r.failures {
                failed_origins.push((b.members[local], blame.detail));
            }
        }
        assert_eq!(failed_origins, vec![(0, "bad".to_string())]);
    }
}
