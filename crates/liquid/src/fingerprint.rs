//! Stable cross-run identity for constraint bundles.
//!
//! Incremental check sessions re-generate the whole constraint set on
//! every edit but only want to *re-solve* the bundles whose constraint
//! problem actually changed. The obstacle is that κ-variable ids are
//! allocated by a single run-global counter: adding one κ early in the
//! program renumbers every κ after it, so the raw structure of an
//! untouched downstream bundle still changes between runs.
//!
//! [`bundle_fingerprint`] therefore hashes κ ids by their *canonical
//! within-bundle number* — `κ0, κ1, …` in order of first occurrence over
//! the bundle's constraints. Bundles are closed under κ-sharing by
//! construction (see [`crate::partition`]), and the solver treats κ ids
//! as opaque keys (candidate initialization is per-κ, iteration follows
//! constraint order), so two bundles with equal canonical structure are
//! the *same* fixpoint problem and produce the same verdict, bit for bit.
//!
//! Identities hash structure, never text: predicates, terms and sorts go
//! through their derived [`Hash`], except that the walk over a
//! predicate's connectives substitutes each κ id's canonical number.
//! Environment bindings are shared between the constraints generated
//! under them (see [`crate::CEnv`]), so each binding is digested once per
//! bundle and later occurrences reuse the digest by the binding's
//! address. The digest is what a fresh walk would compute — every κ in
//! the binding was numbered on its first walk — so equal bundles get
//! equal fingerprints however their bindings happen to be shared.
//!
//! The qualifier pool and sort environment are run-global inputs to
//! every bundle's fixpoint; [`global_fingerprint`] hashes them once per
//! run and the result is mixed into each bundle fingerprint.
//!
//! Fingerprints are 128 bits (two independently salted 64-bit hashes):
//! at the scale of a session (thousands of bundles over thousands of
//! edits) accidental collision is negligible, and a collision could only
//! cause a *stale verdict for an equal-looking problem*, never a crash.

use std::collections::hash_map::DefaultHasher;

use std::hash::{Hash, Hasher};
use std::mem::discriminant;

use rsc_logic::{FunSig, FxHashMap, KVarId, Pred, Qualifier, Sort, SortEnv, Sym};

use crate::bundle::ConstraintBundle;
use crate::constraint::{CBind, SubC};

/// Two independently salted 64-bit hashers, combined into a `u128`.
struct Fp {
    a: DefaultHasher,
    b: DefaultHasher,
}

impl Fp {
    fn new() -> Fp {
        let mut a = DefaultHasher::new();
        let mut b = DefaultHasher::new();
        a.write_u64(0x5152_5343_494e_4352); // salt A
        b.write_u64(0x9e37_79b9_7f4a_7c15); // salt B
        Fp { a, b }
    }

    fn finish128(&self) -> u128 {
        ((self.a.finish() as u128) << 64) | self.b.finish() as u128
    }
}

impl Hasher for Fp {
    fn write(&mut self, bytes: &[u8]) {
        self.a.write(bytes);
        self.b.write(bytes);
    }

    /// The first half only; fingerprints use [`Fp::finish128`].
    fn finish(&self) -> u64 {
        self.a.finish()
    }
}

/// One bundle's hashing state: the canonical κ numbering and the digests
/// of the bindings met so far, by address.
#[derive(Default)]
struct Canon {
    kvars: FxHashMap<KVarId, u32>,
    binds: FxHashMap<*const CBind, u128>,
}

impl Canon {
    /// κ's canonical number, assigned on first occurrence.
    fn kvar(&mut self, k: KVarId) -> u32 {
        let next = self.kvars.len() as u32;
        *self.kvars.entry(k).or_insert(next)
    }

    /// Hashes `p` structurally, with κ ids replaced by their canonical
    /// numbers.
    fn pred(&mut self, p: &Pred, out: &mut Fp) {
        match p {
            Pred::And(ps) | Pred::Or(ps) => {
                discriminant(p).hash(out);
                out.write_usize(ps.len());
                for q in ps {
                    self.pred(q, out);
                }
            }
            Pred::Not(q) => {
                discriminant(p).hash(out);
                self.pred(q, out);
            }
            Pred::Imp(a, b) | Pred::Iff(a, b) => {
                discriminant(p).hash(out);
                self.pred(a, out);
                self.pred(b, out);
            }
            Pred::KVar(k, theta) => {
                discriminant(p).hash(out);
                out.write_u32(self.kvar(*k));
                theta.hash(out);
            }
            // No κ below these: the derived hash is the structure.
            Pred::True | Pred::False | Pred::Cmp(..) | Pred::App(..) | Pred::TermPred(_) => {
                p.hash(out)
            }
        }
    }

    /// The digest of one binding, computed on its first occurrence in the
    /// bundle and reused by address after that.
    fn bind(&mut self, b: &CBind) -> u128 {
        let key: *const CBind = b;
        if let Some(d) = self.binds.get(&key) {
            return *d;
        }
        let mut h = Fp::new();
        b.name().hash(&mut h);
        b.sort().hash(&mut h);
        self.pred(b.pred(), &mut h);
        let d = h.finish128();
        self.binds.insert(key, d);
        d
    }

    // `c.blame` is deliberately NOT hashed. Blame is pure provenance
    // (spans, obligation kinds, rendered refinements) and never
    // influences a verdict, so excluding it is what lets
    // comment/whitespace-only edits — which shift every span in the file
    // — keep every bundle fingerprint intact and re-solve zero bundles
    // in an incremental session. Consumers re-attach blame from the
    // current run's constraints.
    fn sub(&mut self, c: &SubC, out: &mut Fp) {
        c.vv_sort.hash(out);
        out.write_usize(c.env.binds.len());
        for b in &c.env.binds {
            out.write_u128(self.bind(b));
        }
        out.write_usize(c.env.guards.len());
        for g in &c.env.guards {
            self.pred(g, out);
        }
        self.pred(&c.lhs, out);
        self.pred(&c.rhs, out);
    }
}

/// Hashes the run-global solve inputs shared by every bundle: the
/// qualifier pool (in order — candidate initialization is
/// order-sensitive) and the sort environment (variables and
/// uninterpreted-function signatures, name-sorted).
pub fn global_fingerprint(quals: &[Qualifier], sort_env: &SortEnv) -> u64 {
    let mut h = DefaultHasher::new();
    quals.hash(&mut h);
    let mut vars: Vec<(&Sym, Sort)> = sort_env.vars().collect();
    vars.sort_unstable_by(|x, y| x.0.cmp(y.0));
    vars.hash(&mut h);
    let mut funs: Vec<(&Sym, &FunSig)> = sort_env.funs().collect();
    funs.sort_unstable_by(|x, y| x.0.cmp(y.0));
    funs.hash(&mut h);
    h.finish()
}

/// The canonical 128-bit identity of a bundle's constraint problem,
/// mixed with the run-global [`global_fingerprint`]. Equal fingerprints
/// mean the bundles are the same fixpoint problem up to κ renumbering —
/// solving either yields the same per-constraint verdicts and the same
/// query counts (see the module docs for why).
pub fn bundle_fingerprint(b: &ConstraintBundle, global: u64) -> u128 {
    let mut out = Fp::new();
    out.write_u64(global);
    let mut canon = Canon::default();
    out.write_usize(b.cs.subs.len());
    for c in &b.cs.subs {
        canon.sub(c, &mut out);
    }
    // κ metadata, in canonical-id order. κs that never occur in a
    // constraint cannot influence any verdict and are skipped.
    let mut metas: Vec<(u32, KVarId)> = canon.kvars.iter().map(|(k, cid)| (*cid, *k)).collect();
    metas.sort_unstable();
    for (_, k) in metas {
        match b.cs.kvars.get(&k) {
            Some(kv) => {
                out.write_u8(1);
                kv.vv_sort.hash(&mut out);
                kv.scope.hash(&mut out);
            }
            None => out.write_u8(0),
        }
    }
    out.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::{Blame, ObligationKind};
    use crate::constraint::{CEnv, ConstraintSet};
    use crate::partition;
    use rsc_logic::{CmpOp, Pred, Sort, Subst, Term};
    use rsc_syntax::Span;

    /// Two runs that allocate the same bundle at different global κ
    /// offsets must agree on the fingerprint.
    #[test]
    fn kvar_renumbering_is_invisible() {
        let build = |burn: usize| {
            let mut cs = ConstraintSet::new();
            for i in 0..burn {
                // Burn κ ids (as an earlier edited function would).
                cs.fresh_kvar(Sort::Int, vec![], format!("burned {i}"));
            }
            let k = cs.fresh_kvar(Sort::Int, vec![(Sym::from("i"), Sort::Int)], "phi");
            let kapp = Pred::KVar(k, Subst::new());
            cs.push_sub(
                CEnv::new(),
                Pred::vv_eq(Term::int(0)),
                kapp.clone(),
                Sort::Int,
                &Blame::synthetic("init"),
            );
            let mut env = CEnv::new();
            env.bind("i", Sort::Int, kapp);
            cs.push_sub(
                env,
                Pred::vv_eq(Term::var("i")),
                Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
                Sort::Int,
                &Blame::synthetic("use"),
            );
            let bundles = partition(cs, &[0, 0]);
            assert_eq!(bundles.len(), 1);
            bundle_fingerprint(&bundles[0], 7)
        };
        assert_eq!(build(0), build(5));
    }

    /// Provenance is excluded: two constraints that differ only in
    /// their blame (as after a comment-only edit shifting every span)
    /// share a fingerprint, while a real predicate change splits it.
    #[test]
    fn provenance_is_excluded_but_predicates_count() {
        let build = |blame: Blame, bound: i64| {
            let mut cs = ConstraintSet::new();
            cs.push_sub(
                CEnv::new(),
                Pred::vv_eq(Term::int(1)),
                Pred::cmp(CmpOp::Le, Term::int(bound), Term::vv()),
                Sort::Int,
                &blame,
            );
            let bundles = partition(cs, &[0]);
            bundle_fingerprint(&bundles[0], 7)
        };
        let line3 = Blame::new(
            ObligationKind::ArrayBounds,
            "bound",
            Span {
                lo: 10,
                hi: 14,
                line: 3,
            },
        );
        let line4 = Blame::new(
            ObligationKind::Return,
            "other detail",
            Span {
                lo: 99,
                hi: 120,
                line: 4,
            },
        );
        assert_eq!(
            build(line3.clone(), 0),
            build(line4, 0),
            "blame-only differences must not change the fingerprint"
        );
        assert_ne!(
            build(line3.clone(), 0),
            build(line3, 1),
            "a predicate change must change the fingerprint"
        );
    }

    /// A bundle of three constraints under one environment `i:κ, n`,
    /// pushed either with the environment's bindings shared (one
    /// allocation each, as constraint generation pushes them) or with
    /// every constraint's bindings allocated separately. `n_bound`
    /// is the refinement of `n`.
    fn three_under_one_env(shared: bool, n_bound: i64) -> u128 {
        let mut cs = ConstraintSet::new();
        let k = cs.fresh_kvar(Sort::Int, vec![(Sym::from("n"), Sort::Int)], "phi");
        let kapp = Pred::KVar(k, Subst::new());
        let env = || {
            let mut env = CEnv::new();
            env.bind("i", Sort::Int, kapp.clone());
            env.bind(
                "n",
                Sort::Int,
                Pred::cmp(CmpOp::Le, Term::int(n_bound), Term::vv()),
            );
            env
        };
        let one = env();
        let goals = [
            kapp.clone(),
            Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
            Pred::cmp(CmpOp::Lt, Term::vv(), Term::var("n")),
        ];
        for goal in goals {
            let env = if shared { one.clone() } else { env() };
            cs.push_sub(
                env,
                Pred::vv_eq(Term::var("i")),
                goal,
                Sort::Int,
                &Blame::synthetic("c"),
            );
        }
        let bundles = partition(cs, &[0, 0, 0]);
        assert_eq!(bundles.len(), 1);
        bundle_fingerprint(&bundles[0], 7)
    }

    /// Sharing is representation, not content: the digest memo is keyed
    /// by address, but its values are what a fresh walk computes.
    #[test]
    fn shared_and_separate_bindings_agree() {
        assert_eq!(three_under_one_env(true, 0), three_under_one_env(false, 0));
    }

    /// A change inside one shared binding reaches every constraint
    /// under it.
    #[test]
    fn a_shared_binding_change_splits() {
        assert_ne!(three_under_one_env(true, 0), three_under_one_env(true, 1));
        assert_ne!(three_under_one_env(false, 0), three_under_one_env(false, 1));
    }

    /// The global component (qualifier pool / sort env) splits keys.
    #[test]
    fn global_component_splits() {
        let mut cs = ConstraintSet::new();
        cs.push_sub(
            CEnv::new(),
            Pred::vv_eq(Term::int(1)),
            Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
            Sort::Int,
            &Blame::synthetic("c"),
        );
        let g1 = global_fingerprint(&cs.quals, &cs.sort_env);
        let mut env2 = (*cs.sort_env).clone();
        env2.bind("extra", Sort::Int);
        let g2 = global_fingerprint(&cs.quals, &env2);
        assert_ne!(g1, g2);
        let bundles = partition(cs, &[0]);
        assert_ne!(
            bundle_fingerprint(&bundles[0], g1),
            bundle_fingerprint(&bundles[0], g2)
        );
    }
}
