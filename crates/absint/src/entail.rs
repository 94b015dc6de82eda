//! Abstract entailment over [`rsc_logic`] predicates: the discharge
//! decision procedure of the pre-solve tier.
//!
//! [`FactEnv::of_hyps`] folds a hypothesis conjunction into per-atom
//! abstract values (atoms are variables and `len(x)` applications);
//! [`FactEnv::entails`] then decides whether a goal predicate holds in
//! every concrete state the abstract one describes. `entails` never
//! mutates the environment (union-find roots are looked up without path
//! compression on the query side), so one fold answers every goal over
//! the same hypotheses exactly as a fresh fold per goal would.
//!
//! **The fragment.** Only comparisons are folded and proved:
//!
//! * a hypothesis is `false`, an integer comparison or an equality
//!   between reference variables; every other hypothesis
//!   (connectives, boolean truthiness, κs, uninterpreted predicates)
//!   is ignored;
//! * a goal is `true`, an integer comparison or an equality between
//!   reference variables; every other goal is unproven, unless the
//!   hypotheses are contradictory.
//!
//! Integer comparisons feed intervals per atom, the assumed `≤` rows
//! (for row subsumption) and unit-coefficient equality substitutions;
//! a `≠` against a constant shaves an interval endpoint. Reference
//! equalities feed a union-find over variables. Contradictory
//! hypotheses prove a goal only when every free variable of the goal
//! has a binder sort: the solver cannot state any other goal, so it
//! could not replay the discharge.
//!
//! **Soundness contract (discharge-only).** A discharge must be
//! re-derivable by the SMT solver from the *same* hypotheses, so this
//! module deliberately stays inside the solver's provable fragment:
//!
//! * interval facts come only from linear constraints (the solver's
//!   Fourier–Motzkin core with per-row integer tightening re-derives
//!   every interval bound produced here);
//! * `div`/`mod` and variable·variable products are uninterpreted at
//!   the SMT layer, so they are *not linearizable* here — the congruence
//!   domain never feeds an entailment answer (it powers lints only, see
//!   `crate::lint`);
//! * the reference union-find mirrors ground EUF equalities between
//!   variables exactly;
//! * hypotheses with many integer disequalities are rejected outright
//!   ([`MAX_INT_DISEQS`]): the solver's disequality case-split cap can
//!   make it give up on conjunctions a relational domain would still
//!   decide, and a discharge the solver cannot replay is a bug.
//!
//! Anything the module cannot track is ignored on the assumption side
//! (weaker hypotheses can only make entailment harder) and unprovable on
//! the goal side — both conservative directions. That includes every
//! term whose i128 arithmetic overflows; an interval bound that
//! overflows is unbounded.

use std::collections::HashMap;

use rsc_logic::{BinOp, CmpOp, Pred, Sort, Sym, Term};

use crate::domain::Interval;

/// Hypothesis sets with more integer disequalities than this are never
/// discharged: `rsc_smt`'s Fourier–Motzkin disequality splitting is
/// capped (it answers `Feasible`, i.e. *unproven*, beyond 14 splits),
/// and a discharge must never outrun the solver.
pub const MAX_INT_DISEQS: usize = 12;

/// A numeric atom the interval component tracks.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Atom {
    /// A program variable.
    Var(Sym),
    /// `len(x)`.
    Len(Sym),
}

/// A linear combination `Σ cᵢ·atomᵢ + konst` over i128. Every operation
/// is checked: an i128 overflow yields `None`, and a combination that
/// cannot be formed is not linearizable (ignored as a hypothesis,
/// unprovable as a goal).
#[derive(Clone, Debug, Default, PartialEq)]
struct Lin {
    coeffs: Vec<(Atom, i128)>,
    konst: i128,
}

impl Lin {
    fn konst(c: i128) -> Lin {
        Lin {
            coeffs: Vec::new(),
            konst: c,
        }
    }

    fn atom(a: Atom) -> Lin {
        Lin {
            coeffs: vec![(a, 1)],
            konst: 0,
        }
    }

    #[must_use]
    fn add_term(&mut self, a: Atom, c: i128) -> Option<()> {
        if let Some(e) = self.coeffs.iter_mut().find(|(b, _)| *b == a) {
            e.1 = e.1.checked_add(c)?;
        } else {
            self.coeffs.push((a, c));
        }
        self.coeffs.retain(|(_, c)| *c != 0);
        Some(())
    }

    fn add(mut self, other: &Lin) -> Option<Lin> {
        for (a, c) in &other.coeffs {
            self.add_term(a.clone(), *c)?;
        }
        self.konst = self.konst.checked_add(other.konst)?;
        Some(self)
    }

    fn scale(mut self, k: i128) -> Option<Lin> {
        if k == 0 {
            return Some(Lin::konst(0));
        }
        for e in &mut self.coeffs {
            e.1 = e.1.checked_mul(k)?;
        }
        self.konst = self.konst.checked_mul(k)?;
        Some(self)
    }

    /// `self − other`.
    fn sub(self, other: Lin) -> Option<Lin> {
        self.add(&other.scale(-1)?)
    }
}

/// The abstract state of one obligation's hypotheses.
#[derive(Clone, Debug)]
pub struct FactEnv {
    sorts: HashMap<Sym, Sort>,
    itvs: HashMap<Atom, Interval>,
    /// Union-find over reference variables (ground EUF equalities).
    parents: HashMap<Sym, Sym>,
    /// Unit-coefficient equality substitutions `x ↦ Σ cᵢ·atomᵢ + k`,
    /// mirroring the solver's Gaussian elimination step. Acyclic by
    /// construction: a recorded right-hand side is always fully
    /// expanded, so it never mentions an already-substituted variable.
    substs: HashMap<Sym, Lin>,
    /// Assumed inequality rows, each normalized to `l ≤ 0` and fully
    /// expanded. Used for row subsumption: a goal `g ≤ 0` holds when
    /// `g − r` is interval-bounded by 0 for some row `r` (a Farkas
    /// combination Fourier–Motzkin re-derives).
    rows: Vec<Lin>,
    bottom: bool,
    int_diseqs: usize,
}

impl FactEnv {
    /// A ⊤ environment knowing only the binder sorts.
    pub fn new(binders: &[(Sym, Sort)]) -> FactEnv {
        FactEnv {
            sorts: binders.iter().cloned().collect(),
            itvs: HashMap::new(),
            parents: HashMap::new(),
            substs: HashMap::new(),
            rows: Vec::new(),
            bottom: false,
            int_diseqs: 0,
        }
    }

    /// Folds a hypothesis conjunction into one environment, to a local
    /// fixpoint: relational chains like `x = y ∧ 0 ≤ x` need a second
    /// pass to reach `y`. `None` when the hypotheses carry more than
    /// [`MAX_INT_DISEQS`] integer disequalities — such a list never
    /// discharges anything. The result answers any number of goals
    /// through the read-only [`FactEnv::entails`].
    pub fn of_hyps(binders: &[(Sym, Sort)], hyps: &[Pred]) -> Option<FactEnv> {
        let mut env = FactEnv::new(binders);
        // Up to three passes over the hypotheses: assume-order
        // independence for short chains, deterministic by construction.
        for _ in 0..3 {
            let before = (env.itvs.clone(), env.rows.len(), env.substs.len());
            env.int_diseqs = 0;
            for h in hyps {
                env.assume(h);
            }
            if env.int_diseqs > MAX_INT_DISEQS {
                return None;
            }
            if env.bottom {
                break;
            }
            let after = (env.itvs.clone(), env.rows.len(), env.substs.len());
            if after == before {
                break;
            }
        }
        Some(env)
    }

    /// The union-find root of `x`, without path compression: the query
    /// side never mutates the environment, so one folded environment
    /// answers any number of goals exactly as a fresh one would.
    fn find(&self, x: &Sym) -> Sym {
        find_root(&self.parents, x)
    }

    /// The union-find root of `x`, compressing its path (assume side).
    fn root(&mut self, x: &Sym) -> Sym {
        compress_root(&mut self.parents, x)
    }

    /// Merges the classes of `x` and `y`.
    fn union(&mut self, x: &Sym, y: &Sym) {
        let rx = self.root(x);
        let ry = self.root(y);
        if rx != ry {
            self.parents.insert(rx, ry);
        }
    }

    /// The sort of a comparison operand, as far as the fragment needs
    /// it: integer terms and reference variables.
    fn sort_of(&self, t: &Term) -> Option<Sort> {
        match t {
            Term::Var(x) => self.sorts.get(x).copied(),
            Term::IntLit(_) | Term::Neg(_) => Some(Sort::Int),
            Term::App(f, args) if f.as_str() == "len" && args.len() == 1 => Some(Sort::Int),
            Term::Bin(op, ..) if !matches!(op, BinOp::BvAnd | BinOp::BvOr) => Some(Sort::Int),
            _ => None,
        }
    }

    /// Linearizes an integer term for the query side (`len` arguments
    /// resolved without path compression).
    fn lin(&self, t: &Term) -> Option<Lin> {
        lin_over(&self.sorts, t, &mut |x| self.find(x))
    }

    /// Linearizes an integer term for the assume side, compressing the
    /// union-find path of every `len` argument it resolves.
    fn lin_mut(&mut self, t: &Term) -> Option<Lin> {
        let FactEnv { sorts, parents, .. } = self;
        lin_over(sorts, t, &mut |x| compress_root(parents, x))
    }

    fn itv_of(&self, a: &Atom) -> Interval {
        self.itvs.get(a).copied().unwrap_or(Interval::TOP)
    }

    /// Rewrites a combination through the equality substitutions until
    /// no substituted variable remains. Terminates because the
    /// substitution graph is acyclic; the iteration cap is a backstop.
    /// `None` on i128 overflow.
    fn expand(&self, mut l: Lin) -> Option<Lin> {
        for _ in 0..64 {
            let Some(pos) = l
                .coeffs
                .iter()
                .position(|(a, _)| matches!(a, Atom::Var(x) if self.substs.contains_key(x)))
            else {
                return Some(l);
            };
            let (atom, c) = l.coeffs.remove(pos);
            let Atom::Var(x) = atom else { unreachable!() };
            let rhs = self.substs[&x].clone();
            l = l.add(&rhs.scale(c)?)?;
        }
        Some(l)
    }

    /// Records `l ≤ 0` as a known row and refines atom intervals from
    /// it. `l` must already be expanded.
    fn assume_le_row(&mut self, l: Lin) {
        if !l.coeffs.is_empty() && !self.rows.contains(&l) {
            self.rows.push(l.clone());
        }
        self.refine_le(&l);
    }

    /// Records a unit-coefficient equality `d = 0` as a substitution
    /// (the solver's Gaussian elimination step). `d` must be expanded.
    fn record_subst(&mut self, d: &Lin) {
        let Some((atom, c)) = d
            .coeffs
            .iter()
            .find(|(a, c)| {
                (*c == 1 || *c == -1) && matches!(a, Atom::Var(x) if !self.substs.contains_key(x))
            })
            .cloned()
        else {
            return;
        };
        let Atom::Var(x) = atom else { return };
        // c·x + rest = 0  ⇒  x = rest·(−1/c).
        let mut rest = d.clone();
        rest.coeffs.retain(|(a, _)| *a != Atom::Var(x.clone()));
        let Some(rhs) = rest.scale(-c) else { return };
        self.substs.insert(x, rhs);
    }

    /// Interval bounds of a linear combination; a bound whose arithmetic
    /// overflows i128 is unbounded (`None`).
    fn eval(&self, l: &Lin) -> (Option<i128>, Option<i128>) {
        let mut lo = Some(l.konst);
        let mut hi = Some(l.konst);
        let step = |acc: Option<i128>, c: i128, b: Option<i64>| {
            acc?.checked_add(c.checked_mul(i128::from(b?))?)
        };
        for (a, c) in &l.coeffs {
            let itv = self.itv_of(a);
            let (alo, ahi) = if *c >= 0 {
                (itv.lo, itv.hi)
            } else {
                (itv.hi, itv.lo)
            };
            lo = step(lo, *c, alo);
            hi = step(hi, *c, ahi);
        }
        (lo, hi)
    }

    /// Assumes `l ≤ 0`, refining every atom's interval.
    ///
    /// Rounding discipline: the solver's Fourier–Motzkin core only
    /// applies gcd-tightening per *row* (`tighten_le`), and its
    /// fill-in-driven elimination order decides which derived rows
    /// exist — an integer cut the interval view can see (divide a
    /// multi-variable row's residual bound by a non-unit coefficient
    /// and floor) is not guaranteed to be derived by any particular
    /// elimination order, so flooring here would discharge obligations
    /// the solver cannot replay. We therefore floor only when the
    /// division is exact (the bound is rational-FM-derivable as is) or
    /// the row has a single variable (the solver tightens input rows
    /// with the identical `⌊b/c⌋`); otherwise the fractional bound is
    /// relaxed outward to the enclosing integer, which every rational
    /// derivation also admits. A bound whose arithmetic overflows i128
    /// is treated as unbounded.
    fn refine_le(&mut self, l: &Lin) {
        if l.coeffs.is_empty() {
            if l.konst > 0 {
                self.bottom = true;
            }
            return;
        }
        let single_var = l.coeffs.len() == 1;
        for i in 0..l.coeffs.len() {
            let (atom, c) = l.coeffs[i].clone();
            // c·x ≤ -konst - Σ_{j≠i} min(c_j·x_j)
            let mut bound = l.konst.checked_neg();
            for (j, (a, cj)) in l.coeffs.iter().enumerate() {
                if j == i {
                    continue;
                }
                let itv = self.itv_of(a);
                let contrib = if *cj >= 0 { itv.lo } else { itv.hi };
                bound = match (bound, contrib) {
                    (Some(b), Some(v)) => {
                        cj.checked_mul(i128::from(v)).and_then(|m| b.checked_sub(m))
                    }
                    _ => None,
                };
            }
            let (Some(b), Some(m)) = (bound, c.checked_abs()) else {
                continue;
            };
            let exact = b.rem_euclid(m) == 0;
            let refined = if c > 0 {
                let q = b.div_euclid(c);
                Interval {
                    lo: None,
                    // Non-exact multi-var division: relax to ⌈b/c⌉.
                    hi: if exact || single_var {
                        Some(q)
                    } else {
                        q.checked_add(1)
                    }
                    .and_then(to_i64),
                }
            } else {
                // c < 0: x ≥ ⌈b/c⌉ = -⌊b/(-c)⌋; non-exact multi-var
                // division relaxes to ⌊b/c⌋ = -⌊b/(-c)⌋ - 1.
                let q = b.div_euclid(m).checked_neg();
                Interval {
                    lo: if exact || single_var {
                        q
                    } else {
                        q.and_then(|q| q.checked_sub(1))
                    }
                    .and_then(to_i64),
                    hi: None,
                }
            };
            if refined.lo.is_none() && refined.hi.is_none() {
                continue;
            }
            let e = self.itvs.entry(atom).or_insert(Interval::TOP);
            *e = e.meet(&refined);
            if e.is_empty() {
                self.bottom = true;
                return;
            }
        }
    }

    /// Assumes an integer comparison. A comparison that is not
    /// linearizable (including one whose arithmetic overflows i128) is
    /// ignored.
    fn assume_int_cmp(&mut self, op: CmpOp, a: &Term, b: &Term) {
        let Some(d) = self
            .lin_mut(a)
            .zip(self.lin_mut(b))
            .and_then(|(la, lb)| self.expand(la.sub(lb)?))
        else {
            return;
        };
        match op {
            CmpOp::Le => self.assume_le_row(d),
            CmpOp::Lt => {
                if let Some(r) = d.add(&Lin::konst(1)) {
                    self.assume_le_row(r);
                }
            }
            CmpOp::Ge => {
                if let Some(r) = d.scale(-1) {
                    self.assume_le_row(r);
                }
            }
            CmpOp::Gt => {
                if let Some(r) = d.scale(-1).and_then(|r| r.add(&Lin::konst(1))) {
                    self.assume_le_row(r);
                }
            }
            CmpOp::Eq => {
                let Some(neg) = d.clone().scale(-1) else {
                    return;
                };
                self.assume_le_row(d.clone());
                self.assume_le_row(neg);
                self.record_subst(&d);
            }
            CmpOp::Ne => {
                self.int_diseqs += 1;
                // Endpoint shaving: x ≠ k with x ∈ [k, h] tightens to
                // [k+1, h] (one disequality split for the solver).
                let [(atom, c @ (1 | -1))] = &d.coeffs[..] else {
                    return;
                };
                let Some(k) = d.konst.checked_mul(-c).and_then(to_i64) else {
                    return;
                };
                let e = self.itvs.entry(atom.clone()).or_insert(Interval::TOP);
                if e.lo == Some(k) {
                    e.lo = k.checked_add(1);
                } else if e.hi == Some(k) {
                    e.hi = k.checked_sub(1);
                }
                if e.is_empty() {
                    self.bottom = true;
                }
            }
        }
    }

    /// Folds one hypothesis into the environment: `false`, integer
    /// comparisons and reference equalities, which merge union-find
    /// classes. Every other shape is ignored (conservative: fewer facts,
    /// harder entailment).
    pub fn assume(&mut self, p: &Pred) {
        if self.bottom {
            return;
        }
        match p {
            Pred::False => self.bottom = true,
            Pred::Cmp(op, a, b) => match (self.sort_of(a), self.sort_of(b)) {
                (Some(Sort::Int), Some(Sort::Int)) => self.assume_int_cmp(*op, a, b),
                (Some(Sort::Ref), Some(Sort::Ref)) if *op == CmpOp::Eq => {
                    if let (Term::Var(x), Term::Var(y)) = (a, b) {
                        self.union(x, y);
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// Decides whether the hypotheses entail `goal`: `true`, integer
    /// comparisons and reference equalities, or any goal over binder-sorted
    /// variables when the hypotheses are contradictory. `false` means
    /// "unproven", never "refuted". Read-only, so one environment from
    /// [`FactEnv::of_hyps`] answers any number of goals, in any order,
    /// exactly as [`entailed_by`] answers each on a fresh one.
    pub fn entails(&self, goal: &Pred) -> bool {
        if self.bottom {
            // A goal over a variable without a binder sort cannot be
            // encoded, so the solver could not replay its discharge.
            return goal.free_vars().iter().all(|x| self.sorts.contains_key(x));
        }
        match goal {
            Pred::True => true,
            Pred::Cmp(op, a, b) => match (self.sort_of(a), self.sort_of(b)) {
                (Some(Sort::Int), Some(Sort::Int)) => self.entails_int_cmp(*op, a, b),
                (Some(Sort::Ref), Some(Sort::Ref)) => match (a, b) {
                    (Term::Var(x), Term::Var(y)) if *op == CmpOp::Eq => {
                        self.find(x) == self.find(y)
                    }
                    _ => false,
                },
                _ => false,
            },
            _ => false,
        }
    }

    /// Proves `d ≤ 0`: directly by interval evaluation, or by
    /// subsumption against a known row (`d − r` bounded by 0 — a
    /// positive Farkas combination the solver's Fourier–Motzkin core
    /// also derives). A combination that overflowed (`None`) is
    /// unprovable.
    fn proves_le(&self, d: Option<Lin>) -> bool {
        let Some(d) = d else { return false };
        let le_zero = |l: &Lin| matches!(self.eval(l).1, Some(h) if h <= 0);
        le_zero(&d)
            || self.rows.iter().any(|row| {
                row.clone()
                    .scale(-1)
                    .and_then(|r| self.expand(d.clone().add(&r)?))
                    .is_some_and(|diff| le_zero(&diff))
            })
    }

    fn entails_int_cmp(&self, op: CmpOp, a: &Term, b: &Term) -> bool {
        let Some(d) = self
            .lin(a)
            .zip(self.lin(b))
            .and_then(|(la, lb)| self.expand(la.sub(lb)?))
        else {
            return false;
        };
        let one = Lin::konst(1);
        match op {
            CmpOp::Le => self.proves_le(Some(d)),
            CmpOp::Lt => self.proves_le(d.add(&one)),
            CmpOp::Ge => self.proves_le(d.scale(-1)),
            CmpOp::Gt => self.proves_le(d.scale(-1).and_then(|n| n.add(&one))),
            CmpOp::Eq => self.proves_le(Some(d.clone())) && self.proves_le(d.scale(-1)),
            CmpOp::Ne => {
                self.proves_le(d.clone().add(&one))
                    || self.proves_le(d.scale(-1).and_then(|n| n.add(&one)))
            }
        }
    }
}

fn to_i64(v: i128) -> Option<i64> {
    i64::try_from(v).ok()
}

/// The union-find root of `x` in `parents`.
fn find_root(parents: &HashMap<Sym, Sym>, x: &Sym) -> Sym {
    let mut r = x;
    while let Some(p) = parents.get(r) {
        if p == r {
            break;
        }
        r = p;
    }
    r.clone()
}

/// The union-find root of `x`, pointing every node on its path straight
/// at the root.
fn compress_root(parents: &mut HashMap<Sym, Sym>, x: &Sym) -> Sym {
    let r = find_root(parents, x);
    let mut cur = x.clone();
    while let Some(p) = parents.get(&cur).cloned() {
        if p == r {
            break;
        }
        parents.insert(cur.clone(), r.clone());
        cur = p;
    }
    r
}

/// Linearizes an integer term over tracked atoms, resolving each
/// `len(x)` to the union-find root `root` gives for `x`. `None` = contains
/// something the solver leaves uninterpreted (or untracked), or
/// overflows i128.
fn lin_over(
    sorts: &HashMap<Sym, Sort>,
    t: &Term,
    root: &mut dyn FnMut(&Sym) -> Sym,
) -> Option<Lin> {
    match t {
        Term::IntLit(n) => Some(Lin::konst(i128::from(*n))),
        Term::Var(x) if sorts.get(x) == Some(&Sort::Int) => Some(Lin::atom(Atom::Var(x.clone()))),
        Term::Neg(a) => lin_over(sorts, a, root)?.scale(-1),
        Term::App(f, args) if f.as_str() == "len" && args.len() == 1 => match &args[0] {
            Term::Var(x) if sorts.get(x) == Some(&Sort::Ref) => Some(Lin::atom(Atom::Len(root(x)))),
            _ => None,
        },
        Term::Bin(op, a, b) => {
            let la = lin_over(sorts, a, root)?;
            let lb = lin_over(sorts, b, root)?;
            match op {
                BinOp::Add => la.add(&lb),
                BinOp::Sub => la.sub(lb),
                BinOp::Mul => {
                    if la.coeffs.is_empty() {
                        lb.scale(la.konst)
                    } else if lb.coeffs.is_empty() {
                        la.scale(lb.konst)
                    } else {
                        None // nonlinear: uninterpreted at the SMT layer
                    }
                }
                // `div`/`mod` are uninterpreted unless both sides are
                // constants, in which case `Term::bin` already folded.
                BinOp::Div | BinOp::Mod | BinOp::BvAnd | BinOp::BvOr => None,
            }
        }
        _ => None,
    }
}

/// The discharge decision: do `hyps` abstractly entail `goal`, within
/// the solver-replayable fragment? [`FactEnv::of_hyps`] then
/// [`FactEnv::entails`]; callers asking several goals of one hypothesis
/// list fold it once and ask the environment directly.
pub fn entailed_by(binders: &[(Sym, Sort)], hyps: &[Pred], goal: &Pred) -> bool {
    FactEnv::of_hyps(binders, hyps).is_some_and(|env| env.entails(goal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::Term as T;

    fn int_binders() -> Vec<(Sym, Sort)> {
        vec![
            (Sym::from("x"), Sort::Int),
            (Sym::from("y"), Sort::Int),
            (Sym::from("v"), Sort::Int),
        ]
    }

    #[test]
    fn interval_discharge_basics() {
        let b = int_binders();
        // x = 0 ∧ v = x + 1 ⊨ 0 < v
        let hyps = vec![
            Pred::cmp(CmpOp::Eq, T::var("x"), T::int(0)),
            Pred::cmp(CmpOp::Eq, T::vv(), T::add(T::var("x"), T::int(1))),
        ];
        assert!(entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Lt, T::int(0), T::vv())
        ));
        assert!(!entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Lt, T::int(1), T::vv())
        ));
    }

    #[test]
    fn tightening_matches_integer_division() {
        let b = int_binders();
        // 2x ≤ 7 ⊨ x ≤ 3 (integer tightening).
        let hyps = vec![Pred::cmp(
            CmpOp::Le,
            T::mul(T::int(2), T::var("x")),
            T::int(7),
        )];
        assert!(entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Le, T::var("x"), T::int(3))
        ));
    }

    #[test]
    fn nonlinear_and_mod_never_discharge() {
        let b = int_binders();
        // x·y = 4 proves nothing here (uninterpreted at the SMT layer).
        let hyps = vec![Pred::cmp(
            CmpOp::Eq,
            T::mul(T::var("x"), T::var("y")),
            T::int(4),
        )];
        assert!(!entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Ne, T::mul(T::var("x"), T::var("y")), T::int(5)),
        ));
        // x mod 2 = 0 must not feed entailment either.
        let hyps = vec![Pred::cmp(
            CmpOp::Eq,
            T::bin(rsc_logic::BinOp::Mod, T::var("x"), T::int(2)),
            T::int(0),
        )];
        assert!(!entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Ne, T::var("x"), T::int(3))
        ));
    }

    #[test]
    fn contradictory_hypotheses_entail_everything() {
        let b = int_binders();
        let hyps = vec![
            Pred::cmp(CmpOp::Lt, T::var("x"), T::int(0)),
            Pred::cmp(CmpOp::Gt, T::var("x"), T::int(0)),
        ];
        assert!(entailed_by(&b, &hyps, &Pred::False));
    }

    /// Under contradictory hypotheses a goal is proved only when the
    /// solver can state it: `w` has no binder sort, so `v ≤ w` would
    /// be an encoding error there, not a valid query.
    #[test]
    fn contradictory_hypotheses_prove_only_bound_goals() {
        let b = int_binders();
        let hyps = vec![Pred::cmp(CmpOp::Lt, T::var("x"), T::var("x"))];
        assert!(entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Le, T::vv(), T::var("y"))
        ));
        assert!(!entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Le, T::vv(), T::var("w"))
        ));
    }

    #[test]
    fn len_atoms_flow_through_axioms() {
        let b = vec![
            (Sym::from("a"), Sort::Ref),
            (Sym::from("i"), Sort::Int),
            (Sym::from("v"), Sort::Int),
        ];
        // 0 ≤ len(a) ∧ i < len(a) ∧ 0 ≤ i ∧ v = i ⊨ 0 ≤ v ∧ v < len(a)
        let len_a = T::len_of(T::var("a"));
        let hyps = vec![
            Pred::cmp(CmpOp::Le, T::int(0), len_a.clone()),
            Pred::cmp(CmpOp::Lt, T::var("i"), len_a.clone()),
            Pred::cmp(CmpOp::Le, T::int(0), T::var("i")),
            Pred::cmp(CmpOp::Eq, T::vv(), T::var("i")),
        ];
        assert!(entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Le, T::int(0), T::vv())
        ));
        assert!(entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Lt, T::vv(), len_a),
        ));
    }

    /// i64-range coefficients whose products leave i128 — in a
    /// hypothesis, in a goal, and in interval evaluation — must neither
    /// panic nor wrap into a discharge.
    #[test]
    fn i128_overflow_is_never_linearized() {
        let b = int_binders();
        let big = || T::int(9_000_000_000_000_000_000);
        let huge = |t: Term| T::mul(big(), T::mul(big(), T::mul(big(), t)));
        // The overflowing guard is ignored, so nothing proves x < 0.
        let hyps = vec![Pred::cmp(CmpOp::Le, huge(T::var("x")), T::int(0))];
        assert!(!entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Lt, T::var("x"), T::int(0))
        ));
        // An overflowing goal is unprovable, whatever the hypotheses.
        let hyps = vec![Pred::cmp(CmpOp::Lt, T::int(0), T::var("x"))];
        assert!(!entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Lt, huge(T::var("x")), T::int(0))
        ));
        // Bounds whose arithmetic overflows are unbounded, not wrapped:
        // 81e36·x at x = ±3 leaves i128 when refining y from the row
        // and when evaluating the goal.
        let wide = T::mul(big(), T::mul(big(), T::var("x")));
        let hyps = vec![
            Pred::cmp(CmpOp::Le, T::int(3), T::var("x")),
            Pred::cmp(CmpOp::Le, T::add(wide.clone(), T::var("y")), T::int(0)),
        ];
        assert!(!entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Lt, T::var("y"), T::int(0))
        ));
        let hyps = vec![Pred::cmp(CmpOp::Le, T::var("x"), T::int(-3))];
        assert!(!entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Lt, wide, T::int(0))
        ));
    }

    #[test]
    fn too_many_disequalities_bail_out() {
        let b = int_binders();
        let mut hyps = vec![Pred::cmp(CmpOp::Eq, T::vv(), T::int(0))];
        for i in 0..(MAX_INT_DISEQS as i64 + 1) {
            hyps.push(Pred::cmp(CmpOp::Ne, T::var("x"), T::int(100 + i)));
        }
        // Entailed by intervals alone, but the disequality load could
        // push the solver past its case-split cap — so refuse.
        assert!(!entailed_by(
            &b,
            &hyps,
            &Pred::cmp(CmpOp::Le, T::int(0), T::vv())
        ));
    }

    /// The shared-environment contract of the per-check discharge: one
    /// [`FactEnv::of_hyps`] fold answers every goal exactly as
    /// [`entailed_by`] does on a fresh environment, whatever order the
    /// goals are asked in, and no input panics (i64-range coefficients
    /// drive the checked arithmetic past i128).
    mod shared_env {
        use super::*;
        use proptest::prelude::*;
        use rsc_logic::Subst;

        const BIG: i64 = 9_000_000_000_000_000_000;

        /// Small three times in four, i64-range otherwise.
        fn coeff() -> BoxedStrategy<i64> {
            prop_oneof![-3i64..=3, -3i64..=3, -3i64..=3, -BIG..=BIG].boxed()
        }

        fn leaf() -> BoxedStrategy<Term> {
            prop_oneof![
                Just(T::var("x")),
                Just(T::var("y")),
                Just(T::var("z")),
                Just(T::len_of(T::var("a"))),
                coeff().prop_map(T::int),
            ]
            .boxed()
        }

        /// Scaled sums, weighted toward nested scaling: products of
        /// i64-range coefficients reach past i128 in the terms
        /// themselves and in the interval bounds they are evaluated at.
        fn term() -> BoxedStrategy<Term> {
            leaf().prop_recursive(3, 16, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| T::add(a, b)),
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| T::sub(a, b)),
                    (coeff(), inner.clone()).prop_map(|(c, a)| T::mul(T::int(c), a)),
                    (coeff(), inner).prop_map(|(c, a)| T::mul(a, T::int(c))),
                ]
            })
        }

        fn cmp_op() -> BoxedStrategy<CmpOp> {
            prop_oneof![
                Just(CmpOp::Le),
                Just(CmpOp::Lt),
                Just(CmpOp::Eq),
                Just(CmpOp::Ne),
            ]
            .boxed()
        }

        fn literal() -> BoxedStrategy<Pred> {
            let refs = |eq: bool| {
                let op = if eq { CmpOp::Eq } else { CmpOp::Ne };
                Pred::cmp(op, T::var("a"), T::var("b"))
            };
            prop_oneof![
                (cmp_op(), term(), term()).prop_map(|(op, a, b)| Pred::cmp(op, a, b)),
                (cmp_op(), term(), term()).prop_map(|(op, a, b)| Pred::cmp(op, a, b)),
                (0u8..2).prop_map(move |eq| refs(eq == 1)),
            ]
            .boxed()
        }

        /// A literal, or (one time in four) a comparison over `w`, which
        /// has no binder sort: unprovable even under contradictory
        /// hypotheses.
        fn goal() -> BoxedStrategy<Pred> {
            prop_oneof![
                literal(),
                literal(),
                literal(),
                (cmp_op(), term()).prop_map(|(op, a)| Pred::cmp(op, T::var("w"), a)),
            ]
            .boxed()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1000))]
            #[test]
            fn one_fold_answers_like_fresh_folds(
                three_ints in 0u8..2,
                hyps in prop::collection::vec(literal(), 1..7),
                goals in prop::collection::vec(goal(), 4..9),
            ) {
                let mut binders = vec![
                    (Sym::from("x"), Sort::Int),
                    (Sym::from("y"), Sort::Int),
                    (Sym::from("a"), Sort::Ref),
                    (Sym::from("b"), Sort::Ref),
                ];
                let (hyps, goals) = if three_ints == 1 {
                    binders.push((Sym::from("z"), Sort::Int));
                    (hyps, goals)
                } else {
                    let two = Subst::one("z", T::var("x"));
                    let rename = |ps: Vec<Pred>| -> Vec<Pred> {
                        ps.iter().map(|p| two.apply_pred(p)).collect()
                    };
                    (rename(hyps), rename(goals))
                };
                let shared = FactEnv::of_hyps(&binders, &hyps);
                for g in goals.iter().chain(goals.iter().rev()) {
                    let once = shared.as_ref().is_some_and(|env| env.entails(g));
                    prop_assert_eq!(
                        once,
                        entailed_by(&binders, &hyps, g),
                        "goal {} under {:?}",
                        g,
                        hyps.iter().map(|h| h.to_string()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
