//! Linear integer arithmetic: satisfiability of conjunctions of linear
//! constraints via integer-tightened Fourier–Motzkin elimination, with
//! Gaussian substitution for equalities and case splitting for
//! disequalities.
//!
//! Rows are sparse and flat: a [`LinExp`] keeps its nonzero coefficients
//! in a `Vec` sorted by variable, so the sums that substitution and
//! every Fourier–Motzkin combination build are one linear merge, with no
//! tree nodes to allocate. Iteration follows variable order, as it did
//! when rows were `BTreeMap`s, so the elimination order (the first
//! minimum over variables), the unit coefficient a substitution picks
//! and every derived row are the same.
//!
//! Soundness contract: [`LiaResult::Infeasible`] is only returned when the
//! constraints have no **integer** solution — either no rational one, or an
//! explicit integrality contradiction (GCD test, tightening). Because
//! verification treats only UNSAT answers as proof, every shortcut in this
//! module errs toward [`LiaResult::Feasible`]: the resource caps, and i128
//! overflow anywhere in the row arithmetic (scaling, addition, the FM
//! combination step, back-substitution), which answers Feasible instead
//! of wrapping.
//!
//! # Models
//!
//! `LiaProblem::feasible_with_model` runs the same elimination but also
//! records it: each Gaussian substitution `x = image`, and each FM step's
//! variable with its upper rows (positive coefficient) and lower rows as
//! they stood when it was eliminated. On a Feasible answer the record is
//! back-substituted into an integer model, in reverse:
//!
//! - FM steps: every eliminated variable gets an integer from the interval
//!   its recorded rows leave under the values already chosen. FM keeps
//!   that interval non-empty over the rationals only, so an empty
//!   *integer* interval gives no model.
//! - A variable first met with no value yet (no later row constrains it)
//!   and a variable with an unbounded side take values spread
//!   deterministically by variable id, so distinct free variables get
//!   distinct values.
//! - Gaussian substitutions: `x` takes the value of its image.
//!
//! The candidate is then checked, in checked i128 arithmetic, against every
//! original row (`≤`, `=`, `≠`). The model is `None` whenever an integer
//! interval is empty, a cap or an overflow cut the elimination short, or
//! the check fails — so a returned model is a genuine integer solution.
//! Nelson–Oppen uses this: a model with `x ≠ y` already satisfies one of
//! the strict separations [`LiaProblem::entails_eq`] would try, and since
//! Infeasible means "no integer point", that probe could only answer "not
//! entailed" (see [`crate::theory`]).

use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A linear expression `Σ cᵢ·xᵢ + c` over keys `K`: variables indexed by
/// `u32` here, arena nodes in the encoder ([`crate::atom::NLinExp`]).
/// The coefficients are a flat row sorted by key, so a sum is one merge
/// of two rows and iteration follows key order. Every operation is
/// checked: i128 overflow yields `None`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LinExp<K = u32> {
    /// Variable coefficients, strictly increasing by key, never zero.
    pub coeffs: Vec<(K, i128)>,
    /// The constant term.
    pub konst: i128,
}

impl<K: Ord + Copy> LinExp<K> {
    /// The constant expression `c`.
    pub fn konst(c: i128) -> LinExp<K> {
        LinExp {
            coeffs: Vec::new(),
            konst: c,
        }
    }

    /// The expression `x`.
    pub fn var(x: K) -> LinExp<K> {
        LinExp {
            coeffs: vec![(x, 1)],
            konst: 0,
        }
    }

    fn slot(&self, x: K) -> Result<usize, usize> {
        self.coeffs.binary_search_by(|(y, _)| y.cmp(&x))
    }

    /// The coefficient of `x` (0 if absent).
    pub fn coeff(&self, x: K) -> i128 {
        self.slot(x).map_or(0, |i| self.coeffs[i].1)
    }

    /// The variables with a nonzero coefficient, in key order.
    pub fn vars(&self) -> impl Iterator<Item = K> + '_ {
        self.coeffs.iter().map(|&(x, _)| x)
    }

    /// Removes `x`'s term, returning its coefficient (0 if absent).
    pub fn remove(&mut self, x: K) -> i128 {
        self.slot(x).map_or(0, |i| self.coeffs.remove(i).1)
    }

    /// Adds `c·x` to the expression; `None` (expression unchanged) on
    /// i128 overflow.
    #[must_use]
    pub fn add_term(&mut self, x: K, c: i128) -> Option<()> {
        match self.slot(x) {
            Ok(i) => {
                let sum = self.coeffs[i].1.checked_add(c)?;
                if sum == 0 {
                    self.coeffs.remove(i);
                } else {
                    self.coeffs[i].1 = sum;
                }
            }
            Err(i) if c != 0 => self.coeffs.insert(i, (x, c)),
            Err(_) => {}
        }
        Some(())
    }

    /// `self + other`, merging the two sorted rows; `None` on i128
    /// overflow.
    pub fn add(&self, other: &LinExp<K>) -> Option<LinExp<K>> {
        let (a, b) = (&self.coeffs, &other.coeffs);
        let mut coeffs = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    coeffs.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    coeffs.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    let sum = a[i].1.checked_add(b[j].1)?;
                    if sum != 0 {
                        coeffs.push((a[i].0, sum));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        coeffs.extend_from_slice(&a[i..]);
        coeffs.extend_from_slice(&b[j..]);
        Some(LinExp {
            coeffs,
            konst: self.konst.checked_add(other.konst)?,
        })
    }

    /// `k · self`; `None` on i128 overflow.
    pub fn scale(&self, k: i128) -> Option<LinExp<K>> {
        if k == 0 {
            return Some(LinExp::konst(0));
        }
        Some(LinExp {
            coeffs: self
                .coeffs
                .iter()
                .map(|&(x, c)| Some((x, c.checked_mul(k)?)))
                .collect::<Option<_>>()?,
            konst: self.konst.checked_mul(k)?,
        })
    }

    /// True if the expression has no variables.
    pub fn is_const(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The GCD of the variable coefficients (0 for a constant).
    fn coeff_gcd(&self) -> i128 {
        self.coeffs.iter().fold(0i128, |g, &(_, c)| gcd(g, c))
    }

    /// Every coefficient divided by `g`, which divides each of them.
    fn coeffs_div(&self, g: i128) -> Vec<(K, i128)> {
        self.coeffs.iter().map(|&(x, c)| (x, c / g)).collect()
    }
}

impl LinExp {
    /// The value of the expression under `model`; `None` when a variable
    /// is unassigned or the arithmetic overflows.
    pub(crate) fn eval(&self, model: &Model) -> Option<i128> {
        self.coeffs.iter().try_fold(self.konst, |acc, (x, c)| {
            acc.checked_add(c.checked_mul(*model.get(x)?)?)
        })
    }

    /// Integer tightening for `self ≤ 0`: divides by the GCD of the
    /// variable coefficients and rounds the constant up (`Σcᵢxᵢ ≤ -c`
    /// becomes `Σ(cᵢ/g)xᵢ ≤ ⌊-c/g⌋`). Division only shrinks magnitudes,
    /// so this cannot overflow.
    pub fn tighten_le(&self) -> LinExp {
        if self.coeffs.is_empty() {
            return self.clone();
        }
        let g = self.coeff_gcd();
        if g <= 1 {
            return self.clone();
        }
        LinExp {
            coeffs: self.coeffs_div(g),
            konst: ceil_div(self.konst, g),
        }
    }
}

/// `gcd(|a|, |b|)`, computed on magnitudes so `i128::MIN` cannot
/// overflow. The one result that does not fit, 2¹²⁷, is reported as 1:
/// every caller only divides or tests divisibility when the GCD exceeds
/// 1, so skipping that step is always sound.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    i128::try_from(a).unwrap_or(1)
}

/// `⌈a / b⌉` for `b > 0`. Cannot overflow: the quotient is only rounded
/// when `b ≥ 2`, which halves its magnitude first.
fn ceil_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b > 0 {
        q + 1
    } else {
        q
    }
}

/// `⌊a / b⌋` for `b > 0`; cannot overflow, as for [`ceil_div`].
fn floor_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b < 0 {
        q - 1
    } else {
        q
    }
}

/// The answer of the LIA feasibility check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiaResult {
    /// No integer infeasibility was proven: a rational solution exists and
    /// no explicit integrality conflict was found, or a cap or an i128
    /// overflow stopped the search. Treated as satisfiable.
    Feasible,
    /// No solution exists.
    Infeasible,
}

/// An integer assignment to the variables of a [`LiaProblem`].
pub(crate) type Model = BTreeMap<u32, i128>;

/// A conjunction of linear constraints.
#[derive(Clone, Debug, Default)]
pub struct LiaProblem {
    /// Constraints `e ≤ 0`.
    pub les: Vec<LinExp>,
    /// Constraints `e = 0`.
    pub eqs: Vec<LinExp>,
    /// Constraints `e ≠ 0`.
    pub diseqs: Vec<LinExp>,
}

/// Resource caps keeping Fourier–Motzkin elimination bounded; exceeding a
/// cap returns [`LiaResult::Feasible`] (the conservative direction).
const MAX_ROWS: usize = 6000;
const MAX_DISEQ_SPLITS: usize = 14;
const MAX_ABS_COEFF: i128 = i64::MAX as i128;

/// A verdict plus, for a model-building run, the unchecked candidate model.
type Outcome = (LiaResult, Option<Model>);

/// The answer when a cap or an overflow stops the elimination.
const GAVE_UP: Outcome = (LiaResult::Feasible, None);
const INFEASIBLE: Outcome = (LiaResult::Infeasible, None);

/// One recorded FM step: the eliminated variable with its upper rows
/// (`pos`, positive coefficient) and lower rows (`neg`).
struct Elimination {
    var: u32,
    pos: Vec<LinExp>,
    neg: Vec<LinExp>,
}

impl LiaProblem {
    /// Checks feasibility of the conjunction.
    pub fn feasible(&self) -> LiaResult {
        self.solve(0, false).0
    }

    /// [`LiaProblem::feasible`], plus an integer model when the answer is
    /// Feasible and back-substitution finds one that satisfies every row
    /// (see the module docs). The verdict is the one `feasible` returns.
    pub(crate) fn feasible_with_model(&self) -> (LiaResult, Option<Model>) {
        let (result, model) = self.solve(0, true);
        (result, model.filter(|m| self.satisfied_by(m)))
    }

    /// True if `model` satisfies every row.
    fn satisfied_by(&self, model: &Model) -> bool {
        let value = |e: &LinExp| e.eval(model);
        self.les
            .iter()
            .all(|e| matches!(value(e), Some(v) if v <= 0))
            && self.eqs.iter().all(|e| value(e) == Some(0))
            && self
                .diseqs
                .iter()
                .all(|e| matches!(value(e), Some(v) if v != 0))
    }

    fn solve(&self, depth: usize, want_model: bool) -> Outcome {
        // Disequality case splitting: e ≠ 0 ⇔ e ≤ -1 ∨ -e ≤ -1.
        if let Some((d, rest)) = self.diseqs.split_first() {
            if depth >= MAX_DISEQ_SPLITS {
                return GAVE_UP;
            }
            if d.is_const() {
                if d.konst == 0 {
                    return INFEASIBLE;
                }
                let sub = LiaProblem {
                    les: self.les.clone(),
                    eqs: self.eqs.clone(),
                    diseqs: rest.to_vec(),
                };
                return sub.solve(depth, want_model);
            }
            let Some(negated) = d.scale(-1) else {
                return GAVE_UP;
            };
            for signed in [d, &negated] {
                // e + 1 ≤ 0  i.e.  e ≤ -1
                let Some(e) = signed.add(&LinExp::konst(1)) else {
                    return GAVE_UP;
                };
                let mut sub = LiaProblem {
                    les: self.les.clone(),
                    eqs: self.eqs.clone(),
                    diseqs: rest.to_vec(),
                };
                sub.les.push(e);
                let outcome = sub.solve(depth + 1, want_model);
                if outcome.0 == LiaResult::Feasible {
                    return outcome;
                }
            }
            return INFEASIBLE;
        }
        self.eliminate(want_model)
    }

    /// Gaussian substitution, then Fourier–Motzkin elimination, over a
    /// problem without disequalities. With `want_model`, the steps are
    /// recorded and a Feasible answer carries the back-substituted
    /// (not yet row-checked) candidate model.
    fn eliminate(&self, want_model: bool) -> Outcome {
        let mut les: Vec<LinExp> = self.les.iter().map(LinExp::tighten_le).collect();
        let mut eqs: Vec<LinExp> = self.eqs.clone();
        let mut substitutions: Vec<(u32, LinExp)> = Vec::new();
        let mut eliminations: Vec<Elimination> = Vec::new();

        // Gaussian substitution using equalities.
        while let Some(pos) = eqs.iter().position(|e| !e.is_const()) {
            let e = eqs.swap_remove(pos);
            let g = e.coeff_gcd();
            if g > 1 && e.konst % g != 0 {
                return INFEASIBLE; // e.g. 2x = 1
            }
            let e = if g > 1 {
                LinExp {
                    coeffs: e.coeffs_div(g),
                    konst: e.konst / g,
                }
            } else {
                e
            };
            // Find a ±1 coefficient to substitute on.
            let unit = e.coeffs.iter().find(|&&(_, c)| c == 1 || c == -1);
            match unit {
                Some(&(x, c)) => {
                    // c·x + rest = 0  =>  x = -rest/c
                    let mut rest = e.clone();
                    rest.remove(x);
                    // c in {1,-1}: x = -c·rest
                    let Some(image) = rest.scale(-c) else {
                        return GAVE_UP;
                    };
                    if substitute(&mut les, x, &image).is_none()
                        || substitute(&mut eqs, x, &image).is_none()
                    {
                        return GAVE_UP;
                    }
                    if want_model {
                        substitutions.push((x, image));
                    }
                }
                None => {
                    // No unit coefficient: fall back to a pair of inequalities.
                    let Some(negated) = e.scale(-1) else {
                        return GAVE_UP;
                    };
                    les.push(e);
                    les.push(negated);
                }
            }
        }
        for e in &eqs {
            if e.konst != 0 {
                return INFEASIBLE;
            }
        }
        // Substitution can leave a row whose coefficients share a factor
        // its constant does not (`x := 3·p` turns `x - 4 ≤ 0` into
        // `3·p - 4 ≤ 0`); without rounding, FM would accept `p = 4/3`.
        // Integer rounding of a single row is sound.
        for e in &mut les {
            *e = e.tighten_le();
        }

        // Fourier–Motzkin elimination on the inequalities.
        loop {
            // Constant rows first.
            for e in &les {
                if e.is_const() && e.konst > 0 {
                    return INFEASIBLE;
                }
            }
            les.retain(|e| !e.is_const());
            if les.is_empty() {
                let model = if want_model {
                    back_substitute(&substitutions, &eliminations)
                } else {
                    None
                };
                return (LiaResult::Feasible, model);
            }
            if les.len() > MAX_ROWS {
                return GAVE_UP; // resource cap: conservative
            }
            // Pick the variable minimizing |pos|·|neg| fill-in, among
            // those whose elimination is exact over the integers when
            // there are any: every upper or every lower coefficient is a
            // unit, so the real shadow is the integer one (Pugh's Omega
            // test). An inexact step can admit a rational-only point, and
            // which one a problem needs then depends on variable ids.
            let mut counts: BTreeMap<u32, (usize, usize, bool, bool)> = BTreeMap::new();
            for e in &les {
                for &(x, c) in &e.coeffs {
                    let ent = counts.entry(x).or_insert((0, 0, true, true));
                    if c > 0 {
                        ent.0 += 1;
                        ent.2 &= c == 1;
                    } else {
                        ent.1 += 1;
                        ent.3 &= c == -1;
                    }
                }
            }
            let (&x, _) = counts
                .iter()
                .min_by_key(|(_, &(p, n, unit_up, unit_low))| (!(unit_up || unit_low), p * n))
                .expect("nonempty");
            let mut pos = Vec::new();
            let mut neg = Vec::new();
            let mut rest = Vec::new();
            for e in les.drain(..) {
                let c = e.coeff(x);
                if c > 0 {
                    pos.push(e);
                } else if c < 0 {
                    neg.push(e);
                } else {
                    rest.push(e);
                }
            }
            for p in &pos {
                for n in &neg {
                    let a = p.coeff(x); // > 0
                    let b = -n.coeff(x); // > 0
                    if a > MAX_ABS_COEFF / b {
                        return GAVE_UP; // coefficient guard
                    }
                    let Some(combo) = p.scale(b).zip(n.scale(a)).and_then(|(pb, na)| pb.add(&na))
                    else {
                        return GAVE_UP;
                    };
                    debug_assert_eq!(combo.coeff(x), 0);
                    rest.push(combo.tighten_le());
                }
            }
            if rest.len() > MAX_ROWS {
                return GAVE_UP;
            }
            if want_model {
                eliminations.push(Elimination { var: x, pos, neg });
            }
            les = rest;
        }
    }

    /// True if the constraints entail `x = y` (both strict separations are
    /// infeasible). Used for Nelson–Oppen equality propagation. Takes
    /// `&mut self` to probe by pushing/popping the separation row in
    /// place — the feasibility check clones rows internally anyway, so an
    /// up-front clone of the whole problem per probe would be pure waste;
    /// the problem is unchanged on return.
    pub fn entails_eq(&mut self, x: u32, y: u32) -> bool {
        let mut entailed = true;
        for (lo, hi) in [(x, y), (y, x)] {
            // lo < hi  i.e.  lo - hi + 1 ≤ 0
            let mut e = LinExp::var(lo);
            e.add_term(hi, -1).expect("unit coefficients");
            e.konst += 1;
            self.les.push(e);
            let feasible = self.feasible() == LiaResult::Feasible;
            self.les.pop();
            if feasible {
                entailed = false;
                break;
            }
        }
        entailed
    }
}

/// `rows[i] := rows[i][x := image]`; `None` on i128 overflow.
fn substitute(rows: &mut [LinExp], x: u32, image: &LinExp) -> Option<()> {
    for e in rows.iter_mut() {
        let c = e.remove(x);
        if c != 0 {
            *e = e.add(&image.scale(c)?)?;
        }
    }
    Some(())
}

/// The value a variable takes where nothing pins it: distinct, small and
/// positive per id, so free variables are pairwise separated.
fn spread(x: u32) -> i128 {
    i128::from(x) + 1
}

/// `row` without its `skip` term, evaluated under `model`; a variable
/// without a value gets its [`spread`] value first.
fn eval_assigning(row: &LinExp, skip: u32, model: &mut Model) -> Option<i128> {
    let mut acc = row.konst;
    for &(y, c) in &row.coeffs {
        if y != skip {
            let v = *model.entry(y).or_insert_with(|| spread(y));
            acc = acc.checked_add(c.checked_mul(v)?)?;
        }
    }
    Some(acc)
}

/// Replays the recorded elimination backwards into a candidate model
/// (module docs); `None` when an integer interval is empty or the
/// arithmetic overflows.
fn back_substitute(substitutions: &[(u32, LinExp)], eliminations: &[Elimination]) -> Option<Model> {
    let mut model = Model::new();
    for step in eliminations.iter().rev() {
        let (mut lo, mut hi): (Option<i128>, Option<i128>) = (None, None);
        for row in &step.pos {
            // a·x + r ≤ 0 with a > 0:  x ≤ ⌊-r / a⌋
            let r = eval_assigning(row, step.var, &mut model)?;
            let bound = floor_div(r.checked_neg()?, row.coeff(step.var));
            hi = Some(hi.map_or(bound, |h| h.min(bound)));
        }
        for row in &step.neg {
            // -b·x + r ≤ 0 with b > 0:  x ≥ ⌈r / b⌉
            let r = eval_assigning(row, step.var, &mut model)?;
            let bound = ceil_div(r, row.coeff(step.var).checked_neg()?);
            lo = Some(lo.map_or(bound, |l| l.max(bound)));
        }
        let off = spread(step.var);
        let value = match (lo, hi) {
            (Some(l), Some(h)) if l > h => return None,
            // A value inside the interval, offset by id so bounded
            // variables sharing an interval still tend to differ.
            (Some(l), Some(h)) => match h.checked_sub(l).and_then(|w| w.checked_add(1)) {
                Some(width) => l + off % width,
                None => l,
            },
            (Some(l), None) => l.checked_add(off)?,
            (None, Some(h)) => h.checked_sub(off)?,
            (None, None) => off,
        };
        model.insert(step.var, value);
    }
    for (x, image) in substitutions.iter().rev() {
        let v = eval_assigning(image, *x, &mut model)?;
        model.insert(*x, v);
    }
    Some(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn le(pairs: &[(u32, i128)], k: i128) -> LinExp {
        let mut e = LinExp::konst(k);
        for &(x, c) in pairs {
            e.add_term(x, c).expect("small test coefficients");
        }
        e
    }

    #[test]
    fn simple_infeasible() {
        // x ≤ 0 ∧ -x + 1 ≤ 0 (x ≥ 1)
        let p = LiaProblem {
            les: vec![le(&[(0, 1)], 0), le(&[(0, -1)], 1)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn simple_feasible() {
        // 0 ≤ x ∧ x ≤ 10
        let p = LiaProblem {
            les: vec![le(&[(0, -1)], 0), le(&[(0, 1)], -10)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Feasible);
    }

    #[test]
    fn array_bounds_vc() {
        // 0 < len ∧ v = 0 ∧ ¬(0 ≤ v ∧ v < len) — the head example, negated.
        // Branch 1: v < 0; branch 2: v ≥ len. Vars: v=0, len=1.
        let base_eq = le(&[(0, 1)], 0); // v = 0
        let len_pos = le(&[(1, -1)], 1); // 1 - len ≤ 0
        let p1 = LiaProblem {
            les: vec![len_pos.clone(), le(&[(0, 1)], 1)], // v + 1 ≤ 0
            eqs: vec![base_eq.clone()],
            ..Default::default()
        };
        assert_eq!(p1.feasible(), LiaResult::Infeasible);
        let p2 = LiaProblem {
            les: vec![len_pos, le(&[(0, -1), (1, 1)], 0)], // len - v ≤ 0
            eqs: vec![base_eq],
            ..Default::default()
        };
        assert_eq!(p2.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn gcd_integrality() {
        // 2x = 1 infeasible over Z.
        let p = LiaProblem {
            eqs: vec![le(&[(0, 2)], -1)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn tightening_catches_strict_bounds() {
        // 2x ≤ 1 ∧ x ≥ 1: tightened 2x ≤ 1 becomes x ≤ 0.
        let p = LiaProblem {
            les: vec![le(&[(0, 2)], -1), le(&[(0, -1)], 1)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn diseq_split() {
        // 0 ≤ x ≤ 1 ∧ x ≠ 0 ∧ x ≠ 1 infeasible over Z.
        let p = LiaProblem {
            les: vec![le(&[(0, -1)], 0), le(&[(0, 1)], -1)],
            diseqs: vec![le(&[(0, 1)], 0), le(&[(0, 1)], -1)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn diseq_feasible() {
        // 0 ≤ x ≤ 2 ∧ x ≠ 1 feasible (x = 0).
        let p = LiaProblem {
            les: vec![le(&[(0, -1)], 0), le(&[(0, 1)], -2)],
            diseqs: vec![le(&[(0, 1)], -1)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Feasible);
    }

    #[test]
    fn equality_substitution() {
        // x = y + 1 ∧ y = 3 ∧ x ≤ 3 infeasible.
        let p = LiaProblem {
            eqs: vec![le(&[(0, 1), (1, -1)], -1), le(&[(1, 1)], -3)],
            les: vec![le(&[(0, 1)], -3)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn entailed_equality() {
        // x ≤ y ∧ y ≤ x entails x = y.
        let mut p = LiaProblem {
            les: vec![le(&[(0, 1), (1, -1)], 0), le(&[(0, -1), (1, 1)], 0)],
            ..Default::default()
        };
        assert!(p.entails_eq(0, 1));
        let mut q = LiaProblem {
            les: vec![le(&[(0, 1), (1, -1)], 0)],
            ..Default::default()
        };
        assert!(!q.entails_eq(0, 1));
    }

    #[test]
    fn three_var_chain() {
        // a ≤ b ∧ b ≤ c ∧ c ≤ a - 1 infeasible.
        let p = LiaProblem {
            les: vec![
                le(&[(0, 1), (1, -1)], 0),
                le(&[(1, 1), (2, -1)], 0),
                le(&[(2, 1), (0, -1)], 1),
            ],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    /// `x = 3p ∧ v = x ∧ x ≤ 4 ∧ v ≥ 4` forces `3p = 4`: no integer `p`.
    /// The inequalities only show it once they are rounded again after
    /// the substitutions (`p ≤ ⌊4/3⌋`, `p ≥ ⌈4/3⌉`).
    #[test]
    fn rows_are_tightened_after_substitution() {
        let (x, p, v) = (0, 1, 2);
        let prob = LiaProblem {
            eqs: vec![le(&[(x, 1), (p, -3)], 0), le(&[(v, 1), (x, -1)], 0)],
            les: vec![le(&[(x, 1)], -4), le(&[(v, -1)], 4)],
            ..Default::default()
        };
        assert_eq!(prob.feasible(), LiaResult::Infeasible);
    }

    /// `v = 3p + 18 ∧ v + q ≤ 1 ∧ q ≥ 0 ∧ v ≥ q + 1` has rational points
    /// only (`v` would have to be 1). Eliminating `p` first projects them
    /// onto `q = 0`; eliminating `q` first (unit coefficients, an exact
    /// step) leaves `3p + 17 ≤ 0 ≤ 3p + 17`, which rounding refutes. The
    /// verdict must not depend on which ids the variables got.
    #[test]
    fn exact_eliminations_come_first() {
        for (v, p, q) in [(0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 2, 1)] {
            let prob = LiaProblem {
                eqs: vec![le(&[(v, 1), (p, -3)], -18)],
                les: vec![
                    le(&[(v, 1), (q, 1)], -1),
                    le(&[(q, -1)], 0),
                    le(&[(q, 1), (v, -1)], 1),
                ],
                ..Default::default()
            };
            assert_eq!(prob.feasible(), LiaResult::Infeasible, "ids {v} {p} {q}");
        }
    }

    #[test]
    fn nonunit_equality_fallback() {
        // 2x + 3y = 7 ∧ x ≥ 0 ∧ y ≥ 0 ∧ x + y ≤ 1: rationally infeasible?
        // x=2,y=1 solves ineqs? x+y=3 > 1. x=0.5? not integral but rationally:
        // 2x+3y=7, x,y≥0, x+y≤1 → max 2x+3y at x+y≤1 is 3 (<7): infeasible.
        let p = LiaProblem {
            eqs: vec![le(&[(0, 2), (1, 3)], -7)],
            les: vec![
                le(&[(0, -1)], 0),
                le(&[(1, -1)], 0),
                le(&[(0, 1), (1, 1)], -1),
            ],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn model_satisfies_rows_and_separates_free_variables() {
        // 0 ≤ i ∧ i + 1 ≤ n ∧ m = n + 2, with j unconstrained but present.
        let p = LiaProblem {
            les: vec![
                le(&[(0, -1)], 0),
                le(&[(0, 1), (1, -1)], 1),
                le(&[(3, 1), (3, -1)], 0),
            ],
            eqs: vec![le(&[(2, 1), (1, -1)], -2)],
            diseqs: vec![le(&[(0, 1), (4, -1)], 0)],
        };
        let (result, model) = p.feasible_with_model();
        assert_eq!(result, LiaResult::Feasible);
        let m = model.expect("a model");
        assert!(m[&0] >= 0 && m[&0] < m[&1]);
        assert_eq!(m[&2], m[&1] + 2);
        assert_ne!(m[&0], m[&4]);
    }

    #[test]
    fn no_model_when_infeasible_or_integer_interval_empty() {
        let p = LiaProblem {
            les: vec![le(&[(0, 1)], 0), le(&[(0, -1)], 1)],
            ..Default::default()
        };
        assert_eq!(p.feasible_with_model(), (LiaResult::Infeasible, None));
        // 2x ≤ y ≤ 2x + 1 is feasible for every y, but for odd y the
        // projection's integer interval for x is [⌈y/2⌉, ⌊y/2⌋], empty.
        // Whatever the back-substitution picks, a returned model is real.
        let q = LiaProblem {
            les: vec![le(&[(0, 2), (1, -1)], 0), le(&[(0, -2), (1, 1)], -1)],
            ..Default::default()
        };
        let (result, model) = q.feasible_with_model();
        assert_eq!(result, LiaResult::Feasible);
        if let Some(m) = model {
            assert!(2 * m[&0] <= m[&1] && m[&1] <= 2 * m[&0] + 1);
        }
    }

    #[test]
    fn i64_range_coefficients_do_not_overflow() {
        // The guards of `tests/corpus_regressions/r0011_fm_overflow.rsc`
        // (a, b, c, d = 0..4) plus the negated assertion a ≥ 0. Combining
        // them overflows i128 unless the row arithmetic is checked; a=0,
        // b=-8, c=-10, d=100 satisfies every row, so the only correct
        // answer is Feasible.
        let big = 9_000_000_000_000_000_000;
        let rows = vec![
            le(&[(0, 2), (2, 14)], 3),
            le(&[(0, big), (1, 1), (2, -1)], -2),
            le(&[(2, big - 4), (3, 1)], 0),
            le(&[(0, -1), (1, -1), (3, -6)], -3),
            le(&[(0, 2), (1, big - 3), (2, -1)], 0),
            le(&[(0, -1)], 0),
        ];
        let witness: Model = [(0, 0), (1, -8), (2, -10), (3, 100)].into();
        assert!(rows
            .iter()
            .all(|e| e.eval(&witness).is_some_and(|v| v <= 0)));
        let mut p = LiaProblem {
            les: rows,
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Feasible);
        assert_eq!(p.feasible_with_model().0, LiaResult::Feasible);
        for x in 0..4 {
            for y in (x + 1)..4 {
                assert!(!p.entails_eq(x, y));
            }
        }
    }

    fn arb_coeff() -> impl Strategy<Value = i64> {
        prop_oneof![-3i64..=3, -3i64..=3, -3i64..=3, (i64::MIN + 1)..=i64::MAX]
    }

    /// One row: a coefficient per variable, a constant, and the relation
    /// (0: `≤ 0`, 1: `= 0`, 2: `≠ 0`).
    fn arb_row() -> impl Strategy<Value = (Vec<i64>, i64, u8)> {
        (prop::collection::vec(arb_coeff(), 4), arb_coeff(), 0u8..3)
    }

    /// The `BTreeMap`-backed row the flat `LinExp` replaced, kept as the
    /// reference its operations must agree with.
    #[derive(Clone, Debug)]
    struct MapLin {
        coeffs: BTreeMap<u32, i128>,
        konst: i128,
    }

    impl MapLin {
        fn add_term(&mut self, x: u32, c: i128) -> Option<()> {
            let sum = self.coeffs.get(&x).copied().unwrap_or(0).checked_add(c)?;
            if sum == 0 {
                self.coeffs.remove(&x);
            } else {
                self.coeffs.insert(x, sum);
            }
            Some(())
        }

        fn add(&self, other: &MapLin) -> Option<MapLin> {
            let mut out = self.clone();
            for (&x, &c) in &other.coeffs {
                out.add_term(x, c)?;
            }
            out.konst = out.konst.checked_add(other.konst)?;
            Some(out)
        }

        fn scale(&self, k: i128) -> Option<MapLin> {
            if k == 0 {
                return Some(MapLin {
                    coeffs: BTreeMap::new(),
                    konst: 0,
                });
            }
            Some(MapLin {
                coeffs: self
                    .coeffs
                    .iter()
                    .map(|(&x, &c)| Some((x, c.checked_mul(k)?)))
                    .collect::<Option<_>>()?,
                konst: self.konst.checked_mul(k)?,
            })
        }

        fn tighten_le(&self) -> MapLin {
            let g = self.coeffs.values().fold(0i128, |g, &c| gcd(g, c));
            if self.coeffs.is_empty() || g <= 1 {
                return self.clone();
            }
            MapLin {
                coeffs: self.coeffs.iter().map(|(&x, &c)| (x, c / g)).collect(),
                konst: ceil_div(self.konst, g),
            }
        }

        fn eval(&self, model: &Model) -> Option<i128> {
            self.coeffs.iter().try_fold(self.konst, |acc, (x, &c)| {
                acc.checked_add(c.checked_mul(*model.get(x)?)?)
            })
        }

        fn matches(&self, e: &LinExp) -> bool {
            self.konst == e.konst
                && self
                    .coeffs
                    .iter()
                    .map(|(&x, &c)| (x, c))
                    .eq(e.coeffs.iter().copied())
        }
    }

    /// Builds the same expression on both sides from `(var, coeff)` terms.
    fn both(terms: &[(u32, i64)], k: i64) -> (LinExp, MapLin) {
        let mut flat = LinExp::konst(i128::from(k));
        let mut map = MapLin {
            coeffs: BTreeMap::new(),
            konst: i128::from(k),
        };
        for &(x, c) in terms {
            let (a, b) = (
                flat.add_term(x, i128::from(c)),
                map.add_term(x, i128::from(c)),
            );
            assert_eq!(a, b);
        }
        (flat, map)
    }

    fn arb_terms() -> impl Strategy<Value = Vec<(u32, i64)>> {
        prop::collection::vec((0u32..6, arb_coeff()), 0..7)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]
        /// The sorted-vector row and the `BTreeMap` reference give the
        /// same value, or both `None` on overflow, under `add_term`,
        /// `add`, `scale`, `tighten_le` and `eval`.
        #[test]
        fn flat_rows_match_the_map_reference(
            ta in arb_terms(),
            tb in arb_terms(),
            extra in arb_terms(),
            ks in prop::collection::vec(arb_coeff(), 4),
            values in prop::collection::vec(arb_coeff(), 6),
            unset in 0u8..64,
        ) {
            let (ka, kb, k1, k2) = (ks[0], ks[1], ks[2], ks[3]);
            let (mut fa, mut ma) = both(&ta, ka);
            let (fb, mb) = both(&tb, kb);
            prop_assert!(ma.matches(&fa) && mb.matches(&fb));
            // `add_term` leaves an expression unchanged on overflow.
            let scaled = fa.scale(i128::from(k1)).zip(ma.scale(i128::from(k1)));
            if let Some((mut fs, mut ms)) = scaled {
                for &(x, c) in &extra {
                    let c = i128::from(c) * i128::from(k2);
                    prop_assert_eq!(fs.add_term(x, c), ms.add_term(x, c));
                    prop_assert!(ms.matches(&fs));
                }
            }
            let sum = fa.add(&fb);
            prop_assert_eq!(sum.is_some(), ma.add(&mb).is_some());
            if let (Some(f), Some(m)) = (&sum, ma.add(&mb)) {
                prop_assert!(m.matches(f));
                prop_assert!(m.tighten_le().matches(&f.tighten_le()));
            }
            // Chained scaling reaches past i128.
            let f2 = fa.scale(i128::from(k1)).and_then(|e| e.scale(i128::from(k2)));
            let m2 = ma.scale(i128::from(k1)).and_then(|e| e.scale(i128::from(k2)));
            prop_assert_eq!(f2.is_some(), m2.is_some());
            if let (Some(f), Some(m)) = (&f2, &m2) {
                prop_assert!(m.matches(f));
                prop_assert!(m.tighten_le().matches(&f.tighten_le()));
                let g = f.add(&fb).zip(m.add(&mb));
                prop_assert!(g.as_ref().is_none_or(|(f, m)| m.matches(f)));
            }
            // Variables whose `unset` bit is on have no value.
            let model: Model = values
                .iter()
                .enumerate()
                .filter(|(x, _)| unset & (1 << x) == 0)
                .map(|(x, &v)| (x as u32, i128::from(v)))
                .collect();
            prop_assert_eq!(fa.eval(&model), ma.eval(&model));
            if let (Some(f), Some(m)) = (&f2, &m2) {
                prop_assert_eq!(f.eval(&model), m.eval(&model));
            }
            for x in 0..6 {
                prop_assert_eq!(fa.coeff(x), ma.coeffs.get(&x).copied().unwrap_or(0));
                let (removed, expected) = (fa.remove(x), ma.coeffs.remove(&x).unwrap_or(0));
                prop_assert_eq!(removed, expected);
                prop_assert!(ma.matches(&fa));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]
        #[test]
        fn model_contract(nvars in 2usize..=4, rows in prop::collection::vec(arb_row(), 1..7)) {
            let mut p = LiaProblem::default();
            let mut relations = Vec::new();
            for (coeffs, k, op) in &rows {
                let mut e = LinExp::konst(i128::from(*k));
                for (x, &c) in coeffs.iter().take(nvars).enumerate() {
                    e.add_term(x as u32, i128::from(c)).expect("i64 coefficients fit");
                }
                relations.push((e.clone(), *op));
                match op {
                    0 => p.les.push(e),
                    1 => p.eqs.push(e),
                    _ => p.diseqs.push(e),
                }
            }
            let (result, model) = p.feasible_with_model();
            prop_assert_eq!(result, p.feasible());
            if let Some(m) = &model {
                prop_assert_eq!(result, LiaResult::Feasible);
                // Re-evaluate every row independently of `LinExp::eval`.
                for (e, op) in &relations {
                    let mut v = e.konst;
                    for &(x, c) in &e.coeffs {
                        let term = c.checked_mul(m[&x]).expect("model value in range");
                        v = v.checked_add(term).expect("model value in range");
                    }
                    let holds = match op {
                        0 => v <= 0,
                        1 => v == 0,
                        _ => v != 0,
                    };
                    prop_assert!(holds, "model {:?} violates {:?} (relation {})", m, e, op);
                }
            }
            for x in 0..nvars as u32 {
                for y in (x + 1)..nvars as u32 {
                    let separated = model
                        .as_ref()
                        .is_some_and(|m| matches!((m.get(&x), m.get(&y)), (Some(a), Some(b)) if a != b));
                    let entailed = p.entails_eq(x, y);
                    prop_assert!(!(separated && entailed), "separated pair {} {} entailed", x, y);
                }
            }
        }
    }
}
