//! Eager bit-blasting of 32-bit bit-vector terms into the SAT core.
//!
//! RSC uses bit-vectors to encode interface hierarchies (§4.3 of the
//! paper): enum flags are masked with constants and tested against zero.
//! All bit-vector reasoning is therefore equalities between and/or/not
//! combinations of variables and constants — blasted here once, at encode
//! time, so the theory combination never sees bit-vectors.

use rsc_logic::FxHashMap;

use crate::atom::BvTerm;
use crate::node::NodeId;
use crate::sat::{Lit, SatSolver};

const WIDTH: usize = 32;

/// A single bit: a constant or a SAT literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bit {
    /// A known constant bit.
    Const(bool),
    /// A SAT literal.
    L(Lit),
}

/// Blasts bit-vector terms into a [`SatSolver`], caching the 32
/// fresh variables allocated for each opaque node slot.
#[derive(Default)]
pub struct Blaster {
    slots: FxHashMap<NodeId, Vec<Bit>>,
}

impl Blaster {
    /// A fresh blaster.
    pub fn new() -> Self {
        Blaster::default()
    }

    fn slot_bits(&mut self, n: NodeId, cnf: &mut SatSolver) -> Vec<Bit> {
        self.slots
            .entry(n)
            .or_insert_with(|| {
                (0..WIDTH)
                    .map(|_| Bit::L(Lit::pos(cnf.new_var())))
                    .collect()
            })
            .clone()
    }

    /// The 32 bits of `t`, least significant first.
    pub fn bits(&mut self, t: &BvTerm, cnf: &mut SatSolver) -> Vec<Bit> {
        match t {
            BvTerm::Const(c) => (0..WIDTH).map(|i| Bit::Const(c >> i & 1 == 1)).collect(),
            BvTerm::Node(n) => self.slot_bits(*n, cnf),
            BvTerm::And(a, b) => {
                let ba = self.bits(a, cnf);
                let bb = self.bits(b, cnf);
                ba.into_iter()
                    .zip(bb)
                    .map(|(x, y)| and_bit(x, y, cnf))
                    .collect()
            }
            BvTerm::Or(a, b) => {
                let ba = self.bits(a, cnf);
                let bb = self.bits(b, cnf);
                ba.into_iter()
                    .zip(bb)
                    .map(|(x, y)| or_bit(x, y, cnf))
                    .collect()
            }
            BvTerm::Not(a) => self
                .bits(a, cnf)
                .into_iter()
                .map(|x| match x {
                    Bit::Const(b) => Bit::Const(!b),
                    Bit::L(l) => Bit::L(l.negate()),
                })
                .collect(),
        }
    }

    /// Returns a SAT literal equivalent to `a = b`, adding defining clauses.
    pub fn eq_lit(&mut self, a: &BvTerm, b: &BvTerm, cnf: &mut SatSolver) -> Lit {
        let ba = self.bits(a, cnf);
        let bb = self.bits(b, cnf);
        let mut bit_eqs: Vec<Bit> = Vec::with_capacity(WIDTH);
        for (x, y) in ba.into_iter().zip(bb) {
            bit_eqs.push(xnor_bit(x, y, cnf));
        }
        // e = AND of the per-bit equivalences.
        and_all(&bit_eqs, cnf)
    }
}

fn and_bit(a: Bit, b: Bit, cnf: &mut SatSolver) -> Bit {
    match (a, b) {
        (Bit::Const(false), _) | (_, Bit::Const(false)) => Bit::Const(false),
        (Bit::Const(true), x) | (x, Bit::Const(true)) => x,
        (Bit::L(x), Bit::L(y)) => {
            let o = Lit::pos(cnf.new_var());
            cnf.add_clause(vec![o.negate(), x]);
            cnf.add_clause(vec![o.negate(), y]);
            cnf.add_clause(vec![x.negate(), y.negate(), o]);
            Bit::L(o)
        }
    }
}

fn or_bit(a: Bit, b: Bit, cnf: &mut SatSolver) -> Bit {
    match (a, b) {
        (Bit::Const(true), _) | (_, Bit::Const(true)) => Bit::Const(true),
        (Bit::Const(false), x) | (x, Bit::Const(false)) => x,
        (Bit::L(x), Bit::L(y)) => {
            let o = Lit::pos(cnf.new_var());
            cnf.add_clause(vec![o, x.negate()]);
            cnf.add_clause(vec![o, y.negate()]);
            cnf.add_clause(vec![x, y, o.negate()]);
            Bit::L(o)
        }
    }
}

fn xnor_bit(a: Bit, b: Bit, cnf: &mut SatSolver) -> Bit {
    match (a, b) {
        (Bit::Const(x), Bit::Const(y)) => Bit::Const(x == y),
        (Bit::Const(true), x) | (x, Bit::Const(true)) => x,
        (Bit::Const(false), Bit::L(l)) | (Bit::L(l), Bit::Const(false)) => Bit::L(l.negate()),
        (Bit::L(x), Bit::L(y)) => {
            let o = Lit::pos(cnf.new_var());
            // o <-> (x <-> y)
            cnf.add_clause(vec![o.negate(), x.negate(), y]);
            cnf.add_clause(vec![o.negate(), x, y.negate()]);
            cnf.add_clause(vec![o, x, y]);
            cnf.add_clause(vec![o, x.negate(), y.negate()]);
            Bit::L(o)
        }
    }
}

fn and_all(bits: &[Bit], cnf: &mut SatSolver) -> Lit {
    if bits.contains(&Bit::Const(false)) {
        // Represent constant false with a fresh var forced false.
        let v = Lit::pos(cnf.new_var());
        cnf.add_clause(vec![v.negate()]);
        return v;
    }
    let lits: Vec<Lit> = bits
        .iter()
        .filter_map(|b| match b {
            Bit::Const(_) => None,
            Bit::L(l) => Some(*l),
        })
        .collect();
    if lits.is_empty() {
        let v = Lit::pos(cnf.new_var());
        cnf.add_clause(vec![v]);
        return v;
    }
    if lits.len() == 1 {
        return lits[0];
    }
    let o = Lit::pos(cnf.new_var());
    for &l in &lits {
        cnf.add_clause(vec![o.negate(), l]);
    }
    let mut big: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
    big.push(o);
    cnf.add_clause(big);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;

    fn assert_valid_bv(build: impl Fn(&mut Blaster, &mut SatSolver) -> Lit) {
        // valid iff asserting the negation is unsat
        let mut cnf = SatSolver::new();
        let mut bl = Blaster::new();
        let l = build(&mut bl, &mut cnf);
        cnf.add_clause(vec![l.negate()]);
        assert_eq!(cnf.solve(), SatOutcome::Unsat);
    }

    fn assert_sat_bv(build: impl Fn(&mut Blaster, &mut SatSolver) -> Lit) {
        let mut cnf = SatSolver::new();
        let mut bl = Blaster::new();
        let l = build(&mut bl, &mut cnf);
        cnf.add_clause(vec![l]);
        assert!(matches!(cnf.solve(), SatOutcome::Sat(_)));
    }

    #[test]
    fn constant_masking() {
        // (0x0400 & 0x3C00) = 0x0400 is valid.
        assert_valid_bv(|bl, cnf| {
            let t = BvTerm::And(
                Box::new(BvTerm::Const(0x0400)),
                Box::new(BvTerm::Const(0x3c00)),
            );
            bl.eq_lit(&t, &BvTerm::Const(0x0400), cnf)
        });
    }

    #[test]
    fn subset_mask_implication() {
        // (f & 0x0400) != 0  ∧  (f & 0x3C00) = 0   is UNSAT.
        let mut cnf = SatSolver::new();
        let mut bl = Blaster::new();
        let f = BvTerm::Node(NodeId(0));
        let small = BvTerm::And(Box::new(f.clone()), Box::new(BvTerm::Const(0x0400)));
        let big = BvTerm::And(Box::new(f), Box::new(BvTerm::Const(0x3c00)));
        let small_zero = bl.eq_lit(&small, &BvTerm::Const(0), &mut cnf);
        let big_zero = bl.eq_lit(&big, &BvTerm::Const(0), &mut cnf);
        cnf.add_clause(vec![small_zero.negate()]);
        cnf.add_clause(vec![big_zero]);
        assert_eq!(cnf.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn disjoint_masks_satisfiable() {
        // (f & 0x1) != 0 ∧ (f & 0x2) = 0 is SAT (f = 1).
        let mut cnf = SatSolver::new();
        let mut bl = Blaster::new();
        let f = BvTerm::Node(NodeId(0));
        let a = BvTerm::And(Box::new(f.clone()), Box::new(BvTerm::Const(1)));
        let b = BvTerm::And(Box::new(f), Box::new(BvTerm::Const(2)));
        let az = bl.eq_lit(&a, &BvTerm::Const(0), &mut cnf);
        let bz = bl.eq_lit(&b, &BvTerm::Const(0), &mut cnf);
        cnf.add_clause(vec![az.negate()]);
        cnf.add_clause(vec![bz]);
        assert!(matches!(cnf.solve(), SatOutcome::Sat(_)));
    }

    #[test]
    fn or_composition() {
        // (x | 0xFF) & 0x0F = 0x0F valid.
        assert_valid_bv(|bl, cnf| {
            let x = BvTerm::Node(NodeId(1));
            let t = BvTerm::And(
                Box::new(BvTerm::Or(Box::new(x), Box::new(BvTerm::Const(0xff)))),
                Box::new(BvTerm::Const(0x0f)),
            );
            bl.eq_lit(&t, &BvTerm::Const(0x0f), cnf)
        });
    }

    #[test]
    fn not_involution_sat() {
        assert_sat_bv(|bl, cnf| {
            let x = BvTerm::Node(NodeId(2));
            let nn = BvTerm::Not(Box::new(BvTerm::Not(Box::new(x.clone()))));
            bl.eq_lit(&nn, &x, cnf)
        });
    }
}
