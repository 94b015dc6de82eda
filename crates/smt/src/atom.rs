//! Theory atoms and the propositional formula skeleton.

use crate::lia::LinExp;
use crate::node::NodeId;

/// Index of an atom in the encoder's atom table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AtomId(pub u32);

/// A linear expression `Σ cᵢ·nᵢ + k` over arena nodes.
pub type NLinExp = LinExp<NodeId>;

impl NLinExp {
    /// `self - other`; `None` on i128 overflow.
    pub fn sub(&self, other: &NLinExp) -> Option<NLinExp> {
        self.add(&other.scale(-1)?)
    }

    /// If the expression is exactly one node with coefficient 1 and no
    /// constant, returns it.
    pub fn as_single_node(&self) -> Option<NodeId> {
        match self.coeffs[..] {
            [(n, 1)] if self.konst == 0 => Some(n),
            _ => None,
        }
    }
}

/// A 32-bit bit-vector term, blasted to SAT by [`crate::bv`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BvTerm {
    /// A constant.
    Const(u32),
    /// An opaque 32-bit slot attached to an arena node (variable or
    /// uninterpreted application of bit-vector sort).
    Node(NodeId),
    /// Bitwise and.
    And(Box<BvTerm>, Box<BvTerm>),
    /// Bitwise or.
    Or(Box<BvTerm>, Box<BvTerm>),
    /// Bitwise not.
    Not(Box<BvTerm>),
}

/// A theory atom. The propositional skeleton is built over these.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum AtomData {
    /// `e ≤ 0` over integers.
    LinLe(NLinExp),
    /// `e = 0` over integers; if both sides of the original equality were
    /// single nodes, they are recorded for congruence-closure propagation.
    IntEq(NLinExp, Option<(NodeId, NodeId)>),
    /// Equality of two non-arithmetic nodes (references, strings).
    EufEq(NodeId, NodeId),
    /// Truthiness of a boolean-sorted node.
    BoolNode(NodeId),
    /// Equality of two bit-vector terms (bit-blasted eagerly).
    BvEq(BvTerm, BvTerm),
}

/// A propositional formula over atoms in negation normal form (negation
/// only on atom literals).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Formula {
    /// Constant truth value.
    Const(bool),
    /// An atom with a polarity (`false` = negated).
    Lit(AtomId, bool),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// Simplifies constants away; afterwards `Const` can only appear at the
    /// top level.
    pub fn simplify(self) -> Formula {
        match self {
            Formula::And(fs) => {
                let mut out = Vec::new();
                for f in fs {
                    match f.simplify() {
                        Formula::Const(true) => {}
                        Formula::Const(false) => return Formula::Const(false),
                        Formula::And(gs) => out.extend(gs),
                        g => out.push(g),
                    }
                }
                match out.len() {
                    0 => Formula::Const(true),
                    1 => out.pop().unwrap(),
                    _ => Formula::And(out),
                }
            }
            Formula::Or(fs) => {
                let mut out = Vec::new();
                for f in fs {
                    match f.simplify() {
                        Formula::Const(false) => {}
                        Formula::Const(true) => return Formula::Const(true),
                        Formula::Or(gs) => out.extend(gs),
                        g => out.push(g),
                    }
                }
                match out.len() {
                    0 => Formula::Const(false),
                    1 => out.pop().unwrap(),
                    _ => Formula::Or(out),
                }
            }
            f => f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linexp_algebra() {
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let mut a = NLinExp::var(n0);
        a.add_term(n1, 2).unwrap();
        let b = a.scale(3).unwrap();
        assert_eq!(b.coeff(n0), 3);
        assert_eq!(b.coeff(n1), 6);
        let c = a.sub(&a).unwrap();
        assert!(c.is_const() && c.konst == 0);
    }

    #[test]
    fn linexp_overflow_is_none() {
        let n0 = NodeId(0);
        let big = NLinExp::var(n0).scale(i128::MAX).unwrap();
        assert_eq!(big.scale(2), None);
        assert_eq!(big.add(&big), None);
        assert_eq!(NLinExp::konst(i128::MIN).sub(&NLinExp::konst(1)), None);
        let mut e = big.clone();
        assert_eq!(e.add_term(n0, 1), None);
        assert_eq!(e, big, "a failed add_term leaves the expression unchanged");
    }

    #[test]
    fn single_node_detection() {
        let n0 = NodeId(0);
        assert_eq!(NLinExp::var(n0).as_single_node(), Some(n0));
        assert_eq!(NLinExp::var(n0).scale(2).unwrap().as_single_node(), None);
    }

    #[test]
    fn formula_simplify() {
        let f = Formula::And(vec![
            Formula::Const(true),
            Formula::Or(vec![Formula::Const(false), Formula::Lit(AtomId(0), true)]),
        ]);
        assert_eq!(f.simplify(), Formula::Lit(AtomId(0), true));
        let g = Formula::Or(vec![Formula::Const(true), Formula::Lit(AtomId(0), false)]);
        assert_eq!(g.simplify(), Formula::Const(true));
    }
}
