use std::collections::BTreeSet;
use std::fmt;

use crate::{KVarId, Subst, Sym, Term};

/// Comparison operators between terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Strictly less than (integers).
    Lt,
    /// Less or equal (integers).
    Le,
    /// Strictly greater than (integers).
    Gt,
    /// Greater or equal (integers).
    Ge,
}

impl CmpOp {
    /// The surface symbol for this comparison.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The negated comparison (`!(a < b)` is `a >= b`, etc.).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Flips the sides (`a < b` iff `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// A logical predicate `p` (§3.2):
///
/// ```text
/// p ::= p ∧ p | ¬p | t   (plus ∨, ⇒, ⇔ as derived forms)
/// ```
///
/// In addition to concrete formulas, a predicate may contain κ-variables
/// ([`Pred::KVar`]) with pending substitutions — the unknown refinements of
/// Liquid inference (§2.2.1). A predicate with no κ-variables is *concrete*
/// and can be decided by the SMT layer.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Pred {
    /// The trivially true predicate.
    True,
    /// The trivially false predicate.
    False,
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Implication.
    Imp(Box<Pred>, Box<Pred>),
    /// Bi-implication.
    Iff(Box<Pred>, Box<Pred>),
    /// Comparison between two terms.
    Cmp(CmpOp, Term, Term),
    /// Uninterpreted predicate application, e.g. `impl(x, "ObjectType")`.
    App(Sym, Vec<Term>),
    /// Truthiness of a boolean-sorted term (e.g. a guard variable).
    TermPred(Term),
    /// A κ-variable under a pending substitution: the unknown refinement
    /// `κ[θ]` of Liquid type inference.
    KVar(KVarId, Subst),
}

impl Pred {
    /// A comparison predicate (constant-folds integer literal comparisons).
    pub fn cmp(op: CmpOp, a: Term, b: Term) -> Pred {
        if let (Term::IntLit(x), Term::IntLit(y)) = (&a, &b) {
            let r = match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            };
            return if r { Pred::True } else { Pred::False };
        }
        Pred::Cmp(op, a, b)
    }

    /// `a = b`.
    pub fn eq(a: Term, b: Term) -> Pred {
        Pred::cmp(CmpOp::Eq, a, b)
    }

    /// `v = t` — the "selfification" predicate (§3.2, the `self` operator).
    pub fn vv_eq(t: Term) -> Pred {
        Pred::eq(Term::vv(), t)
    }

    /// Smart conjunction: flattens nested conjunctions, drops `true`,
    /// collapses to `false` on any false conjunct.
    pub fn and(ps: Vec<Pred>) -> Pred {
        let mut out = Vec::new();
        for p in ps {
            match p {
                Pred::True => {}
                Pred::False => return Pred::False,
                Pred::And(qs) => out.extend(qs),
                q => out.push(q),
            }
        }
        match out.len() {
            0 => Pred::True,
            1 => out.pop().unwrap(),
            _ => Pred::And(out),
        }
    }

    /// Smart disjunction.
    pub fn or(ps: Vec<Pred>) -> Pred {
        let mut out = Vec::new();
        for p in ps {
            match p {
                Pred::False => {}
                Pred::True => return Pred::True,
                Pred::Or(qs) => out.extend(qs),
                q => out.push(q),
            }
        }
        match out.len() {
            0 => Pred::False,
            1 => out.pop().unwrap(),
            _ => Pred::Or(out),
        }
    }

    /// Smart negation: pushes through literals and double negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(p: Pred) -> Pred {
        match p {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Not(q) => *q,
            Pred::Cmp(op, a, b) => Pred::Cmp(op.negate(), a, b),
            q => Pred::Not(Box::new(q)),
        }
    }

    /// Smart implication.
    pub fn imp(a: Pred, b: Pred) -> Pred {
        match (&a, &b) {
            (Pred::True, _) => b,
            (Pred::False, _) => Pred::True,
            (_, Pred::True) => Pred::True,
            _ => Pred::Imp(Box::new(a), Box::new(b)),
        }
    }

    /// Bi-implication.
    pub fn iff(a: Pred, b: Pred) -> Pred {
        Pred::Iff(Box::new(a), Box::new(b))
    }

    /// True if the predicate contains no κ-variables.
    pub fn is_concrete(&self) -> bool {
        match self {
            Pred::KVar(..) => false,
            Pred::True | Pred::False | Pred::Cmp(..) | Pred::App(..) | Pred::TermPred(..) => true,
            Pred::And(ps) | Pred::Or(ps) => ps.iter().all(Pred::is_concrete),
            Pred::Not(p) => p.is_concrete(),
            Pred::Imp(a, b) | Pred::Iff(a, b) => a.is_concrete() && b.is_concrete(),
        }
    }

    /// The ids of all κ-variable occurrences, in order (with repeats).
    pub fn kvars(&self) -> Vec<KVarId> {
        let mut out = Vec::new();
        self.kvars_into(&mut out);
        out
    }

    fn kvars_into(&self, out: &mut Vec<KVarId>) {
        match self {
            Pred::KVar(k, _) => out.push(*k),
            Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|p| p.kvars_into(out)),
            Pred::Not(p) => p.kvars_into(out),
            Pred::Imp(a, b) | Pred::Iff(a, b) => {
                a.kvars_into(out);
                b.kvars_into(out);
            }
            _ => {}
        }
    }

    /// Collects the free variables of the predicate. Variables appearing in
    /// κ-variable substitution ranges count as free; substitution domains do
    /// not.
    pub fn free_vars_into(&self, out: &mut BTreeSet<Sym>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|p| p.free_vars_into(out)),
            Pred::Not(p) => p.free_vars_into(out),
            Pred::Imp(a, b) | Pred::Iff(a, b) => {
                a.free_vars_into(out);
                b.free_vars_into(out);
            }
            Pred::Cmp(_, a, b) => {
                a.free_vars_into(out);
                b.free_vars_into(out);
            }
            Pred::App(_, args) => args.iter().for_each(|a| a.free_vars_into(out)),
            Pred::TermPred(t) => t.free_vars_into(out),
            Pred::KVar(_, s) => {
                for (_, t) in s.iter() {
                    t.free_vars_into(out);
                }
            }
        }
    }

    /// The free variables of the predicate.
    pub fn free_vars(&self) -> BTreeSet<Sym> {
        let mut s = BTreeSet::new();
        self.free_vars_into(&mut s);
        s
    }

    /// Splits a predicate into its top-level conjuncts.
    pub fn conjuncts(self) -> Vec<Pred> {
        match self {
            Pred::And(ps) => ps,
            Pred::True => vec![],
            p => vec![p],
        }
    }
}

impl Pred {
    /// Renders the predicate into `out`. The one rendering
    /// implementation — [`fmt::Display`] delegates here — so the output
    /// is the `Display` output by construction. VC canonicalization
    /// renders every conjunct of every query (twice: sort key and cache
    /// key), which makes rendering hot enough that skipping the
    /// formatter machinery on interior nodes is measurable.
    pub fn write_into(&self, out: &mut String) {
        use fmt::Write;
        match self {
            Pred::True => out.push_str("true"),
            Pred::False => out.push_str("false"),
            Pred::And(ps) => {
                out.push('(');
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" && ");
                    }
                    p.write_into(out);
                }
                out.push(')');
            }
            Pred::Or(ps) => {
                out.push('(');
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" || ");
                    }
                    p.write_into(out);
                }
                out.push(')');
            }
            Pred::Not(p) => {
                out.push_str("!(");
                p.write_into(out);
                out.push(')');
            }
            Pred::Imp(a, b) => {
                out.push('(');
                a.write_into(out);
                out.push_str(" => ");
                b.write_into(out);
                out.push(')');
            }
            Pred::Iff(a, b) => {
                out.push('(');
                a.write_into(out);
                out.push_str(" <=> ");
                b.write_into(out);
                out.push(')');
            }
            Pred::Cmp(op, a, b) => {
                a.write_into(out);
                out.push(' ');
                out.push_str(op.symbol());
                out.push(' ');
                b.write_into(out);
            }
            Pred::App(g, args) => {
                out.push_str(g.as_str());
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    a.write_into(out);
                }
                out.push(')');
            }
            Pred::TermPred(t) => t.write_into(out),
            Pred::KVar(k, s) => {
                let _ = write!(out, "{k}{s}");
            }
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_into(&mut s);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_and_flattens() {
        let p = Pred::and(vec![
            Pred::True,
            Pred::and(vec![Pred::vv_eq(Term::int(0)), Pred::True]),
        ]);
        assert_eq!(p, Pred::Cmp(CmpOp::Eq, Term::vv(), Term::int(0)));
    }

    #[test]
    fn smart_and_false_collapses() {
        let p = Pred::and(vec![Pred::vv_eq(Term::int(0)), Pred::False]);
        assert_eq!(p, Pred::False);
    }

    #[test]
    fn cmp_constant_folds() {
        assert_eq!(Pred::cmp(CmpOp::Lt, Term::int(1), Term::int(2)), Pred::True);
        assert_eq!(
            Pred::cmp(CmpOp::Ge, Term::int(1), Term::int(2)),
            Pred::False
        );
    }

    #[test]
    fn not_pushes_through_cmp() {
        let p = Pred::not(Pred::cmp(CmpOp::Lt, Term::var("x"), Term::var("y")));
        assert_eq!(p, Pred::Cmp(CmpOp::Ge, Term::var("x"), Term::var("y")));
    }

    #[test]
    fn concrete_detection() {
        let p = Pred::and(vec![
            Pred::vv_eq(Term::int(1)),
            Pred::KVar(KVarId(3), Subst::new()),
        ]);
        assert!(!p.is_concrete());
        assert_eq!(p.kvars().len(), 1);
    }

    #[test]
    fn display() {
        let p = Pred::imp(
            Pred::cmp(CmpOp::Lt, Term::int(0), Term::len_of(Term::var("a"))),
            Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
        );
        assert_eq!(p.to_string(), "(0 < len(a) => 0 <= v)");
    }
}
