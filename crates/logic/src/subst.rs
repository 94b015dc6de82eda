use std::fmt;

use crate::{Pred, Sym, Term};

/// A parallel substitution of terms for variables, `[t₁/x₁, …, tₙ/xₙ]`.
///
/// Substitutions are applied simultaneously (not sequentially), matching
/// the standard convention of refinement type systems. There are no binders
/// inside predicates, so application is capture-free by construction;
/// κ-variable occurrences *compose* the substitution into their pending
/// substitution.
///
/// ```
/// use rsc_logic::{Pred, Subst, Term, CmpOp};
/// let mut s = Subst::new();
/// s.push("x", Term::int(3));
/// let p = Pred::cmp(CmpOp::Lt, Term::var("x"), Term::var("y"));
/// assert_eq!(s.apply_pred(&p).to_string(), "3 < y");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Subst {
    pairs: Vec<(Sym, Term)>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    /// A one-variable substitution `[t/x]`.
    pub fn one(x: impl Into<Sym>, t: Term) -> Self {
        let mut s = Subst::new();
        s.push(x, t);
        s
    }

    /// Adds a binding `[t/x]`. If `x` is already in the domain, the older
    /// binding is replaced.
    pub fn push(&mut self, x: impl Into<Sym>, t: Term) {
        let x = x.into();
        self.pairs.retain(|(y, _)| *y != x);
        self.pairs.push((x, t));
    }

    /// Looks up the image of `x`.
    pub fn lookup(&self, x: &Sym) -> Option<&Term> {
        self.pairs.iter().find(|(y, _)| y == x).map(|(_, t)| t)
    }

    /// True if the substitution has an empty domain.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over the (variable, term) pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(Sym, Term)> {
        self.pairs.iter()
    }

    /// Applies the substitution to a term.
    pub fn apply_term(&self, t: &Term) -> Term {
        if self.is_empty() {
            return t.clone();
        }
        match t {
            Term::Var(x) => self.lookup(x).cloned().unwrap_or_else(|| t.clone()),
            Term::IntLit(_) | Term::BoolLit(_) | Term::StrLit(_) | Term::BvLit(_) => t.clone(),
            Term::Field(b, f) => Term::field(self.apply_term(b), *f),
            Term::App(f, args) => Term::app(*f, args.iter().map(|a| self.apply_term(a)).collect()),
            Term::Bin(op, a, b) => Term::bin(*op, self.apply_term(a), self.apply_term(b)),
            Term::Neg(a) => Term::neg(self.apply_term(a)),
        }
    }

    /// Applies the substitution to a predicate. A κ-variable occurrence
    /// `κ[θ]` becomes `κ[self ∘ θ]`: the pending substitution is composed.
    pub fn apply_pred(&self, p: &Pred) -> Pred {
        if self.is_empty() {
            return p.clone();
        }
        match p {
            Pred::True => Pred::True,
            Pred::False => Pred::False,
            Pred::And(ps) => Pred::and(ps.iter().map(|q| self.apply_pred(q)).collect()),
            Pred::Or(ps) => Pred::or(ps.iter().map(|q| self.apply_pred(q)).collect()),
            Pred::Not(q) => Pred::not(self.apply_pred(q)),
            Pred::Imp(a, b) => Pred::imp(self.apply_pred(a), self.apply_pred(b)),
            Pred::Iff(a, b) => Pred::iff(self.apply_pred(a), self.apply_pred(b)),
            Pred::Cmp(op, a, b) => Pred::cmp(*op, self.apply_term(a), self.apply_term(b)),
            Pred::App(f, args) => Pred::App(*f, args.iter().map(|a| self.apply_term(a)).collect()),
            Pred::TermPred(t) => Pred::TermPred(self.apply_term(t)),
            Pred::KVar(k, theta) => Pred::KVar(*k, self.compose(theta)),
        }
    }

    /// Composes `self ∘ theta`: first `theta` is applied, then `self`.
    /// Variables in `self`'s domain that `theta` does not mention are also
    /// included, so the composed substitution subsumes both.
    pub fn compose(&self, theta: &Subst) -> Subst {
        let mut out = Subst::new();
        for (x, t) in theta.iter() {
            out.push(*x, self.apply_term(t));
        }
        for (x, t) in self.iter() {
            if out.lookup(x).is_none() {
                out.push(*x, t.clone());
            }
        }
        out
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (x, t)) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}/{x}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, KVarId};

    #[test]
    fn parallel_not_sequential() {
        // [y/x, x/y] swaps x and y.
        let mut s = Subst::new();
        s.push("x", Term::var("y"));
        s.push("y", Term::var("x"));
        let t = Term::add(Term::var("x"), Term::var("y"));
        assert_eq!(s.apply_term(&t).to_string(), "(y + x)");
    }

    #[test]
    fn kvar_composition() {
        let inner = Subst::one("v", Term::var("w"));
        let p = Pred::KVar(KVarId(0), inner);
        let outer = Subst::one("w", Term::int(5));
        let q = outer.apply_pred(&p);
        match q {
            Pred::KVar(_, theta) => {
                assert_eq!(theta.lookup(&Sym::from("v")), Some(&Term::int(5)));
                // outer's own binding carried along
                assert_eq!(theta.lookup(&Sym::from("w")), Some(&Term::int(5)));
            }
            _ => panic!("expected kvar"),
        }
    }

    #[test]
    fn push_replaces() {
        let mut s = Subst::new();
        s.push("x", Term::int(1));
        s.push("x", Term::int(2));
        assert_eq!(s.lookup(&Sym::from("x")), Some(&Term::int(2)));
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn apply_pred_folds() {
        let s = Subst::one("x", Term::int(1));
        let p = Pred::cmp(CmpOp::Lt, Term::var("x"), Term::int(2));
        assert_eq!(s.apply_pred(&p), Pred::True);
    }
}
