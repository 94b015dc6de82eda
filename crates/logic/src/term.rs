use std::collections::BTreeSet;
use std::fmt;

use crate::Sym;

/// Binary operations on logical terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication. Products with at least one constant operand
    /// are linear; variable products are sent to the SMT layer as the
    /// uninterpreted function `mul` (the paper handles nonlinear facts via
    /// ghost-function axioms, §5).
    Mul,
    /// Integer division (uninterpreted at the SMT layer unless by constant).
    Div,
    /// Integer modulus (uninterpreted at the SMT layer unless by constant).
    Mod,
    /// Bit-vector and (32-bit).
    BvAnd,
    /// Bit-vector or (32-bit).
    BvOr,
}

impl BinOp {
    /// The surface symbol for this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::BvAnd => "&",
            BinOp::BvOr => "|",
        }
    }
}

/// A logical term `t` (§3.2 of the paper):
///
/// ```text
/// t ::= x | c | v | this | t.f | f(t̄) | b(t̄)
/// ```
///
/// `v` and `this` are ordinary [`Term::Var`]s with reserved names
/// ([`crate::VV`] and [`crate::THIS`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable (including the value variable `v` and `this`).
    Var(Sym),
    /// An integer literal.
    IntLit(i64),
    /// A boolean literal.
    BoolLit(bool),
    /// A string literal (interpreted only up to equality of distinct
    /// literals).
    StrLit(Sym),
    /// A 32-bit bit-vector literal.
    BvLit(u32),
    /// Field access `t.f`. Restricted by well-formedness to immutable
    /// fields (§3.2).
    Field(Box<Term>, Sym),
    /// Application of an uninterpreted function, e.g. `len(a)`.
    App(Sym, Vec<Term>),
    /// A binary operation.
    Bin(BinOp, Box<Term>, Box<Term>),
    /// Integer negation.
    Neg(Box<Term>),
}

impl Term {
    /// A variable term.
    pub fn var(x: impl Into<Sym>) -> Term {
        Term::Var(x.into())
    }

    /// The value variable `v` (ν in the paper).
    pub fn vv() -> Term {
        Term::Var(Sym::from(crate::VV))
    }

    /// The receiver variable `this`.
    pub fn this() -> Term {
        Term::Var(Sym::from(crate::THIS))
    }

    /// An integer literal term.
    pub fn int(n: i64) -> Term {
        Term::IntLit(n)
    }

    /// A boolean literal term.
    pub fn bool(b: bool) -> Term {
        Term::BoolLit(b)
    }

    /// A string literal term.
    pub fn str(s: impl Into<Sym>) -> Term {
        Term::StrLit(s.into())
    }

    /// A 32-bit bit-vector literal term.
    pub fn bv(n: u32) -> Term {
        Term::BvLit(n)
    }

    /// A field access `t.f`.
    pub fn field(base: Term, f: impl Into<Sym>) -> Term {
        Term::Field(Box::new(base), f.into())
    }

    /// An uninterpreted application `f(args)`.
    pub fn app(f: impl Into<Sym>, args: Vec<Term>) -> Term {
        Term::App(f.into(), args)
    }

    /// `len(t)` — the uninterpreted array-length measure.
    pub fn len_of(t: Term) -> Term {
        Term::app("len", vec![t])
    }

    /// `ttag(t)` — the uninterpreted type-tag measure (§4.2).
    pub fn ttag_of(t: Term) -> Term {
        Term::app("ttag", vec![t])
    }

    /// A binary operation term, constant-folding integer arithmetic.
    pub fn bin(op: BinOp, a: Term, b: Term) -> Term {
        if let (Term::IntLit(x), Term::IntLit(y)) = (&a, &b) {
            let folded = match op {
                BinOp::Add => x.checked_add(*y),
                BinOp::Sub => x.checked_sub(*y),
                BinOp::Mul => x.checked_mul(*y),
                BinOp::Div if *y != 0 => Some(x.wrapping_div(*y)),
                BinOp::Mod if *y != 0 => Some(x.wrapping_rem(*y)),
                _ => None,
            };
            if let Some(n) = folded {
                return Term::IntLit(n);
            }
        }
        if let (Term::BvLit(x), Term::BvLit(y)) = (&a, &b) {
            match op {
                BinOp::BvAnd => return Term::BvLit(x & y),
                BinOp::BvOr => return Term::BvLit(x | y),
                _ => {}
            }
        }
        Term::Bin(op, Box::new(a), Box::new(b))
    }

    /// `a + b`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Term, b: Term) -> Term {
        Term::bin(BinOp::Add, a, b)
    }

    /// `a - b`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Term, b: Term) -> Term {
        Term::bin(BinOp::Sub, a, b)
    }

    /// `a * b`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Term, b: Term) -> Term {
        Term::bin(BinOp::Mul, a, b)
    }

    /// Integer negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(a: Term) -> Term {
        match a {
            Term::IntLit(n) => Term::IntLit(-n),
            other => Term::Neg(Box::new(other)),
        }
    }

    /// Calls `f` on every variable occurrence of the term, in order
    /// (repeats included).
    pub fn for_each_var(&self, f: &mut impl FnMut(Sym)) {
        match self {
            Term::Var(x) => f(*x),
            Term::IntLit(_) | Term::BoolLit(_) | Term::StrLit(_) | Term::BvLit(_) => {}
            Term::Field(b, _) => b.for_each_var(f),
            Term::App(_, args) => args.iter().for_each(|a| a.for_each_var(f)),
            Term::Bin(_, a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Term::Neg(a) => a.for_each_var(f),
        }
    }

    /// Collects the free variables of the term into `out`.
    pub fn free_vars_into(&self, out: &mut BTreeSet<Sym>) {
        self.for_each_var(&mut |x| {
            out.insert(x);
        });
    }

    /// The free variables of the term.
    pub fn free_vars(&self) -> BTreeSet<Sym> {
        let mut s = BTreeSet::new();
        self.free_vars_into(&mut s);
        s
    }

    /// True if the term mentions variable `x`.
    pub fn mentions(&self, x: &Sym) -> bool {
        match self {
            Term::Var(y) => y == x,
            Term::IntLit(_) | Term::BoolLit(_) | Term::StrLit(_) | Term::BvLit(_) => false,
            Term::Field(b, _) => b.mentions(x),
            Term::App(_, args) => args.iter().any(|a| a.mentions(x)),
            Term::Bin(_, a, b) => a.mentions(x) || b.mentions(x),
            Term::Neg(a) => a.mentions(x),
        }
    }
}

impl Term {
    /// Renders the term into `out`. This is the one rendering
    /// implementation — [`fmt::Display`] delegates here — so the output
    /// is the `Display` output by construction. Rendering is on the VC
    /// canonicalization hot path (every conjunct of every query is
    /// rendered for the cache key), where appending to a `String`
    /// directly avoids the formatter machinery on interior nodes.
    pub fn write_into(&self, out: &mut String) {
        use fmt::Write;
        match self {
            Term::Var(x) => out.push_str(x.as_str()),
            Term::IntLit(n) => {
                let _ = write!(out, "{n}");
            }
            Term::BoolLit(b) => out.push_str(if *b { "true" } else { "false" }),
            Term::StrLit(s) => {
                out.push('"');
                out.push_str(s.as_str());
                out.push('"');
            }
            Term::BvLit(n) => {
                let _ = write!(out, "{n:#x}");
            }
            Term::Field(b, fld) => {
                b.write_into(out);
                out.push('.');
                out.push_str(fld.as_str());
            }
            Term::App(g, args) => {
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
            Term::Bin(op, a, b) => {
                out.push('(');
                a.write_into(out);
                out.push(' ');
                out.push_str(op.symbol());
                out.push(' ');
                b.write_into(out);
                out.push(')');
            }
            Term::Neg(a) => {
                out.push_str("-(");
                a.write_into(out);
                out.push(')');
            }
        }
    }
}

impl fmt::Display for Term {
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
    fn constant_folding() {
        assert_eq!(Term::add(Term::int(2), Term::int(3)), Term::int(5));
        assert_eq!(Term::mul(Term::int(4), Term::int(5)), Term::int(20));
        assert_eq!(
            Term::bin(BinOp::BvAnd, Term::bv(0xff00), Term::bv(0x0ff0)),
            Term::bv(0x0f00)
        );
    }

    #[test]
    fn display_roundtrippable_shapes() {
        let t = Term::add(Term::var("x"), Term::len_of(Term::var("a")));
        assert_eq!(t.to_string(), "(x + len(a))");
        assert_eq!(Term::field(Term::this(), "w").to_string(), "this.w");
    }

    #[test]
    fn free_vars() {
        let t = Term::add(Term::var("x"), Term::len_of(Term::var("a")));
        let fv = t.free_vars();
        assert!(fv.contains("x") && fv.contains("a"));
        assert_eq!(fv.len(), 2);
    }

    #[test]
    fn mentions() {
        let t = Term::field(Term::var("o"), "f");
        assert!(t.mentions(&Sym::from("o")));
        assert!(!t.mentions(&Sym::from("f")));
    }

    #[test]
    fn neg_folds_literal() {
        assert_eq!(Term::neg(Term::int(7)), Term::int(-7));
    }
}
