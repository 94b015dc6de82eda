//! Checker-level refinement types.
//!
//! An [`RType`] pairs a structural base with a refinement predicate over
//! the value variable `v`. Existential types from the paper's Figure 5 are
//! handled in the standard implementation style: instead of building
//! `∃z:T. S`, the checker eagerly binds a fresh `z` in the environment and
//! returns `S` referring to it ("unpacking on the fly").

use std::fmt;
use std::rc::Rc;

use rsc_logic::{CmpOp, Pred, Sort, Subst, Sym, Term};
use rsc_syntax::Mutability;

/// Primitive base types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Prim {
    /// `number` (integers; the refinement logic is LIA).
    Num,
    /// `boolean`.
    Bool,
    /// `string`.
    Str,
    /// `void` (the type of statements / missing returns).
    Void,
    /// `undefined` — a distinct primitive, *not* bottom (§4.1).
    Undef,
    /// `null` — likewise distinct.
    Null,
}

/// A structural base type.
#[derive(Clone, Debug)]
pub enum Base {
    /// A primitive.
    Prim(Prim),
    /// A 32-bit bit-vector enum (§4.3), tagged with the enum name.
    Bv(Sym),
    /// An array with element type and object mutability.
    ///
    /// In this model arrays are fixed-length (no `push`/`pop` in verified
    /// code — the paper hits the same wall, §5.3), so `len` is a stable
    /// measure for *every* mutability; element writes require
    /// [`Mutability::Mutable`] or [`Mutability::Unique`].
    Arr(Box<RType>, Mutability),
    /// A class or interface instance with reference mutability and type
    /// arguments.
    Obj(Sym, Mutability, Vec<RType>),
    /// A function value.
    Fun(Rc<RFun>),
    /// A rigid type variable (inside a generic function's own body).
    TVar(Sym),
    /// A union (written `+` in the surface syntax). Erases to
    /// [`Sort::Ref`]; parts are discriminated by `ttag`/`null`/`undefined`
    /// predicates (§4.2).
    Union(Vec<RType>),
    /// An inference placeholder (element type of `new Array(n)` / `[]`),
    /// resolved by the first subtyping constraint against it.
    Infer(u32),
}

/// A (possibly polymorphic, dependent) function type.
#[derive(Clone, Debug)]
pub struct RFun {
    /// Type parameters.
    pub tparams: Vec<Sym>,
    /// Parameters: names and types; later types may mention earlier names.
    pub params: Vec<(Sym, RType)>,
    /// Return type (may mention parameter names).
    pub ret: RType,
}

/// A refinement type `{v : base | pred}`.
#[derive(Clone, Debug)]
pub struct RType {
    /// The structural part.
    pub base: Base,
    /// The refinement, over the value variable `v`.
    pub pred: Pred,
}

impl RType {
    /// `{v: base | true}`.
    pub fn trivial(base: Base) -> RType {
        RType {
            base,
            pred: Pred::True,
        }
    }

    /// `number`.
    pub fn number() -> RType {
        RType::trivial(Base::Prim(Prim::Num))
    }

    /// `boolean`.
    pub fn boolean() -> RType {
        RType::trivial(Base::Prim(Prim::Bool))
    }

    /// `string`.
    pub fn string() -> RType {
        RType::trivial(Base::Prim(Prim::Str))
    }

    /// `void`.
    pub fn void() -> RType {
        RType::trivial(Base::Prim(Prim::Void))
    }

    /// `undefined`.
    pub fn undefined() -> RType {
        RType {
            base: Base::Prim(Prim::Undef),
            pred: Pred::eq(Term::vv(), Term::app("undefv", vec![])),
        }
    }

    /// `null`.
    pub fn null() -> RType {
        RType {
            base: Base::Prim(Prim::Null),
            pred: Pred::eq(Term::vv(), Term::app("nullv", vec![])),
        }
    }

    /// `{v: number | v = n}`.
    pub fn num_lit(n: i64) -> RType {
        RType {
            base: Base::Prim(Prim::Num),
            pred: Pred::vv_eq(Term::int(n)),
        }
    }

    /// Strengthens the refinement: `T ∧ p` (the `◁` operator of §3.2).
    pub fn strengthen(mut self, p: Pred) -> RType {
        self.pred = Pred::and(vec![self.pred, p]);
        self
    }

    /// Self-strengthening `self(T, t) = T ∧ (v = t)` — only meaningful for
    /// sorts where equality is available.
    pub fn selfify(self, t: Term) -> RType {
        let p = Pred::vv_eq(t);
        self.strengthen(p)
    }

    /// The logic sort of values of this type.
    pub fn sort(&self) -> Sort {
        match &self.base {
            Base::Prim(Prim::Num) => Sort::Int,
            Base::Prim(Prim::Bool) => Sort::Bool,
            Base::Prim(Prim::Str) => Sort::Str,
            Base::Prim(Prim::Void) => Sort::Int,
            Base::Prim(Prim::Undef) | Base::Prim(Prim::Null) => Sort::Ref,
            Base::Bv(_) => Sort::Bv32,
            Base::Arr(..)
            | Base::Obj(..)
            | Base::Fun(_)
            | Base::TVar(_)
            | Base::Union(_)
            | Base::Infer(_) => Sort::Ref,
        }
    }

    /// Applies a term substitution to the refinement (and recursively to
    /// nested types).
    pub fn subst(&self, s: &Subst) -> RType {
        RType {
            base: self.base.subst(s),
            pred: s.apply_pred(&self.pred),
        }
    }

    /// The non-empty-array refinement `0 < len(v)`.
    pub fn nonempty_pred() -> Pred {
        Pred::cmp(CmpOp::Lt, Term::int(0), Term::len_of(Term::vv()))
    }
}

impl Base {
    fn subst(&self, s: &Subst) -> Base {
        match self {
            Base::Arr(e, m) => Base::Arr(Box::new(e.subst(s)), *m),
            Base::Obj(c, m, args) => Base::Obj(*c, *m, args.iter().map(|a| a.subst(s)).collect()),
            Base::Fun(f) => {
                // Avoid capturing parameter names: drop bindings for them.
                let mut s2 = Subst::new();
                for (x, t) in s.iter() {
                    if !f.params.iter().any(|(p, _)| p == x) {
                        s2.push(*x, t.clone());
                    }
                }
                Base::Fun(Rc::new(RFun {
                    tparams: f.tparams.clone(),
                    params: f.params.iter().map(|(x, t)| (*x, t.subst(&s2))).collect(),
                    ret: f.ret.subst(&s2),
                }))
            }
            Base::Union(parts) => Base::Union(parts.iter().map(|p| p.subst(s)).collect()),
            other => other.clone(),
        }
    }

    /// A short name for error messages.
    pub fn describe(&self) -> String {
        match self {
            Base::Prim(Prim::Num) => "number".into(),
            Base::Prim(Prim::Bool) => "boolean".into(),
            Base::Prim(Prim::Str) => "string".into(),
            Base::Prim(Prim::Void) => "void".into(),
            Base::Prim(Prim::Undef) => "undefined".into(),
            Base::Prim(Prim::Null) => "null".into(),
            Base::Bv(n) => n.to_string(),
            Base::Arr(e, m) => format!("Array<{}, {}>", m.abbrev(), e.base.describe()),
            Base::Obj(c, m, _) => format!("{c}<{}>", m.abbrev()),
            Base::Fun(f) => format!("({} params) => …", f.params.len()),
            Base::TVar(a) => a.to_string(),
            Base::Union(ps) => ps
                .iter()
                .map(|p| p.base.describe())
                .collect::<Vec<_>>()
                .join(" + "),
            Base::Infer(u) => format!("?{u}"),
        }
    }
}

impl fmt::Display for RType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if matches!(self.pred, Pred::True) {
            write!(f, "{}", self.base.describe())
        } else {
            write!(f, "{{v: {} | {}}}", self.base.describe(), self.pred)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selfify_strengthens() {
        let t = RType::number().selfify(Term::var("x"));
        assert_eq!(t.pred.to_string(), "v = x");
    }

    #[test]
    fn sorts() {
        assert_eq!(RType::number().sort(), Sort::Int);
        assert_eq!(RType::boolean().sort(), Sort::Bool);
        assert_eq!(
            RType::trivial(Base::Arr(Box::new(RType::number()), Mutability::Mutable)).sort(),
            Sort::Ref
        );
        assert_eq!(RType::trivial(Base::Bv(Sym::from("F"))).sort(), Sort::Bv32);
    }

    #[test]
    fn subst_avoids_fun_param_capture() {
        let f = RFun {
            tparams: vec![],
            params: vec![(Sym::from("x"), RType::number())],
            ret: RType {
                base: Base::Prim(Prim::Num),
                pred: Pred::cmp(CmpOp::Lt, Term::var("x"), Term::vv()),
            },
        };
        let t = RType::trivial(Base::Fun(Rc::new(f)));
        let s = Subst::one("x", Term::int(99));
        let t2 = t.subst(&s);
        let Base::Fun(f2) = &t2.base else { panic!() };
        // x is bound by the function type; must not be substituted.
        assert_eq!(f2.ret.pred.to_string(), "x < v");
    }
}
