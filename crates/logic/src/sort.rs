use std::collections::HashMap;
use std::fmt;

use crate::{BinOp, CmpOp, Pred, Sym, Term};

/// Sorts classify logical terms.
///
/// The refinement logic is many-sorted: numbers are integers ([`Sort::Int`],
/// the paper's `number` refinements live in linear integer arithmetic),
/// booleans, string literals (compared only for equality), 32-bit
/// bit-vectors (interface-hierarchy flags, §4.3), and object references
/// (classes, interfaces, arrays and function values all erase to
/// [`Sort::Ref`] in the logic; their structure is exposed through
/// uninterpreted functions such as `len` and field selectors).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    /// Mathematical integers (the sort of `number`).
    Int,
    /// Booleans.
    Bool,
    /// String literals; only equality is interpreted.
    Str,
    /// 32-bit bit-vectors.
    Bv32,
    /// Object references (classes, interfaces, arrays, functions).
    Ref,
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Int => write!(f, "int"),
            Sort::Bool => write!(f, "bool"),
            Sort::Str => write!(f, "str"),
            Sort::Bv32 => write!(f, "bv32"),
            Sort::Ref => write!(f, "ref"),
        }
    }
}

/// The sort signature of an uninterpreted function symbol.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FunSig {
    /// Fixed argument sorts and result sort.
    Fixed(Vec<Sort>, Sort),
    /// A fixed arity but arguments of any sort (e.g. `ttag`), with the
    /// given result sort.
    AnyArgs(usize, Sort),
}

impl FunSig {
    /// The result sort of the signature.
    pub fn result(&self) -> Sort {
        match self {
            FunSig::Fixed(_, r) | FunSig::AnyArgs(_, r) => *r,
        }
    }

    /// The arity of the signature.
    pub fn arity(&self) -> usize {
        match self {
            FunSig::Fixed(args, _) => args.len(),
            FunSig::AnyArgs(n, _) => *n,
        }
    }
}

/// A sorting environment: sorts for variables and signatures for
/// uninterpreted functions.
///
/// A fresh `SortEnv` already knows the built-in symbols of the RSC logic:
/// `len : ref -> int`, `ttag : any -> str`, `impl : (ref, str) -> bool`,
/// `mul : (int, int) -> int` (uninterpreted nonlinear multiplication) and
/// field selectors registered on demand.
#[derive(Clone, Debug, Default)]
pub struct SortEnv {
    vars: HashMap<Sym, Sort>,
    funs: HashMap<Sym, FunSig>,
}

/// An error produced while sorting a term or predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortError(pub String);

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sort error: {}", self.0)
    }
}

impl std::error::Error for SortError {}

impl SortEnv {
    /// Creates a sort environment pre-populated with the built-in
    /// uninterpreted functions of the RSC logic.
    pub fn new() -> Self {
        let mut env = SortEnv::default();
        env.declare_fun("len", FunSig::AnyArgs(1, Sort::Int));
        env.declare_fun("ttag", FunSig::AnyArgs(1, Sort::Str));
        env.declare_fun(
            "impl",
            FunSig::Fixed(vec![Sort::Ref, Sort::Str], Sort::Bool),
        );
        env.declare_fun("mul", FunSig::Fixed(vec![Sort::Int, Sort::Int], Sort::Int));
        env
    }

    /// Binds variable `x` to sort `s` (shadowing any previous binding).
    pub fn bind(&mut self, x: impl Into<Sym>, s: Sort) {
        self.vars.insert(x.into(), s);
    }

    /// Looks up the sort of variable `x`.
    pub fn lookup(&self, x: &Sym) -> Option<Sort> {
        self.vars.get(x).copied()
    }

    /// Declares an uninterpreted function symbol.
    pub fn declare_fun(&mut self, f: impl Into<Sym>, sig: FunSig) {
        self.funs.insert(f.into(), sig);
    }

    /// Looks up the signature of function symbol `f`.
    pub fn fun_sig(&self, f: &Sym) -> Option<&FunSig> {
        self.funs.get(f)
    }

    /// Iterates over the bound variables.
    pub fn vars(&self) -> impl Iterator<Item = (&Sym, Sort)> {
        self.vars.iter().map(|(k, v)| (k, *v))
    }

    /// Iterates over the declared uninterpreted functions.
    pub fn funs(&self) -> impl Iterator<Item = (&Sym, &FunSig)> {
        self.funs.iter()
    }

    /// Computes the sort of `t`, or an error if `t` is ill-sorted.
    ///
    /// Field selectors `t.f` are given sort via the registered function
    /// `field$f` when present, defaulting to [`Sort::Int`] otherwise (the
    /// checker registers precise selector sorts for class fields it knows).
    pub fn sort_of(&self, t: &Term) -> Result<Sort, SortError> {
        sort_of_in(self, t)
    }

    /// Checks that predicate `p` is well-sorted (every comparison relates
    /// terms of equal sort, `TermPred` terms are boolean, κ-variable
    /// arguments are sortable).
    pub fn check_pred(&self, p: &Pred) -> Result<(), SortError> {
        check_pred_in(self, p)
    }
}

/// A read-only view of variable sorts and uninterpreted-function
/// signatures, implemented both by the owned [`SortEnv`] and by the
/// borrowed [`SortScope`] overlay. Sorting and encoding are written
/// against this trait so that extending an environment with a handful of
/// binders (a constraint's scope, the canonical `#0, #1, …` binders of a
/// cached query) never requires cloning the whole environment.
pub trait SortLookup {
    /// The sort of variable `x`, if bound.
    fn var_sort(&self, x: &Sym) -> Option<Sort>;
    /// The signature of uninterpreted function `f`, if declared.
    fn sig_of_fun(&self, f: &Sym) -> Option<&FunSig>;
}

impl SortLookup for SortEnv {
    fn var_sort(&self, x: &Sym) -> Option<Sort> {
        self.lookup(x)
    }
    fn sig_of_fun(&self, f: &Sym) -> Option<&FunSig> {
        self.fun_sig(f)
    }
}

/// A borrowed sort environment extension: a base environment plus a
/// binder list layered on top (later binders shadow earlier ones, which
/// shadow the base). Construction is O(1) — no clone of the base — which
/// is what keeps per-constraint scopes and the VC cache's canonical
/// binders off the allocation profile.
#[derive(Clone, Copy)]
pub struct SortScope<'a> {
    base: &'a dyn SortLookup,
    binders: &'a [(Sym, Sort)],
}

impl<'a> SortScope<'a> {
    /// A view of `base` extended with `binders`.
    pub fn new(base: &'a dyn SortLookup, binders: &'a [(Sym, Sort)]) -> Self {
        SortScope { base, binders }
    }

    /// See [`SortEnv::sort_of`].
    pub fn sort_of(&self, t: &Term) -> Result<Sort, SortError> {
        sort_of_in(self, t)
    }

    /// See [`SortEnv::check_pred`].
    pub fn check_pred(&self, p: &Pred) -> Result<(), SortError> {
        check_pred_in(self, p)
    }
}

impl SortLookup for SortScope<'_> {
    fn var_sort(&self, x: &Sym) -> Option<Sort> {
        self.binders
            .iter()
            .rev()
            .find(|(y, _)| y == x)
            .map(|(_, s)| *s)
            .or_else(|| self.base.var_sort(x))
    }
    fn sig_of_fun(&self, f: &Sym) -> Option<&FunSig> {
        self.base.sig_of_fun(f)
    }
}

/// [`SortEnv::sort_of`] generalized over any [`SortLookup`].
pub fn sort_of_in(env: &dyn SortLookup, t: &Term) -> Result<Sort, SortError> {
    match t {
        Term::Var(x) => env
            .var_sort(x)
            .ok_or_else(|| SortError(format!("unbound logic variable {x}"))),
        Term::IntLit(_) => Ok(Sort::Int),
        Term::BoolLit(_) => Ok(Sort::Bool),
        Term::StrLit(_) => Ok(Sort::Str),
        Term::BvLit(_) => Ok(Sort::Bv32),
        Term::Field(base, f) => {
            let bs = sort_of_in(env, base)?;
            if bs != Sort::Ref {
                return Err(SortError(format!(
                    "field access {t} on non-reference sort {bs}"
                )));
            }
            let sel = Sym::from(format!("field${f}"));
            Ok(env
                .sig_of_fun(&sel)
                .map(|s| s.result())
                .unwrap_or(Sort::Int))
        }
        Term::App(f, args) => {
            let sig = env
                .sig_of_fun(f)
                .ok_or_else(|| SortError(format!("unknown function symbol {f}")))?
                .clone();
            if sig.arity() != args.len() {
                return Err(SortError(format!(
                    "{f} expects {} arguments, got {}",
                    sig.arity(),
                    args.len()
                )));
            }
            if let FunSig::Fixed(expected, _) = &sig {
                for (a, want) in args.iter().zip(expected) {
                    let got = sort_of_in(env, a)?;
                    if got != *want {
                        return Err(SortError(format!(
                            "argument {a} of {f} has sort {got}, expected {want}"
                        )));
                    }
                }
            } else {
                for a in args {
                    sort_of_in(env, a)?;
                }
            }
            Ok(sig.result())
        }
        Term::Bin(op, a, b) => {
            let sa = sort_of_in(env, a)?;
            let sb = sort_of_in(env, b)?;
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    if sa == Sort::Int && sb == Sort::Int {
                        Ok(Sort::Int)
                    } else {
                        Err(SortError(format!("arithmetic {t} on sorts {sa}, {sb}")))
                    }
                }
                BinOp::BvAnd | BinOp::BvOr => {
                    if sa == Sort::Bv32 && sb == Sort::Bv32 {
                        Ok(Sort::Bv32)
                    } else {
                        Err(SortError(format!("bit-vector op {t} on sorts {sa}, {sb}")))
                    }
                }
            }
        }
        Term::Neg(a) => {
            let sa = sort_of_in(env, a)?;
            if sa == Sort::Int {
                Ok(Sort::Int)
            } else {
                Err(SortError(format!("negation of sort {sa}")))
            }
        }
    }
}

/// [`SortEnv::check_pred`] generalized over any [`SortLookup`].
pub fn check_pred_in(env: &dyn SortLookup, p: &Pred) -> Result<(), SortError> {
    match p {
        Pred::True | Pred::False => Ok(()),
        Pred::And(ps) | Pred::Or(ps) => ps.iter().try_for_each(|q| check_pred_in(env, q)),
        Pred::Not(q) => check_pred_in(env, q),
        Pred::Imp(a, b) | Pred::Iff(a, b) => {
            check_pred_in(env, a)?;
            check_pred_in(env, b)
        }
        Pred::Cmp(op, a, b) => {
            let sa = sort_of_in(env, a)?;
            let sb = sort_of_in(env, b)?;
            if sa != sb {
                return Err(SortError(format!(
                    "comparison {p} relates sorts {sa} and {sb}"
                )));
            }
            match op {
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    if sa == Sort::Int {
                        Ok(())
                    } else {
                        Err(SortError(format!("ordering {p} on sort {sa}")))
                    }
                }
                CmpOp::Eq | CmpOp::Ne => Ok(()),
            }
        }
        Pred::App(f, args) => {
            let sig = env
                .sig_of_fun(f)
                .ok_or_else(|| SortError(format!("unknown predicate symbol {f}")))?;
            if sig.result() != Sort::Bool {
                return Err(SortError(format!("{f} is not a predicate symbol")));
            }
            if sig.arity() != args.len() {
                return Err(SortError(format!("{f} arity mismatch")));
            }
            for a in args {
                sort_of_in(env, a)?;
            }
            Ok(())
        }
        Pred::TermPred(t) => {
            let s = sort_of_in(env, t)?;
            if s == Sort::Bool {
                Ok(())
            } else {
                Err(SortError(format!("truthiness of non-boolean term {t}")))
            }
        }
        Pred::KVar(_, subst) => {
            for (_, t) in subst.iter() {
                sort_of_in(env, t)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        e.bind("a", Sort::Ref);
        e.bind("v", Sort::Int);
        e.bind("b", Sort::Bool);
        e
    }

    #[test]
    fn sorts_of_builtins() {
        let e = env();
        let len_a = Term::app("len", vec![Term::var("a")]);
        assert_eq!(e.sort_of(&len_a).unwrap(), Sort::Int);
        let tt = Term::app("ttag", vec![Term::var("v")]);
        assert_eq!(e.sort_of(&tt).unwrap(), Sort::Str);
    }

    #[test]
    fn ill_sorted_comparison_rejected() {
        let e = env();
        let p = Pred::cmp(CmpOp::Eq, Term::var("v"), Term::str("number"));
        assert!(e.check_pred(&p).is_err());
        let q = Pred::cmp(
            CmpOp::Eq,
            Term::app("ttag", vec![Term::var("v")]),
            Term::str("number"),
        );
        assert!(e.check_pred(&q).is_ok());
    }

    #[test]
    fn unbound_variable_is_error() {
        let e = env();
        assert!(e.sort_of(&Term::var("nope")).is_err());
    }

    #[test]
    fn bitvector_ops() {
        let mut e = env();
        e.bind("flags", Sort::Bv32);
        let t = Term::bin(BinOp::BvAnd, Term::var("flags"), Term::bv(0x3c00));
        assert_eq!(e.sort_of(&t).unwrap(), Sort::Bv32);
        let p = Pred::cmp(CmpOp::Ne, t, Term::bv(0));
        assert!(e.check_pred(&p).is_ok());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = env();
        let t = Term::app("len", vec![Term::var("a"), Term::var("a")]);
        assert!(e.sort_of(&t).is_err());
    }

    #[test]
    fn truthiness_requires_bool() {
        let e = env();
        assert!(e.check_pred(&Pred::TermPred(Term::var("b"))).is_ok());
        assert!(e.check_pred(&Pred::TermPred(Term::var("v"))).is_err());
    }
}
