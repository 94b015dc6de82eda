//! Three-valued evaluation of predicates under a concrete interpretation.
//!
//! The standard interpretation of the refinement logic: integers are
//! unbounded (held in i128, with checked arithmetic), `*` multiplies, `/`
//! and `%` truncate toward zero (as the SMT encoder and its theory
//! combination fold them), string literals are distinct values, and every
//! uninterpreted symbol — variables, `len`, `ttag`, fields, predicate
//! applications — is whatever the [`Interp`] says it is.
//!
//! Anything the evaluator cannot determine is *unknown* (`None`), never
//! true or false: an unassigned symbol, a table without the entry, a
//! bit-vector, division by zero, arithmetic leaving i128, an ordering on
//! a non-integer sort, a comparison across sorts, a κ-variable. The
//! connectives follow Kleene's strong three-valued tables, so an unknown
//! part decides nothing that the known parts do not already decide.

use crate::{BinOp, CmpOp, Pred, Sym, Term};

/// A value of the standard interpretation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// An integer.
    Int(i128),
    /// A boolean.
    Bool(bool),
    /// The value of a string literal.
    Str(Sym),
    /// A string distinct from every literal and from every other
    /// abstract string.
    AbsStr(u32),
    /// An abstract reference, distinct from every other.
    Ref(u32),
}

/// An interpretation of the uninterpreted symbols.
pub trait Interp {
    /// The value of variable `x`, if assigned.
    fn var(&self, x: &Sym) -> Option<&Value>;
    /// The value of `f(args)`, if the interpretation of `f` has it.
    fn app(&self, f: &Sym, args: &[Value]) -> Option<&Value>;
    /// The value of field `f` of `base`, if known.
    fn field(&self, base: &Value, f: &Sym) -> Option<&Value>;
}

/// The value of `t` under `m`; `None` when unknown (module docs).
pub fn eval_term(t: &Term, m: &dyn Interp) -> Option<Value> {
    match t {
        Term::Var(x) => m.var(x).cloned(),
        Term::IntLit(n) => Some(Value::Int(i128::from(*n))),
        Term::BoolLit(b) => Some(Value::Bool(*b)),
        Term::StrLit(s) => Some(Value::Str(*s)),
        Term::BvLit(_) => None,
        Term::Field(base, f) => m.field(&eval_term(base, m)?, f).cloned(),
        Term::App(f, args) => {
            let vals = args
                .iter()
                .map(|a| eval_term(a, m))
                .collect::<Option<Vec<_>>>()?;
            m.app(f, &vals).cloned()
        }
        Term::Neg(a) => match eval_term(a, m)? {
            Value::Int(n) => n.checked_neg().map(Value::Int),
            _ => None,
        },
        Term::Bin(op, a, b) => {
            let (Value::Int(x), Value::Int(y)) = (eval_term(a, m)?, eval_term(b, m)?) else {
                return None;
            };
            let v = match op {
                BinOp::Add => x.checked_add(y),
                BinOp::Sub => x.checked_sub(y),
                BinOp::Mul => x.checked_mul(y),
                // `checked_div`/`checked_rem` truncate and answer `None`
                // on a zero divisor and on the one overflowing quotient.
                BinOp::Div => x.checked_div(y),
                BinOp::Mod => x.checked_rem(y),
                BinOp::BvAnd | BinOp::BvOr => None,
            };
            v.map(Value::Int)
        }
    }
}

/// The truth of `p` under `m`: `Some(b)` when determined, `None` when
/// unknown (module docs).
pub fn eval_pred(p: &Pred, m: &dyn Interp) -> Option<bool> {
    match p {
        Pred::True => Some(true),
        Pred::False => Some(false),
        Pred::And(ps) => {
            let mut all = Some(true);
            for q in ps {
                match eval_pred(q, m) {
                    Some(false) => return Some(false),
                    None => all = None,
                    Some(true) => {}
                }
            }
            all
        }
        Pred::Or(ps) => {
            let mut any = Some(false);
            for q in ps {
                match eval_pred(q, m) {
                    Some(true) => return Some(true),
                    None => any = None,
                    Some(false) => {}
                }
            }
            any
        }
        Pred::Not(q) => eval_pred(q, m).map(|b| !b),
        Pred::Imp(a, b) => match (eval_pred(a, m), eval_pred(b, m)) {
            (Some(false), _) | (_, Some(true)) => Some(true),
            (Some(true), Some(false)) => Some(false),
            _ => None,
        },
        Pred::Iff(a, b) => Some(eval_pred(a, m)? == eval_pred(b, m)?),
        Pred::Cmp(op, a, b) => compare(*op, &eval_term(a, m)?, &eval_term(b, m)?),
        Pred::App(f, args) => {
            let vals = args
                .iter()
                .map(|a| eval_term(a, m))
                .collect::<Option<Vec<_>>>()?;
            match m.app(f, &vals)? {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
        Pred::TermPred(t) => match eval_term(t, m)? {
            Value::Bool(b) => Some(b),
            _ => None,
        },
        Pred::KVar(..) => None,
    }
}

/// `a op b` for two values of the same sort; `None` across sorts and for
/// orderings outside the integers.
fn compare(op: CmpOp, a: &Value, b: &Value) -> Option<bool> {
    let equal = match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            return Some(match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            })
        }
        (Value::Bool(_), Value::Bool(_))
        | (Value::Ref(_), Value::Ref(_))
        | (Value::Str(_) | Value::AbsStr(_), Value::Str(_) | Value::AbsStr(_)) => a == b,
        _ => return None,
    };
    match op {
        CmpOp::Eq => Some(equal),
        CmpOp::Ne => Some(!equal),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A table-driven interpretation for the tests.
    #[derive(Default)]
    struct Tables {
        vars: HashMap<Sym, Value>,
        apps: HashMap<(Sym, Vec<Value>), Value>,
    }

    impl Interp for Tables {
        fn var(&self, x: &Sym) -> Option<&Value> {
            self.vars.get(x)
        }
        fn app(&self, f: &Sym, args: &[Value]) -> Option<&Value> {
            self.apps.get(&(*f, args.to_vec()))
        }
        fn field(&self, base: &Value, f: &Sym) -> Option<&Value> {
            self.apps
                .get(&(Sym::from(format!("field${f}")), vec![base.clone()]))
        }
    }

    fn model() -> Tables {
        let mut m = Tables::default();
        m.vars.insert(Sym::from("x"), Value::Int(3));
        m.vars.insert(Sym::from("y"), Value::Int(-7));
        m.vars.insert(Sym::from("a"), Value::Ref(0));
        m.vars.insert(Sym::from("s"), Value::AbsStr(1));
        m.apps
            .insert((Sym::from("len"), vec![Value::Ref(0)]), Value::Int(5));
        m.apps
            .insert((Sym::from("field$w"), vec![Value::Ref(0)]), Value::Int(2));
        m
    }

    fn le(a: Term, b: Term) -> Pred {
        Pred::Cmp(CmpOp::Le, a, b)
    }

    /// Known-true, known-false and unknown predicates for the tables.
    fn three() -> [Pred; 3] {
        [
            le(Term::var("x"), Term::int(3)),
            le(Term::int(4), Term::var("x")),
            le(Term::var("z"), Term::int(0)),
        ]
    }

    #[test]
    fn kleene_tables() {
        let m = model();
        let [t, f, u] = three();
        let vals = [Some(true), Some(false), None];
        for (p, pv) in [&t, &f, &u].into_iter().zip(vals) {
            assert_eq!(eval_pred(p, &m), pv);
            assert_eq!(
                eval_pred(&Pred::Not(Box::new(p.clone())), &m),
                pv.map(|b| !b)
            );
            for (q, qv) in [&t, &f, &u].into_iter().zip(vals) {
                let and = match (pv, qv) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                };
                let or = match (pv, qv) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                };
                let imp = match (pv, qv) {
                    (Some(false), _) | (_, Some(true)) => Some(true),
                    (Some(true), Some(false)) => Some(false),
                    _ => None,
                };
                let iff = pv.zip(qv).map(|(a, b)| a == b);
                let pair = vec![p.clone(), q.clone()];
                assert_eq!(eval_pred(&Pred::And(pair.clone()), &m), and);
                assert_eq!(eval_pred(&Pred::Or(pair), &m), or);
                let (bp, bq) = (Box::new(p.clone()), Box::new(q.clone()));
                assert_eq!(eval_pred(&Pred::Imp(bp.clone(), bq.clone()), &m), imp);
                assert_eq!(eval_pred(&Pred::Iff(bp, bq), &m), iff);
            }
        }
    }

    #[test]
    fn standard_arithmetic_truncates() {
        let m = model();
        let eval = |t: Term| eval_term(&t, &m);
        let bin = |op, a, b| Term::Bin(op, Box::new(a), Box::new(b));
        assert_eq!(
            eval(bin(BinOp::Mul, Term::var("x"), Term::var("y"))),
            Some(Value::Int(-21))
        );
        assert_eq!(
            eval(bin(BinOp::Div, Term::var("y"), Term::int(2))),
            Some(Value::Int(-3))
        );
        assert_eq!(
            eval(bin(BinOp::Mod, Term::var("y"), Term::int(2))),
            Some(Value::Int(-1))
        );
        assert_eq!(eval(Term::len_of(Term::var("a"))), Some(Value::Int(5)));
        assert_eq!(eval(Term::field(Term::var("a"), "w")), Some(Value::Int(2)));
    }

    #[test]
    fn undetermined_terms_are_unknown() {
        let m = model();
        let eval = |t: Term| eval_term(&t, &m);
        let bin = |op, a, b| Term::Bin(op, Box::new(a), Box::new(b));
        // Division and remainder by zero.
        assert_eq!(eval(bin(BinOp::Div, Term::var("x"), Term::int(0))), None);
        assert_eq!(eval(bin(BinOp::Mod, Term::var("x"), Term::int(0))), None);
        // Overflow past i128.
        let big = Term::int(i64::MAX);
        let mut t = big.clone();
        for _ in 0..3 {
            t = bin(BinOp::Mul, t, big.clone());
        }
        assert_eq!(eval(t.clone()), None);
        assert_eq!(eval_pred(&le(t, Term::int(0)), &m), None);
        // Bit-vectors.
        assert_eq!(eval(Term::bv(1)), None);
        assert_eq!(
            eval_pred(&Pred::Cmp(CmpOp::Eq, Term::bv(1), Term::bv(1)), &m),
            None
        );
        // Missing symbols and table entries.
        assert_eq!(eval(Term::var("z")), None);
        assert_eq!(eval(Term::len_of(Term::var("z"))), None);
        assert_eq!(eval(Term::ttag_of(Term::var("a"))), None);
        assert_eq!(eval_pred(&Pred::App(Sym::from("impl"), vec![]), &m), None);
        assert_eq!(
            eval_pred(&Pred::KVar(crate::KVarId(0), crate::Subst::new()), &m),
            None
        );
    }

    #[test]
    fn sorts_compare_only_with_themselves() {
        let m = model();
        let cmp = |op, a, b| eval_pred(&Pred::Cmp(op, a, b), &m);
        // An abstract string differs from every literal.
        assert_eq!(
            cmp(CmpOp::Eq, Term::var("s"), Term::str("number")),
            Some(false)
        );
        assert_eq!(
            cmp(CmpOp::Ne, Term::var("s"), Term::str("number")),
            Some(true)
        );
        assert_eq!(cmp(CmpOp::Eq, Term::str("a"), Term::str("a")), Some(true));
        // Orderings outside the integers and cross-sort comparisons.
        assert_eq!(cmp(CmpOp::Lt, Term::var("s"), Term::str("number")), None);
        assert_eq!(cmp(CmpOp::Eq, Term::var("a"), Term::var("x")), None);
        assert_eq!(cmp(CmpOp::Eq, Term::var("a"), Term::var("s")), None);
    }
}
