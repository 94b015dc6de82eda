//! The dataflow lint pass: warnings derived from the abstract
//! interpretation, with stable codes.
//!
//! | code  | meaning                                                    |
//! |-------|------------------------------------------------------------|
//! | L0001 | a guard is provably false — its branch is unreachable      |
//! | L0002 | a guard is provably true (tautological)                    |
//! | L0003 | a refinement annotation is already implied by the value    |
//! | L0004 | an array index is always out of bounds                     |
//!
//! Each body is lowered to one CFG, `analyze_body` computes its
//! block-entry environments, and one walk over the reachable blocks
//! replays each block's statements from its entry: L0001/L0002 read a
//! branch guard's truth, L0003 reads a `let`'s value against the
//! conjoined comparisons of its annotation, and L0004 reads an index's
//! interval against the array's length interval.
//!
//! Lints are *advisory*: they never suppress or add type errors, and
//! no obligation discharge reads their facts.
//!
//! Literal `true`/`false` guards are exempt from L0001/L0002 —
//! `while (true)` and `if (false)` are deliberate idioms, not mistakes.

use rsc_logic::{CmpOp, Pred, Sym, Term};
use rsc_ssa::{Body, Cfg, IrExpr, IrProgram, Stmt, Terminator};
use rsc_syntax::types::AnnTy;
use rsc_syntax::Span;

use crate::domain::{AbsVal, Interval, Truth};
use crate::engine::{analyze_body, eval, AbsEnv};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lint {
    /// The stable lint code (`L0001`–`L0004`).
    pub code: &'static str,
    /// Source location.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
}

/// Runs the lint pass over every function unit of a program. The result
/// is sorted by source position, then code, and is deterministic.
pub fn lint_program(ir: &IrProgram) -> Vec<Lint> {
    let mut lints = Vec::new();
    for_each_body(ir, &mut |body| lint_body(body, &mut lints));
    lints.sort_by_key(|l| (l.span.line, l.span.lo, l.code));
    lints.dedup();
    lints
}

fn for_each_body<'a>(ir: &'a IrProgram, f: &mut impl FnMut(&'a Body)) {
    fn nested<'a>(body: &'a Body, f: &mut impl FnMut(&'a Body)) {
        match body {
            Body::Let { rest, .. } | Body::Effect { rest, .. } => nested(rest, f),
            Body::LetFun { fun, rest, .. } => {
                f(&fun.body);
                nested(&fun.body, f);
                nested(rest, f);
            }
            Body::If {
                then_br,
                else_br,
                rest,
                ..
            } => {
                nested(then_br, f);
                nested(else_br, f);
                nested(rest, f);
            }
            Body::Loop { body, rest, .. } => {
                nested(body, f);
                nested(rest, f);
            }
            Body::Ret(..) | Body::EndBranch(_) => {}
        }
    }
    for fun in &ir.funs {
        f(&fun.body);
        nested(&fun.body, f);
    }
    for class in &ir.classes {
        if let Some(ctor) = &class.ctor {
            f(&ctor.body);
            nested(&ctor.body, f);
        }
        for m in &class.methods {
            if let Some(body) = &m.body {
                f(body);
                nested(body, f);
            }
        }
    }
    f(&ir.top);
    nested(&ir.top, f);
}

fn lint_body(body: &Body, lints: &mut Vec<Lint>) {
    let cfg = Cfg::build(body);
    let entries = analyze_body(&cfg);
    for (block, entry) in cfg.blocks.iter().zip(entries) {
        let Some(mut env) = entry else {
            continue; // unreachable: the guard that killed it is linted
        };
        for s in &block.stmts {
            match s {
                Stmt::Let { x, ann, rhs, .. } => {
                    scan_indices(rhs, &env, lints);
                    let v = eval(rhs, &env);
                    if let Some(AnnTy::Refined { vv, pred, .. }) = ann {
                        if !matches!(pred, Pred::True) && value_entails(&v, vv, pred) {
                            lints.push(Lint {
                                code: "L0003",
                                span: rhs.span(),
                                message: format!(
                                    "dead refinement: the value of `{}` already satisfies `{}`",
                                    source_name(x.as_str()),
                                    pred
                                ),
                            });
                        }
                    }
                    env.set(*(*x), v);
                }
                Stmt::Effect { e, .. } => scan_indices(e, &env, lints),
                Stmt::Fun { .. } => {} // analyzed as its own unit
            }
        }
        match &block.term {
            Terminator::Branch(cond, span) => {
                scan_indices(cond, &env, lints);
                if matches!(cond, IrExpr::Bool(..)) {
                    continue; // `while (true)` / `if (false)` idioms
                }
                match eval(cond, &env).truth {
                    Truth::False => lints.push(Lint {
                        code: "L0001",
                        span: *span,
                        message:
                            "unreachable branch: this guard is always false, so its body never runs"
                                .to_string(),
                    }),
                    Truth::True if !block.loop_head => lints.push(Lint {
                        code: "L0002",
                        span: *span,
                        message: "tautological guard: this condition is always true".to_string(),
                    }),
                    _ => {}
                }
            }
            Terminator::Ret(Some(e), _) => scan_indices(e, &env, lints),
            _ => {}
        }
    }
}

/// Strips the SSA version suffix (`x$2` → `x`) so lint messages show
/// source names. Compiler-introduced temporaries (names starting with
/// `$`) pass through unchanged.
fn source_name(ssa: &str) -> &str {
    match ssa.rsplit_once('$') {
        Some((base, ver))
            if !base.is_empty() && !ver.is_empty() && ver.bytes().all(|b| b.is_ascii_digit()) =>
        {
            base
        }
        _ => ssa,
    }
}

/// Finds `a[i]` reads that are provably out of bounds.
fn scan_indices(e: &IrExpr, env: &AbsEnv, lints: &mut Vec<Lint>) {
    match e {
        IrExpr::Index(a, i, span) => {
            scan_indices(a, env, lints);
            scan_indices(i, env, lints);
            let va = eval(a, env);
            let vi = eval(i, env);
            let negative = matches!(vi.itv.hi, Some(h) if h < 0);
            let past_end = matches!(
                (va.len.hi, vi.itv.lo),
                (Some(len_hi), Some(i_lo)) if i_lo >= len_hi
            );
            if negative || past_end {
                let detail = if negative {
                    "the index is always negative".to_string()
                } else {
                    format!(
                        "the index is at least {} but the array never has more than {} element(s)",
                        vi.itv.lo.unwrap_or(0),
                        va.len.hi.unwrap_or(0)
                    )
                };
                lints.push(Lint {
                    code: "L0004",
                    span: *span,
                    message: format!("index is always out of bounds: {detail}"),
                });
            }
        }
        IrExpr::Field(b, _, _) | IrExpr::Cast(_, b, _) | IrExpr::Unary(_, b, _) => {
            scan_indices(b, env, lints)
        }
        IrExpr::Binary(_, a, b, _) => {
            scan_indices(a, env, lints);
            scan_indices(b, env, lints);
        }
        IrExpr::Call(f, args, _) => {
            scan_indices(f, env, lints);
            args.iter().for_each(|a| scan_indices(a, env, lints));
        }
        IrExpr::New(_, _, args, _) | IrExpr::ArrayLit(args, _) => {
            args.iter().for_each(|a| scan_indices(a, env, lints));
        }
        IrExpr::FieldAssign(a, _, v, _) => {
            scan_indices(a, env, lints);
            scan_indices(v, env, lints);
        }
        IrExpr::IndexAssign(a, i, v, _) => {
            scan_indices(a, env, lints);
            scan_indices(i, env, lints);
            scan_indices(v, env, lints);
        }
        IrExpr::Var(..)
        | IrExpr::Num(..)
        | IrExpr::Bv(..)
        | IrExpr::Str(..)
        | IrExpr::Bool(..)
        | IrExpr::Null(_)
        | IrExpr::Undefined(_)
        | IrExpr::This(_) => {}
    }
}

/// Does the abstract value of the bound expression already entail the
/// annotation's refinement over its value variable? Lint-grade: this
/// is never used for discharge.
fn value_entails(v: &AbsVal, vv: &Sym, pred: &Pred) -> bool {
    match pred {
        Pred::True => true,
        Pred::And(ps) => ps.iter().all(|p| value_entails(v, vv, p)),
        Pred::Cmp(op, a, b) => {
            // Normalize so the value-variable side is on the left.
            let (op, lhs, rhs) = match (a, b) {
                (Term::Var(x), rhs) if x == vv => (*op, Itv::Val, term_itv(rhs)),
                (lhs, Term::Var(x)) if x == vv => (op.flip(), Itv::Val, term_itv(lhs)),
                (Term::App(f, args), rhs)
                    if f.as_str() == "len"
                        && matches!(args.as_slice(), [Term::Var(x)] if x == vv) =>
                {
                    (*op, Itv::Len, term_itv(rhs))
                }
                (lhs, Term::App(f, args))
                    if f.as_str() == "len"
                        && matches!(args.as_slice(), [Term::Var(x)] if x == vv) =>
                {
                    (op.flip(), Itv::Len, term_itv(lhs))
                }
                _ => return false,
            };
            let Some(rhs) = rhs else { return false };
            let lhs = match lhs {
                Itv::Val => v.itv,
                Itv::Len => v.len,
            };
            match op {
                CmpOp::Le => lhs.definitely_le(&rhs),
                CmpOp::Lt => lhs.definitely_lt(&rhs),
                CmpOp::Ge => rhs.definitely_le(&lhs),
                CmpOp::Gt => rhs.definitely_lt(&lhs),
                CmpOp::Eq => {
                    matches!((lhs.as_const(), rhs.as_const()), (Some(x), Some(y)) if x == y)
                }
                CmpOp::Ne => lhs.definitely_ne(&rhs),
            }
        }
        _ => false,
    }
}

enum Itv {
    Val,
    Len,
}

fn term_itv(t: &Term) -> Option<Interval> {
    match t {
        Term::IntLit(n) => Some(Interval::exact(*n)),
        Term::Neg(a) => term_itv(a).map(|i| i.neg()),
        Term::Bin(op, a, b) => {
            let ia = term_itv(a)?;
            let ib = term_itv(b)?;
            match op {
                rsc_logic::BinOp::Add => Some(ia.add(&ib)),
                rsc_logic::BinOp::Sub => Some(ia.sub(&ib)),
                rsc_logic::BinOp::Mul => ia
                    .as_const()
                    .map(|k| ib.mul_const(k))
                    .or_else(|| ib.as_const().map(|k| ia.mul_const(k))),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(src: &str) -> Vec<Lint> {
        let prog = rsc_syntax::parse_program(src).unwrap();
        let ir = rsc_ssa::transform_program(&prog);
        lint_program(&ir)
    }

    #[test]
    fn l0001_unreachable_branch() {
        let l = lints_of(
            "function f(): number {
                 var x = 1;
                 if (x < 1) { return 99; }
                 return x;
             }",
        );
        assert!(l.iter().any(|l| l.code == "L0001"), "got: {l:?}");
    }

    #[test]
    fn l0002_tautological_guard() {
        let l = lints_of(
            "function f(): number {
                 var x = 1;
                 if (x > 0) { return 1; }
                 return 0;
             }",
        );
        assert!(l.iter().any(|l| l.code == "L0002"), "got: {l:?}");
    }

    #[test]
    fn literal_guards_are_exempt() {
        let l = lints_of(
            "function f(): number {
                 while (true) { return 1; }
                 return 0;
             }",
        );
        assert!(
            !l.iter().any(|l| l.code == "L0001" || l.code == "L0002"),
            "got: {l:?}"
        );
    }

    #[test]
    fn l0004_constant_index_out_of_bounds() {
        let l = lints_of(
            "function f(): number {
                 var a = [1, 2, 3];
                 return a[5];
             }",
        );
        assert!(l.iter().any(|l| l.code == "L0004"), "got: {l:?}");
    }

    /// Needs the guard assumptions on CFG edges: the outer guard's edge
    /// is what bounds `x` when the inner guard is evaluated.
    #[test]
    fn l0001_nested_contradictory_guards() {
        let l = lints_of(
            "function f(x: number): number {
                 if (0 < x) {
                     if (x < 0) { return 1; }
                 }
                 return 0;
             }",
        );
        assert!(l.iter().any(|l| l.code == "L0001"), "got: {l:?}");
    }

    /// Needs nullness: an array literal is never null.
    #[test]
    fn l0001_null_test_on_fresh_array() {
        let l = lints_of(
            "function f(): number {
                 var a = [1, 2];
                 if (a == null) { return 1; }
                 return 0;
             }",
        );
        assert!(l.iter().any(|l| l.code == "L0001"), "got: {l:?}");
    }

    /// Needs the guard assumption on the loop's exit edge: widening
    /// loses `i`'s upper bound at the head, and the exit edge's `i ≥ 3`
    /// is what puts the index past the end.
    #[test]
    fn l0004_index_past_loop_exit_bound() {
        let l = lints_of(
            "function f(): number {
                 var a = [1, 2, 3];
                 var i = 0;
                 while (i < 3) { i = i + 1; }
                 return a[i];
             }",
        );
        assert!(l.iter().any(|l| l.code == "L0004"), "got: {l:?}");
    }

    #[test]
    fn in_bounds_index_is_clean() {
        let l = lints_of(
            "function f(): number {
                 var a = [1, 2, 3];
                 return a[2];
             }",
        );
        assert!(!l.iter().any(|l| l.code == "L0004"), "got: {l:?}");
    }
}
