//! The worklist-based forward dataflow engine over [`rsc_ssa::Cfg`].
//!
//! For each function unit the engine computes, per basic block, the
//! abstract environment holding at block entry: a map from SSA variable
//! to [`AbsVal`]. Iteration is one ascending reverse-postorder worklist
//! run with widening at loop heads. A bound the widening discards stays
//! infinite at the loop head; only the guards on the edges out of it
//! bound the variable again (after `while (i < n)`, the exit edge
//! assumes `i ≥ n`).
//!
//! Branch conditions are folded in along CFG *edges* ([`Edge::assume`]),
//! so facts are path-sensitive: inside `if (0 < x)` the engine knows
//! `x ≥ 1`. φ-copies also live on edges; transferring an edge renames
//! the incoming values into the join's φ-variables.
//!
//! The engine never errs: an unreachable block simply keeps no
//! environment, and every unknown expression evaluates to ⊤.

use std::collections::BTreeSet;

use rsc_logic::{FxHashMap, Sym};
use rsc_ssa::{Cfg, Edge, IrExpr, Stmt};
use rsc_syntax::ast::{BinOpE, UnOp};

use crate::domain::{AbsVal, Interval, Nullness, Truth};

/// An abstract environment: per-variable facts. Absent variables are ⊤.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AbsEnv {
    vals: FxHashMap<Sym, AbsVal>,
    /// The whole environment is unreachable.
    unreachable: bool,
}

impl AbsEnv {
    /// The fact for `x` (⊤ when untracked).
    pub fn get(&self, x: &Sym) -> AbsVal {
        self.vals.get(x).copied().unwrap_or(AbsVal::TOP)
    }

    /// Records a fact (⊤ facts are dropped to keep the map small).
    pub fn set(&mut self, x: Sym, v: AbsVal) {
        if v == AbsVal::TOP {
            self.vals.remove(&x);
        } else {
            self.vals.insert(x, v);
        }
    }

    /// Combines two reachable environments variable by variable with `f`
    /// (`AbsVal::join` or `AbsVal::widen`); variables absent on either
    /// side become ⊤. (No stored environment is unreachable:
    /// `transfer_edge` drops infeasible edges.)
    fn pointwise(&self, other: &AbsEnv, f: fn(&AbsVal, &AbsVal) -> AbsVal) -> AbsEnv {
        let mut vals = FxHashMap::default();
        for (x, a) in &self.vals {
            if let Some(b) = other.vals.get(x) {
                let v = f(a, b);
                if v != AbsVal::TOP {
                    vals.insert(*x, v);
                }
            }
        }
        AbsEnv {
            vals,
            unreachable: false,
        }
    }
}

/// Evaluates an expression in an environment. ⊤ for anything the
/// domains do not model.
pub fn eval(e: &IrExpr, env: &AbsEnv) -> AbsVal {
    match e {
        IrExpr::Var(x, _) => env.get(x),
        IrExpr::Num(n, _) => AbsVal::int(*n),
        IrExpr::Bool(b, _) => AbsVal::bool(*b),
        IrExpr::Null(_) | IrExpr::Undefined(_) => AbsVal::null(),
        IrExpr::Str(..) | IrExpr::Bv(..) | IrExpr::This(_) => AbsVal::TOP,
        IrExpr::ArrayLit(es, _) => AbsVal::non_null(Interval::exact(es.len() as i64)),
        IrExpr::New(..) => AbsVal::non_null(Interval::TOP),
        IrExpr::Cast(_, inner, _) => eval(inner, env),
        IrExpr::Field(base, f, _) if f.as_str() == "length" => {
            // Arrays are fixed-length in this model, so `a.length` is
            // exactly the `len` component of `a`.
            let b = eval(base, env);
            AbsVal {
                itv: b.len,
                ..AbsVal::TOP
            }
        }
        IrExpr::Field(..)
        | IrExpr::Index(..)
        | IrExpr::Call(..)
        | IrExpr::FieldAssign(..)
        | IrExpr::IndexAssign(..) => AbsVal::TOP,
        IrExpr::Unary(op, a, _) => {
            let va = eval(a, env);
            match op {
                UnOp::Not => AbsVal {
                    truth: va.truth.not(),
                    ..AbsVal::TOP
                },
                UnOp::Neg => AbsVal {
                    itv: va.itv.neg(),
                    ..AbsVal::TOP
                },
                UnOp::TypeOf => AbsVal::TOP,
            }
        }
        IrExpr::Binary(op, a, b, _) => {
            let va = eval(a, env);
            let vb = eval(b, env);
            eval_bin(*op, &va, &vb)
        }
    }
}

fn eval_bin(op: BinOpE, a: &AbsVal, b: &AbsVal) -> AbsVal {
    let truth_of = |t: Truth| AbsVal {
        truth: t,
        ..AbsVal::TOP
    };
    let num = |itv: Interval| AbsVal { itv, ..AbsVal::TOP };
    match op {
        BinOpE::Add => num(a.itv.add(&b.itv)),
        BinOpE::Sub => num(a.itv.sub(&b.itv)),
        BinOpE::Mul => match (a.itv.as_const(), b.itv.as_const()) {
            (Some(k), _) => num(b.itv.mul_const(k)),
            (_, Some(k)) => num(a.itv.mul_const(k)),
            _ => AbsVal::TOP,
        },
        BinOpE::Div => match (a.itv.as_const(), b.itv.as_const()) {
            (Some(x), Some(y)) if y != 0 => AbsVal::int(x.wrapping_div(y)),
            _ => AbsVal::TOP,
        },
        BinOpE::Mod => match (a.itv.as_const(), b.itv.as_const()) {
            (Some(x), Some(y)) if y != 0 => AbsVal::int(x.wrapping_rem(y)),
            _ => AbsVal::TOP,
        },
        BinOpE::Lt => truth_of(cmp_truth(&a.itv, &b.itv, CmpKind::Lt)),
        BinOpE::Le => truth_of(cmp_truth(&a.itv, &b.itv, CmpKind::Le)),
        BinOpE::Gt => truth_of(cmp_truth(&b.itv, &a.itv, CmpKind::Lt)),
        BinOpE::Ge => truth_of(cmp_truth(&b.itv, &a.itv, CmpKind::Le)),
        BinOpE::Eq => truth_of(eq_truth(a, b)),
        BinOpE::Ne => truth_of(eq_truth(a, b).not()),
        BinOpE::And => truth_of(match (a.truth, b.truth) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Top,
        }),
        BinOpE::Or => truth_of(match (a.truth, b.truth) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Top,
        }),
        BinOpE::BitAnd | BinOpE::BitOr => AbsVal::TOP,
    }
}

enum CmpKind {
    Lt,
    Le,
}

fn cmp_truth(a: &Interval, b: &Interval, kind: CmpKind) -> Truth {
    match kind {
        CmpKind::Lt => {
            if a.definitely_lt(b) {
                Truth::True
            } else if b.definitely_le(a) {
                Truth::False
            } else {
                Truth::Top
            }
        }
        CmpKind::Le => {
            if a.definitely_le(b) {
                Truth::True
            } else if b.definitely_lt(a) {
                Truth::False
            } else {
                Truth::Top
            }
        }
    }
}

/// Truth of `a == b`: intervals, truthiness and nullness each decide
/// some cases.
fn eq_truth(a: &AbsVal, b: &AbsVal) -> Truth {
    if let (Some(x), Some(y)) = (a.itv.as_const(), b.itv.as_const()) {
        return if x == y { Truth::True } else { Truth::False };
    }
    if a.itv.definitely_ne(&b.itv) {
        return Truth::False;
    }
    match (a.truth, b.truth) {
        (Truth::True, Truth::False) | (Truth::False, Truth::True) => Truth::False,
        (Truth::True, Truth::True) | (Truth::False, Truth::False) => Truth::True,
        _ => match (a.null, b.null) {
            (Nullness::NonNull, Nullness::Null) | (Nullness::Null, Nullness::NonNull) => {
                Truth::False
            }
            _ => Truth::Top,
        },
    }
}

/// Refines `env` under the assumption that `cond` evaluates to
/// `polarity`. Only shapes the domains model produce refinements; the
/// result's `unreachable` flag is set when the assumption is infeasible.
fn assume(env: &mut AbsEnv, cond: &IrExpr, polarity: bool) {
    match cond {
        IrExpr::Var(x, _) => {
            let mut v = env.get(x);
            let want = if polarity { Truth::True } else { Truth::False };
            if v.truth != Truth::Top && v.truth != want {
                env.unreachable = true;
                return;
            }
            v.truth = want;
            if polarity {
                // Truthy: non-null reference, non-zero integer.
                if v.null == Nullness::Null {
                    env.unreachable = true;
                    return;
                }
                v.null = Nullness::NonNull;
                if v.itv.lo == Some(0) {
                    v.itv.lo = Some(1);
                } else if v.itv.hi == Some(0) {
                    v.itv.hi = Some(-1);
                }
            } else {
                // Falsy: for integers this pins 0; for references it
                // pins null/undefined; other components stay untouched
                // (they are meaningless for the variable's actual type).
                v.itv = v.itv.meet(&Interval::exact(0));
            }
            match v.reduce() {
                Some(v) => env.set(*x, v),
                None => env.unreachable = true,
            }
        }
        IrExpr::Unary(UnOp::Not, inner, _) => assume(env, inner, !polarity),
        IrExpr::Cast(_, inner, _) => assume(env, inner, polarity),
        IrExpr::Binary(op, a, b, _) => {
            let flipped = |o: BinOpE| match o {
                BinOpE::Lt => Some(BinOpE::Ge),
                BinOpE::Le => Some(BinOpE::Gt),
                BinOpE::Gt => Some(BinOpE::Le),
                BinOpE::Ge => Some(BinOpE::Lt),
                BinOpE::Eq => Some(BinOpE::Ne),
                BinOpE::Ne => Some(BinOpE::Eq),
                _ => None,
            };
            let (op, pol) = if polarity {
                (*op, true)
            } else if let Some(f) = flipped(*op) {
                (f, true)
            } else {
                (*op, false)
            };
            if !pol {
                // `!(a && b)` etc. — no refinement.
                return;
            }
            match op {
                BinOpE::Lt => assume_rel(env, a, b, RelKind::Lt),
                BinOpE::Le => assume_rel(env, a, b, RelKind::Le),
                BinOpE::Gt => assume_rel(env, b, a, RelKind::Lt),
                BinOpE::Ge => assume_rel(env, b, a, RelKind::Le),
                BinOpE::Eq => assume_eq(env, a, b),
                BinOpE::And => {
                    assume(env, a, true);
                    assume(env, b, true);
                }
                // `x != null` leaves `undefined` open, and no other `!=`
                // is assumed either.
                _ => {}
            }
        }
        _ => {}
    }
}

enum RelKind {
    Lt,
    Le,
}

/// Assumes `a < b` / `a ≤ b`, refining variable operands.
fn assume_rel(env: &mut AbsEnv, a: &IrExpr, b: &IrExpr, kind: RelKind) {
    let va = eval(a, env);
    let vb = eval(b, env);
    let off = match kind {
        RelKind::Lt => 1,
        RelKind::Le => 0,
    };
    if let IrExpr::Var(x, _) = a {
        if let Some(hi) = vb.itv.hi {
            let mut v = env.get(x);
            v.itv = v.itv.meet(&Interval::at_most(hi.saturating_sub(off)));
            let Some(v) = v.reduce() else {
                env.unreachable = true;
                return;
            };
            env.set(*x, v);
        }
    }
    if let IrExpr::Var(y, _) = b {
        if let Some(lo) = va.itv.lo {
            let mut v = env.get(y);
            v.itv = v.itv.meet(&Interval::at_least(lo.saturating_add(off)));
            let Some(v) = v.reduce() else {
                env.unreachable = true;
                return;
            };
            env.set(*y, v);
        }
    }
}

/// Assumes `a == b`, refining variable operands.
fn assume_eq(env: &mut AbsEnv, a: &IrExpr, b: &IrExpr) {
    let null_lit = |e: &IrExpr| matches!(e, IrExpr::Null(_) | IrExpr::Undefined(_));
    match (a, b) {
        (IrExpr::Var(x, _), e) | (e, IrExpr::Var(x, _)) if null_lit(e) => {
            let mut v = env.get(x);
            if v.null == Nullness::NonNull {
                env.unreachable = true;
                return;
            }
            v.null = Nullness::Null;
            env.set(*x, v);
        }
        _ => {
            // x == e: meet x with e's value (and symmetrically).
            let Some(m) = eval(a, env).meet(&eval(b, env)) else {
                env.unreachable = true;
                return;
            };
            if let IrExpr::Var(x, _) = a {
                env.set(*x, m);
            }
            if let IrExpr::Var(y, _) = b {
                env.set(*y, m);
            }
        }
    }
}

/// Transfers one block's statements over `env` (in place).
fn transfer_block(block_stmts: &[Stmt<'_>], env: &mut AbsEnv) {
    for s in block_stmts {
        if let Stmt::Let { x, rhs, .. } = s {
            env.set(*(*x), eval(rhs, env));
        }
    }
}

/// Transfers one out-edge: applies the branch assumption, then the
/// φ-copies. Returns `None` when the edge is infeasible.
fn transfer_edge(env: &AbsEnv, edge: &Edge<'_>) -> Option<AbsEnv> {
    let mut out = env.clone();
    if let Some((cond, pol)) = edge.assume {
        assume(&mut out, cond, pol);
        if out.unreachable {
            return None;
        }
    }
    // φ-copies read the *pre-copy* environment (parallel copies).
    let copied: Vec<(Sym, AbsVal)> = edge
        .copies
        .iter()
        .map(|(dst, src)| (*dst, out.get(src)))
        .collect();
    for (dst, v) in copied {
        out.set(dst, v);
    }
    Some(out)
}

/// Runs the dataflow to fixpoint over one body's CFG and returns the
/// entry environment of each block (`None` = unreachable), indexed by
/// block id. Deterministic: the worklist is ordered by reverse
/// postorder, and all joins are pointwise.
pub fn analyze_body(cfg: &Cfg<'_>) -> Vec<Option<AbsEnv>> {
    let rpo = cfg.rpo();
    let mut order = vec![usize::MAX; cfg.blocks.len()];
    for (i, &b) in rpo.iter().enumerate() {
        order[b] = i;
    }

    let mut entries: Vec<Option<AbsEnv>> = vec![None; cfg.blocks.len()];
    entries[0] = Some(AbsEnv::default());

    let mut work: BTreeSet<usize> = rpo.iter().map(|&b| order[b]).collect();
    let mut iter_guard = 0usize;
    let max_iters = 64 * cfg.blocks.len().max(1);
    while let Some(&i) = work.iter().next() {
        work.remove(&i);
        iter_guard += 1;
        if iter_guard > max_iters {
            break; // belt-and-braces; widening guarantees termination
        }
        let b = rpo[i];
        let Some(mut out) = entries[b].clone() else {
            continue;
        };
        transfer_block(&cfg.blocks[b].stmts, &mut out);
        for e in &cfg.blocks[b].succs {
            let Some(next) = transfer_edge(&out, e) else {
                continue;
            };
            let merged = match &entries[e.to] {
                None => next,
                Some(old) => {
                    let joined = old.pointwise(&next, AbsVal::join);
                    if cfg.blocks[e.to].loop_head {
                        old.pointwise(&joined, AbsVal::widen)
                    } else {
                        joined
                    }
                }
            };
            if entries[e.to].as_ref() != Some(&merged) {
                entries[e.to] = Some(merged);
                if order[e.to] != usize::MAX {
                    work.insert(order[e.to]);
                }
            }
        }
    }

    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ir_of(src: &str) -> rsc_ssa::IrProgram {
        let prog = rsc_syntax::parse_program(src).unwrap();
        rsc_ssa::transform_program(&prog)
    }

    /// Whether some block-entry environment binds a variable whose name
    /// starts with `prefix` to a value `want` accepts.
    fn entry_fact(
        entries: &[Option<AbsEnv>],
        prefix: &str,
        want: impl Fn(&AbsVal) -> bool,
    ) -> bool {
        entries.iter().flatten().any(|env| {
            env.vals
                .iter()
                .any(|(x, v)| x.as_str().starts_with(prefix) && want(v))
        })
    }

    #[test]
    fn constants_propagate_through_arithmetic() {
        let ir = ir_of("function f(): number { var x = 2; var y = x * 3 + 1; return y; }");
        let cfg = Cfg::build(&ir.funs[0].body);
        let entries = analyze_body(&cfg);
        // One straight-line block: replay its statements from the entry.
        let mut env = entries[0].clone().unwrap();
        transfer_block(&cfg.blocks[0].stmts, &mut env);
        let y = env
            .vals
            .iter()
            .find(|(k, _)| k.as_str().starts_with('y'))
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(y.itv.as_const(), Some(7));
    }

    #[test]
    fn branch_assumptions_refine_and_join() {
        let ir = ir_of(
            "function f(c: boolean): number {
                 var x = 0;
                 if (c) { x = 1; } else { x = 2; }
                 return x;
             }",
        );
        let entries = analyze_body(&Cfg::build(&ir.funs[0].body));
        // The φ join of 1 and 2 is [1,2] at the join block's entry.
        let one_two = Interval {
            lo: Some(1),
            hi: Some(2),
        };
        assert!(
            entry_fact(&entries, "x", |v| v.itv == one_two),
            "join of branch constants should be [1,2]"
        );
    }

    #[test]
    fn loop_widening_terminates_and_keeps_lower_bound() {
        let ir = ir_of(
            "function f(): number {
                 var i = 0;
                 while (i < 10) { i = i + 1; }
                 return i;
             }",
        );
        let entries = analyze_body(&Cfg::build(&ir.funs[0].body));
        // The loop φ for i keeps 0 as a lower bound after widening.
        assert!(
            entry_fact(&entries, "i", |v| v.itv.lo == Some(0)),
            "widening must preserve the stable lower bound"
        );
    }

    #[test]
    fn guard_refinement_reaches_array_index() {
        let ir = ir_of(
            "function f(a: number[], i: number): number {
                 if (0 <= i) { if (i < 10) { return i; } }
                 return 0;
             }",
        );
        let entries = analyze_body(&Cfg::build(&ir.funs[0].body));
        // Inside both guards, some block sees i ∈ [0, 9].
        let refined = entries.iter().flatten().any(|env| {
            ir.funs[0].params.iter().any(|p| {
                let v = env.get(p);
                v.itv.lo == Some(0) && v.itv.hi == Some(9)
            })
        });
        assert!(refined, "nested guards should refine i to [0,9]");
    }

    #[test]
    fn infeasible_branch_yields_unreachable_entry() {
        let ir = ir_of(
            "function f(): number {
                 var x = 1;
                 if (x < 1) { return 99; }
                 return x;
             }",
        );
        let entries = analyze_body(&Cfg::build(&ir.funs[0].body));
        // The then-arm of the impossible guard has no entry environment.
        assert!(
            entries.iter().any(|e| e.is_none()),
            "the provably-false arm must be unreachable"
        );
    }
}
