//! The worklist-based forward dataflow engine over [`rsc_ssa::Cfg`].
//!
//! For each function unit the engine computes, per basic block, the
//! abstract environment holding at block entry: a map from SSA variable
//! to [`AbsVal`]. Iteration is reverse-postorder with widening at loop
//! heads (ascending phase) followed by a bounded number of narrowing
//! passes (descending phase) to recover bounds the widening discarded.
//!
//! Branch conditions are folded in along CFG *edges* ([`Edge::assume`]),
//! so facts are path-sensitive: inside `if (0 < x)` the engine knows
//! `x ≥ 1`. φ-copies also live on edges; transferring an edge renames
//! the incoming values into the join's φ-variables.
//!
//! The engine never errs: an unreachable block simply keeps no
//! environment, and every unknown expression evaluates to ⊤.

use std::collections::{BTreeMap, BTreeSet};

use rsc_logic::{FxHashMap, Sym};
use rsc_ssa::{Body, Cfg, Edge, IrExpr, IrFun, IrProgram, Stmt};
use rsc_syntax::ast::{BinOpE, UnOp};

use crate::domain::{AbsVal, Congruence, Interval, Nullness, Truth};

/// Number of descending (narrowing) passes after the ascending fixpoint.
const NARROWING_PASSES: usize = 2;

/// An abstract environment: per-variable facts. Absent variables are ⊤.
#[derive(Clone, Debug, Default)]
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
            if v.bottom {
                self.unreachable = true;
            }
            self.vals.insert(x, v);
        }
    }

    /// True when the program point carrying this environment cannot be
    /// reached (some fact collapsed to ⊥).
    pub fn is_unreachable(&self) -> bool {
        self.unreachable
    }

    /// Pointwise join; variables absent on either side become ⊤.
    fn join(&self, other: &AbsEnv) -> AbsEnv {
        if self.unreachable {
            return other.clone();
        }
        if other.unreachable {
            return self.clone();
        }
        let mut vals = FxHashMap::default();
        for (x, a) in &self.vals {
            if let Some(b) = other.vals.get(x) {
                let j = a.join(b);
                if j != AbsVal::TOP {
                    vals.insert(*x, j);
                }
            }
        }
        AbsEnv {
            vals,
            unreachable: false,
        }
    }

    /// Pointwise widening against the new value at a loop head.
    fn widen(&self, next: &AbsEnv) -> AbsEnv {
        if self.unreachable {
            return next.clone();
        }
        if next.unreachable {
            return self.clone();
        }
        let mut vals = FxHashMap::default();
        for (x, a) in &self.vals {
            if let Some(b) = next.vals.get(x) {
                let w = a.widen(b);
                if w != AbsVal::TOP {
                    vals.insert(*x, w);
                }
            }
        }
        AbsEnv {
            vals,
            unreachable: false,
        }
    }

    /// Pointwise narrowing in the descending phase.
    fn narrow(&self, next: &AbsEnv) -> AbsEnv {
        if self.unreachable || next.unreachable {
            return self.clone();
        }
        let mut out = self.clone();
        for (x, a) in &self.vals {
            if let Some(b) = next.vals.get(x) {
                out.vals.insert(*x, a.narrow(b));
            }
        }
        out
    }

    fn same_as(&self, other: &AbsEnv) -> bool {
        self.unreachable == other.unreachable && self.vals == other.vals
    }
}

/// The analysis result for one function unit: per-block entry
/// environments (`None` = unreachable), aligned with the block ids of
/// `Cfg::build` on the same body, plus the flow-insensitive per-SSA-value
/// summary (each SSA variable's fact at its definition point).
#[derive(Clone, Debug, Default)]
pub struct BodyFacts {
    /// Entry environment per block id.
    pub entries: Vec<Option<AbsEnv>>,
    /// Per-SSA-value facts at the definition point.
    pub defs: FxHashMap<Sym, AbsVal>,
}

/// Per-program facts: one [`BodyFacts`] worth of per-value summaries for
/// every function unit, merged by name (facts join on collision — only
/// the `x$N`-suffixed SSA temporaries are globally unique).
#[derive(Clone, Debug, Default)]
pub struct ProgramFacts {
    /// Joined per-SSA-value facts across all units.
    pub values: BTreeMap<Sym, AbsVal>,
    /// Number of function units analyzed (including the top level).
    pub units: usize,
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
                    cong: va.cong.mul_const(-1),
                    ..AbsVal::TOP
                }
                .reduce(),
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
    match op {
        BinOpE::Add => AbsVal {
            itv: a.itv.add(&b.itv),
            cong: a.cong.add(&b.cong),
            ..AbsVal::TOP
        }
        .reduce(),
        BinOpE::Sub => AbsVal {
            itv: a.itv.sub(&b.itv),
            cong: a.cong.add(&b.cong.mul_const(-1)),
            ..AbsVal::TOP
        }
        .reduce(),
        BinOpE::Mul => {
            if let Some(k) = a.itv.as_const() {
                AbsVal {
                    itv: b.itv.mul_const(k),
                    cong: b.cong.mul_const(k),
                    ..AbsVal::TOP
                }
                .reduce()
            } else if let Some(k) = b.itv.as_const() {
                AbsVal {
                    itv: a.itv.mul_const(k),
                    cong: a.cong.mul_const(k),
                    ..AbsVal::TOP
                }
                .reduce()
            } else {
                AbsVal::TOP
            }
        }
        BinOpE::Div => match (a.itv.as_const(), b.itv.as_const()) {
            (Some(x), Some(y)) if y != 0 => AbsVal::int(x.wrapping_div(y)),
            _ => AbsVal::TOP,
        },
        BinOpE::Mod => match (a.itv.as_const(), b.itv.as_const()) {
            (Some(x), Some(y)) if y != 0 => AbsVal::int(x.wrapping_rem(y)),
            (_, Some(m)) if m > 0 && matches!(a.itv.lo, Some(l) if l >= 0) => {
                // Non-negative dividend: `x % m ∈ [0, m-1]`, and the
                // result is bounded by the dividend itself.
                AbsVal {
                    itv: Interval {
                        lo: Some(0),
                        hi: Some(m - 1),
                    }
                    .meet(&Interval {
                        lo: Some(0),
                        hi: a.itv.hi,
                    }),
                    ..AbsVal::TOP
                }
                .reduce()
            }
            _ => AbsVal::TOP,
        },
        BinOpE::Lt => truth_of(cmp_truth(&a.itv, &b.itv, &a.cong, &b.cong, CmpKind::Lt)),
        BinOpE::Le => truth_of(cmp_truth(&a.itv, &b.itv, &a.cong, &b.cong, CmpKind::Le)),
        BinOpE::Gt => truth_of(cmp_truth(&b.itv, &a.itv, &b.cong, &a.cong, CmpKind::Lt)),
        BinOpE::Ge => truth_of(cmp_truth(&b.itv, &a.itv, &b.cong, &a.cong, CmpKind::Le)),
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

fn cmp_truth(
    a: &Interval,
    b: &Interval,
    _ca: &Congruence,
    _cb: &Congruence,
    kind: CmpKind,
) -> Truth {
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

/// Truth of `a == b` — intervals decide most cases; disjoint congruence
/// classes (e.g. even vs. odd) decide the rest. Congruence feeding a
/// *lint-visible* truth value is fine: lints never discharge
/// obligations.
fn eq_truth(a: &AbsVal, b: &AbsVal) -> Truth {
    if let (Some(x), Some(y)) = (a.itv.as_const(), b.itv.as_const()) {
        return if x == y { Truth::True } else { Truth::False };
    }
    if a.itv.definitely_ne(&b.itv) || congruence_disjoint(&a.cong, &b.cong) {
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

/// True when no integer satisfies both congruences (CRT solvability).
fn congruence_disjoint(a: &Congruence, b: &Congruence) -> bool {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    match (a.modulus, b.modulus) {
        (1, _) | (_, 1) => false,
        (0, 0) => a.rem != b.rem,
        (0, m) | (m, 0) => {
            let (c, modular) = if a.modulus == 0 {
                (a.rem, b)
            } else {
                (b.rem, a)
            };
            let _ = m;
            !modular.admits(c)
        }
        (m1, m2) => {
            let g = gcd(m1, m2);
            !a.rem.abs_diff(b.rem).is_multiple_of(g)
        }
    }
}

/// Refines `env` under the assumption that `cond` evaluates to
/// `polarity`. Only shapes the domains model produce refinements; the
/// result's `unreachable` flag is set when the assumption is infeasible.
pub fn assume(env: &mut AbsEnv, cond: &IrExpr, polarity: bool) {
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
            let v = v.reduce();
            if v.bottom {
                env.unreachable = true;
            } else {
                env.set(*x, v);
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
                BinOpE::Eq => assume_eq(env, a, b, true),
                BinOpE::Ne => assume_eq(env, a, b, false),
                BinOpE::And => {
                    assume(env, a, true);
                    assume(env, b, true);
                }
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
            let v = v.reduce();
            if v.bottom {
                env.unreachable = true;
                return;
            }
            env.set(*x, v);
        }
    }
    if let IrExpr::Var(y, _) = b {
        if let Some(lo) = va.itv.lo {
            let mut v = env.get(y);
            v.itv = v.itv.meet(&Interval::at_least(lo.saturating_add(off)));
            let v = v.reduce();
            if v.bottom {
                env.unreachable = true;
                return;
            }
            env.set(*y, v);
        }
    }
}

/// Assumes `a == b` (`eq = true`) or `a != b` (`eq = false`).
fn assume_eq(env: &mut AbsEnv, a: &IrExpr, b: &IrExpr, eq: bool) {
    let null_lit = |e: &IrExpr| matches!(e, IrExpr::Null(_) | IrExpr::Undefined(_));
    match (a, b) {
        (IrExpr::Var(x, _), e) | (e, IrExpr::Var(x, _)) if null_lit(e) => {
            let mut v = env.get(x);
            if eq {
                if v.null == Nullness::NonNull {
                    env.unreachable = true;
                    return;
                }
                v.null = Nullness::Null;
                env.set(*x, v);
            }
            // `x != null` does NOT make x non-null: it may still be
            // `undefined` (and vice versa). No refinement.
        }
        _ if eq => {
            // x == e: meet x with e's value (and symmetrically).
            let va = eval(a, env);
            let vb = eval(b, env);
            let m = va.meet(&vb);
            if m.bottom {
                env.unreachable = true;
                return;
            }
            if let IrExpr::Var(x, _) = a {
                env.set(*x, m);
            }
            if let IrExpr::Var(y, _) = b {
                env.set(*y, m);
            }
        }
        _ => {
            // x != e with e an exact constant: endpoint shaving.
            let va = eval(a, env);
            let vb = eval(b, env);
            let shave = |env: &mut AbsEnv, x: &Sym, k: i64| {
                let mut v = env.get(x);
                if v.itv.lo == Some(k) {
                    v.itv.lo = k.checked_add(1);
                } else if v.itv.hi == Some(k) {
                    v.itv.hi = k.checked_sub(1);
                }
                let v = v.reduce();
                if v.bottom {
                    env.unreachable = true;
                } else {
                    env.set(*x, v);
                }
            };
            if let (IrExpr::Var(x, _), Some(k)) = (a, vb.itv.as_const()) {
                shave(env, x, k);
            }
            if env.unreachable {
                return;
            }
            if let (IrExpr::Var(y, _), Some(k)) = (b, va.itv.as_const()) {
                shave(env, y, k);
            }
        }
    }
}

/// Transfers one block's statements over `env` (in place).
fn transfer_block(block_stmts: &[Stmt<'_>], env: &mut AbsEnv, defs: &mut FxHashMap<Sym, AbsVal>) {
    for s in block_stmts {
        if let Stmt::Let { x, rhs, .. } = s {
            let v = eval(rhs, env);
            record_def(defs, x, v);
            env.set(*(*x), v);
        }
    }
}

fn record_def(defs: &mut FxHashMap<Sym, AbsVal>, x: &Sym, v: AbsVal) {
    match defs.get_mut(x) {
        Some(old) => *old = old.join(&v),
        None => {
            defs.insert(*x, v);
        }
    }
}

/// Transfers one out-edge: applies the branch assumption, then the
/// φ-copies. Returns `None` when the edge is infeasible.
fn transfer_edge(
    env: &AbsEnv,
    edge: &Edge<'_>,
    defs: &mut FxHashMap<Sym, AbsVal>,
) -> Option<AbsEnv> {
    let mut out = env.clone();
    if let Some((cond, pol)) = edge.assume {
        assume(&mut out, cond, pol);
        if out.unreachable {
            return None;
        }
    }
    // φ-copies read the *pre-copy* environment (parallel copies).
    let read = out.clone();
    for (dst, src) in &edge.copies {
        let v = read.get(src);
        record_def(defs, dst, v);
        out.set(*dst, v);
    }
    Some(out)
}

/// Runs the dataflow to fixpoint over one body. Deterministic: the
/// worklist is ordered by reverse postorder, and all joins are
/// pointwise.
pub fn analyze_body(body: &Body) -> BodyFacts {
    let cfg = Cfg::build(body);
    let rpo = cfg.rpo();
    let mut order = vec![usize::MAX; cfg.blocks.len()];
    for (i, &b) in rpo.iter().enumerate() {
        order[b] = i;
    }

    let mut entries: Vec<Option<AbsEnv>> = vec![None; cfg.blocks.len()];
    entries[0] = Some(AbsEnv::default());
    let mut defs: FxHashMap<Sym, AbsVal> = FxHashMap::default();

    // Ascending phase with widening at loop heads.
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
        let Some(env) = entries[b].clone() else {
            continue;
        };
        let mut out = env;
        transfer_block(&cfg.blocks[b].stmts, &mut out, &mut defs);
        for e in &cfg.blocks[b].succs {
            let Some(next) = transfer_edge(&out, e, &mut defs) else {
                continue;
            };
            let merged = match &entries[e.to] {
                None => next,
                Some(old) => {
                    let joined = old.join(&next);
                    if cfg.blocks[e.to].loop_head {
                        old.widen(&joined)
                    } else {
                        joined
                    }
                }
            };
            let changed = match &entries[e.to] {
                None => true,
                Some(old) => !old.same_as(&merged),
            };
            if changed {
                entries[e.to] = Some(merged);
                if order[e.to] != usize::MAX {
                    work.insert(order[e.to]);
                }
            }
        }
    }

    // Descending phase: recompute entries without widening, narrowing
    // the stored values. Bounded passes keep termination trivial.
    for _ in 0..NARROWING_PASSES {
        let mut changed = false;
        for &b in &rpo {
            if b == 0 {
                continue;
            }
            let mut incoming: Option<AbsEnv> = None;
            for &p in &cfg.blocks[b].preds {
                let Some(penv) = entries[p].clone() else {
                    continue;
                };
                let mut out = penv;
                transfer_block(&cfg.blocks[p].stmts, &mut out, &mut defs);
                for e in &cfg.blocks[p].succs {
                    if e.to != b {
                        continue;
                    }
                    if let Some(next) = transfer_edge(&out, e, &mut defs) {
                        incoming = Some(match incoming {
                            None => next,
                            Some(acc) => acc.join(&next),
                        });
                    }
                }
            }
            if let (Some(old), Some(inc)) = (&entries[b], incoming) {
                let narrowed = old.narrow(&inc);
                if !narrowed.same_as(old) {
                    entries[b] = Some(narrowed);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Rebuild the per-definition summary from the final environments
    // (the ascending-phase records may be stale after narrowing).
    defs.clear();
    for &b in &rpo {
        let Some(env) = entries[b].clone() else {
            continue;
        };
        let mut out = env;
        transfer_block(&cfg.blocks[b].stmts, &mut out, &mut defs);
        for e in &cfg.blocks[b].succs {
            let _ = transfer_edge(&out, e, &mut defs);
        }
    }

    BodyFacts { entries, defs }
}

/// Collects every function unit of a program: top-level functions
/// (recursively including nested ones), class constructors and methods,
/// and the synthetic top-level body.
fn for_each_unit<'a>(ir: &'a IrProgram, f: &mut impl FnMut(&'a Body)) {
    fn visit_fun<'a>(fun: &'a IrFun, f: &mut impl FnMut(&'a Body)) {
        f(&fun.body);
        visit_nested(&fun.body, f);
    }
    fn visit_nested<'a>(body: &'a Body, f: &mut impl FnMut(&'a Body)) {
        match body {
            Body::Let { rest, .. } | Body::Effect { rest, .. } => visit_nested(rest, f),
            Body::LetFun { fun, rest, .. } => {
                visit_fun(fun, f);
                visit_nested(rest, f);
            }
            Body::If {
                then_br,
                else_br,
                rest,
                ..
            } => {
                visit_nested(then_br, f);
                visit_nested(else_br, f);
                visit_nested(rest, f);
            }
            Body::Loop { body, rest, .. } => {
                visit_nested(body, f);
                visit_nested(rest, f);
            }
            Body::Ret(..) | Body::EndBranch(_) => {}
        }
    }
    for fun in &ir.funs {
        visit_fun(fun, f);
    }
    for class in &ir.classes {
        if let Some(ctor) = &class.ctor {
            f(&ctor.body);
            visit_nested(&ctor.body, f);
        }
        for m in &class.methods {
            if let Some(body) = &m.body {
                f(body);
                visit_nested(body, f);
            }
        }
    }
    f(&ir.top);
    visit_nested(&ir.top, f);
}

/// Analyzes every function unit of a program and merges the per-value
/// summaries (joining on name collisions, which only parameters and
/// user-named locals can produce).
pub fn analyze_program(ir: &IrProgram) -> ProgramFacts {
    let mut out = ProgramFacts::default();
    for_each_unit(ir, &mut |body| {
        let facts = analyze_body(body);
        out.units += 1;
        for (x, v) in facts.defs {
            match out.values.get_mut(&x) {
                Some(old) => *old = old.join(&v),
                None => {
                    out.values.insert(x, v);
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> ProgramFacts {
        let prog = rsc_syntax::parse_program(src).unwrap();
        let ir = rsc_ssa::transform_program(&prog).unwrap();
        analyze_program(&ir)
    }

    fn body_facts(src: &str) -> (rsc_ssa::IrProgram, ()) {
        let prog = rsc_syntax::parse_program(src).unwrap();
        (rsc_ssa::transform_program(&prog).unwrap(), ())
    }

    #[test]
    fn constants_propagate_through_arithmetic() {
        let facts = analyze("function f(): number { var x = 2; var y = x * 3 + 1; return y; }");
        let y = facts
            .values
            .iter()
            .find(|(k, _)| k.as_str().starts_with("y"))
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(y.itv.as_const(), Some(7));
        assert!(y.cong.admits(7) && !y.cong.admits(8));
    }

    #[test]
    fn branch_assumptions_refine_and_join() {
        let facts = analyze(
            "function f(c: boolean): number {
                 var x = 0;
                 if (c) { x = 1; } else { x = 2; }
                 return x;
             }",
        );
        // The φ join of 1 and 2 is [1,2].
        let phi = facts
            .values
            .values()
            .filter_map(|v| {
                (v.itv
                    == Interval {
                        lo: Some(1),
                        hi: Some(2),
                    })
                .then_some(*v)
            })
            .next();
        assert!(phi.is_some(), "join of branch constants should be [1,2]");
    }

    #[test]
    fn loop_widening_terminates_and_keeps_lower_bound() {
        let facts = analyze(
            "function f(): number {
                 var i = 0;
                 while (i < 10) { i = i + 1; }
                 return i;
             }",
        );
        // The loop φ for i keeps 0 as a lower bound after widening.
        let widened = facts
            .values
            .iter()
            .filter(|(k, _)| k.as_str().starts_with("i"))
            .any(|(_, v)| v.itv.lo == Some(0));
        assert!(widened, "widening must preserve the stable lower bound");
    }

    #[test]
    fn guard_refinement_reaches_array_index() {
        let (ir, _) = body_facts(
            "function f(a: number[], i: number): number {
                 if (0 <= i) { if (i < 10) { return i; } }
                 return 0;
             }",
        );
        let facts = analyze_body(&ir.funs[0].body);
        // Inside both guards, some block sees i ∈ [0, 9].
        let refined = facts.entries.iter().flatten().any(|env| {
            ir.funs[0].params.iter().any(|p| {
                let v = env.get(p);
                v.itv.lo == Some(0) && v.itv.hi == Some(9)
            })
        });
        assert!(refined, "nested guards should refine i to [0,9]");
    }

    #[test]
    fn infeasible_branch_yields_unreachable_entry() {
        let (ir, _) = body_facts(
            "function f(): number {
                 var x = 1;
                 if (x < 1) { return 99; }
                 return x;
             }",
        );
        let facts = analyze_body(&ir.funs[0].body);
        // The then-arm of the impossible guard has no entry environment.
        assert!(
            facts.entries.iter().any(|e| e.is_none()),
            "the provably-false arm must be unreachable"
        );
    }
}
