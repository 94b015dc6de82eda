//! Expression synthesis and body checking: the implementation of the
//! typing rules of Figure 5 (T-VAR, T-FIELD-I/M, T-INV, T-NEW, T-CAST,
//! T-ASGN, T-LETIF plus the loop rule), two-phase overload checking
//! (§2.1.2), constructor cooking (§4.4) and context-sensitive checking of
//! unannotated closures against instantiated templates (§2.2.1).

use std::collections::HashMap;
use std::rc::Rc;

use rsc_liquid::{Blame, ObligationKind as K};
use rsc_logic::{CmpOp, Pred, Sort, Subst, Sym, Term};
use rsc_ssa::{Body, IrClass, IrExpr, IrFun};
use rsc_syntax::ast::{BinOpE, UnOp};
use rsc_syntax::{Mutability, Span};

use crate::checker::{Checker, Env};
use crate::diag::Diagnostic;
use crate::rtype::{Base, Prim, RFun, RType};

impl Checker {
    // ------------------------------------------------------------ functions ---

    /// Checks a function declaration: each signature of the intersection
    /// is checked separately (two-phase typing) with `arguments` bound to
    /// an array of exactly that conjunct's arity.
    pub(crate) fn check_fun(&mut self, f: &IrFun, base_env: &Env) {
        for sig in f.sigs.clone() {
            let mut tp = base_env.tparams.clone();
            tp.extend(sig.tparams.iter().cloned());
            let rf = match self.ct.resolve_funty(&sig, &tp) {
                Ok(r) => r,
                Err(e) => {
                    self.diags.push(Diagnostic::error(
                        format!("in function {}: {}", f.name, e.0),
                        f.span,
                    ));
                    continue;
                }
            };
            let mut env = base_env.clone();
            env.tparams = tp;
            env.in_ctor_of = None;
            // Rename signature parameter names to the function's parameter
            // names so dependent refinements line up.
            let mut rename = Subst::new();
            for (i, (sx, _)) in rf.params.iter().enumerate() {
                if let Some(px) = f.params.get(i) {
                    if sx != px {
                        rename.push(sx.clone(), Term::var(px.clone()));
                    }
                }
            }
            for (i, px) in f.params.iter().enumerate() {
                let ty = match rf.params.get(i) {
                    Some((_, t)) => t.subst(&rename),
                    // Parameters beyond this conjunct's arity are
                    // `undefined` in this overload.
                    None => RType::undefined(),
                };
                env.bind(px.clone(), ty);
            }
            // `arguments` for value-based overloading (§2.1.2).
            let arity = rf.params.len().min(f.params.len());
            env.bind(
                "arguments",
                RType {
                    base: Base::Arr(Box::new(RType::undefined()), Mutability::ReadOnly),
                    pred: Pred::eq(Term::len_of(Term::vv()), Term::int(arity as i64)),
                },
            );
            env.ret = rf.ret.subst(&rename);
            env.ret_span = f.span;
            self.check_body(&f.body, &mut env);
        }
    }

    /// Checks an unannotated nested function against an expected arrow
    /// type at a call site — the closure-template checking of §2.2.1.
    pub(crate) fn check_deferred_against(&mut self, name: &Sym, expected: &RFun, span: Span) {
        let Some((fun, cap_env)) = self.deferred.get(name).cloned() else {
            self.diags.push(Diagnostic::error(
                format!("internal: deferred function {name} not found"),
                span,
            ));
            return;
        };
        let mut env = cap_env;
        let mut rename = Subst::new();
        for (i, (ex, _)) in expected.params.iter().enumerate() {
            if let Some(px) = fun.params.get(i) {
                if ex != px {
                    rename.push(ex.clone(), Term::var(px.clone()));
                }
            }
        }
        for (i, px) in fun.params.iter().enumerate() {
            let ty = match expected.params.get(i) {
                Some((_, t)) => t.subst(&rename),
                None => RType::undefined(),
            };
            env.bind(px.clone(), ty);
        }
        env.ret = expected.ret.subst(&rename);
        env.ret_span = span;
        env.in_ctor_of = None;
        self.check_body(&fun.body.clone(), &mut env);
    }

    /// Checks a class: constructor (cooking mode) and every method (with
    /// `this` at the method's receiver mutability).
    pub(crate) fn check_class(&mut self, c: &IrClass) {
        let cname = c.decl.name.clone();
        let tp: std::collections::HashSet<Sym> = c.decl.tparams.iter().cloned().collect();
        if let Some(ctor) = &c.ctor {
            // Each constructor and method is its own parallel-solve unit.
            self.begin_unit();
            let mut env = Env::new();
            env.tparams = tp.clone();
            env.in_ctor_of = Some(cname.clone());
            if let Some(info) = self.ct.objs.get(&cname) {
                if let Some(params) = info.ctor_params.clone() {
                    for (x, t) in params {
                        env.bind(x, t);
                    }
                }
            }
            env.ret = RType::void();
            self.check_body(&ctor.body, &mut env);
            // A constructor body that falls off the end is an implicit
            // return: check_body emits the exit check at Ret nodes; the SSA
            // translation always ends bodies with Ret.
        }
        for m in &c.methods {
            let Some(body) = &m.body else { continue };
            let mi = match self.ct.lookup_method(&cname, &m.name) {
                Some(mi) => mi.clone(),
                None => continue,
            };
            self.begin_unit();
            let mut env = Env::new();
            env.tparams = tp.clone();
            let targs: Vec<RType> = c
                .decl
                .tparams
                .iter()
                .map(|a| RType::trivial(Base::TVar(a.clone())))
                .collect();
            env.bind(
                "this",
                RType::trivial(Base::Obj(cname.clone(), mi.recv, targs)),
            );
            for (x, t) in &mi.fun.params {
                env.bind(x.clone(), t.clone());
            }
            env.ret = mi.fun.ret.clone();
            env.ret_span = m.span;
            self.check_body(body, &mut env);
        }
    }

    // ------------------------------------------------------------- bodies ---

    pub(crate) fn check_body(&mut self, b: &Body, env: &mut Env) {
        match b {
            Body::Ret(val, span) => {
                if let Some(cname) = env.in_ctor_of.clone() {
                    self.ctor_exit(env, &cname, *span);
                    return;
                }
                let t = match val {
                    Some(e) => self.synth(e, env),
                    None => RType::undefined(),
                };
                if !matches!(env.ret.base, Base::Prim(Prim::Void)) {
                    let ret = env.ret.clone();
                    let mut blame = Blame::new(K::Return, "", *span);
                    if !env.ret_span.is_dummy() {
                        blame = blame.with_related(env.ret_span, "declared return type here");
                    }
                    self.sub(env, &t, &ret, &blame);
                }
            }
            Body::EndBranch(_) => {}
            Body::Let {
                x,
                ann,
                rhs,
                rest,
                span,
            } => {
                let t = self.synth(rhs, env);
                let bound = match ann {
                    Some(a) => match self.ct.resolve_in(a, &env.tparams) {
                        Ok(ta) => {
                            let blame =
                                Blame::new(K::Assignment, format!("initializer of {x}"), *span);
                            self.sub(env, &t, &ta, &blame);
                            ta
                        }
                        Err(e) => {
                            self.diags.push(Diagnostic::error(e.0, *span));
                            t
                        }
                    },
                    None => t,
                };
                env.bind(x.clone(), bound);
                self.check_body(rest, env);
            }
            Body::Effect { e, rest, .. } => {
                self.synth(e, env);
                self.check_body(rest, env);
            }
            Body::LetFun { fun, rest, .. } => {
                if fun.sigs.is_empty() {
                    self.deferred
                        .insert(fun.name.clone(), ((**fun).clone(), env.clone()));
                } else {
                    let tp = env.tparams.clone();
                    if let Ok(rf) = self.ct.resolve_funty(&fun.sigs[0], &tp) {
                        env.bind(fun.name.clone(), RType::trivial(Base::Fun(Rc::new(rf))));
                    }
                    self.check_fun(fun, &env.clone());
                }
                self.check_body(rest, env);
            }
            Body::If {
                cond,
                phis,
                then_br,
                else_br,
                then_falls,
                else_falls,
                rest,
                span,
            } => {
                self.synth(cond, env);
                let (gp, gn) = if self.opts.path_sensitivity {
                    (self.guard_pos(cond, env), self.guard_neg(cond, env))
                } else {
                    (Pred::True, Pred::True)
                };
                let mut env1 = env.clone();
                env1.guard(gp);
                self.check_body(then_br, &mut env1);
                let mut env2 = env.clone();
                env2.guard(gn);
                self.check_body(else_br, &mut env2);
                for phi in phis {
                    let t_then = phi
                        .then_src
                        .as_ref()
                        .and_then(|s| env1.lookup(s).cloned().map(|t| (s.clone(), t)));
                    let t_else = phi
                        .else_src
                        .as_ref()
                        .and_then(|s| env2.lookup(s).cloned().map(|t| (s.clone(), t)));
                    let template = self.phi_template(
                        env,
                        t_then.as_ref().map(|(_, t)| t),
                        t_else.as_ref().map(|(_, t)| t),
                        &format!("phi {}", phi.source),
                    );
                    if *then_falls {
                        if let Some((s, t)) = &t_then {
                            let lhs = t.clone().selfify(Term::var(s.clone()));
                            let blame = Blame::new(K::Assignment, "phi join (then)", *span);
                            self.sub(&env1, &lhs, &template, &blame);
                        }
                    }
                    if *else_falls {
                        if let Some((s, t)) = &t_else {
                            let lhs = t.clone().selfify(Term::var(s.clone()));
                            let blame = Blame::new(K::Assignment, "phi join (else)", *span);
                            self.sub(&env2, &lhs, &template, &blame);
                        }
                    }
                    env.bind(phi.new.clone(), template);
                }
                // The continuation inherits the guard of whichever branch
                // falls through (e.g. after `if (c) return;`, ¬c holds).
                match (then_falls, else_falls) {
                    (true, false) => {
                        let g = self.guard_pos(cond, env);
                        env.guard(g);
                    }
                    (false, true) => {
                        let g = self.guard_neg(cond, env);
                        env.guard(g);
                    }
                    (false, false) => env.guard(Pred::False), // dead code
                    (true, true) => {}
                }
                self.check_body(rest, env);
            }
            Body::Loop {
                phis,
                cond,
                body,
                rest,
                span,
            } => {
                // Templates for the loop-head Φ variables: the inferred
                // loop invariants (§2.2.2).
                let mut templates: Vec<(Sym, RType)> = Vec::new();
                let mut scope = env.scope();
                let mut inits = Vec::new();
                for phi in phis {
                    let ti = env
                        .lookup(&phi.init_src)
                        .cloned()
                        .unwrap_or_else(RType::undefined);
                    let ti = self.resolve_infer(&ti);
                    scope.push((phi.new.clone(), ti.sort()));
                    inits.push(ti);
                }
                for (phi, ti) in phis.iter().zip(&inits) {
                    let k = self.cs.fresh_kvar(
                        ti.sort(),
                        scope.clone(),
                        format!("loop invariant for {}", phi.source),
                    );
                    let template = RType {
                        base: ti.base.clone(),
                        pred: Pred::KVar(k, Subst::new()),
                    };
                    templates.push((phi.new.clone(), template));
                }
                // Entry: init values flow into the invariants.
                for ((phi, ti), (_, template)) in phis.iter().zip(&inits).zip(&templates) {
                    let lhs = ti.clone().selfify(Term::var(phi.init_src.clone()));
                    let t = template.clone();
                    let blame = Blame::new(
                        K::LoopInvariant,
                        format!("loop entry for {}", phi.source),
                        *span,
                    );
                    self.sub(env, &lhs, &t, &blame);
                }
                let mut env_loop = env.clone();
                for (x, t) in &templates {
                    env_loop.bind(x.clone(), t.clone());
                }
                self.synth(cond, &mut env_loop);
                let (gp, gn) = if self.opts.path_sensitivity {
                    (
                        self.guard_pos(cond, &env_loop),
                        self.guard_neg(cond, &env_loop),
                    )
                } else {
                    (Pred::True, Pred::True)
                };
                let mut env_body = env_loop.clone();
                env_body.guard(gp);
                self.check_body(body, &mut env_body);
                // Back edge: body values flow into the invariants.
                for (phi, (_, template)) in phis.iter().zip(&templates) {
                    if let Some(src) = &phi.body_src {
                        if let Some(t) = env_body.lookup(src).cloned() {
                            let lhs = t.selfify(Term::var(src.clone()));
                            let tpl = template.clone();
                            let blame = Blame::new(
                                K::LoopInvariant,
                                format!("loop back edge for {}", phi.source),
                                *span,
                            );
                            self.sub(&env_body, &lhs, &tpl, &blame);
                        }
                    }
                }
                for (x, t) in templates {
                    env.bind(x, t);
                }
                env.guard(gn);
                self.check_body(rest, env);
            }
        }
    }

    fn phi_template(
        &mut self,
        env: &Env,
        t1: Option<&RType>,
        t2: Option<&RType>,
        origin: &str,
    ) -> RType {
        let b = match (t1, t2) {
            (Some(a), Some(b)) => self.join_base(&self.resolve_infer(a), &self.resolve_infer(b)),
            (Some(a), None) => self.resolve_infer(a).base,
            (None, Some(b)) => self.resolve_infer(b).base,
            (None, None) => Base::Union(vec![]),
        };
        let t = RType::trivial(b);
        let scope = env.scope();
        let k = self.cs.fresh_kvar(t.sort(), scope, origin.to_string());
        RType {
            base: t.base,
            pred: Pred::KVar(k, Subst::new()),
        }
    }

    pub(crate) fn join_base(&self, a: &RType, b: &RType) -> Base {
        match (&a.base, &b.base) {
            (Base::Obj(c1, m, x), Base::Obj(c2, _, _)) => {
                if self.ct.is_subclass(c1, c2) {
                    Base::Obj(c2.clone(), *m, x.clone())
                } else if self.ct.is_subclass(c2, c1) {
                    Base::Obj(c1.clone(), *m, x.clone())
                } else {
                    Base::Union(vec![
                        RType::trivial(a.base.clone()),
                        RType::trivial(b.base.clone()),
                    ])
                }
            }
            (Base::Infer(_), _) => b.base.clone(),
            (_, Base::Infer(_)) => a.base.clone(),
            (x, y) if self.base_compat(x, y) => a.base.clone(),
            _ => {
                let mut parts: Vec<RType> = Vec::new();
                let add = |t: &RType, parts: &mut Vec<RType>, me: &Checker| match &t.base {
                    Base::Union(ps) => {
                        for p in ps {
                            if !parts.iter().any(|q| me.base_compat(&q.base, &p.base)) {
                                parts.push(RType::trivial(p.base.clone()));
                            }
                        }
                    }
                    other => {
                        if !parts.iter().any(|q| me.base_compat(&q.base, other)) {
                            parts.push(RType::trivial(other.clone()));
                        }
                    }
                };
                add(a, &mut parts, self);
                add(b, &mut parts, self);
                if parts.len() == 1 {
                    parts.pop().unwrap().base
                } else {
                    Base::Union(parts)
                }
            }
        }
    }

    // ------------------------------------------------------------ synthesis ---

    /// Synthesizes the type of an expression, emitting obligations.
    pub(crate) fn synth(&mut self, e: &IrExpr, env: &mut Env) -> RType {
        match e {
            IrExpr::Num(n, _) => RType::num_lit(*n),
            IrExpr::Bv(n, _) => RType {
                base: Base::Bv(Sym::from("bitvector32")),
                pred: Pred::vv_eq(Term::bv(*n)),
            },
            IrExpr::Str(s, _) => RType {
                base: Base::Prim(Prim::Str),
                pred: Pred::vv_eq(Term::str(s.clone())),
            },
            IrExpr::Bool(b, _) => RType {
                base: Base::Prim(Prim::Bool),
                pred: Pred::vv_eq(Term::bool(*b)),
            },
            IrExpr::Null(_) => RType::null(),
            IrExpr::Undefined(_) => RType::undefined(),
            IrExpr::This(span) => {
                if env.in_ctor_of.is_some() {
                    self.diags.push(Diagnostic::error(
                        "`this` may not be read inside a constructor (the object is still cooking, §4.4)",
                        *span,
                    ));
                    return RType::undefined();
                }
                match env.lookup(&Sym::from("this")) {
                    Some(t) => t.clone().selfify(Term::this()),
                    None => {
                        self.diags
                            .push(Diagnostic::error("`this` used outside a class", *span));
                        RType::undefined()
                    }
                }
            }
            IrExpr::Var(x, span) => {
                if let Some(t) = env.lookup(x) {
                    return t.clone().selfify(Term::var(x.clone()));
                }
                if let Some(t) = self.declares.get(x) {
                    return t.clone();
                }
                if let Some(f) = self.funs.get(x).cloned() {
                    if let Some(sig0) = f.sigs.first() {
                        if let Ok(rf) = self
                            .ct
                            .resolve_funty(sig0, &sig0.tparams.iter().cloned().collect())
                        {
                            return RType::trivial(Base::Fun(Rc::new(rf)));
                        }
                    }
                }
                if self.deferred.contains_key(x) {
                    // Only usable as a call argument; give it an opaque type.
                    return RType::trivial(Base::Fun(Rc::new(RFun {
                        tparams: vec![],
                        params: vec![],
                        ret: RType::void(),
                    })));
                }
                self.diags
                    .push(Diagnostic::error(format!("unbound variable {x}"), *span));
                RType::trivial(Base::Union(vec![]))
            }
            IrExpr::Field(b, f, span) => self.synth_field(b, f, *span, env),
            IrExpr::Index(a, i, span) => {
                let (elem, _m, arr_term) = self.expect_array(a, *span, env, false);
                let ti = self.synth(i, env);
                let idx_ty = self.idx_type(&arr_term);
                let blame = Blame::new(K::ArrayBounds, "array read index", *span);
                self.sub(env, &ti, &idx_ty, &blame);
                elem
            }
            IrExpr::IndexAssign(a, i, v, span) => {
                let (elem, m, arr_term) = self.expect_array(a, *span, env, true);
                if !matches!(m, Mutability::Mutable | Mutability::Unique) {
                    self.base_error(
                        env,
                        *span,
                        format!("array write requires a mutable array (got {})", m.abbrev()),
                    );
                }
                let ti = self.synth(i, env);
                let idx_ty = self.idx_type(&arr_term);
                let blame = Blame::new(K::ArrayBounds, "array write index", *span);
                self.sub(env, &ti, &idx_ty, &blame);
                let tv = self.synth(v, env);
                let blame = Blame::new(K::Assignment, "array write value", *span);
                self.sub(env, &tv, &elem, &blame);
                tv
            }
            IrExpr::FieldAssign(recv, f, val, span) => {
                self.synth_field_assign(recv, f, val, *span, env)
            }
            IrExpr::Call(callee, args, span) => self.synth_call(callee, args, *span, env),
            IrExpr::New(cname, targs, args, span) => self.synth_new(cname, targs, args, *span, env),
            IrExpr::Cast(ann, inner, span) => self.synth_cast(ann, inner, *span, env),
            IrExpr::Unary(op, x, span) => match op {
                UnOp::TypeOf => {
                    let _ = self.synth(x, env);
                    match self.term_of(x, env) {
                        Some(t) => RType {
                            base: Base::Prim(Prim::Str),
                            pred: Pred::vv_eq(Term::ttag_of(t)),
                        },
                        None => RType::string(),
                    }
                }
                UnOp::Neg => {
                    let t = self.synth(x, env);
                    let blame = Blame::new(K::BaseType, "negation operand", *span);
                    self.sub(env, &t, &RType::number(), &blame);
                    match self.term_of(x, env) {
                        Some(tx) => RType {
                            base: Base::Prim(Prim::Num),
                            pred: Pred::vv_eq(Term::neg(tx)),
                        },
                        None => RType::number(),
                    }
                }
                UnOp::Not => {
                    let _ = self.synth(x, env);
                    self.bool_result(e, env)
                }
            },
            IrExpr::Binary(op, a, b, span) => {
                let ta = self.synth(a, env);
                let tb = self.synth(b, env);
                match op {
                    BinOpE::Add | BinOpE::Sub | BinOpE::Mul | BinOpE::Div | BinOpE::Mod => {
                        let blame = Blame::new(K::BaseType, "arithmetic operand", *span);
                        self.sub(env, &ta, &RType::number(), &blame);
                        self.sub(env, &tb, &RType::number(), &blame);
                        if matches!(op, BinOpE::Div | BinOpE::Mod) {
                            if let Some(tb_term) = self.term_of(b, env) {
                                let lhs = self.embed_pred(&tb);
                                let lhs = Pred::and(vec![lhs, Pred::vv_eq(tb_term)]);
                                let blame =
                                    Blame::new(K::Arithmetic, "divisor must be nonzero", *span);
                                self.push_sub_pred(
                                    env,
                                    lhs,
                                    Pred::cmp(CmpOp::Ne, Term::vv(), Term::int(0)),
                                    Sort::Int,
                                    &blame,
                                );
                            }
                        }
                        let term_a = self.term_of_or_tmp(a, &ta, env);
                        let term_b = self.term_of_or_tmp(b, &tb, env);
                        let bop = match op {
                            BinOpE::Add => rsc_logic::BinOp::Add,
                            BinOpE::Sub => rsc_logic::BinOp::Sub,
                            BinOpE::Mul => rsc_logic::BinOp::Mul,
                            BinOpE::Div => rsc_logic::BinOp::Div,
                            _ => rsc_logic::BinOp::Mod,
                        };
                        RType {
                            base: Base::Prim(Prim::Num),
                            pred: Pred::vv_eq(Term::bin(bop, term_a, term_b)),
                        }
                    }
                    BinOpE::Lt | BinOpE::Le | BinOpE::Gt | BinOpE::Ge => {
                        let blame = Blame::new(K::BaseType, "comparison operand", *span);
                        self.sub(env, &ta, &RType::number(), &blame);
                        self.sub(env, &tb, &RType::number(), &blame);
                        self.bool_result(e, env)
                    }
                    BinOpE::Eq | BinOpE::Ne => self.bool_result(e, env),
                    BinOpE::And | BinOpE::Or => self.bool_result(e, env),
                    BinOpE::BitAnd | BinOpE::BitOr => {
                        let bvty = RType::trivial(Base::Bv(Sym::from("bitvector32")));
                        let blame = Blame::new(K::BaseType, "bit-vector operand", *span);
                        if !matches!(ta.base, Base::Bv(_)) && !matches!(a.as_ref(), IrExpr::Num(..))
                        {
                            self.sub(env, &ta, &bvty, &blame);
                        }
                        if !matches!(tb.base, Base::Bv(_)) && !matches!(b.as_ref(), IrExpr::Num(..))
                        {
                            self.sub(env, &tb, &bvty, &blame);
                        }
                        match self.term_of(e, env) {
                            Some(t) => RType {
                                base: Base::Bv(Sym::from("bitvector32")),
                                pred: Pred::vv_eq(t),
                            },
                            None => bvty,
                        }
                    }
                }
            }
            IrExpr::ArrayLit(elems, span) => {
                let tys: Vec<RType> = elems.iter().map(|x| self.synth(x, env)).collect();
                let elem = if let Some(first) = tys.first() {
                    let scope = env.scope();
                    let k = self
                        .cs
                        .fresh_kvar(first.sort(), scope, "array literal element");
                    let template = RType {
                        base: first.base.clone(),
                        pred: Pred::KVar(k, Subst::new()),
                    };
                    let blame = Blame::new(K::Assignment, "array literal element", *span);
                    for t in &tys {
                        self.sub(env, t, &template, &blame);
                    }
                    template
                } else {
                    let u = self.next_infer;
                    self.next_infer += 1;
                    RType::trivial(Base::Infer(u))
                };
                RType {
                    base: Base::Arr(Box::new(elem), Mutability::Mutable),
                    pred: Pred::eq(Term::len_of(Term::vv()), Term::int(elems.len() as i64)),
                }
            }
        }
    }

    /// Boolean results carry their truth conditions in both directions:
    /// `(v ⇒ p⁺) ∧ (¬v ⇒ p⁻)` where `p⁺`/`p⁻` are the guard predicates.
    fn bool_result(&mut self, e: &IrExpr, env: &Env) -> RType {
        let gp = self.guard_pos(e, env);
        let gn = self.guard_neg(e, env);
        RType {
            base: Base::Prim(Prim::Bool),
            pred: Pred::and(vec![
                Pred::imp(Pred::TermPred(Term::vv()), gp),
                Pred::imp(Pred::not(Pred::TermPred(Term::vv())), gn),
            ]),
        }
    }

    fn idx_type(&self, arr_term: &Term) -> RType {
        RType {
            base: Base::Prim(Prim::Num),
            pred: Pred::and(vec![
                Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
                Pred::cmp(CmpOp::Lt, Term::vv(), Term::len_of(arr_term.clone())),
            ]),
        }
    }

    /// A term denoting `e`, binding a fresh temporary when no syntactic
    /// term exists (existential unpacking).
    fn term_of_or_tmp(&mut self, e: &IrExpr, ty: &RType, env: &mut Env) -> Term {
        if let Some(t) = self.term_of(e, env) {
            return t;
        }
        let tmp = self.fresh_tmp();
        env.bind(tmp.clone(), ty.clone());
        Term::var(tmp)
    }

    /// Coerces the receiver expression to an array, narrowing unions and
    /// emitting the non-null obligation. Returns (element type,
    /// mutability, a term denoting the array).
    fn expect_array(
        &mut self,
        a: &IrExpr,
        span: Span,
        env: &mut Env,
        _for_write: bool,
    ) -> (RType, Mutability, Term) {
        let ta = self.synth(a, env);
        let ta = self.resolve_infer(&ta);
        let term = self.term_of_or_tmp(a, &ta, env);
        match &ta.base {
            Base::Arr(elem, m) => ((**elem).clone(), *m, term),
            Base::Union(parts) => {
                if let Some(p) = parts.iter().find(|p| matches!(p.base, Base::Arr(..))) {
                    let tgt = p.clone();
                    let lhs = ta.clone().selfify(term.clone());
                    let blame = Blame::new(K::Narrowing, "indexing a possibly-null value", span);
                    self.sub(env, &lhs, &tgt, &blame);
                    if let Base::Arr(elem, m) = &tgt.base {
                        return ((**elem).clone(), *m, term);
                    }
                }
                self.base_error(
                    env,
                    span,
                    format!("indexing non-array {}", ta.base.describe()),
                );
                (RType::undefined(), Mutability::ReadOnly, term)
            }
            Base::Prim(Prim::Str) => {
                // Strings are read-only character collections.
                (RType::string(), Mutability::ReadOnly, term)
            }
            other => {
                self.base_error(
                    env,
                    span,
                    format!("indexing non-array {}", other.describe()),
                );
                (RType::undefined(), Mutability::ReadOnly, term)
            }
        }
    }

    // ------------------------------------------------------------- fields ---

    fn synth_field(&mut self, b: &IrExpr, f: &Sym, span: Span, env: &mut Env) -> RType {
        // Enum member access.
        if let IrExpr::Var(n, _) = b {
            if env.lookup(n).is_none() {
                if let Some(members) = self.ct.enums.get(n) {
                    return match members.get(f) {
                        Some(v) => RType {
                            base: Base::Bv(n.clone()),
                            pred: Pred::vv_eq(Term::bv(*v)),
                        },
                        None => {
                            self.diags.push(Diagnostic::error(
                                format!("enum {n} has no member {f}"),
                                span,
                            ));
                            RType::undefined()
                        }
                    };
                }
            }
        }
        let tb = self.synth(b, env);
        let tb = self.resolve_infer(&tb);
        let recv = self.term_of_or_tmp(b, &tb, env);
        self.field_of(&tb, f, recv, span, env)
    }

    fn field_of(&mut self, tb: &RType, f: &Sym, recv: Term, span: Span, env: &mut Env) -> RType {
        match &tb.base {
            Base::Arr(..) if f.as_str() == "length" => RType {
                base: Base::Prim(Prim::Num),
                pred: Pred::and(vec![
                    Pred::vv_eq(Term::len_of(recv)),
                    Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
                ]),
            },
            Base::Obj(c, _, targs) => {
                let Some(fi) = self.ct.lookup_field(c, f).cloned() else {
                    self.base_error(env, span, format!("{c} has no field {f}"));
                    return RType::undefined();
                };
                // Substitute class type parameters and the receiver.
                let mut ty = fi.ty.clone();
                if let Some(info) = self.ct.objs.get(c) {
                    let map: HashMap<Sym, RType> = info
                        .tparams
                        .iter()
                        .cloned()
                        .zip(targs.iter().cloned())
                        .collect();
                    if !map.is_empty() {
                        ty = apply_tvars(&ty, &map);
                    }
                }
                let ty = ty.subst(&Subst::one("this", recv.clone()));
                if fi.imm {
                    // T-FIELD-I: immutable parts are selfified.
                    ty.selfify(Term::field(recv, f.clone()))
                } else {
                    // T-FIELD-M: ∃z:T — unpack the existential by binding a
                    // fresh witness (no strengthening via the field itself).
                    let z = self.fresh_tmp();
                    env.bind(z.clone(), ty.clone());
                    ty.selfify(Term::var(z))
                }
            }
            Base::Union(parts) => {
                if let Some(p) = parts
                    .iter()
                    .find(|p| matches!(p.base, Base::Obj(..) | Base::Arr(..)))
                    .cloned()
                {
                    let lhs = tb.clone().selfify(recv.clone());
                    let blame = Blame::new(
                        K::FieldRead,
                        format!("property access .{f} on a possibly null/undefined value"),
                        span,
                    );
                    self.sub(env, &lhs, &p, &blame);
                    self.field_of(&p, f, recv, span, env)
                } else {
                    self.base_error(
                        env,
                        span,
                        format!("property .{f} on {}", tb.base.describe()),
                    );
                    RType::undefined()
                }
            }
            Base::Prim(Prim::Str) if f.as_str() == "length" => RType {
                base: Base::Prim(Prim::Num),
                pred: Pred::and(vec![
                    Pred::vv_eq(Term::len_of(recv)),
                    Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
                ]),
            },
            other => {
                self.base_error(env, span, format!("property .{f} on {}", other.describe()));
                RType::undefined()
            }
        }
    }

    fn synth_field_assign(
        &mut self,
        recv: &IrExpr,
        f: &Sym,
        val: &IrExpr,
        span: Span,
        env: &mut Env,
    ) -> RType {
        // Constructor cooking: `this.f = e` records a pseudo-local
        // (ctor_init is checked at the exits, §4.4).
        if env.in_ctor_of.is_some() && matches!(recv, IrExpr::This(_)) {
            let tv = self.synth(val, env);
            let term = self.term_of_or_tmp(val, &tv, env);
            let bound = tv.selfify(term);
            env.bind(Sym::from(format!("$field${f}")), bound.clone());
            return bound;
        }
        let tr = self.synth(recv, env);
        let tr = self.resolve_infer(&tr);
        let recv_term = self.term_of_or_tmp(recv, &tr, env);
        match &tr.base {
            Base::Obj(c, m, _) => {
                let Some(fi) = self.ct.lookup_field(c, f).cloned() else {
                    self.base_error(env, span, format!("{c} has no field {f}"));
                    return RType::undefined();
                };
                if fi.imm && *m != Mutability::Unique {
                    self.base_error(
                        env,
                        span,
                        format!("cannot assign immutable field {f} outside the constructor"),
                    );
                }
                if !matches!(m, Mutability::Mutable | Mutability::Unique) {
                    self.base_error(
                        env,
                        span,
                        format!(
                            "field write .{f} requires a mutable receiver (got {})",
                            m.abbrev()
                        ),
                    );
                }
                let tv = self.synth(val, env);
                let expected = fi.ty.subst(&Subst::one("this", recv_term));
                let blame = Blame::new(K::FieldWrite, format!("assignment to field {f}"), span);
                self.sub(env, &tv, &expected, &blame);
                tv
            }
            other => {
                let _ = self.synth(val, env);
                self.base_error(env, span, format!("field write on {}", other.describe()));
                RType::undefined()
            }
        }
    }

    /// Constructor exit: `ctor_init(f̄)` — every field must be initialized
    /// and satisfy its declared refinement, with `this.g` rewritten to the
    /// recorded field values (atomic establishment of class invariants).
    fn ctor_exit(&mut self, env: &mut Env, cname: &Sym, span: Span) {
        let fields = self.ct.all_fields(cname);
        for fi in &fields {
            let pseudo = Sym::from(format!("$field${}", fi.name));
            if env.lookup(&pseudo).is_none() {
                self.diags.push(Diagnostic::error(
                    format!(
                        "constructor of {cname} does not initialize field {}",
                        fi.name
                    ),
                    span,
                ));
                continue;
            }
            let target = RType {
                base: fi.ty.base.clone(),
                pred: rewrite_this_fields(&fi.ty.pred),
            };
            let lhs = env.lookup(&pseudo).unwrap().clone();
            let lhs = lhs.selfify(Term::var(pseudo));
            let blame = Blame::new(
                K::ClassInvariant,
                format!("class invariant for field {} of {cname}", fi.name),
                span,
            );
            self.sub(env, &lhs, &target, &blame);
        }
        // Explicit class invariant, over the cooked fields.
        if let Some(info) = self.ct.objs.get(cname) {
            let inv = info.invariant.clone();
            if !matches!(inv, Pred::True) {
                let rewritten = rewrite_this_fields(&rewrite_vv_fields(&inv));
                if !rewritten.free_vars().contains("v") {
                    let blame = Blame::new(
                        K::ClassInvariant,
                        format!("class invariant of {cname}"),
                        span,
                    );
                    self.push_sub_pred(env, Pred::True, rewritten, Sort::Int, &blame);
                }
            }
        }
    }
}

/// Replaces `this.g` by the pseudo-local `$field$g` in a predicate.
fn rewrite_this_fields(p: &Pred) -> Pred {
    fn go_term(t: &Term) -> Term {
        match t {
            Term::Field(b, f) => {
                if matches!(b.as_ref(), Term::Var(x) if x.as_str() == "this") {
                    Term::var(format!("$field${f}"))
                } else {
                    Term::field(go_term(b), f.clone())
                }
            }
            Term::App(f, args) => Term::app(f.clone(), args.iter().map(go_term).collect()),
            Term::Bin(op, a, b) => Term::bin(*op, go_term(a), go_term(b)),
            Term::Neg(a) => Term::neg(go_term(a)),
            other => other.clone(),
        }
    }
    map_pred_terms(p, &go_term)
}

/// Replaces `v.g` by `$field$g` (used for explicit class invariants at
/// constructor exits).
fn rewrite_vv_fields(p: &Pred) -> Pred {
    fn go_term(t: &Term) -> Term {
        match t {
            Term::Field(b, f) => {
                if matches!(b.as_ref(), Term::Var(x) if x.as_str() == "v") {
                    Term::var(format!("$field${f}"))
                } else {
                    Term::field(go_term(b), f.clone())
                }
            }
            Term::App(f, args) => Term::app(f.clone(), args.iter().map(go_term).collect()),
            Term::Bin(op, a, b) => Term::bin(*op, go_term(a), go_term(b)),
            Term::Neg(a) => Term::neg(go_term(a)),
            other => other.clone(),
        }
    }
    map_pred_terms(p, &go_term)
}

fn map_pred_terms(p: &Pred, f: &dyn Fn(&Term) -> Term) -> Pred {
    match p {
        Pred::And(ps) => Pred::and(ps.iter().map(|q| map_pred_terms(q, f)).collect()),
        Pred::Or(ps) => Pred::or(ps.iter().map(|q| map_pred_terms(q, f)).collect()),
        Pred::Not(q) => Pred::not(map_pred_terms(q, f)),
        Pred::Imp(a, b) => Pred::imp(map_pred_terms(a, f), map_pred_terms(b, f)),
        Pred::Iff(a, b) => Pred::iff(map_pred_terms(a, f), map_pred_terms(b, f)),
        Pred::Cmp(op, a, b) => Pred::cmp(*op, f(a), f(b)),
        Pred::App(g, args) => Pred::App(g.clone(), args.iter().map(f).collect()),
        Pred::TermPred(t) => Pred::TermPred(f(t)),
        other => other.clone(),
    }
}

/// Substitutes type variables structurally.
pub(crate) fn apply_tvars(t: &RType, map: &HashMap<Sym, RType>) -> RType {
    let base = match &t.base {
        Base::TVar(a) => {
            if let Some(r) = map.get(a) {
                return r.clone().strengthen(t.pred.clone());
            }
            t.base.clone()
        }
        Base::Arr(e, m) => Base::Arr(Box::new(apply_tvars(e, map)), *m),
        Base::Obj(c, m, args) => Base::Obj(
            c.clone(),
            *m,
            args.iter().map(|x| apply_tvars(x, map)).collect(),
        ),
        Base::Union(ps) => Base::Union(ps.iter().map(|x| apply_tvars(x, map)).collect()),
        Base::Fun(f) => {
            let mut inner = map.clone();
            for a in &f.tparams {
                inner.remove(a);
            }
            Base::Fun(Rc::new(RFun {
                tparams: f.tparams.clone(),
                params: f
                    .params
                    .iter()
                    .map(|(x, ty)| (x.clone(), apply_tvars(ty, &inner)))
                    .collect(),
                ret: apply_tvars(&f.ret, &inner),
            }))
        }
        other => other.clone(),
    };
    RType {
        base,
        pred: t.pred.clone(),
    }
}
