//! Call checking: polymorphic instantiation with κ templates (Step 1 of
//! §2.2.1), intersection-overload selection at call sites, method dispatch
//! with IGJ receiver checks, object construction (T-NEW) and static casts
//! (T-CAST / compatibility subtyping).

use std::collections::HashMap;

use rsc_liquid::{Blame, ObligationKind as K};
use rsc_logic::{CmpOp, Pred, Sort, Subst, Sym, Term};
use rsc_ssa::IrExpr;
use rsc_syntax::{AnnTy, Mutability, Span};

use crate::checker::{Checker, Env};
use crate::diag::Diagnostic;
use crate::rtype::{Base, Prim, RFun, RType};
use crate::synth::apply_tvars;

impl Checker {
    pub(crate) fn synth_call(
        &mut self,
        callee: &IrExpr,
        args: &[IrExpr],
        span: Span,
        env: &mut Env,
    ) -> RType {
        // --- built-ins -------------------------------------------------
        if let IrExpr::Var(name, _) = callee {
            match name.as_str() {
                "$ite" => return self.synth_ite(args, span, env),
                "assert" => {
                    let t = self.synth(&args[0], env);
                    let term = self.term_of(&args[0], env);
                    let mut lhs = self.embed_pred(&t);
                    if let Some(tm) = term {
                        lhs = Pred::and(vec![lhs, Pred::vv_eq(tm)]);
                    }
                    let rhs = match t.sort() {
                        Sort::Bool => Pred::TermPred(Term::vv()),
                        Sort::Int => Pred::cmp(CmpOp::Ne, Term::vv(), Term::int(0)),
                        Sort::Bv32 => Pred::cmp(CmpOp::Ne, Term::vv(), Term::bv(0)),
                        _ => Pred::and(vec![
                            Pred::cmp(CmpOp::Ne, Term::vv(), Term::app("nullv", vec![])),
                            Pred::cmp(CmpOp::Ne, Term::vv(), Term::app("undefv", vec![])),
                        ]),
                    };
                    let blame = Blame::new(K::Assertion, "assert must hold", span);
                    self.push_sub_pred(env, lhs, rhs, t.sort(), &blame);
                    return RType::void();
                }
                "assume" => {
                    let _ = self.synth(&args[0], env);
                    let g = self.guard_pos(&args[0], env);
                    env.guard(g);
                    return RType::void();
                }
                _ => {}
            }
            // Unannotated closure called directly: not supported (it has
            // no signature to check against).
            if self.deferred.contains_key(name) && env.lookup(name).is_none() {
                self.diags.push(Diagnostic::error(
                    format!(
                        "function {name} has no signature; annotate it or pass it to a typed \
                         higher-order function"
                    ),
                    span,
                ));
                return RType::undefined();
            }
        }

        // --- resolve the callee's signature(s) ---------------------------
        if let IrExpr::Field(obj, m, _) = callee {
            return self.synth_method_call(obj, m, args, span, env);
        }
        let rfuns: Vec<RFun> = match callee {
            IrExpr::Var(name, _) => {
                if let Some(t) = env.lookup(name).cloned() {
                    match &t.base {
                        Base::Fun(f) => vec![(**f).clone()],
                        Base::Union(_) | Base::Infer(_) => {
                            self.base_error(env, span, format!("{name} is not a function"));
                            return RType::undefined();
                        }
                        other => {
                            self.base_error(
                                env,
                                span,
                                format!("calling non-function {}", other.describe()),
                            );
                            return RType::undefined();
                        }
                    }
                } else if let Some(t) = self.declares.get(name).cloned() {
                    match &t.base {
                        Base::Fun(f) => vec![(**f).clone()],
                        _ => {
                            self.base_error(env, span, format!("{name} is not a function"));
                            return RType::undefined();
                        }
                    }
                } else if let Some(f) = self.funs.get(name).cloned() {
                    let mut out = Vec::new();
                    for sig in &f.sigs {
                        let tp = sig.tparams.iter().cloned().collect();
                        match self.ct.resolve_funty(sig, &tp) {
                            Ok(rf) => out.push(rf),
                            Err(e) => {
                                self.diags.push(Diagnostic::error(e.0, span));
                            }
                        }
                    }
                    out
                } else {
                    self.diags
                        .push(Diagnostic::error(format!("unbound function {name}"), span));
                    return RType::undefined();
                }
            }
            other => {
                let t = self.synth(other, env);
                match &t.base {
                    Base::Fun(f) => vec![(**f).clone()],
                    b => {
                        self.base_error(
                            env,
                            span,
                            format!("calling non-function {}", b.describe()),
                        );
                        return RType::undefined();
                    }
                }
            }
        };
        if rfuns.is_empty() {
            return RType::undefined();
        }
        let rf = self.select_overload(&rfuns, args, env);
        self.apply_fun(&rf, args, None, span, env)
    }

    /// Picks the intersection conjunct whose arity and parameter bases
    /// best match the arguments (callers may use any conjunct, §2.1.2).
    fn select_overload(&mut self, rfuns: &[RFun], args: &[IrExpr], env: &Env) -> RFun {
        if rfuns.len() == 1 {
            return rfuns[0].clone();
        }
        let mut best: Option<(usize, i32)> = None;
        for (i, rf) in rfuns.iter().enumerate() {
            if rf.params.len() != args.len() {
                continue;
            }
            let mut score = 1;
            for ((_, pt), a) in rf.params.iter().zip(args) {
                if let Some(at) = self.quick_type(a, env) {
                    let compat = match (&pt.base, &at.base) {
                        (Base::TVar(_), _) | (_, Base::TVar(_)) => true,
                        (Base::Union(ps), b) => ps.iter().any(|p| self.base_compat(b, &p.base)),
                        (pb, ab) => self.base_compat(ab, pb),
                    };
                    score += if compat { 10 } else { -10 };
                }
            }
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((i, score));
            }
        }
        match best {
            Some((i, _)) => rfuns[i].clone(),
            None => rfuns[0].clone(),
        }
    }

    fn synth_method_call(
        &mut self,
        obj: &IrExpr,
        m: &Sym,
        args: &[IrExpr],
        span: Span,
        env: &mut Env,
    ) -> RType {
        // Enum "method"? No — enums have no methods. Array methods:
        let tr = self.synth(obj, env);
        let tr = self.resolve_infer(&tr);
        let recv_term = self.term_of_or_tmp_pub(obj, &tr, env);
        match &tr.base {
            Base::Arr(..) => match m.as_str() {
                "push" | "pop" | "shift" | "unshift" | "splice" => {
                    self.diags.push(Diagnostic::error(
                        format!(
                            "Array.{m} changes the array length and is outside the verified \
                                 fragment (cf. §5.3 of the paper); restructure with fixed-size \
                                 arrays"
                        ),
                        span,
                    ));
                    RType::number()
                }
                other => {
                    self.base_error(env, span, format!("array has no method {other}"));
                    RType::undefined()
                }
            },
            Base::Obj(c, recv_mut, targs) => {
                let Some(mi) = self.ct.lookup_method(c, m).cloned() else {
                    self.base_error(env, span, format!("{c} has no method {m}"));
                    return RType::undefined();
                };
                if !recv_mut.satisfies(mi.recv) {
                    self.base_error(
                        env,
                        span,
                        format!(
                            "method {m} requires a @{} receiver, but the receiver is {}",
                            match mi.recv {
                                Mutability::Mutable => "Mutable",
                                Mutability::Immutable => "Immutable",
                                Mutability::ReadOnly => "ReadOnly",
                                Mutability::Unique => "Unique",
                            },
                            recv_mut.abbrev()
                        ),
                    );
                }
                // Substitute class type args and the receiver into the sig.
                let mut fun = mi.fun.clone();
                if let Some(info) = self.ct.objs.get(c) {
                    let map: HashMap<Sym, RType> = info
                        .tparams
                        .iter()
                        .cloned()
                        .zip(targs.iter().cloned())
                        .collect();
                    if !map.is_empty() {
                        fun = RFun {
                            tparams: fun.tparams.clone(),
                            params: fun
                                .params
                                .iter()
                                .map(|(x, t)| (*x, apply_tvars(t, &map)))
                                .collect(),
                            ret: apply_tvars(&fun.ret, &map),
                        };
                    }
                }
                let theta = Subst::one("this", recv_term);
                let fun = RFun {
                    tparams: fun.tparams.clone(),
                    params: fun
                        .params
                        .iter()
                        .map(|(x, t)| (*x, t.subst(&theta)))
                        .collect(),
                    ret: fun.ret.subst(&theta),
                };
                self.apply_fun(&fun, args, None, span, env)
            }
            Base::Union(parts) => {
                // Narrow to the object part; null/undefined parts must be
                // refuted by the environment.
                match parts
                    .iter()
                    .find(|p| matches!(p.base, Base::Obj(..)))
                    .cloned()
                {
                    Some(objpart) => {
                        let lhs = tr.clone().selfify(recv_term.clone());
                        let blame = Blame::new(
                            K::Narrowing,
                            format!("method call .{m} on a possibly null/undefined value"),
                            span,
                        );
                        self.sub(env, &lhs, &objpart, &blame);
                        // Re-dispatch with the narrowed receiver by
                        // rebinding a temp of the object type.
                        let tmp = self.fresh_tmp();
                        env.bind(tmp, objpart.clone().selfify(recv_term.clone()));
                        let obj2 = rsc_ssa::IrExpr::Var(tmp, span);
                        self.synth_method_call(&obj2, m, args, span, env)
                    }
                    None => {
                        self.base_error(
                            env,
                            span,
                            format!("method call .{m} on {}", tr.base.describe()),
                        );
                        RType::undefined()
                    }
                }
            }
            other => {
                self.base_error(env, span, format!("method .{m} on {}", other.describe()));
                RType::undefined()
            }
        }
    }

    pub(crate) fn term_of_or_tmp_pub(&mut self, e: &IrExpr, ty: &RType, env: &mut Env) -> Term {
        if let Some(t) = self.term_of(e, env) {
            return t;
        }
        let tmp = self.fresh_tmp();
        env.bind(tmp, ty.clone());
        Term::var(tmp)
    }

    /// The core of T-INV: instantiate type parameters with κ templates,
    /// check arguments against (substituted) parameter types, and return
    /// the (substituted) result type.
    fn apply_fun(
        &mut self,
        rf: &RFun,
        args: &[IrExpr],
        _recv: Option<Term>,
        span: Span,
        env: &mut Env,
    ) -> RType {
        if args.len() > rf.params.len() {
            self.base_error(
                env,
                span,
                format!(
                    "call supplies {} arguments but the function takes {}",
                    args.len(),
                    rf.params.len()
                ),
            );
        }
        // Synthesize argument types (deferring unannotated closures).
        let mut arg_tys: Vec<Option<RType>> = Vec::new();
        for a in args {
            let deferred = matches!(a, IrExpr::Var(x, _)
                if self.deferred.contains_key(x) && env.lookup(x).is_none());
            if deferred {
                arg_tys.push(None);
            } else {
                arg_tys.push(Some(self.synth(a, env)));
            }
        }
        // Step 1 (§2.2.1): instantiate type variables. Base skeletons come
        // from unification of declared parameter bases against argument
        // bases; refinements become fresh κ templates.
        let mut base_map: HashMap<Sym, Base> = HashMap::new();
        for ((_, pt), at) in rf.params.iter().zip(&arg_tys) {
            if let Some(at) = at {
                unify_base(&pt.base, &self.resolve_infer(at).base, &mut base_map);
            }
        }
        let scope = env.scope();
        let mut tvar_map: HashMap<Sym, RType> = HashMap::new();
        for a in &rf.tparams {
            let template = match base_map.get(a) {
                Some(b) => {
                    let t0 = RType::trivial(b.clone());
                    let k = self.cs.fresh_kvar(
                        t0.sort(),
                        scope.clone(),
                        format!("instantiation of {a} at line {}", span.line),
                    );
                    RType {
                        base: b.clone(),
                        pred: Pred::KVar(k, Subst::new()),
                    }
                }
                None => {
                    let u = self.next_infer;
                    self.next_infer += 1;
                    RType::trivial(Base::Infer(u))
                }
            };
            tvar_map.insert(*a, template);
        }
        // Dependent substitution: parameter names ↦ argument terms.
        let mut theta = Subst::new();
        for (i, (x, pt)) in rf.params.iter().enumerate() {
            let term = match args.get(i) {
                Some(a) => match &arg_tys[i] {
                    Some(t) => self.term_of_or_tmp_pub(a, t, env),
                    None => Term::var(self.fresh_tmp()),
                },
                None => {
                    // Missing argument: undefined.
                    let _ = pt;
                    Term::app("undefv", vec![])
                }
            };
            theta.push(*x, term);
        }
        // Check arguments.
        for (i, (_, pt)) in rf.params.iter().enumerate() {
            let expected = apply_tvars(pt, &tvar_map).subst(&theta);
            match args.get(i) {
                None => {
                    // Missing argument must be allowed to be undefined.
                    let u = RType::undefined();
                    let blame = Blame::new(K::CallArgument, "missing optional argument", span);
                    self.sub(env, &u, &expected, &blame);
                }
                Some(a) => match &arg_tys[i] {
                    Some(at) => {
                        let lhs = match self.term_of(a, env) {
                            Some(t) => at.clone().selfify(t),
                            None => at.clone(),
                        };
                        let blame =
                            Blame::new(K::CallArgument, format!("argument {}", i + 1), span);
                        self.sub(env, &lhs, &expected, &blame);
                    }
                    None => {
                        // Deferred closure: check its body against the
                        // instantiated expected arrow type.
                        let IrExpr::Var(name, _) = a else {
                            unreachable!()
                        };
                        match &self.resolve_infer(&expected).base {
                            Base::Fun(ef) => {
                                let ef = (**ef).clone();
                                self.check_deferred_against(name, &ef, span);
                            }
                            _ => self.base_error(
                                env,
                                span,
                                format!(
                                    "argument {} is a function, expected {}",
                                    i + 1,
                                    expected.base.describe()
                                ),
                            ),
                        }
                    }
                },
            }
        }
        apply_tvars(&rf.ret, &tvar_map).subst(&theta)
    }

    fn synth_ite(&mut self, args: &[IrExpr], span: Span, env: &mut Env) -> RType {
        let _ = self.synth(&args[0], env);
        let (gp, gn) = if self.opts.path_sensitivity {
            (self.guard_pos(&args[0], env), self.guard_neg(&args[0], env))
        } else {
            (Pred::True, Pred::True)
        };
        let mut env1 = env.clone();
        env1.guard(gp);
        let t1 = self.synth(&args[1], &mut env1);
        let mut env2 = env.clone();
        env2.guard(gn);
        let t2 = self.synth(&args[2], &mut env2);
        // Join through a fresh κ (mirrors T-LETIF).
        let b = self.join_base(&t1, &t2);
        let joined = RType::trivial(b);
        if matches!(joined.base, Base::Union(_)) {
            return joined;
        }
        let scope = env.scope();
        let k = self.cs.fresh_kvar(
            joined.sort(),
            scope,
            format!("ternary at line {}", span.line),
        );
        let template = RType {
            base: joined.base,
            pred: Pred::KVar(k, Subst::new()),
        };
        let lhs1 = match self.term_of(&args[1], &env1) {
            Some(t) => t1.clone().selfify(t),
            None => t1,
        };
        let blame = Blame::new(K::Assignment, "ternary then-value", span);
        self.sub(&env1, &lhs1, &template, &blame);
        let lhs2 = match self.term_of(&args[2], &env2) {
            Some(t) => t2.clone().selfify(t),
            None => t2,
        };
        let blame = Blame::new(K::Assignment, "ternary else-value", span);
        self.sub(&env2, &lhs2, &template, &blame);
        template
    }

    // ------------------------------------------------------------ new ---

    pub(crate) fn synth_new(
        &mut self,
        cname: &Sym,
        targs: &[AnnTy],
        args: &[IrExpr],
        span: Span,
        env: &mut Env,
    ) -> RType {
        if cname.as_str() == "Array" {
            return self.synth_new_array(targs, args, span, env);
        }
        let Some(info) = self.ct.objs.get(cname).cloned() else {
            self.diags
                .push(Diagnostic::error(format!("unknown class {cname}"), span));
            return RType::undefined();
        };
        if info.is_interface {
            self.diags.push(Diagnostic::error(
                format!("cannot instantiate interface {cname}"),
                span,
            ));
            return RType::undefined();
        }
        let params = info.ctor_params.clone().unwrap_or_default();
        if args.len() != params.len() {
            self.base_error(
                env,
                span,
                format!(
                    "constructor of {cname} takes {} arguments, got {}",
                    params.len(),
                    args.len()
                ),
            );
        }
        // Check arguments against constructor parameter types with the
        // dependent substitution param ↦ arg term.
        let mut arg_terms: Vec<Term> = Vec::new();
        let mut theta = Subst::new();
        let mut arg_tys = Vec::new();
        for (i, a) in args.iter().enumerate() {
            let at = self.synth(a, env);
            let term = self.term_of_or_tmp_pub(a, &at, env);
            if let Some((x, _)) = params.get(i) {
                theta.push(*x, term.clone());
            }
            arg_terms.push(term);
            arg_tys.push(at);
        }
        for (i, (_, pt)) in params.iter().enumerate() {
            if let Some(at) = arg_tys.get(i) {
                let expected = pt.subst(&theta);
                let lhs = at.clone().selfify(arg_terms[i].clone());
                let blame = Blame::new(
                    K::CallArgument,
                    format!("constructor argument {} of new {cname}", i + 1),
                    span,
                );
                self.sub(env, &lhs, &expected, &blame);
            }
        }
        // Result type (T-NEW): class inclusion + invariants + equalities
        // for immutable fields directly initialized from parameters.
        let mut pred = self.ct.inv_pred(cname, &Term::vv());
        if let Some(fieldmap) = self.ctor_param_fields.get(cname) {
            for (f, pi) in fieldmap.clone() {
                if let Some(t) = arg_terms.get(pi) {
                    let is_imm = self
                        .ct
                        .lookup_field(cname, &f)
                        .map(|fi| fi.imm)
                        .unwrap_or(false);
                    if is_imm {
                        pred =
                            Pred::and(vec![pred, Pred::eq(Term::field(Term::vv(), f), t.clone())]);
                    }
                }
            }
        }
        RType {
            base: Base::Obj(*cname, Mutability::Mutable, vec![]),
            pred,
        }
    }

    fn synth_new_array(
        &mut self,
        targs: &[AnnTy],
        args: &[IrExpr],
        span: Span,
        env: &mut Env,
    ) -> RType {
        let elem = match targs.first() {
            Some(t) => match self.ct.resolve_in(t, &env.tparams) {
                Ok(r) => r,
                Err(e) => {
                    self.diags.push(Diagnostic::error(e.0, span));
                    RType::number()
                }
            },
            None => {
                let u = self.next_infer;
                self.next_infer += 1;
                RType::trivial(Base::Infer(u))
            }
        };
        match args {
            [n] => {
                let tn = self.synth(n, env);
                let blame = Blame::new(K::CallArgument, "array length", span);
                self.sub(
                    env,
                    &tn,
                    &RType {
                        base: Base::Prim(Prim::Num),
                        pred: Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
                    },
                    &blame,
                );
                let term = self.term_of_or_tmp_pub(n, &tn, env);
                RType {
                    base: Base::Arr(Box::new(elem), Mutability::Mutable),
                    pred: Pred::eq(Term::len_of(Term::vv()), term),
                }
            }
            _ => {
                let blame = Blame::new(K::CallArgument, "array element", span);
                for a in args {
                    let at = self.synth(a, env);
                    self.sub(env, &at, &elem, &blame);
                }
                RType {
                    base: Base::Arr(Box::new(elem), Mutability::Mutable),
                    pred: Pred::eq(Term::len_of(Term::vv()), Term::int(args.len() as i64)),
                }
            }
        }
    }

    // ----------------------------------------------------------- casts ---

    /// T-CAST via compatibility subtyping (Definition 1): `⟨S →Γ ⌊T⌋⟩`
    /// succeeds when Γ proves `inv(T, ν)`; the result is `T ◁ p` where `p`
    /// is the source refinement. Statically verified casts never fail at
    /// run time (Corollary 4).
    pub(crate) fn synth_cast(
        &mut self,
        ann: &AnnTy,
        inner: &IrExpr,
        span: Span,
        env: &mut Env,
    ) -> RType {
        let target = match self.ct.resolve_in(ann, &env.tparams) {
            Ok(t) => t,
            Err(e) => {
                self.diags.push(Diagnostic::error(e.0, span));
                return RType::undefined();
            }
        };
        let te = self.synth(inner, env);
        let te = self.resolve_infer(&te);
        let term = self.term_of_or_tmp_pub(inner, &te, env);
        match (&te.base, &target.base) {
            (Base::Obj(c1, m1, _), Base::Obj(c2, m2, _)) => {
                if *m1 == Mutability::Unique && m1 != m2 {
                    self.diags.push(Diagnostic::error(
                        "unique references cannot be cast to a different mutability (§4.4)",
                        span,
                    ));
                }
                if self.ct.is_subclass(c1, c2) {
                    // Upcast: ordinary subsumption.
                    let tgt = target.clone();
                    let lhs = te.clone().selfify(term.clone());
                    let blame = Blame::new(K::Cast, "upcast", span);
                    self.sub(env, &lhs, &tgt, &blame);
                } else {
                    // Downcast: Γ must prove the target's invariants.
                    let lhs = Pred::and(vec![self.embed_pred(&te), Pred::vv_eq(term.clone())]);
                    let rhs = self.ct.inv_pred(c2, &Term::vv());
                    let blame = Blame::new(K::Cast, format!("downcast to {c2}"), span);
                    self.push_sub_pred(env, lhs, rhs, Sort::Ref, &blame);
                }
                // D ◁ p: the target strengthened with the source refinement
                // (and the source value identity when the term is a variable).
                let strengthened = target.clone().strengthen(te.pred.clone());
                match &term {
                    Term::Var(x) => strengthened.selfify(Term::var(*x)),
                    _ => strengthened,
                }
            }
            _ => {
                // Non-object casts behave like ascriptions.
                let tgt = target.clone();
                let blame = Blame::new(K::Cast, "cast", span);
                self.sub(env, &te, &tgt, &blame);
                target
            }
        }
    }
}

/// First-order unification of base skeletons: type variables in the
/// declared parameter collect the corresponding argument bases.
fn unify_base(decl: &Base, arg: &Base, out: &mut HashMap<Sym, Base>) {
    match (decl, arg) {
        (Base::TVar(a), b) => {
            out.entry(*a).or_insert_with(|| b.clone());
        }
        (Base::Arr(d, _), Base::Arr(x, _)) => unify_base(&d.base, &x.base, out),
        (Base::Obj(_, _, ds), Base::Obj(_, _, xs)) => {
            for (d, x) in ds.iter().zip(xs) {
                unify_base(&d.base, &x.base, out);
            }
        }
        (Base::Fun(d), Base::Fun(x)) => {
            for ((_, dp), (_, xp)) in d.params.iter().zip(x.params.iter()) {
                unify_base(&dp.base, &xp.base, out);
            }
            unify_base(&d.ret.base, &x.ret.base, out);
        }
        (Base::Union(ds), b) => {
            for d in ds {
                unify_base(&d.base, b, out);
            }
        }
        _ => {}
    }
}
