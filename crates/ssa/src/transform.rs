//! The SSA transformation `δ ⊢ s ↪ u; δ′` of Figure 3, implemented over
//! blocks, with the loop extension of §2.2.2 (fresh Φ-variables at loop
//! heads for every variable assigned in the body).

use std::collections::{BTreeSet, HashMap};

use rsc_logic::Sym;
use rsc_syntax::ast::*;
use rsc_syntax::Span;

use crate::ir::*;

/// The SSA translation environment δ: source variable → current SSA name.
#[derive(Clone, Debug, Default)]
pub struct SsaEnv {
    map: HashMap<Sym, Sym>,
}

impl SsaEnv {
    /// Empty environment.
    pub fn new() -> Self {
        SsaEnv::default()
    }

    /// Current SSA name of `x` (identity when unmapped — parameters and
    /// globals keep their names).
    pub fn lookup(&self, x: &Sym) -> Sym {
        self.map.get(x).cloned().unwrap_or(*x)
    }

    /// Rebinds `x` to SSA name `v`.
    pub fn bind(&mut self, x: Sym, v: Sym) {
        self.map.insert(x, v);
    }

    /// True if `x` was declared before the current region (it has a
    /// binding in δ). Variables declared *inside* a branch are local to it
    /// and must not become Φ-variables at the join.
    pub fn in_scope(&self, x: &Sym) -> bool {
        self.map.contains_key(x)
    }

    /// The paper's δ₁ ⋈ δ₂ restricted to `base`'s scope: variables that
    /// were in scope before the branch and have differing SSA names after.
    pub fn join_in(&self, other: &SsaEnv, base: &SsaEnv) -> Vec<Sym> {
        let mut keys: BTreeSet<&Sym> = self.map.keys().collect();
        keys.extend(other.map.keys());
        keys.into_iter()
            .filter(|x| base.in_scope(x) && self.lookup(x) != other.lookup(x))
            .cloned()
            .collect()
    }
}

/// The SSA transformer: fresh-name supply plus recursive translation.
#[derive(Default)]
pub struct Ssa {
    counter: u32,
    /// Maps SSA names back to source names, for diagnostics.
    pub origins: HashMap<Sym, Sym>,
}

/// Translates a parsed program into SSA form.
pub fn transform_program(p: &Program) -> IrProgram {
    let _sp = rsc_obs::span!("ssa");
    let mut ssa = Ssa::default();
    let mut out = IrProgram::default();
    let mut top_stmts: Vec<Stmt> = Vec::new();
    for item in &p.items {
        match item {
            Item::TypeAlias(a) => out.aliases.push(a.clone()),
            Item::Qualif(q) => out.quals.push(q.clone()),
            Item::Enum(e) => out.enums.push(e.clone()),
            Item::Interface(i) => out.interfaces.push(i.clone()),
            Item::Declare(d) => out.declares.push(d.clone()),
            Item::Fun(f) => out.funs.push(ssa.fun(f)),
            Item::Class(c) => out.classes.push(ssa.class(c)),
            Item::Stmt(s) => top_stmts.push(s.clone()),
        }
    }
    let mut delta = SsaEnv::new();
    let top_end = top_stmts.last().map(|s| s.span()).unwrap_or_default();
    out.top = ssa
        .stmts(&top_stmts, &mut delta, JoinKind::Return, top_end)
        .body;
    out
}

/// What a falling-off-the-end statement sequence should produce.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    /// Function body: implicit `return;`.
    Return,
    /// Branch arm: fall through to the join.
    Branch,
}

/// Result facts about a translated sequence.
struct Translated {
    body: Body,
    falls: bool,
}

impl Ssa {
    /// A fresh SSA version of source variable `x`.
    pub fn fresh(&mut self, x: &Sym) -> Sym {
        self.counter += 1;
        let name = Sym::from(format!("{x}${}", self.counter));
        self.origins.insert(name, *x);
        name
    }

    /// Translates a function declaration.
    pub fn fun(&mut self, f: &FunDecl) -> IrFun {
        let mut delta = SsaEnv::new();
        for p in &f.params {
            delta.bind(*p, *p);
        }
        delta.bind(Sym::from("arguments"), Sym::from("arguments"));
        let body = self.stmts(&f.body.stmts, &mut delta, JoinKind::Return, f.span);
        IrFun {
            name: f.name,
            sigs: f.sigs.clone(),
            params: f.params.clone(),
            body: body.body,
            span: f.span,
        }
    }

    fn class(&mut self, c: &ClassDecl) -> IrClass {
        let ctor = match &c.ctor {
            Some(ct) => {
                let mut delta = SsaEnv::new();
                for (p, _) in &ct.params {
                    delta.bind(*p, *p);
                }
                delta.bind(Sym::from("this"), Sym::from("this"));
                let b = self.stmts(&ct.body.stmts, &mut delta, JoinKind::Return, ct.span);
                Some(IrCtor {
                    params: ct.params.clone(),
                    body: b.body,
                    span: ct.span,
                })
            }
            None => None,
        };
        let mut methods = Vec::new();
        for m in &c.methods {
            let body = match &m.body {
                Some(b) => {
                    let mut delta = SsaEnv::new();
                    for (p, _) in &m.sig.params {
                        delta.bind(*p, *p);
                    }
                    delta.bind(Sym::from("this"), Sym::from("this"));
                    Some(
                        self.stmts(&b.stmts, &mut delta, JoinKind::Return, m.span)
                            .body,
                    )
                }
                None => None,
            };
            methods.push(IrMethod {
                name: m.name,
                recv: m.recv,
                sig: m.sig.clone(),
                body,
                span: m.span,
            });
        }
        IrClass {
            decl: c.clone(),
            ctor,
            methods,
        }
    }

    /// `end` is the span blamed for the implicit terminator when the
    /// sequence falls off its end (the enclosing function, branch, or
    /// loop) — implicit returns must carry real provenance, not
    /// `Span::dummy()`.
    fn stmts(
        &mut self,
        stmts: &[Stmt],
        delta: &mut SsaEnv,
        join: JoinKind,
        end_span: Span,
    ) -> Translated {
        let Some((first, rest)) = stmts.split_first() else {
            let end = match join {
                JoinKind::Return => Body::Ret(None, end_span),
                JoinKind::Branch => Body::EndBranch(end_span),
            };
            return Translated {
                body: end,
                falls: true,
            };
        };
        match first {
            Stmt::Skip(_) => self.stmts(rest, delta, join, end_span),
            Stmt::Seq(ss, _) => {
                // Scope-transparent: splice into the current sequence.
                let mut flat: Vec<Stmt> = ss.clone();
                flat.extend_from_slice(rest);
                self.stmts(&flat, delta, join, end_span)
            }
            Stmt::VarDecl {
                name,
                ann,
                init,
                span,
            } => {
                let rhs = self.expr(init, delta);
                let x = self.fresh(name);
                delta.bind(*name, x);
                let k = self.stmts(rest, delta, join, end_span);
                Translated {
                    body: Body::Let {
                        x,
                        ann: ann.clone(),
                        rhs,
                        rest: Box::new(k.body),
                        span: *span,
                    },
                    falls: k.falls,
                }
            }
            Stmt::Assign {
                target,
                value,
                span,
            } => match target {
                LValue::Var(name, _) => {
                    let rhs = self.expr(value, delta);
                    let x = self.fresh(name);
                    delta.bind(*name, x);
                    let k = self.stmts(rest, delta, join, end_span);
                    Translated {
                        body: Body::Let {
                            x,
                            ann: None,
                            rhs,
                            rest: Box::new(k.body),
                            span: *span,
                        },
                        falls: k.falls,
                    }
                }
                LValue::Field(obj, f, _) => {
                    let o = self.expr(obj, delta);
                    let v = self.expr(value, delta);
                    let e = IrExpr::FieldAssign(Box::new(o), *f, Box::new(v), *span);
                    let k = self.stmts(rest, delta, join, end_span);
                    Translated {
                        body: Body::Effect {
                            e,
                            rest: Box::new(k.body),
                            span: *span,
                        },
                        falls: k.falls,
                    }
                }
                LValue::Index(arr, idx, _) => {
                    let a = self.expr(arr, delta);
                    let i = self.expr(idx, delta);
                    let v = self.expr(value, delta);
                    let e = IrExpr::IndexAssign(Box::new(a), Box::new(i), Box::new(v), *span);
                    let k = self.stmts(rest, delta, join, end_span);
                    Translated {
                        body: Body::Effect {
                            e,
                            rest: Box::new(k.body),
                            span: *span,
                        },
                        falls: k.falls,
                    }
                }
            },
            Stmt::ExprStmt { expr, span } => {
                let e = self.expr(expr, delta);
                let k = self.stmts(rest, delta, join, end_span);
                Translated {
                    body: Body::Effect {
                        e,
                        rest: Box::new(k.body),
                        span: *span,
                    },
                    falls: k.falls,
                }
            }
            Stmt::Return { value, span } => {
                // Anything after a return is dead; drop it (the paper's
                // formal core has a single trailing return).
                let e = value.as_ref().map(|v| self.expr(v, delta));
                Translated {
                    body: Body::Ret(e, *span),
                    falls: false,
                }
            }
            Stmt::Fun(f) => {
                // Nested function: capture the current δ so free variables
                // refer to the SSA names live at the definition point.
                let mut inner = delta.clone();
                for p in &f.params {
                    inner.bind(*p, *p);
                }
                inner.bind(Sym::from("arguments"), Sym::from("arguments"));
                let b = self.stmts(&f.body.stmts, &mut inner, JoinKind::Return, f.span);
                let fun = IrFun {
                    name: f.name,
                    sigs: f.sigs.clone(),
                    params: f.params.clone(),
                    body: b.body,
                    span: f.span,
                };
                let k = self.stmts(rest, delta, join, end_span);
                Translated {
                    body: Body::LetFun {
                        fun: Box::new(fun),
                        rest: Box::new(k.body),
                        span: f.span,
                    },
                    falls: k.falls,
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            } => {
                let c = self.expr(cond, delta);
                let mut d1 = delta.clone();
                let t1 = self.stmts(&then_blk.stmts, &mut d1, JoinKind::Branch, *span);
                let mut d2 = delta.clone();
                let t2 = self.stmts(&else_blk.stmts, &mut d2, JoinKind::Branch, *span);
                let (phis, d_next) = match (t1.falls, t2.falls) {
                    (true, true) => {
                        let mut phis = Vec::new();
                        let mut dn = delta.clone();
                        for x in d1.join_in(&d2, delta) {
                            let nx = self.fresh(&x);
                            phis.push(Phi {
                                new: nx,
                                then_src: Some(d1.lookup(&x)),
                                else_src: Some(d2.lookup(&x)),
                                source: x,
                            });
                            dn.bind(x, nx);
                        }
                        (phis, dn)
                    }
                    (true, false) => (Vec::new(), d1),
                    (false, true) => (Vec::new(), d2),
                    (false, false) => (Vec::new(), delta.clone()),
                };
                *delta = d_next;
                let k = self.stmts(rest, delta, join, end_span);
                Translated {
                    body: Body::If {
                        cond: c,
                        phis,
                        then_br: Box::new(t1.body),
                        else_br: Box::new(t2.body),
                        then_falls: t1.falls,
                        else_falls: t2.falls,
                        rest: Box::new(k.body),
                        span: *span,
                    },
                    falls: k.falls && (t1.falls || t2.falls),
                }
            }
            Stmt::While { cond, body, span } => {
                // Φ-variables: every in-scope variable assigned in the body.
                let mut assigned = BTreeSet::new();
                collect_assigned(&body.stmts, &mut assigned);
                // Only in-scope variables can be loop Φ-variables.
                assigned.retain(|x| delta.in_scope(x));
                let mut d_loop = delta.clone();
                let mut proto_phis: Vec<(Sym, Sym, Sym)> = Vec::new(); // (source, new, init)
                for x in &assigned {
                    let init = delta.lookup(x);
                    let nx = self.fresh(x);
                    d_loop.bind(*x, nx);
                    proto_phis.push((*x, nx, init));
                }
                let c = self.expr(cond, &mut d_loop);
                let mut d_body = d_loop.clone();
                let tb = self.stmts(&body.stmts, &mut d_body, JoinKind::Branch, *span);
                let phis: Vec<LoopPhi> = proto_phis
                    .into_iter()
                    .map(|(source, new, init_src)| LoopPhi {
                        body_src: if tb.falls {
                            Some(d_body.lookup(&source))
                        } else {
                            None
                        },
                        new,
                        init_src,
                        source,
                    })
                    .collect();
                // After the loop the Φ names are current.
                for p in &phis {
                    delta.bind(p.source, p.new);
                }
                let k = self.stmts(rest, delta, join, end_span);
                Translated {
                    body: Body::Loop {
                        phis,
                        cond: c,
                        body: Box::new(tb.body),
                        rest: Box::new(k.body),
                        span: *span,
                    },
                    falls: k.falls,
                }
            }
        }
    }

    /// Expression translation (rule S-VAR renames through δ; everything
    /// else is structural).
    pub fn expr(&mut self, e: &Expr, delta: &mut SsaEnv) -> IrExpr {
        match e {
            Expr::Num(n, s) => IrExpr::Num(*n, *s),
            Expr::Bv(n, s) => IrExpr::Bv(*n, *s),
            Expr::Str(x, s) => IrExpr::Str(x.clone(), *s),
            Expr::Bool(b, s) => IrExpr::Bool(*b, *s),
            Expr::Null(s) => IrExpr::Null(*s),
            Expr::Undefined(s) => IrExpr::Undefined(*s),
            Expr::This(s) => IrExpr::This(*s),
            Expr::Var(x, s) => IrExpr::Var(delta.lookup(x), *s),
            Expr::Field(b, f, s) => IrExpr::Field(Box::new(self.expr(b, delta)), *f, *s),
            Expr::Index(a, i, s) => IrExpr::Index(
                Box::new(self.expr(a, delta)),
                Box::new(self.expr(i, delta)),
                *s,
            ),
            Expr::Call(f, args, s) => IrExpr::Call(
                Box::new(self.expr(f, delta)),
                args.iter().map(|a| self.expr(a, delta)).collect(),
                *s,
            ),
            Expr::New(c, targs, args, s) => IrExpr::New(
                *c,
                targs.clone(),
                args.iter().map(|a| self.expr(a, delta)).collect(),
                *s,
            ),
            Expr::Cast(t, e, s) => IrExpr::Cast(t.clone(), Box::new(self.expr(e, delta)), *s),
            Expr::Unary(op, e, s) => IrExpr::Unary(*op, Box::new(self.expr(e, delta)), *s),
            Expr::Binary(op, a, b, s) => IrExpr::Binary(
                *op,
                Box::new(self.expr(a, delta)),
                Box::new(self.expr(b, delta)),
                *s,
            ),
            Expr::Ternary(c, t, e, s) => {
                // Ternaries translate to a conditional expression; we keep
                // them as a Call to the built-in `$ite` for checking, or
                // more simply as a Binary-like structure. We model them
                // structurally via nested IrExpr::Call on `$ite`? No —
                // keep a dedicated encoding: cond ? t : e becomes
                // Call(Var("$ite"), [c, t, e]) would lose laziness; both
                // sides are pure in our fragment, so we keep evaluation
                // order but note the checker types it path-sensitively.
                IrExpr::Call(
                    Box::new(IrExpr::Var(Sym::from("$ite"), *s)),
                    vec![
                        self.expr(c, delta),
                        self.expr(t, delta),
                        self.expr(e, delta),
                    ],
                    *s,
                )
            }
            Expr::ArrayLit(es, s) => {
                IrExpr::ArrayLit(es.iter().map(|x| self.expr(x, delta)).collect(), *s)
            }
        }
    }
}

/// Collects source variables assigned (via `x = …`, `x++`, …) anywhere in
/// a statement list, including nested blocks and loops — the candidates
/// for loop Φ-variables. Variable *declarations* in the body shadow rather
/// than assign, so they are excluded.
fn collect_assigned(stmts: &[Stmt], out: &mut BTreeSet<Sym>) {
    let mut declared: BTreeSet<Sym> = BTreeSet::new();
    collect_assigned_inner(stmts, out, &mut declared);
}

fn collect_assigned_inner(stmts: &[Stmt], out: &mut BTreeSet<Sym>, declared: &mut BTreeSet<Sym>) {
    for s in stmts {
        match s {
            Stmt::VarDecl { name, .. } => {
                declared.insert(*name);
            }
            Stmt::Assign {
                target: LValue::Var(x, _),
                ..
            } if !declared.contains(x) => {
                out.insert(*x);
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_assigned_inner(&then_blk.stmts, out, declared);
                collect_assigned_inner(&else_blk.stmts, out, declared);
            }
            Stmt::While { body, .. } => collect_assigned_inner(&body.stmts, out, declared),
            Stmt::Seq(ss, _) => collect_assigned_inner(ss, out, declared),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_syntax::parse_program;

    fn ssa_of(src: &str) -> IrProgram {
        transform_program(&parse_program(src).unwrap())
    }

    #[test]
    fn straight_line_let_chain() {
        let p = ssa_of("var x = 1; x = x + 1; var y = x;");
        let mut body = &p.top;
        let mut names = Vec::new();
        while let Body::Let { x, rest, .. } = body {
            names.push(x.to_string());
            body = rest;
        }
        assert_eq!(names.len(), 3);
        // Second let rebinds x with a fresh version.
        assert_ne!(names[0], names[1]);
    }

    #[test]
    fn if_introduces_phis() {
        let p = ssa_of(
            r#"
            function f(c: boolean): number {
                var x = 0;
                if (c) { x = 1; } else { x = 2; }
                return x;
            }
        "#,
        );
        let f = &p.funs[0];
        // body: let x = 0 in letif ...
        let Body::Let { rest, .. } = &f.body else {
            panic!("expected let")
        };
        let Body::If { phis, .. } = rest.as_ref() else {
            panic!("expected if")
        };
        assert_eq!(phis.len(), 1);
        assert_eq!(phis[0].source, "x");
        assert!(phis[0].then_src.is_some() && phis[0].else_src.is_some());
    }

    #[test]
    fn returning_branch_has_no_phi() {
        let p = ssa_of(
            r#"
            function f(c: boolean): number {
                var x = 0;
                if (c) { return 5; } else { x = 2; }
                return x;
            }
        "#,
        );
        let f = &p.funs[0];
        let Body::Let { rest, .. } = &f.body else {
            panic!()
        };
        let Body::If {
            phis,
            then_falls,
            else_falls,
            ..
        } = rest.as_ref()
        else {
            panic!()
        };
        assert!(phis.is_empty());
        assert!(!then_falls);
        assert!(else_falls);
    }

    #[test]
    fn loop_phis_for_reduce() {
        let p = ssa_of(
            r#"
            function reduce<A, B>(a: A[], f: (acc: B, x: A, i: idx<a>) => B, x: B): B {
                var res = x, i;
                for (i = 0; i < a.length; i++) {
                    res = f(res, a[i], i);
                }
                return res;
            }
        "#,
        );
        let f = &p.funs[0];
        // Walk to the loop node.
        fn find_loop(b: &Body) -> Option<&Body> {
            match b {
                Body::Loop { .. } => Some(b),
                Body::Let { rest, .. } | Body::Effect { rest, .. } | Body::LetFun { rest, .. } => {
                    find_loop(rest)
                }
                Body::If {
                    then_br,
                    else_br,
                    rest,
                    ..
                } => find_loop(then_br)
                    .or_else(|| find_loop(else_br))
                    .or_else(|| find_loop(rest)),
                _ => None,
            }
        }
        let Some(Body::Loop { phis, .. }) = find_loop(&f.body) else {
            panic!("no loop found")
        };
        // i and res are both assigned in the loop body.
        let mut sources: Vec<String> = phis.iter().map(|p| p.source.to_string()).collect();
        sources.sort();
        assert_eq!(sources, vec!["i", "res"]);
    }

    #[test]
    fn nested_function_captures_current_names() {
        let p = ssa_of(
            r#"
            function outer(a: number[]): number {
                var n = 1;
                function inner(k: number): number { return n + k; }
                return inner(2);
            }
        "#,
        );
        let f = &p.funs[0];
        let Body::Let { x, rest, .. } = &f.body else {
            panic!()
        };
        let Body::LetFun { fun, .. } = rest.as_ref() else {
            panic!()
        };
        // inner's body must reference the SSA name of n.
        fn mentions(b: &Body, x: &Sym) -> bool {
            fn in_expr(e: &IrExpr, x: &Sym) -> bool {
                match e {
                    IrExpr::Var(y, _) => y == x,
                    IrExpr::Field(b, _, _) => in_expr(b, x),
                    IrExpr::Index(a, i, _) => in_expr(a, x) || in_expr(i, x),
                    IrExpr::Call(f, args, _) => in_expr(f, x) || args.iter().any(|a| in_expr(a, x)),
                    IrExpr::Binary(_, a, b, _) => in_expr(a, x) || in_expr(b, x),
                    IrExpr::Unary(_, a, _) => in_expr(a, x),
                    _ => false,
                }
            }
            match b {
                Body::Ret(Some(e), _) => in_expr(e, x),
                Body::Let { rhs, rest, .. } => in_expr(rhs, x) || mentions(rest, x),
                _ => false,
            }
        }
        assert!(mentions(&fun.body, x), "inner should use SSA name {x}");
    }

    #[test]
    fn top_level_statements_form_entry() {
        let p = ssa_of("var a = 1; var b = a + 1;");
        assert!(matches!(p.top, Body::Let { .. }));
    }
}
