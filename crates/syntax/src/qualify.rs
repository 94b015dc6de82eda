//! Per-module qualification: α-renaming a file's top-level declarations
//! into a module-private namespace before closure merging.
//!
//! A multi-file workspace merges a document's import closure into one
//! program. Plain concatenation puts every file in a single global
//! namespace, so two files declaring `function helper(...)` collide —
//! and a file can accidentally *capture* another module's private
//! helper it never imported. Qualification fixes both: each file's
//! top-level declarations are renamed to `m{id}$name` (where `{id}` is
//! a stable 64-bit hash of the file's workspace key — see
//! [`module_id`]) and every reference is rewritten scope-awarely:
//!
//! * references bound locally (parameters, type parameters, hoisted
//!   `var`s and nested functions, refinement value variables) are left
//!   alone;
//! * references to the module's own top-level declarations — or to
//!   names it imports — are rewritten to the declaring module's
//!   qualified name;
//! * references to a name declared only in *other* closure files are a
//!   [`QualifyError`] at the use site (real scoping instead of
//!   accidental capture);
//! * everything else (builtins like `len`, `number`, enum member names,
//!   field and method names) is untouched.
//!
//! The renaming is the identity for a single-file closure (an empty
//! [`ModuleEnv`] with zero shifts reproduces the input program), and
//! module ids depend only on the file's name — never on its position
//! in the closure — so canonical bundle fingerprints survive adding an
//! unrelated module to a closure.
//!
//! Mangled names must never reach the user: [`demangle`] strips the
//! `m{id}$` prefixes from any rendered text (diagnostic messages,
//! dirty-unit names), so diagnostics always show the source name.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;

pub use rsc_logic::Sym;
use rsc_logic::{Pred, Term};

use crate::ast::{
    Block, ClassDecl, CtorDecl, DeclareDecl, EnumDecl, Expr, FieldDecl, FunDecl, InterfaceDecl,
    Item, LValue, MethodDecl, Program, QualifDecl, Stmt, TypeAlias,
};
use crate::span::Span;
use crate::types::{AnnArg, AnnTy, FunTy};

/// The module id of a workspace file: `m` followed by the 64-bit
/// `DefaultHasher` hash of the file's workspace key (URI or path),
/// in fixed-width hex. Content- and position-independent: the id of
/// `lib.rsc` never changes when other files join or leave the closure,
/// which is what keeps retained bundle fingerprints stable.
pub fn module_id(key: &str) -> String {
    let mut h = DefaultHasher::new();
    h.write(key.as_bytes());
    format!("m{:016x}", h.finish())
}

/// The qualified form of a top-level name: `{id}${name}` (`$` is a
/// legal identifier character, so qualified programs re-parse).
pub fn qualified_name(id: &str, name: &str) -> String {
    format!("{id}${name}")
}

/// Strips every `m{id}$` prefix in `ids` from `text`, restoring source
/// names in user-visible renderings (diagnostic messages and notes,
/// dirty-unit names). Applied at the presentation boundary only — the
/// checked program itself stays qualified.
pub fn demangle(text: &str, ids: &[String]) -> String {
    let mut out = text.to_string();
    for id in ids {
        let pat = format!("{id}$");
        if out.contains(pat.as_str()) {
            out = out.replace(pat.as_str(), "");
        }
    }
    out
}

/// Names a file declares at top level (and therefore owns): type
/// aliases, classes, interfaces, enums, functions, ambient declares,
/// and `var`s hoisted from top-level statements. Qualifier declaration
/// names are *not* included — they are labels for qualifier mining,
/// not referenceable values.
pub fn top_level_decls(p: &Program) -> Vec<Sym> {
    let mut out = Vec::new();
    for item in &p.items {
        match item {
            Item::TypeAlias(a) => out.push(a.name),
            Item::Qualif(_) => {}
            Item::Class(c) => out.push(c.name),
            Item::Interface(i) => out.push(i.name),
            Item::Enum(e) => out.push(e.name),
            Item::Fun(f) => out.push(f.name),
            Item::Declare(d) => out.push(d.name),
            Item::Stmt(s) => hoisted_decls(std::slice::from_ref(s), &mut out),
        }
    }
    out
}

/// Collects `var` and nested-function names hoisted to the enclosing
/// function (or module) scope: through `Seq` groups and `if`/`while`
/// blocks, but never into nested function bodies.
fn hoisted_decls(stmts: &[Stmt], out: &mut Vec<Sym>) {
    for s in stmts {
        match s {
            Stmt::VarDecl { name, .. } => out.push(*name),
            Stmt::Fun(f) => out.push(f.name),
            Stmt::Seq(ss, _) => hoisted_decls(ss, out),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                hoisted_decls(&then_blk.stmts, out);
                hoisted_decls(&else_blk.stmts, out);
            }
            Stmt::While { body, .. } => hoisted_decls(&body.stmts, out),
            _ => {}
        }
    }
}

/// One file's renaming environment inside a closure.
#[derive(Clone, Debug, Default)]
pub struct ModuleEnv {
    /// Original name → qualified name: the module's own top-level
    /// declarations (qualified with its own id) plus its imports
    /// (qualified with the exporter's id). An own declaration shadows
    /// an import of the same name (import-then-shadow).
    pub renames: BTreeMap<Sym, Sym>,
    /// Names declared at top level only in *other* closure files and
    /// neither declared nor imported here, mapped to the declaring
    /// file's name. Referencing one is a [`QualifyError`].
    pub foreign: BTreeMap<Sym, String>,
}

/// A reference to another module's name without an import — the use
/// site's error, in the *file-local, pre-shift* coordinates of the
/// referencing file.
#[derive(Clone, Debug)]
pub struct QualifyError {
    /// The source name as written.
    pub name: Sym,
    /// Use-site span in the referencing file's own coordinates.
    pub span: Span,
    /// The file that declares the name.
    pub from: String,
}

/// Qualifies one file's items for a merged closure: renames per `env`,
/// and shifts every non-dummy span by `shift` bytes / `lines` lines so
/// spans keep pointing at the file's region of the merged text.
/// Returns the rewritten items, or the first foreign reference.
pub fn qualify_program(
    p: &Program,
    env: &ModuleEnv,
    shift: u32,
    lines: u32,
) -> Result<Vec<Item>, QualifyError> {
    let r = Renamer { env, shift, lines };
    let mut scope = Vec::new();
    p.items.iter().map(|it| r.item(it, &mut scope)).collect()
}

/// Lexical scope during renaming: a stack of locally-bound names.
/// Scopes are small (parameters + hoisted locals), so linear search is
/// fine.
type Scope = Vec<Sym>;

fn bound(scope: &Scope, s: &Sym) -> bool {
    scope.iter().any(|n| n == s)
}

struct Renamer<'a> {
    env: &'a ModuleEnv,
    shift: u32,
    lines: u32,
}

impl Renamer<'_> {
    fn span(&self, s: Span) -> Span {
        if s.is_dummy() {
            s
        } else {
            Span {
                lo: s.lo + self.shift,
                hi: s.hi + self.shift,
                line: s.line + self.lines,
            }
        }
    }

    /// Renames a *reference* according to the scope rules. `at` is the
    /// original (pre-shift) use-site span for error reporting; type and
    /// predicate positions carry no spans of their own and pass the
    /// nearest enclosing construct's span.
    fn name(&self, s: &Sym, scope: &Scope, at: Span) -> Result<Sym, QualifyError> {
        if bound(scope, s) {
            return Ok(*s);
        }
        if let Some(q) = self.env.renames.get(s) {
            return Ok(*q);
        }
        if let Some(from) = self.env.foreign.get(s) {
            return Err(QualifyError {
                name: *s,
                span: at,
                from: from.clone(),
            });
        }
        Ok(*s)
    }

    /// Renames a top-level *declaration* name (always through
    /// `renames`; top-level declarations are what `renames` is built
    /// from, so the lookup cannot hit `foreign`).
    fn decl(&self, s: &Sym) -> Sym {
        self.env.renames.get(s).cloned().unwrap_or(*s)
    }

    fn item(&self, item: &Item, scope: &mut Scope) -> Result<Item, QualifyError> {
        Ok(match item {
            Item::TypeAlias(a) => {
                let mark = scope.len();
                scope.extend(a.params.iter().cloned());
                let body = self.ty(&a.body, scope, a.span)?;
                scope.truncate(mark);
                Item::TypeAlias(TypeAlias {
                    name: self.decl(&a.name),
                    params: a.params.clone(),
                    body,
                    span: self.span(a.span),
                })
            }
            Item::Qualif(q) => {
                let mark = scope.len();
                let mut params = Vec::with_capacity(q.params.len());
                for (x, t) in &q.params {
                    params.push((*x, self.ty(t, scope, q.span)?));
                    scope.push(*x);
                }
                let body = self.pred(&q.body, scope, q.span)?;
                scope.truncate(mark);
                // Qualifier names are mining labels, never referenced.
                Item::Qualif(QualifDecl {
                    name: q.name,
                    params,
                    body,
                    span: self.span(q.span),
                })
            }
            Item::Class(c) => Item::Class(self.class(c, scope)?),
            Item::Interface(i) => {
                let mark = scope.len();
                scope.extend(i.tparams.iter().cloned());
                scope.extend(i.fields.iter().map(|f| f.name));
                scope.push(Sym::from(rsc_logic::THIS));
                scope.push(Sym::from(rsc_logic::VV));
                let extends = i
                    .extends
                    .iter()
                    .map(|e| self.name(e, scope, i.span))
                    .collect::<Result<Vec<_>, _>>()?;
                let fields = i
                    .fields
                    .iter()
                    .map(|f| self.field(f, scope))
                    .collect::<Result<Vec<_>, _>>()?;
                let methods = i
                    .methods
                    .iter()
                    .map(|m| self.method(m, scope))
                    .collect::<Result<Vec<_>, _>>()?;
                scope.truncate(mark);
                Item::Interface(InterfaceDecl {
                    name: self.decl(&i.name),
                    tparams: i.tparams.clone(),
                    extends,
                    fields,
                    methods,
                    span: self.span(i.span),
                })
            }
            Item::Enum(e) => Item::Enum(EnumDecl {
                name: self.decl(&e.name),
                members: e.members.clone(),
                span: self.span(e.span),
            }),
            Item::Fun(f) => Item::Fun(self.fun(f, scope, true)?),
            Item::Declare(d) => Item::Declare(DeclareDecl {
                name: self.decl(&d.name),
                ty: self.ty(&d.ty, scope, d.span)?,
                span: self.span(d.span),
            }),
            Item::Stmt(s) => Item::Stmt(self.stmt(s, scope, true)?),
        })
    }

    fn class(&self, c: &ClassDecl, scope: &mut Scope) -> Result<ClassDecl, QualifyError> {
        let mark = scope.len();
        scope.extend(c.tparams.iter().cloned());
        scope.extend(c.fields.iter().map(|f| f.name));
        scope.push(Sym::from(rsc_logic::THIS));
        scope.push(Sym::from(rsc_logic::VV));
        let extends = match &c.extends {
            Some(sup) => Some(self.name(sup, scope, c.span)?),
            None => None,
        };
        let invariant = match &c.invariant {
            Some(p) => Some(self.pred(p, scope, c.span)?),
            None => None,
        };
        let fields = c
            .fields
            .iter()
            .map(|f| self.field(f, scope))
            .collect::<Result<Vec<_>, _>>()?;
        let ctor = match &c.ctor {
            Some(ct) => {
                let cm = scope.len();
                let mut params = Vec::with_capacity(ct.params.len());
                for (x, t) in &ct.params {
                    params.push((*x, self.ty(t, scope, ct.span)?));
                    scope.push(*x);
                }
                let body = self.body_block(&ct.body, scope)?;
                scope.truncate(cm);
                Some(CtorDecl {
                    params,
                    body,
                    span: self.span(ct.span),
                })
            }
            None => None,
        };
        let methods = c
            .methods
            .iter()
            .map(|m| self.method(m, scope))
            .collect::<Result<Vec<_>, _>>()?;
        scope.truncate(mark);
        Ok(ClassDecl {
            name: self.decl(&c.name),
            tparams: c.tparams.clone(),
            extends,
            invariant,
            fields,
            ctor,
            methods,
            span: self.span(c.span),
        })
    }

    fn field(&self, f: &FieldDecl, scope: &mut Scope) -> Result<FieldDecl, QualifyError> {
        Ok(FieldDecl {
            name: f.name,
            mutability: f.mutability,
            ty: self.ty(&f.ty, scope, f.span)?,
            span: self.span(f.span),
        })
    }

    fn method(&self, m: &MethodDecl, scope: &mut Scope) -> Result<MethodDecl, QualifyError> {
        let sig = self.fun_ty(&m.sig, scope, m.span)?;
        let body = match &m.body {
            Some(b) => {
                let mark = scope.len();
                scope.extend(m.sig.tparams.iter().cloned());
                scope.extend(m.sig.params.iter().map(|(x, _)| *x));
                let out = self.body_block(b, scope)?;
                scope.truncate(mark);
                Some(out)
            }
            None => None,
        };
        Ok(MethodDecl {
            name: m.name,
            recv: m.recv,
            sig,
            body,
            span: self.span(m.span),
        })
    }

    /// Renames a function declaration. `top` marks module scope: the
    /// function's name is a module declaration there (renamed), while a
    /// nested function's name is a local already bound by the enclosing
    /// body's hoisting.
    fn fun(&self, f: &FunDecl, scope: &mut Scope, top: bool) -> Result<FunDecl, QualifyError> {
        let sigs = f
            .sigs
            .iter()
            .map(|s| self.fun_ty(s, scope, f.span))
            .collect::<Result<Vec<_>, _>>()?;
        let mark = scope.len();
        for s in &f.sigs {
            scope.extend(s.tparams.iter().cloned());
        }
        scope.extend(f.params.iter().cloned());
        let body = self.body_block(&f.body, scope)?;
        scope.truncate(mark);
        Ok(FunDecl {
            name: if top { self.decl(&f.name) } else { f.name },
            sigs,
            params: f.params.clone(),
            body,
            span: self.span(f.span),
        })
    }

    /// A function/constructor body: binds the body's hoisted `var` and
    /// nested-function names before renaming its statements.
    fn body_block(&self, b: &Block, scope: &mut Scope) -> Result<Block, QualifyError> {
        let mark = scope.len();
        let mut hoisted = Vec::new();
        hoisted_decls(&b.stmts, &mut hoisted);
        scope.extend(hoisted);
        let out = self.block(b, scope, false)?;
        scope.truncate(mark);
        Ok(out)
    }

    fn block(&self, b: &Block, scope: &mut Scope, top: bool) -> Result<Block, QualifyError> {
        Ok(Block {
            stmts: b
                .stmts
                .iter()
                .map(|s| self.stmt(s, scope, top))
                .collect::<Result<Vec<_>, _>>()?,
            span: self.span(b.span),
        })
    }

    fn stmt(&self, s: &Stmt, scope: &mut Scope, top: bool) -> Result<Stmt, QualifyError> {
        Ok(match s {
            Stmt::VarDecl {
                name,
                ann,
                init,
                span,
            } => Stmt::VarDecl {
                // At module scope a `var` is a module declaration; in a
                // body it is a local (already bound via hoisting).
                name: if top { self.decl(name) } else { *name },
                ann: match ann {
                    Some(t) => Some(self.ty(t, scope, *span)?),
                    None => None,
                },
                init: self.expr(init, scope)?,
                span: self.span(*span),
            },
            Stmt::Assign {
                target,
                value,
                span,
            } => Stmt::Assign {
                target: match target {
                    LValue::Var(x, sp) => LValue::Var(self.name(x, scope, *sp)?, self.span(*sp)),
                    LValue::Field(e, f, sp) => {
                        LValue::Field(self.expr(e, scope)?, *f, self.span(*sp))
                    }
                    LValue::Index(a, i, sp) => {
                        LValue::Index(self.expr(a, scope)?, self.expr(i, scope)?, self.span(*sp))
                    }
                },
                value: self.expr(value, scope)?,
                span: self.span(*span),
            },
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            } => Stmt::If {
                cond: self.expr(cond, scope)?,
                then_blk: self.block(then_blk, scope, top)?,
                else_blk: self.block(else_blk, scope, top)?,
                span: self.span(*span),
            },
            Stmt::While { cond, body, span } => Stmt::While {
                cond: self.expr(cond, scope)?,
                body: self.block(body, scope, top)?,
                span: self.span(*span),
            },
            Stmt::Return { value, span } => Stmt::Return {
                value: match value {
                    Some(e) => Some(self.expr(e, scope)?),
                    None => None,
                },
                span: self.span(*span),
            },
            Stmt::ExprStmt { expr, span } => Stmt::ExprStmt {
                expr: self.expr(expr, scope)?,
                span: self.span(*span),
            },
            Stmt::Fun(f) => Stmt::Fun(self.fun(f, scope, top)?),
            Stmt::Seq(ss, span) => Stmt::Seq(
                ss.iter()
                    .map(|s| self.stmt(s, scope, top))
                    .collect::<Result<Vec<_>, _>>()?,
                self.span(*span),
            ),
            Stmt::Skip(span) => Stmt::Skip(self.span(*span)),
        })
    }

    fn expr(&self, e: &Expr, scope: &mut Scope) -> Result<Expr, QualifyError> {
        Ok(match e {
            Expr::Num(n, sp) => Expr::Num(*n, self.span(*sp)),
            Expr::Bv(n, sp) => Expr::Bv(*n, self.span(*sp)),
            Expr::Str(s, sp) => Expr::Str(s.clone(), self.span(*sp)),
            Expr::Bool(b, sp) => Expr::Bool(*b, self.span(*sp)),
            Expr::Null(sp) => Expr::Null(self.span(*sp)),
            Expr::Undefined(sp) => Expr::Undefined(self.span(*sp)),
            Expr::Var(x, sp) => Expr::Var(self.name(x, scope, *sp)?, self.span(*sp)),
            Expr::This(sp) => Expr::This(self.span(*sp)),
            Expr::Field(b, f, sp) => {
                Expr::Field(Box::new(self.expr(b, scope)?), *f, self.span(*sp))
            }
            Expr::Index(a, i, sp) => Expr::Index(
                Box::new(self.expr(a, scope)?),
                Box::new(self.expr(i, scope)?),
                self.span(*sp),
            ),
            Expr::Call(f, args, sp) => Expr::Call(
                Box::new(self.expr(f, scope)?),
                args.iter()
                    .map(|a| self.expr(a, scope))
                    .collect::<Result<Vec<_>, _>>()?,
                self.span(*sp),
            ),
            Expr::New(c, targs, args, sp) => Expr::New(
                self.name(c, scope, *sp)?,
                targs
                    .iter()
                    .map(|t| self.ty(t, scope, *sp))
                    .collect::<Result<Vec<_>, _>>()?,
                args.iter()
                    .map(|a| self.expr(a, scope))
                    .collect::<Result<Vec<_>, _>>()?,
                self.span(*sp),
            ),
            Expr::Cast(t, e, sp) => Expr::Cast(
                self.ty(t, scope, *sp)?,
                Box::new(self.expr(e, scope)?),
                self.span(*sp),
            ),
            Expr::Unary(op, e, sp) => {
                Expr::Unary(*op, Box::new(self.expr(e, scope)?), self.span(*sp))
            }
            Expr::Binary(op, a, b, sp) => Expr::Binary(
                *op,
                Box::new(self.expr(a, scope)?),
                Box::new(self.expr(b, scope)?),
                self.span(*sp),
            ),
            Expr::Ternary(c, t, f, sp) => Expr::Ternary(
                Box::new(self.expr(c, scope)?),
                Box::new(self.expr(t, scope)?),
                Box::new(self.expr(f, scope)?),
                self.span(*sp),
            ),
            Expr::ArrayLit(es, sp) => Expr::ArrayLit(
                es.iter()
                    .map(|e| self.expr(e, scope))
                    .collect::<Result<Vec<_>, _>>()?,
                self.span(*sp),
            ),
        })
    }

    /// Surface types carry no spans; `ctx` is the nearest enclosing
    /// construct's original span, used to place foreign-reference
    /// errors.
    fn ty(&self, t: &AnnTy, scope: &mut Scope, ctx: Span) -> Result<AnnTy, QualifyError> {
        Ok(match t {
            AnnTy::Name(n, args) => AnnTy::Name(
                self.name(n, scope, ctx)?,
                args.iter()
                    .map(|a| {
                        Ok(match a {
                            AnnArg::Ty(t) => AnnArg::Ty(self.ty(t, scope, ctx)?),
                            AnnArg::Term(t) => AnnArg::Term(self.term(t, scope, ctx)?),
                            AnnArg::Mut(m) => AnnArg::Mut(*m),
                        })
                    })
                    .collect::<Result<Vec<_>, QualifyError>>()?,
            ),
            AnnTy::Refined { vv, base, pred } => {
                let base = Box::new(self.ty(base, scope, ctx)?);
                let mark = scope.len();
                scope.push(*vv);
                let pred = self.pred(pred, scope, ctx)?;
                scope.truncate(mark);
                AnnTy::Refined {
                    vv: *vv,
                    base,
                    pred,
                }
            }
            AnnTy::Array {
                elem,
                mutability,
                nonempty,
            } => AnnTy::Array {
                elem: Box::new(self.ty(elem, scope, ctx)?),
                mutability: *mutability,
                nonempty: *nonempty,
            },
            AnnTy::Union(ts) => AnnTy::Union(
                ts.iter()
                    .map(|t| self.ty(t, scope, ctx))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            AnnTy::Arrow(ft) => AnnTy::Arrow(self.fun_ty(ft, scope, ctx)?),
        })
    }

    fn fun_ty(&self, ft: &FunTy, scope: &mut Scope, ctx: Span) -> Result<FunTy, QualifyError> {
        let mark = scope.len();
        scope.extend(ft.tparams.iter().cloned());
        let mut params = Vec::with_capacity(ft.params.len());
        // Dependent signatures: later parameter types (and the return
        // type) may mention earlier parameter names.
        for (x, t) in &ft.params {
            params.push((*x, self.ty(t, scope, ctx)?));
            scope.push(*x);
        }
        let ret = Box::new(self.ty(&ft.ret, scope, ctx)?);
        scope.truncate(mark);
        Ok(FunTy {
            tparams: ft.tparams.clone(),
            params,
            ret,
        })
    }

    fn pred(&self, p: &Pred, scope: &mut Scope, ctx: Span) -> Result<Pred, QualifyError> {
        Ok(match p {
            Pred::True => Pred::True,
            Pred::False => Pred::False,
            Pred::And(ps) => Pred::And(
                ps.iter()
                    .map(|p| self.pred(p, scope, ctx))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Pred::Or(ps) => Pred::Or(
                ps.iter()
                    .map(|p| self.pred(p, scope, ctx))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Pred::Not(p) => Pred::Not(Box::new(self.pred(p, scope, ctx)?)),
            Pred::Imp(a, b) => Pred::Imp(
                Box::new(self.pred(a, scope, ctx)?),
                Box::new(self.pred(b, scope, ctx)?),
            ),
            Pred::Iff(a, b) => Pred::Iff(
                Box::new(self.pred(a, scope, ctx)?),
                Box::new(self.pred(b, scope, ctx)?),
            ),
            Pred::Cmp(op, a, b) => {
                Pred::Cmp(*op, self.term(a, scope, ctx)?, self.term(b, scope, ctx)?)
            }
            Pred::App(h, args) => Pred::App(
                self.name(h, scope, ctx)?,
                args.iter()
                    .map(|t| self.term(t, scope, ctx))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Pred::TermPred(t) => Pred::TermPred(self.term(t, scope, ctx)?),
            // κ-variables never occur in parsed surface predicates.
            Pred::KVar(id, subst) => Pred::KVar(*id, subst.clone()),
        })
    }

    fn term(&self, t: &Term, scope: &mut Scope, ctx: Span) -> Result<Term, QualifyError> {
        Ok(match t {
            Term::Var(x) => Term::Var(self.name(x, scope, ctx)?),
            Term::IntLit(_) | Term::BoolLit(_) | Term::StrLit(_) | Term::BvLit(_) => t.clone(),
            Term::Field(b, f) => Term::Field(Box::new(self.term(b, scope, ctx)?), *f),
            Term::App(h, args) => Term::App(
                self.name(h, scope, ctx)?,
                args.iter()
                    .map(|t| self.term(t, scope, ctx))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Term::Bin(op, a, b) => Term::Bin(
                *op,
                Box::new(self.term(a, scope, ctx)?),
                Box::new(self.term(b, scope, ctx)?),
            ),
            Term::Neg(a) => Term::Neg(Box::new(self.term(a, scope, ctx)?)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    const LIB: &str = "type nat = {v: number | 0 <= v};\n\
        export function step(x: number): nat {\n\
            if (x < 0) { return 0; }\n\
            return x + 1;\n\
        }\n\
        function helper(y: number): number { return y; }\n";

    fn env_for(p: &Program, id: &str) -> ModuleEnv {
        let mut env = ModuleEnv::default();
        for n in top_level_decls(p) {
            let q = Sym::from(qualified_name(id, n.as_str()));
            env.renames.insert(n, q);
        }
        env
    }

    #[test]
    fn module_ids_are_stable_and_distinct() {
        assert_eq!(module_id("lib.rsc"), module_id("lib.rsc"));
        assert_ne!(module_id("lib.rsc"), module_id("app.rsc"));
        assert!(module_id("lib.rsc").len() == 17);
    }

    #[test]
    fn identity_for_empty_env() {
        let p = parse_program(LIB).unwrap();
        let items = qualify_program(&p, &ModuleEnv::default(), 0, 0).unwrap();
        let q = Program {
            items,
            imports: p.imports.clone(),
            exports: p.exports.clone(),
        };
        assert_eq!(crate::pretty::program(&p), crate::pretty::program(&q));
    }

    #[test]
    fn renames_declarations_and_references() {
        let p = parse_program(LIB).unwrap();
        let id = module_id("lib.rsc");
        let env = env_for(&p, &id);
        let items = qualify_program(&p, &env, 0, 0).unwrap();
        let printed = crate::pretty::program(&Program {
            items,
            imports: Vec::new(),
            exports: Vec::new(),
        });
        // Declarations and references are qualified…
        assert!(
            printed.contains(&format!("function {id}$step")),
            "{printed}"
        );
        assert!(printed.contains(&format!("type {id}$nat")), "{printed}");
        assert!(printed.contains(&format!("): {id}$nat")), "{printed}");
        // …while locals and builtins are untouched.
        assert!(printed.contains("(x: number)"), "{printed}");
        assert!(printed.contains("return (x + 1);"), "{printed}");
        // Demangling restores the source text shape.
        let plain = demangle(&printed, &[id]);
        assert!(!plain.contains('$'), "{plain}");
        assert!(plain.contains("function step"), "{plain}");
    }

    #[test]
    fn qualified_programs_reparse() {
        let p = parse_program(LIB).unwrap();
        let env = env_for(&p, &module_id("lib.rsc"));
        let items = qualify_program(&p, &env, 0, 0).unwrap();
        let printed = crate::pretty::program(&Program {
            items,
            imports: Vec::new(),
            exports: Vec::new(),
        });
        parse_program(&printed).unwrap_or_else(|e| panic!("{e}: {printed}"));
    }

    #[test]
    fn foreign_reference_is_an_error_at_the_use_site() {
        let app = "function use(k: number): number { return helper(k); }\n";
        let p = parse_program(app).unwrap();
        let mut env = env_for(&p, &module_id("app.rsc"));
        env.foreign
            .insert(Sym::from("helper"), "lib.rsc".to_string());
        let err = qualify_program(&p, &env, 0, 0).unwrap_err();
        assert_eq!(err.name.as_str(), "helper");
        assert_eq!(err.from, "lib.rsc");
        // The use-site span points at `helper` in the caller's own text.
        assert_eq!(&app[err.span.lo as usize..err.span.hi as usize], "helper");
    }

    #[test]
    fn locals_shadow_module_names() {
        // A parameter named like a foreign declaration is a local, not a
        // foreign reference.
        let src = "function f(helper: number): number { return helper; }\n";
        let p = parse_program(src).unwrap();
        let mut env = ModuleEnv::default();
        env.foreign
            .insert(Sym::from("helper"), "lib.rsc".to_string());
        assert!(qualify_program(&p, &env, 0, 0).is_ok());
    }

    #[test]
    fn spans_shift_into_the_merged_region() {
        let p = parse_program(LIB).unwrap();
        let env = env_for(&p, &module_id("lib.rsc"));
        let items = qualify_program(&p, &env, 100, 7).unwrap();
        let Item::TypeAlias(a) = &items[0] else {
            panic!("first item is the alias");
        };
        let Item::TypeAlias(orig) = &p.items[0] else {
            panic!("first item is the alias");
        };
        assert_eq!(a.span.lo, orig.span.lo + 100);
        assert_eq!(a.span.line, orig.span.line + 7);
    }
}
