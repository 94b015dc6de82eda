//! A recursive-descent parser with token-level backtracking for the RSC
//! input language.
//!
//! The parser bounds the depth of the tree it builds at [`MAX_DEPTH`]:
//! every pass after it (SSA, constraint generation, the printers)
//! recurses over the tree, so deeper input is answered with one parse
//! error at the token that crosses the bound, not a stack overflow. Each
//! nested statement, block, expression, type, refinement predicate and
//! logical term counts one level, and so does each operand folded into a
//! left-associative chain (`a + b + c`, `a.f.g`, `T[][]`): the folded
//! tree leans one level deeper per operand.

use rsc_logic::{BinOp, CmpOp, Pred, Sym, Term};

use crate::ast::*;
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Tok, Token};
use crate::types::{AnnArg, AnnTy, FunTy, Mutability};

/// A parse error with position information.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// The deepest tree the parser builds (module docs). A release build
/// checks every nesting shape at this depth, at `--jobs 1` and at
/// `--jobs 4`. Without the bound it overflows the 8 MiB main thread at
/// about 2,700 nested parentheses (in the parser) and 2,300 `else if`
/// arms (in SSA).
pub const MAX_DEPTH: usize = 1000;

/// Parses a complete RSC program.
pub fn parse_program(src: &str) -> PResult<Program> {
    let _sp = rsc_obs::span!("parse");
    Parser::new(src)?.program()
}

/// Parses a type annotation in isolation (used by tests and tools).
pub fn parse_type(src: &str) -> PResult<AnnTy> {
    let mut p = Parser::new(src)?;
    let t = p.ty()?;
    p.expect(Tok::Eof)?;
    Ok(t)
}

/// Parses a predicate in isolation.
pub fn parse_pred(src: &str) -> PResult<Pred> {
    let mut p = Parser::new(src)?;
    let q = p.pred()?;
    p.expect(Tok::Eof)?;
    Ok(q)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Overload signatures awaiting their function, in declaration
    /// order. A `Vec` rather than a map: when several sigs dangle at end
    /// of input, the error must deterministically blame the
    /// first-declared one (a hash map's iteration order would pick an
    /// arbitrary sig per run).
    pending_sigs: Vec<(Sym, Span, Vec<FunTy>)>,
    imports: Vec<ImportDecl>,
    exports: Vec<(Sym, Span)>,
    /// Nesting depth of the construct being parsed (module docs).
    depth: usize,
    /// Set once the input crossed [`MAX_DEPTH`]: a backtracking site
    /// then propagates the error instead of trying another parse.
    too_deep: bool,
}

impl Parser {
    fn new(src: &str) -> PResult<Parser> {
        let toks = lex(src).map_err(|e| ParseError {
            message: e.message,
            span: e.span,
        })?;
        Ok(Parser {
            toks,
            pos: 0,
            pending_sigs: Vec::new(),
            imports: Vec::new(),
            exports: Vec::new(),
            depth: 0,
            too_deep: false,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_at(&self, k: usize) -> &Tok {
        let i = (self.pos + k).min(self.toks.len() - 1);
        &self.toks[i].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok) -> bool {
        if *self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> PResult<Span> {
        if *self.peek() == t {
            let s = self.span();
            self.bump();
            Ok(s)
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            span: self.span(),
        }
    }

    /// Enters one more nesting level, failing at the current token when
    /// that crosses [`MAX_DEPTH`]. Callers restore `depth` when the
    /// construct ends.
    fn descend(&mut self) -> PResult<()> {
        if self.depth >= MAX_DEPTH {
            self.too_deep = true;
            return Err(self.err(format!(
                "nesting deeper than {MAX_DEPTH} levels; split the construct"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parses `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        let depth = self.depth;
        self.descend()?;
        let r = f(self);
        self.depth = depth;
        r
    }

    /// Binary operators over `operand` that bind at least as tightly as
    /// `min`, by precedence climbing: `op_of` gives each operator token its
    /// precedence (higher binds tighter; every level is left-associative)
    /// and `fold` builds the node. Each folded operand counts one nesting
    /// level until the chain ends.
    fn climb<T, O>(
        &mut self,
        min: u8,
        operand: fn(&mut Self) -> PResult<T>,
        op_of: fn(&Tok) -> Option<(u8, O)>,
        fold: fn(T, O, T) -> T,
    ) -> PResult<T> {
        let depth = self.depth;
        let mut l = operand(self)?;
        while let Some((prec, op)) = op_of(self.peek()).filter(|(prec, _)| *prec >= min) {
            self.descend()?;
            self.bump();
            let r = self.climb(prec + 1, operand, op_of, fold)?;
            l = fold(l, op, r);
        }
        self.depth = depth;
        Ok(l)
    }

    fn ident(&mut self) -> PResult<Sym> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(Sym::from(s))
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    // ---------------------------------------------------------- program ---

    fn program(&mut self) -> PResult<Program> {
        let mut items = Vec::new();
        while *self.peek() != Tok::Eof {
            if let Some(item) = self.item()? {
                items.push(item);
            }
        }
        if let Some((name, span, _)) = self.pending_sigs.first() {
            // Deterministic: blame the *first-declared* dangling sig, at
            // its own location (not wherever the parser happens to be).
            return Err(ParseError {
                message: format!("sig for `{name}` has no matching function"),
                span: *span,
            });
        }
        Ok(Program {
            items,
            imports: std::mem::take(&mut self.imports),
            exports: std::mem::take(&mut self.exports),
        })
    }

    fn item(&mut self) -> PResult<Option<Item>> {
        match self.peek() {
            Tok::Type => Ok(Some(Item::TypeAlias(self.type_alias()?))),
            Tok::Qualif => Ok(Some(Item::Qualif(self.qualif_decl()?))),
            Tok::Class => Ok(Some(Item::Class(self.class_decl()?))),
            Tok::Interface => Ok(Some(Item::Interface(self.interface_decl()?))),
            Tok::Enum => Ok(Some(Item::Enum(self.enum_decl()?))),
            Tok::Declare => Ok(Some(Item::Declare(self.declare_decl()?))),
            Tok::Import => {
                self.import_decl()?;
                Ok(None)
            }
            Tok::Export => self.export_item(),
            Tok::Sig => {
                self.sig_decl()?;
                Ok(None)
            }
            Tok::Function => Ok(Some(Item::Fun(self.fun_decl()?))),
            _ => Ok(Some(Item::Stmt(self.stmt()?))),
        }
    }

    /// `import {a, b} from "./mod";` — recorded on the [`Program`], not
    /// as an item: the checker ignores imports (the workspace layer
    /// resolves them before checking).
    fn import_decl(&mut self) -> PResult<()> {
        let lo = self.expect(Tok::Import)?;
        self.expect(Tok::LBrace)?;
        let mut names = Vec::new();
        while *self.peek() != Tok::RBrace {
            let nspan = self.span();
            let name = self.ident()?;
            names.push((name, nspan));
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RBrace)?;
        // `from` is contextual (it stays a valid identifier elsewhere).
        match self.peek().clone() {
            Tok::Ident(s) if s == "from" => {
                self.bump();
            }
            other => return Err(self.err(format!("expected `from`, found `{other}`"))),
        }
        let from = match self.peek().clone() {
            Tok::Str(s) => {
                self.bump();
                s
            }
            other => {
                return Err(self.err(format!(
                    "expected module string after `from`, found `{other}`"
                )))
            }
        };
        let hi = self.expect(Tok::Semi)?;
        self.imports.push(ImportDecl {
            names,
            from,
            span: lo.to(hi),
        });
        Ok(())
    }

    /// `export <item>` — parses the item and records its name in the
    /// program's export list. Only named declarations can be exported.
    fn export_item(&mut self) -> PResult<Option<Item>> {
        let lo = self.expect(Tok::Export)?;
        if matches!(self.peek(), Tok::Sig | Tok::Import | Tok::Export) {
            return Err(self.err("`export` must precede a named declaration".into()));
        }
        let item = self.item()?;
        let (name, span) = match &item {
            Some(Item::Fun(f)) => (f.name, f.span),
            Some(Item::Class(c)) => (c.name, c.span),
            Some(Item::TypeAlias(a)) => (a.name, a.span),
            Some(Item::Interface(i)) => (i.name, i.span),
            Some(Item::Enum(e)) => (e.name, e.span),
            Some(Item::Declare(d)) => (d.name, d.span),
            Some(Item::Qualif(q)) => (q.name, q.span),
            Some(Item::Stmt(_)) | None => {
                return Err(ParseError {
                    message: "`export` must precede a named declaration \
                              (function, class, type, interface, enum, declare, qualif)"
                        .into(),
                    span: lo,
                })
            }
        };
        self.exports.push((name, lo.to(span)));
        Ok(item)
    }

    fn type_alias(&mut self) -> PResult<TypeAlias> {
        let lo = self.expect(Tok::Type)?;
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.eat(Tok::Lt) {
            loop {
                params.push(self.ident()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::Gt)?;
        }
        self.expect(Tok::Assign)?;
        let body = self.ty()?;
        let hi = self.expect(Tok::Semi)?;
        Ok(TypeAlias {
            name,
            params,
            body,
            span: lo.to(hi),
        })
    }

    fn qualif_decl(&mut self) -> PResult<QualifDecl> {
        let lo = self.expect(Tok::Qualif)?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        while *self.peek() != Tok::RParen {
            let x = self.ident()?;
            self.expect(Tok::Colon)?;
            let t = self.ty()?;
            params.push((x, t));
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Colon)?;
        let body = self.pred()?;
        let hi = self.expect(Tok::Semi)?;
        Ok(QualifDecl {
            name,
            params,
            body,
            span: lo.to(hi),
        })
    }

    fn enum_decl(&mut self) -> PResult<EnumDecl> {
        let lo = self.expect(Tok::Enum)?;
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut members = Vec::new();
        while *self.peek() != Tok::RBrace {
            let m = self.ident()?;
            self.expect(Tok::Assign)?;
            let v = self.enum_value()?;
            members.push((m, v));
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        let hi = self.expect(Tok::RBrace)?;
        Ok(EnumDecl {
            name,
            members,
            span: lo.to(hi),
        })
    }

    /// Enum member values: hex/int literals possibly or-ed together, and
    /// references to earlier members (`Object = Class | Interface`).
    fn enum_value(&mut self) -> PResult<u32> {
        // We parse a small constant expression over | of literals and
        // previously unknown idents resolved later — for simplicity only
        // literals and `|` of literals are supported here; ports
        // pre-compute combined flags.
        let mut v = self.enum_atom()?;
        while self.eat(Tok::Pipe) {
            v |= self.enum_atom()?;
        }
        Ok(v)
    }

    fn enum_atom(&mut self) -> PResult<u32> {
        match self.peek().clone() {
            Tok::Hex(v) => {
                self.bump();
                Ok(v)
            }
            Tok::Int(v) => {
                self.bump();
                u32::try_from(v).map_err(|_| self.err("enum value out of range".into()))
            }
            other => Err(self.err(format!("expected enum constant, found `{other}`"))),
        }
    }

    fn declare_decl(&mut self) -> PResult<DeclareDecl> {
        let lo = self.expect(Tok::Declare)?;
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let ty = self.ty()?;
        let hi = self.expect(Tok::Semi)?;
        Ok(DeclareDecl {
            name,
            ty,
            span: lo.to(hi),
        })
    }

    fn sig_decl(&mut self) -> PResult<()> {
        let lo = self.expect(Tok::Sig)?;
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let t = self.ty()?;
        self.expect(Tok::Semi)?;
        match t {
            AnnTy::Arrow(ft) => {
                match self.pending_sigs.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, _, sigs)) => sigs.push(ft),
                    None => self.pending_sigs.push((name, lo, vec![ft])),
                }
                Ok(())
            }
            _ => Err(self.err(format!("sig for `{name}` must be a function type"))),
        }
    }

    fn fun_decl(&mut self) -> PResult<FunDecl> {
        let lo = self.expect(Tok::Function)?;
        let name = self.ident()?;
        let mut tparams = Vec::new();
        if self.eat(Tok::Lt) {
            loop {
                tparams.push(self.ident()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::Gt)?;
        }
        self.expect(Tok::LParen)?;
        let mut params: Vec<Sym> = Vec::new();
        let mut anns: Vec<Option<AnnTy>> = Vec::new();
        while *self.peek() != Tok::RParen {
            let x = self.ident()?;
            let ann = if self.eat(Tok::Colon) {
                Some(self.ty()?)
            } else {
                None
            };
            params.push(x);
            anns.push(ann);
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        let ret_ann = if self.eat(Tok::Colon) {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        let span = lo.to(self.prev_span());

        let mut sigs = match self.pending_sigs.iter().position(|(n, _, _)| *n == name) {
            Some(i) => self.pending_sigs.remove(i).2,
            None => Vec::new(),
        };
        if sigs.is_empty() && anns.iter().all(Option::is_some) && !anns.is_empty() {
            // Build one signature from inline annotations.
            let ft = FunTy {
                tparams,
                params: params
                    .iter()
                    .cloned()
                    .zip(anns.into_iter().map(Option::unwrap))
                    .collect(),
                ret: Box::new(ret_ann.unwrap_or_else(|| AnnTy::name("void"))),
            };
            sigs.push(ft);
        } else if sigs.is_empty() && params.is_empty() {
            sigs.push(FunTy {
                tparams,
                params: Vec::new(),
                ret: Box::new(ret_ann.unwrap_or_else(|| AnnTy::name("void"))),
            });
        }
        // Otherwise the function is unannotated: its signature is inferred
        // from the call-site template it is passed to (§2.2.1).
        let _ = span;
        // Note: an overload signature may bind *fewer* parameters than the
        // function declares (the extra parameters are `undefined` in that
        // overload) — exactly the `$reduce` idiom from §2.1.2.
        Ok(FunDecl {
            name,
            sigs,
            params,
            body,
            span,
        })
    }

    fn class_decl(&mut self) -> PResult<ClassDecl> {
        let lo = self.expect(Tok::Class)?;
        let name = self.ident()?;
        let mut tparams = Vec::new();
        if self.eat(Tok::Lt) {
            loop {
                let p = self.ident()?;
                // Allow and ignore `extends RO`-style bounds on mutability params.
                if self.eat(Tok::Extends) {
                    self.ident()?;
                }
                tparams.push(p);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::Gt)?;
        }
        let extends = if self.eat(Tok::Extends) {
            let s = self.ident()?;
            // Ignore type arguments on the superclass for now.
            if self.eat(Tok::Lt) {
                let mut depth = 1;
                while depth > 0 {
                    match self.bump() {
                        Tok::Lt => depth += 1,
                        Tok::Gt => depth -= 1,
                        Tok::Eof => return Err(self.err("unterminated type arguments".into())),
                        _ => {}
                    }
                }
            }
            Some(s)
        } else {
            None
        };
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        let mut ctor = None;
        let mut invariant = None;
        while *self.peek() != Tok::RBrace {
            match self.peek().clone() {
                Tok::Invariant => {
                    self.bump();
                    invariant = Some(self.pred()?);
                    self.expect(Tok::Semi)?;
                }
                Tok::Constructor => {
                    let clo = self.span();
                    self.bump();
                    self.expect(Tok::LParen)?;
                    let mut params = Vec::new();
                    while *self.peek() != Tok::RParen {
                        let x = self.ident()?;
                        self.expect(Tok::Colon)?;
                        let t = self.ty()?;
                        params.push((x, t));
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RParen)?;
                    let body = self.block()?;
                    ctor = Some(CtorDecl {
                        params,
                        body,
                        span: clo.to(self.prev_span()),
                    });
                }
                Tok::Immutable | Tok::Mutable => {
                    let m = if self.bump() == Tok::Immutable {
                        FieldMut::Immutable
                    } else {
                        FieldMut::Mutable
                    };
                    fields.push(self.field_decl(m)?);
                }
                Tok::At => {
                    methods.push(self.method_decl()?);
                }
                Tok::Ident(_) => {
                    // field `f : T;` or method `m(...) ... { ... }`
                    if *self.peek_at(1) == Tok::Colon {
                        fields.push(self.field_decl(FieldMut::Mutable)?);
                    } else {
                        methods.push(self.method_decl()?);
                    }
                }
                other => return Err(self.err(format!("unexpected `{other}` in class body"))),
            }
        }
        let hi = self.expect(Tok::RBrace)?;
        Ok(ClassDecl {
            name,
            tparams,
            extends,
            invariant,
            fields,
            ctor,
            methods,
            span: lo.to(hi),
        })
    }

    fn field_decl(&mut self, m: FieldMut) -> PResult<FieldDecl> {
        let lo = self.span();
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let ty = self.ty()?;
        let hi = self.expect(Tok::Semi)?;
        Ok(FieldDecl {
            name,
            mutability: m,
            ty,
            span: lo.to(hi),
        })
    }

    fn method_decl(&mut self) -> PResult<MethodDecl> {
        let lo = self.span();
        let recv = if self.eat(Tok::At) {
            let m = self.ident()?;
            Mutability::from_abbrev(m.as_str())
                .ok_or_else(|| self.err(format!("unknown method annotation @{m}")))?
        } else {
            Mutability::Mutable
        };
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        while *self.peek() != Tok::RParen {
            let x = self.ident()?;
            self.expect(Tok::Colon)?;
            let t = self.ty()?;
            params.push((x, t));
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        let ret = if self.eat(Tok::Colon) {
            self.ty()?
        } else {
            AnnTy::name("void")
        };
        let body = if *self.peek() == Tok::LBrace {
            Some(self.block()?)
        } else {
            self.expect(Tok::Semi)?;
            None
        };
        Ok(MethodDecl {
            name,
            recv,
            sig: FunTy {
                tparams: Vec::new(),
                params,
                ret: Box::new(ret),
            },
            body,
            span: lo.to(self.prev_span()),
        })
    }

    fn interface_decl(&mut self) -> PResult<InterfaceDecl> {
        let lo = self.expect(Tok::Interface)?;
        let name = self.ident()?;
        let mut tparams = Vec::new();
        if self.eat(Tok::Lt) {
            loop {
                tparams.push(self.ident()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::Gt)?;
        }
        let mut extends = Vec::new();
        if self.eat(Tok::Extends) {
            loop {
                extends.push(self.ident()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while *self.peek() != Tok::RBrace {
            match self.peek().clone() {
                Tok::Immutable | Tok::Mutable => {
                    let m = if self.bump() == Tok::Immutable {
                        FieldMut::Immutable
                    } else {
                        FieldMut::Mutable
                    };
                    fields.push(self.field_decl(m)?);
                }
                Tok::At | Tok::Ident(_)
                    if *self.peek_at(1) == Tok::LParen || *self.peek() == Tok::At =>
                {
                    methods.push(self.method_decl()?);
                }
                Tok::Ident(_) => {
                    fields.push(self.field_decl(FieldMut::Mutable)?);
                }
                other => return Err(self.err(format!("unexpected `{other}` in interface body"))),
            }
        }
        let hi = self.expect(Tok::RBrace)?;
        Ok(InterfaceDecl {
            name,
            tparams,
            extends,
            fields,
            methods,
            span: lo.to(hi),
        })
    }

    // ------------------------------------------------------- statements ---

    fn block(&mut self) -> PResult<Block> {
        self.nested(|p| {
            let lo = p.expect(Tok::LBrace)?;
            let mut stmts = Vec::new();
            while *p.peek() != Tok::RBrace {
                stmts.push(p.stmt()?);
            }
            let hi = p.expect(Tok::RBrace)?;
            Ok(Block {
                stmts,
                span: lo.to(hi),
            })
        })
    }

    fn block_or_stmt(&mut self) -> PResult<Block> {
        if *self.peek() == Tok::LBrace {
            self.block()
        } else {
            let s = self.stmt()?;
            let span = s.span();
            Ok(Block {
                stmts: vec![s],
                span,
            })
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        self.nested(Self::unnested_stmt)
    }

    fn unnested_stmt(&mut self) -> PResult<Stmt> {
        // A sig is not itself a statement; it belongs to the function
        // that follows.
        while *self.peek() == Tok::Sig {
            self.sig_decl()?;
        }
        match self.peek().clone() {
            Tok::Var | Tok::Let => self.var_decl_stmt(),
            Tok::If => self.if_stmt(),
            Tok::While => self.while_stmt(),
            Tok::For => self.for_stmt(),
            Tok::Return => {
                let lo = self.span();
                self.bump();
                let value = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                let hi = self.expect(Tok::Semi)?;
                Ok(Stmt::Return {
                    value,
                    span: lo.to(hi),
                })
            }
            Tok::Function => Ok(Stmt::Fun(self.fun_decl()?)),
            Tok::Break => Err(self.err(
                "`break` is not supported; restructure the loop (the paper's ports did the same)"
                    .into(),
            )),
            Tok::Semi => {
                let s = self.span();
                self.bump();
                Ok(Stmt::Skip(s))
            }
            Tok::LBrace => {
                // Braced group: `var` is function-scoped, so a bare block
                // is just a scope-transparent sequence.
                let blk = self.block()?;
                let span = blk.span;
                Ok(Stmt::Seq(blk.stmts, span))
            }
            _ => self.expr_or_assign_stmt(true),
        }
    }

    fn var_decl_stmt(&mut self) -> PResult<Stmt> {
        let lo = self.span();
        self.bump(); // var | let
        let mut decls: Vec<Stmt> = Vec::new();
        loop {
            let name = self.ident()?;
            let ann = if self.eat(Tok::Colon) {
                Some(self.ty()?)
            } else {
                None
            };
            let init = if self.eat(Tok::Assign) {
                self.expr()?
            } else {
                Expr::Undefined(self.prev_span())
            };
            decls.push(Stmt::VarDecl {
                name,
                ann,
                init,
                span: lo.to(self.prev_span()),
            });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        let hi = self.expect(Tok::Semi)?;
        if decls.len() == 1 {
            Ok(decls.pop().unwrap())
        } else {
            Ok(Stmt::Seq(decls, lo.to(hi)))
        }
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        let lo = self.expect(Tok::If)?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let then_blk = self.block_or_stmt()?;
        let else_blk = if self.eat(Tok::Else) {
            if *self.peek() == Tok::If {
                let s = self.nested(Self::if_stmt)?;
                let span = s.span();
                Block {
                    stmts: vec![s],
                    span,
                }
            } else {
                self.block_or_stmt()?
            }
        } else {
            Block::default()
        };
        Ok(Stmt::If {
            cond,
            then_blk,
            else_blk,
            span: lo.to(self.prev_span()),
        })
    }

    fn while_stmt(&mut self) -> PResult<Stmt> {
        let lo = self.expect(Tok::While)?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let body = self.block_or_stmt()?;
        Ok(Stmt::While {
            cond,
            body,
            span: lo.to(self.prev_span()),
        })
    }

    /// `for (init; cond; step) body` desugars to
    /// `{ init; while (cond) { body; step } }`.
    fn for_stmt(&mut self) -> PResult<Stmt> {
        let lo = self.expect(Tok::For)?;
        self.expect(Tok::LParen)?;
        let init = if *self.peek() == Tok::Semi {
            self.bump();
            Stmt::Skip(lo)
        } else if matches!(self.peek(), Tok::Var | Tok::Let) {
            self.var_decl_stmt()?
        } else {
            self.expr_or_assign_stmt(true)?
        };
        let cond = if *self.peek() == Tok::Semi {
            Expr::Bool(true, self.span())
        } else {
            self.expr()?
        };
        self.expect(Tok::Semi)?;
        let step = if *self.peek() == Tok::RParen {
            Stmt::Skip(self.span())
        } else {
            self.expr_or_assign_stmt(false)?
        };
        self.expect(Tok::RParen)?;
        let mut body = self.block_or_stmt()?;
        body.stmts.push(step);
        let span = lo.to(self.prev_span());
        let whl = Stmt::While { cond, body, span };
        Ok(Stmt::Seq(vec![init, whl], span))
    }

    /// Expression statements and the assignment sugar family:
    /// `x = e`, `e.f = e`, `a[i] = e`, `x++`, `x--`, `x += e`, `x -= e`.
    fn expr_or_assign_stmt(&mut self, want_semi: bool) -> PResult<Stmt> {
        let lo = self.span();
        let e = self.expr()?;
        let stmt = match self.peek().clone() {
            Tok::Assign => {
                self.bump();
                let rhs = self.expr()?;
                let target = self.lvalue(e)?;
                Stmt::Assign {
                    target,
                    value: rhs,
                    span: lo.to(self.prev_span()),
                }
            }
            Tok::PlusPlus | Tok::MinusMinus => {
                let op = if self.bump() == Tok::PlusPlus {
                    BinOpE::Add
                } else {
                    BinOpE::Sub
                };
                let span = lo.to(self.prev_span());
                let target = self.lvalue(e.clone())?;
                Stmt::Assign {
                    target,
                    value: Expr::Binary(op, Box::new(e), Box::new(Expr::Num(1, span)), span),
                    span,
                }
            }
            Tok::PlusEq | Tok::MinusEq => {
                let op = if self.bump() == Tok::PlusEq {
                    BinOpE::Add
                } else {
                    BinOpE::Sub
                };
                let rhs = self.expr()?;
                let span = lo.to(self.prev_span());
                let target = self.lvalue(e.clone())?;
                Stmt::Assign {
                    target,
                    value: Expr::Binary(op, Box::new(e), Box::new(rhs), span),
                    span,
                }
            }
            _ => Stmt::ExprStmt {
                expr: e,
                span: lo.to(self.prev_span()),
            },
        };
        if want_semi {
            self.expect(Tok::Semi)?;
        }
        Ok(stmt)
    }

    fn lvalue(&self, e: Expr) -> PResult<LValue> {
        match e {
            Expr::Var(x, s) => Ok(LValue::Var(x, s)),
            Expr::Field(b, f, s) => Ok(LValue::Field(*b, f, s)),
            Expr::Index(a, i, s) => Ok(LValue::Index(*a, *i, s)),
            other => Err(ParseError {
                message: "invalid assignment target".into(),
                span: other.span(),
            }),
        }
    }

    // ------------------------------------------------------ expressions ---

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let c = self.climb(0, Self::unary_expr, expr_op, |l, op, r| {
            let span = l.span().to(r.span());
            Expr::Binary(op, Box::new(l), Box::new(r), span)
        })?;
        if self.eat(Tok::Question) {
            let t = self.expr()?;
            self.expect(Tok::Colon)?;
            let e = self.expr()?;
            let span = c.span().to(e.span());
            Ok(Expr::Ternary(Box::new(c), Box::new(t), Box::new(e), span))
        } else {
            Ok(c)
        }
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        let lo = self.span();
        match self.peek().clone() {
            Tok::Bang => {
                self.bump();
                let e = self.nested(Self::unary_expr)?;
                let span = lo.to(e.span());
                Ok(Expr::Unary(UnOp::Not, Box::new(e), span))
            }
            Tok::Minus => {
                self.bump();
                let e = self.nested(Self::unary_expr)?;
                let span = lo.to(e.span());
                Ok(Expr::Unary(UnOp::Neg, Box::new(e), span))
            }
            Tok::Typeof => {
                self.bump();
                let e = self.nested(Self::unary_expr)?;
                let span = lo.to(e.span());
                Ok(Expr::Unary(UnOp::TypeOf, Box::new(e), span))
            }
            Tok::Lt => {
                // `<T> e` — static cast.
                self.bump();
                let t = self.ty()?;
                self.expect(Tok::Gt)?;
                let e = self.nested(Self::unary_expr)?;
                let span = lo.to(e.span());
                Ok(Expr::Cast(t, Box::new(e), span))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        let depth = self.depth;
        let mut e = self.primary_expr()?;
        loop {
            if matches!(self.peek(), Tok::Dot | Tok::LBracket | Tok::LParen) {
                self.descend()?;
            }
            match self.peek().clone() {
                Tok::Dot => {
                    self.bump();
                    let f = self.ident_or_keyword()?;
                    let span = e.span().to(self.prev_span());
                    e = Expr::Field(Box::new(e), f, span);
                }
                Tok::LBracket => {
                    self.bump();
                    let i = self.expr()?;
                    let hi = self.expect(Tok::RBracket)?;
                    let span = e.span().to(hi);
                    e = Expr::Index(Box::new(e), Box::new(i), span);
                }
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    while *self.peek() != Tok::RParen {
                        args.push(self.expr()?);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    let hi = self.expect(Tok::RParen)?;
                    let span = e.span().to(hi);
                    e = Expr::Call(Box::new(e), args, span);
                }
                _ => break,
            }
        }
        self.depth = depth;
        Ok(e)
    }

    /// Identifiers in member position may collide with keywords
    /// (`x.length` is fine, but also `x.type` etc.).
    fn ident_or_keyword(&mut self) -> PResult<Sym> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(Sym::from(s))
            }
            Tok::Type => {
                self.bump();
                Ok(Sym::from("type"))
            }
            other => Err(self.err(format!("expected member name, found `{other}`"))),
        }
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        let lo = self.span();
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Expr::Num(n, lo))
            }
            Tok::Hex(n) => {
                self.bump();
                Ok(Expr::Bv(n, lo))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(s, lo))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::Bool(true, lo))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Bool(false, lo))
            }
            Tok::Null => {
                self.bump();
                Ok(Expr::Null(lo))
            }
            Tok::Undefined => {
                self.bump();
                Ok(Expr::Undefined(lo))
            }
            Tok::This => {
                self.bump();
                Ok(Expr::This(lo))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(Expr::Var(Sym::from(s), lo))
            }
            Tok::New => {
                self.bump();
                let name = self.ident()?;
                let mut targs = Vec::new();
                if self.eat(Tok::Lt) {
                    loop {
                        targs.push(self.ty()?);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::Gt)?;
                }
                self.expect(Tok::LParen)?;
                let mut args = Vec::new();
                while *self.peek() != Tok::RParen {
                    args.push(self.expr()?);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                let hi = self.expect(Tok::RParen)?;
                Ok(Expr::New(name, targs, args, lo.to(hi)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => {
                self.bump();
                let mut elems = Vec::new();
                while *self.peek() != Tok::RBracket {
                    elems.push(self.expr()?);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                let hi = self.expect(Tok::RBracket)?;
                Ok(Expr::ArrayLit(elems, lo.to(hi)))
            }
            other => Err(self.err(format!("expected expression, found `{other}`"))),
        }
    }

    // ------------------------------------------------------------ types ---

    fn ty(&mut self) -> PResult<AnnTy> {
        self.nested(|p| {
            let first = p.postfix_ty()?;
            if *p.peek() == Tok::Plus {
                let mut parts = vec![first];
                while p.eat(Tok::Plus) {
                    parts.push(p.postfix_ty()?);
                }
                Ok(AnnTy::Union(parts))
            } else {
                Ok(first)
            }
        })
    }

    fn postfix_ty(&mut self) -> PResult<AnnTy> {
        let depth = self.depth;
        let mut t = self.atom_ty()?;
        loop {
            if *self.peek() == Tok::LBracket && *self.peek_at(1) == Tok::RBracket {
                self.descend()?;
                self.bump();
                self.bump();
                // `T[]+` non-empty sugar: consume `+` only when it cannot
                // start another union member.
                let nonempty = if *self.peek() == Tok::Plus
                    && !matches!(
                        self.peek_at(1),
                        Tok::Ident(_) | Tok::LBrace | Tok::LParen | Tok::Lt
                    ) {
                    self.bump();
                    true
                } else {
                    false
                };
                // `T[]` defaults to Mutable: in this model array length is
                // fixed at allocation, so `len` refinements stay sound for
                // mutable arrays and element writes just need MU.
                t = AnnTy::Array {
                    elem: Box::new(t),
                    mutability: Mutability::Mutable,
                    nonempty,
                };
            } else {
                break;
            }
        }
        self.depth = depth;
        Ok(t)
    }

    fn atom_ty(&mut self) -> PResult<AnnTy> {
        match self.peek().clone() {
            Tok::LBrace => {
                // {v: T | p}
                self.bump();
                let vv = self.ident()?;
                self.expect(Tok::Colon)?;
                let base = self.nested(Self::postfix_ty)?;
                self.expect(Tok::Pipe)?;
                let pred = self.pred()?;
                self.expect(Tok::RBrace)?;
                Ok(AnnTy::Refined {
                    vv,
                    base: Box::new(base),
                    pred,
                })
            }
            Tok::Lt => {
                // <A, B>(params) => R
                self.bump();
                let mut tparams = Vec::new();
                loop {
                    tparams.push(self.ident()?);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::Gt)?;
                self.arrow_ty(tparams)
            }
            Tok::LParen => self.arrow_ty(Vec::new()),
            Tok::Undefined => {
                self.bump();
                Ok(AnnTy::name("undefined"))
            }
            Tok::Null => {
                self.bump();
                Ok(AnnTy::name("null"))
            }
            Tok::Ident(name) => {
                self.bump();
                let mut args = Vec::new();
                if *self.peek() == Tok::Lt {
                    self.bump();
                    loop {
                        args.push(self.ann_arg()?);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::Gt)?;
                }
                // Normalize Array<M, T> sugar.
                if name == "Array" {
                    let (mut m, mut elem) = (Mutability::Mutable, None);
                    let mut plain = Vec::new();
                    for a in &args {
                        match a {
                            AnnArg::Mut(mm) => m = *mm,
                            AnnArg::Ty(t) => elem = Some(t.clone()),
                            AnnArg::Term(_) => plain.push(()),
                        }
                    }
                    if let (Some(elem), true) = (elem, plain.is_empty()) {
                        return Ok(AnnTy::Array {
                            elem: Box::new(elem),
                            mutability: m,
                            nonempty: false,
                        });
                    }
                }
                Ok(AnnTy::Name(Sym::from(name), args))
            }
            other => Err(self.err(format!("expected type, found `{other}`"))),
        }
    }

    fn arrow_ty(&mut self, tparams: Vec<Sym>) -> PResult<AnnTy> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        let mut anon = 0usize;
        while *self.peek() != Tok::RParen {
            // Either `x: T` or a bare type (anonymous parameter).
            let named =
                matches!(self.peek(), Tok::Ident(_) | Tok::This) && *self.peek_at(1) == Tok::Colon;
            if named {
                let x = self.ident()?;
                self.expect(Tok::Colon)?;
                let t = self.ty()?;
                params.push((x, t));
            } else {
                let t = self.ty()?;
                anon += 1;
                params.push((Sym::from(format!("$arg{anon}")), t));
            }
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::FatArrow)?;
        let ret = self.ty()?;
        Ok(AnnTy::Arrow(FunTy {
            tparams,
            params,
            ret: Box::new(ret),
        }))
    }

    /// A named-type argument: a mutability modifier, a type, or a logical
    /// term — tried in that order with backtracking.
    fn ann_arg(&mut self) -> PResult<AnnArg> {
        if let Tok::Ident(s) = self.peek() {
            if let Some(m) = Mutability::from_abbrev(s) {
                self.bump();
                return Ok(AnnArg::Mut(m));
            }
        }
        let save = (self.pos, self.depth);
        match self.ty() {
            Ok(t) if matches!(self.peek(), Tok::Comma | Tok::Gt) => return Ok(AnnArg::Ty(t)),
            Err(e) if self.too_deep => return Err(e),
            _ => {}
        }
        (self.pos, self.depth) = save;
        let t = self.term()?;
        Ok(AnnArg::Term(t))
    }

    // ------------------------------------------------------- predicates ---

    /// Parses a refinement predicate. Predicates share the expression
    /// grammar (so `&&`, `||`, `!`, comparisons work as expected) extended
    /// with `=>` (implication), `<=>` (iff) and `=` as equality.
    fn pred(&mut self) -> PResult<Pred> {
        self.nested(|p| {
            let l = p.climb(0, Self::pred_atom, pred_op, |l, and, r| {
                if and {
                    Pred::and(vec![l, r])
                } else {
                    Pred::or(vec![l, r])
                }
            })?;
            if p.eat(Tok::FatArrow) {
                let r = p.pred()?;
                return Ok(Pred::imp(l, r));
            }
            if p.eat(Tok::Iff) {
                let r = p.pred()?;
                return Ok(Pred::iff(l, r));
            }
            Ok(l)
        })
    }

    fn pred_atom(&mut self) -> PResult<Pred> {
        if self.eat(Tok::Bang) {
            let p = self.nested(Self::pred_atom)?;
            return Ok(Pred::not(p));
        }
        // Parenthesized predicate vs parenthesized term: try predicate.
        if *self.peek() == Tok::LParen {
            let save = (self.pos, self.depth);
            self.bump();
            let attempt = self.pred();
            if attempt.is_err() && self.too_deep {
                return attempt;
            }
            if let Ok(p) = attempt {
                if self.eat(Tok::RParen) {
                    // If a comparison operator follows, the parens belonged
                    // to a term — re-parse.
                    if !matches!(
                        self.peek(),
                        Tok::Lt
                            | Tok::Le
                            | Tok::Gt
                            | Tok::Ge
                            | Tok::Assign
                            | Tok::EqEq
                            | Tok::EqEqEq
                            | Tok::NotEq
                            | Tok::NotEqEq
                            | Tok::Plus
                            | Tok::Minus
                            | Tok::Star
                            | Tok::Amp
                            | Tok::Pipe
                    ) {
                        return Ok(p);
                    }
                }
            }
            (self.pos, self.depth) = save;
        }
        let l = self.term()?;
        let op = match self.peek() {
            Tok::Assign | Tok::EqEq | Tok::EqEqEq => Some(CmpOp::Eq),
            Tok::NotEq | Tok::NotEqEq => Some(CmpOp::Ne),
            Tok::Lt => Some(CmpOp::Lt),
            Tok::Le => Some(CmpOp::Le),
            Tok::Gt => Some(CmpOp::Gt),
            Tok::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let r = self.term()?;
                Ok(Pred::cmp(op, l, r))
            }
            None => {
                // Bare term: an uninterpreted predicate application or a
                // boolean-valued term.
                match &l {
                    Term::App(f, args)
                        if f == &Sym::from("impl")
                            || f == &Sym::from("instanceof")
                            || f == &Sym::from("mask") =>
                    {
                        if f == &Sym::from("mask") {
                            // mask(t, m) ≡ (t & m) != 0
                            if args.len() != 2 {
                                return Err(self.err("mask expects two arguments".into()));
                            }
                            return Ok(Pred::cmp(
                                CmpOp::Ne,
                                Term::bin(BinOp::BvAnd, args[0].clone(), args[1].clone()),
                                Term::bv(0),
                            ));
                        }
                        Ok(Pred::App(Sym::from("impl"), args.clone()))
                    }
                    _ => Ok(Pred::TermPred(l)),
                }
            }
        }
    }

    // ------------------------------------------------------ logic terms ---

    fn term(&mut self) -> PResult<Term> {
        self.nested(|p| p.climb(0, Self::term_unary, term_op, |l, op, r| Term::bin(op, l, r)))
    }

    fn term_unary(&mut self) -> PResult<Term> {
        if self.eat(Tok::Minus) {
            let t = self.nested(Self::term_unary)?;
            return Ok(Term::neg(t));
        }
        self.term_postfix()
    }

    fn term_postfix(&mut self) -> PResult<Term> {
        let depth = self.depth;
        let mut t = self.term_primary()?;
        while *self.peek() == Tok::Dot {
            self.descend()?;
            self.bump();
            let f = self.ident_or_keyword()?;
            t = Term::field(t, f);
        }
        self.depth = depth;
        Ok(t)
    }

    fn term_primary(&mut self) -> PResult<Term> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Term::int(n))
            }
            Tok::Hex(n) => {
                self.bump();
                Ok(Term::bv(n))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Term::str(s))
            }
            Tok::True => {
                self.bump();
                Ok(Term::bool(true))
            }
            Tok::False => {
                self.bump();
                Ok(Term::bool(false))
            }
            Tok::This => {
                self.bump();
                Ok(Term::this())
            }
            Tok::Null => {
                self.bump();
                Ok(Term::app("nullv", vec![]))
            }
            Tok::Undefined => {
                self.bump();
                Ok(Term::app("undefv", vec![]))
            }
            Tok::LParen => {
                self.bump();
                let t = self.term()?;
                self.expect(Tok::RParen)?;
                Ok(t)
            }
            Tok::Ident(s) => {
                self.bump();
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    while *self.peek() != Tok::RParen {
                        // In `impl(x, C)` / `instanceof(x, C)` the second
                        // argument is a type name — encode as a string.
                        let is_tag_pos = (s == "impl" || s == "instanceof") && args.len() == 1;
                        if is_tag_pos {
                            if let Tok::Ident(cname) = self.peek().clone() {
                                if *self.peek_at(1) == Tok::RParen {
                                    self.bump();
                                    args.push(Term::str(cname));
                                    continue;
                                }
                            }
                        }
                        args.push(self.term()?);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Term::app(Sym::from(s), args))
                } else {
                    Ok(Term::var(Sym::from(s)))
                }
            }
            other => Err(self.err(format!("expected logical term, found `{other}`"))),
        }
    }
}

/// Binary expression operators by precedence, loosest first.
fn expr_op(t: &Tok) -> Option<(u8, BinOpE)> {
    Some(match t {
        Tok::OrOr => (0, BinOpE::Or),
        Tok::AndAnd => (1, BinOpE::And),
        Tok::Pipe => (2, BinOpE::BitOr),
        Tok::Amp => (3, BinOpE::BitAnd),
        Tok::EqEq | Tok::EqEqEq => (4, BinOpE::Eq),
        Tok::NotEq | Tok::NotEqEq => (4, BinOpE::Ne),
        Tok::Lt => (5, BinOpE::Lt),
        Tok::Le => (5, BinOpE::Le),
        Tok::Gt => (5, BinOpE::Gt),
        Tok::Ge => (5, BinOpE::Ge),
        Tok::Plus => (6, BinOpE::Add),
        Tok::Minus => (6, BinOpE::Sub),
        Tok::Star => (7, BinOpE::Mul),
        Tok::Slash => (7, BinOpE::Div),
        Tok::Percent => (7, BinOpE::Mod),
        _ => return None,
    })
}

/// Predicate connectives by precedence (`||` below `&&`); the payload
/// says whether the connective is `&&`.
fn pred_op(t: &Tok) -> Option<(u8, bool)> {
    match t {
        Tok::OrOr => Some((0, false)),
        Tok::AndAnd => Some((1, true)),
        _ => None,
    }
}

/// Binary term operators by precedence, loosest first.
fn term_op(t: &Tok) -> Option<(u8, BinOp)> {
    Some(match t {
        Tok::Pipe => (0, BinOp::BvOr),
        Tok::Amp => (1, BinOp::BvAnd),
        Tok::Plus => (2, BinOp::Add),
        Tok::Minus => (2, BinOp::Sub),
        Tok::Star => (3, BinOp::Mul),
        Tok::Slash => (3, BinOp::Div),
        Tok::Percent => (3, BinOp::Mod),
        _ => return None,
    })
}
