//! IRSC — the functional intermediate language of §3.1.2, extended with a
//! loop binding form (§2.2.2: loops are handled by Φ-variables at the loop
//! head whose types are inferred as loop invariants).
//!
//! Unlike the paper's hole-based SSA contexts `u⟨·⟩`, bodies here are a
//! recursive datatype whose `Let`/`If`/`Loop` nodes carry their
//! continuation explicitly; the two presentations are isomorphic.

use rsc_logic::Sym;
use rsc_syntax::ast::{BinOpE, UnOp};
use rsc_syntax::types::AnnTy;
use rsc_syntax::Span;

/// An IRSC expression (pure except for calls, `new`, and the assignment
/// forms, which the checker types effectfully).
#[derive(Clone, Debug)]
pub enum IrExpr {
    /// SSA variable.
    Var(Sym, Span),
    /// Integer literal.
    Num(i64, Span),
    /// Bit-vector literal.
    Bv(u32, Span),
    /// String literal.
    Str(String, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// `null`.
    Null(Span),
    /// `undefined`.
    Undefined(Span),
    /// `this`.
    This(Span),
    /// Field access `e.f`.
    Field(Box<IrExpr>, Sym, Span),
    /// Array read `e[i]`, i.e. `get(e, i)` (§2.1.1).
    Index(Box<IrExpr>, Box<IrExpr>, Span),
    /// Function or method call.
    Call(Box<IrExpr>, Vec<IrExpr>, Span),
    /// Object construction.
    New(Sym, Vec<AnnTy>, Vec<IrExpr>, Span),
    /// Static cast `e as T`.
    Cast(AnnTy, Box<IrExpr>, Span),
    /// Unary operation.
    Unary(UnOp, Box<IrExpr>, Span),
    /// Binary operation.
    Binary(BinOpE, Box<IrExpr>, Box<IrExpr>, Span),
    /// Array literal.
    ArrayLit(Vec<IrExpr>, Span),
    /// Field update `e.f ← e'`.
    FieldAssign(Box<IrExpr>, Sym, Box<IrExpr>, Span),
    /// Array write `set(a, i, e)` (§2.1.1).
    IndexAssign(Box<IrExpr>, Box<IrExpr>, Box<IrExpr>, Span),
}

impl IrExpr {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            IrExpr::Var(_, s)
            | IrExpr::Num(_, s)
            | IrExpr::Bv(_, s)
            | IrExpr::Str(_, s)
            | IrExpr::Bool(_, s)
            | IrExpr::Null(s)
            | IrExpr::Undefined(s)
            | IrExpr::This(s)
            | IrExpr::Field(_, _, s)
            | IrExpr::Index(_, _, s)
            | IrExpr::Call(_, _, s)
            | IrExpr::New(_, _, _, s)
            | IrExpr::Cast(_, _, s)
            | IrExpr::Unary(_, _, s)
            | IrExpr::Binary(_, _, _, s)
            | IrExpr::ArrayLit(_, s)
            | IrExpr::FieldAssign(_, _, _, s)
            | IrExpr::IndexAssign(_, _, _, s) => *s,
        }
    }
}

/// A conditional Φ-variable: `new = φ(then_src, else_src)`.
///
/// A source is `None` when the corresponding branch does not fall through
/// (it returns), in which case the φ degenerates.
#[derive(Clone, Debug)]
pub struct Phi {
    /// The fresh joined variable.
    pub new: Sym,
    /// Value at the end of the then branch.
    pub then_src: Option<Sym>,
    /// Value at the end of the else branch.
    pub else_src: Option<Sym>,
    /// The source-level variable this φ joins (diagnostics).
    pub source: Sym,
}

/// A loop Φ-variable: `new = φ(init_src, body_src)`.
#[derive(Clone, Debug)]
pub struct LoopPhi {
    /// The fresh loop-head variable.
    pub new: Sym,
    /// Value on loop entry.
    pub init_src: Sym,
    /// Value at the end of the loop body (`None` if the body never falls
    /// through, i.e. always returns).
    pub body_src: Option<Sym>,
    /// The source-level variable (diagnostics).
    pub source: Sym,
}

/// An SSA-translated function body: a tree of bindings ending in returns.
#[derive(Clone, Debug)]
pub enum Body {
    /// `return e` (or a void return / implicit function end).
    Ret(Option<IrExpr>, Span),
    /// End of a branch arm that falls through to the enclosing join.
    EndBranch(Span),
    /// `let x = e in rest` (with optional source annotation).
    Let {
        /// Bound SSA variable.
        x: Sym,
        /// Optional source type annotation.
        ann: Option<AnnTy>,
        /// Right-hand side.
        rhs: IrExpr,
        /// Continuation.
        rest: Box<Body>,
        /// Source span of the binding.
        span: Span,
    },
    /// `let _ = e in rest` — evaluation for effect.
    Effect {
        /// The effectful expression.
        e: IrExpr,
        /// Continuation.
        rest: Box<Body>,
        /// Source span.
        span: Span,
    },
    /// `letif [x̄′, x̄₁, x̄₂] (cond) ? u₁ : u₂ in rest` (§3.1.2).
    If {
        /// The branch condition.
        cond: IrExpr,
        /// Φ-variables joining the two branches.
        phis: Vec<Phi>,
        /// Then arm.
        then_br: Box<Body>,
        /// Else arm.
        else_br: Box<Body>,
        /// Whether each arm falls through to the continuation.
        then_falls: bool,
        /// Whether the else arm falls through.
        else_falls: bool,
        /// Continuation after the join.
        rest: Box<Body>,
        /// Source span.
        span: Span,
    },
    /// `letloop [x̄] (cond) { body } in rest` — the loop extension.
    Loop {
        /// Loop-head Φ-variables.
        phis: Vec<LoopPhi>,
        /// Condition, evaluated with Φ-variables in scope.
        cond: IrExpr,
        /// Loop body.
        body: Box<Body>,
        /// Continuation (Φ-variables in scope, condition false).
        rest: Box<Body>,
        /// Source span.
        span: Span,
    },
    /// A nested function definition bound as a value.
    LetFun {
        /// The translated function.
        fun: Box<IrFun>,
        /// Continuation.
        rest: Box<Body>,
        /// Source span.
        span: Span,
    },
}

/// A function after SSA translation.
#[derive(Clone, Debug)]
pub struct IrFun {
    /// Function name.
    pub name: Sym,
    /// Declared signatures (≥ 2 means overloaded, checked by two-phase
    /// typing).
    pub sigs: Vec<rsc_syntax::FunTy>,
    /// Parameter names in order.
    pub params: Vec<Sym>,
    /// The SSA body.
    pub body: Body,
    /// Source span.
    pub span: Span,
}

/// A method after SSA translation.
#[derive(Clone, Debug)]
pub struct IrMethod {
    /// Method name.
    pub name: Sym,
    /// Receiver mutability requirement.
    pub recv: rsc_syntax::Mutability,
    /// Signature.
    pub sig: rsc_syntax::FunTy,
    /// Body (`None` for interface signatures).
    pub body: Option<Body>,
    /// Source span.
    pub span: Span,
}

/// A constructor after SSA translation.
#[derive(Clone, Debug)]
pub struct IrCtor {
    /// Parameters.
    pub params: Vec<(Sym, AnnTy)>,
    /// Body.
    pub body: Body,
    /// Source span.
    pub span: Span,
}

/// A class with SSA-translated member bodies.
#[derive(Clone, Debug)]
pub struct IrClass {
    /// The underlying declaration (fields, invariant, etc.).
    pub decl: rsc_syntax::ast::ClassDecl,
    /// Translated constructor.
    pub ctor: Option<IrCtor>,
    /// Translated methods.
    pub methods: Vec<IrMethod>,
}

/// A whole program after SSA translation.
#[derive(Clone, Debug, Default)]
pub struct IrProgram {
    /// Type aliases (untranslated — no statements inside).
    pub aliases: Vec<rsc_syntax::ast::TypeAlias>,
    /// User qualifiers.
    pub quals: Vec<rsc_syntax::ast::QualifDecl>,
    /// Enums.
    pub enums: Vec<rsc_syntax::ast::EnumDecl>,
    /// Interfaces.
    pub interfaces: Vec<rsc_syntax::ast::InterfaceDecl>,
    /// Ambient declarations.
    pub declares: Vec<rsc_syntax::ast::DeclareDecl>,
    /// Classes.
    pub classes: Vec<IrClass>,
    /// Top-level functions.
    pub funs: Vec<IrFun>,
    /// Top-level statements, gathered into a synthetic entry body.
    pub top: Body,
}

impl Default for Body {
    fn default() -> Self {
        Body::Ret(None, Span::dummy())
    }
}
