//! Abstract syntax of the RSC input language — the paper's FRSC (§3.1.1)
//! extended with the constructs its tool supports: loops, nested
//! functions, interfaces, enums, overload signatures and type aliases.

use rsc_logic::{Pred, Sym};

use crate::span::Span;
use crate::types::{AnnTy, FunTy, Mutability};

/// A whole compilation unit.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// `import {a, b} from "./mod";` declarations, in source order.
    ///
    /// Imports are *module metadata*, not checkable items: the batch
    /// checker ignores them entirely (a merged multi-file program simply
    /// defines the imported names earlier in the text), while the
    /// workspace layer (`rsc_incr`) uses them to load the import
    /// closure, order files, and validate that every imported name is
    /// actually exported by its source module.
    pub imports: Vec<ImportDecl>,
    /// Names marked `export`, with the span of the exporting item.
    ///
    /// Like imports, export markers do not change what the checker
    /// proves — they delimit a file's interface for the workspace
    /// layer's cross-file dependency tracking.
    pub exports: Vec<(Sym, Span)>,
}

/// `import {a, b} from "./mod";`
#[derive(Clone, Debug)]
pub struct ImportDecl {
    /// Imported names, each with the span of its occurrence inside the
    /// braces (used to blame a specific name when the source module
    /// does not export it).
    pub names: Vec<(Sym, Span)>,
    /// The module specifier, verbatim (e.g. `./mod` — resolution to a
    /// file is the workspace layer's job).
    pub from: String,
    /// Source location of the whole declaration.
    pub span: Span,
}

/// A top-level item.
#[derive(Clone, Debug)]
pub enum Item {
    /// `type name<params> = T;`
    TypeAlias(TypeAlias),
    /// `qualif Name(v: b, x: b): p;` — extra Liquid qualifiers.
    Qualif(QualifDecl),
    /// A class declaration.
    Class(ClassDecl),
    /// An interface declaration.
    Interface(InterfaceDecl),
    /// An enum of bit-vector flags.
    Enum(EnumDecl),
    /// A function declaration.
    Fun(FunDecl),
    /// `declare name : T;` — an ambient value (library import or trusted
    /// ghost-function axiom, §5 of the paper).
    Declare(DeclareDecl),
    /// A top-level statement.
    Stmt(Stmt),
}

/// `type idx<a> = {v: nat | v < len(a)};`
#[derive(Clone, Hash, Debug)]
pub struct TypeAlias {
    /// Alias name.
    pub name: Sym,
    /// Parameters; each is either a type or a term parameter, decided by
    /// use inside the body during alias resolution.
    pub params: Vec<Sym>,
    /// The aliased type.
    pub body: AnnTy,
    /// Source location.
    pub span: Span,
}

/// A user-supplied Liquid qualifier.
#[derive(Clone, Hash, Debug)]
pub struct QualifDecl {
    /// Qualifier name.
    pub name: Sym,
    /// Parameters with base-type annotations; the first is the value
    /// variable.
    pub params: Vec<(Sym, AnnTy)>,
    /// The qualifier body.
    pub body: Pred,
    /// Source location.
    pub span: Span,
}

/// A bit-vector flag enumeration (§4.3).
#[derive(Clone, Hash, Debug)]
pub struct EnumDecl {
    /// Enum name (used as a 32-bit bit-vector type).
    pub name: Sym,
    /// Members with constant values.
    pub members: Vec<(Sym, u32)>,
    /// Source location.
    pub span: Span,
}

/// Field mutability inside a class or interface.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FieldMut {
    /// `immutable f : T` — assignable only in the constructor; may appear
    /// in refinements.
    Immutable,
    /// Mutable (the default); may be reassigned, never appears in
    /// refinements.
    Mutable,
}

/// A field declaration.
#[derive(Clone, Hash, Debug)]
pub struct FieldDecl {
    /// Field name.
    pub name: Sym,
    /// Mutability modifier.
    pub mutability: FieldMut,
    /// Declared type.
    pub ty: AnnTy,
    /// Source location.
    pub span: Span,
}

/// A constructor declaration.
#[derive(Clone, Hash, Debug)]
pub struct CtorDecl {
    /// Parameters (name, type).
    pub params: Vec<(Sym, AnnTy)>,
    /// Body.
    pub body: Block,
    /// Source location.
    pub span: Span,
}

/// A method declaration.
#[derive(Clone, Hash, Debug)]
pub struct MethodDecl {
    /// Method name.
    pub name: Sym,
    /// Receiver mutability requirement (`@Mutable` by default).
    pub recv: Mutability,
    /// The signature (parameters must be annotated).
    pub sig: FunTy,
    /// Body; `None` for interface method signatures.
    pub body: Option<Block>,
    /// Source location.
    pub span: Span,
}

/// A class declaration.
#[derive(Clone, Hash, Debug)]
pub struct ClassDecl {
    /// Class name.
    pub name: Sym,
    /// Type parameters.
    pub tparams: Vec<Sym>,
    /// Superclass, if any.
    pub extends: Option<Sym>,
    /// Optional explicit class invariant predicate over `v`.
    pub invariant: Option<Pred>,
    /// Fields.
    pub fields: Vec<FieldDecl>,
    /// Constructor.
    pub ctor: Option<CtorDecl>,
    /// Methods.
    pub methods: Vec<MethodDecl>,
    /// Source location.
    pub span: Span,
}

/// An interface declaration (structural object type, §4.1).
#[derive(Clone, Hash, Debug)]
pub struct InterfaceDecl {
    /// Interface name.
    pub name: Sym,
    /// Type parameters.
    pub tparams: Vec<Sym>,
    /// Extended interfaces.
    pub extends: Vec<Sym>,
    /// Field signatures.
    pub fields: Vec<FieldDecl>,
    /// Method signatures (bodies are `None`).
    pub methods: Vec<MethodDecl>,
    /// Source location.
    pub span: Span,
}

/// A function declaration, possibly overloaded via preceding `sig` items
/// (checked by two-phase typing, §2.1.2).
#[derive(Clone, Hash, Debug)]
pub struct FunDecl {
    /// Function name.
    pub name: Sym,
    /// Declared signatures: one from inline annotations, or several from
    /// `sig` declarations (an intersection type).
    pub sigs: Vec<FunTy>,
    /// Parameter names, in order.
    pub params: Vec<Sym>,
    /// Body.
    pub body: Block,
    /// Source location.
    pub span: Span,
}

/// `declare mulThm1 : (a: nat, b: {v:number | v >= 2}) => {v:boolean | ...};`
#[derive(Clone, Hash, Debug)]
pub struct DeclareDecl {
    /// Declared name.
    pub name: Sym,
    /// Ambient type.
    pub ty: AnnTy,
    /// Source location.
    pub span: Span,
}

/// A block of statements.
#[derive(Clone, Hash, Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// An assignment target.
#[derive(Clone, Hash, Debug)]
pub enum LValue {
    /// `x = …`
    Var(Sym, Span),
    /// `e.f = …`
    Field(Expr, Sym, Span),
    /// `e[i] = …`
    Index(Expr, Expr, Span),
}

/// A statement.
#[derive(Clone, Hash, Debug)]
pub enum Stmt {
    /// `var x = e;` with optional annotation.
    VarDecl {
        /// Variable name.
        name: Sym,
        /// Optional type annotation.
        ann: Option<AnnTy>,
        /// Initializer.
        init: Expr,
        /// Source location.
        span: Span,
    },
    /// Assignment to a variable, field or array element.
    Assign {
        /// Target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// `if (e) { … } else { … }`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Else branch (empty block when missing).
        else_blk: Block,
        /// Source location.
        span: Span,
    },
    /// `while (e) { … }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Source location.
        span: Span,
    },
    /// `return e;`
    Return {
        /// Returned expression (`None` for bare `return;`).
        value: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// An expression evaluated for effect.
    ExprStmt {
        /// The expression.
        expr: Expr,
        /// Source location.
        span: Span,
    },
    /// A nested function declaration (closure).
    Fun(FunDecl),
    /// A scope-transparent statement sequence (multi-declarator `var`,
    /// `for`-loop desugaring, braced groups — `var` is function-scoped).
    Seq(Vec<Stmt>, Span),
    /// An empty statement.
    Skip(Span),
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
    /// `typeof e` (reflection, §4.2).
    TypeOf,
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOpE {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` / `===` (RSC gives both strict semantics).
    Eq,
    /// `!=` / `!==`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `&` (bit-vector and)
    BitAnd,
    /// `|` (bit-vector or)
    BitOr,
}

/// An expression.
#[derive(Clone, Hash, Debug)]
pub enum Expr {
    /// Integer literal.
    Num(i64, Span),
    /// Bit-vector (hex) literal.
    Bv(u32, Span),
    /// String literal.
    Str(String, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// `null`.
    Null(Span),
    /// `undefined`.
    Undefined(Span),
    /// Variable reference.
    Var(Sym, Span),
    /// `this`.
    This(Span),
    /// `e.f` (also enum member access `Flags.Object`).
    Field(Box<Expr>, Sym, Span),
    /// `e[i]`.
    Index(Box<Expr>, Box<Expr>, Span),
    /// `f(args)` or `e.m(args)`.
    Call(Box<Expr>, Vec<Expr>, Span),
    /// `new C<targs>(args)`; explicit type arguments are optional.
    New(Sym, Vec<AnnTy>, Vec<Expr>, Span),
    /// `<T> e` — a static downcast (§4.3).
    Cast(AnnTy, Box<Expr>, Span),
    /// Unary operation.
    Unary(UnOp, Box<Expr>, Span),
    /// Binary operation.
    Binary(BinOpE, Box<Expr>, Box<Expr>, Span),
    /// `c ? t : e`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>, Span),
    /// `[e1, …, en]` array literal.
    ArrayLit(Vec<Expr>, Span),
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Num(_, s)
            | Expr::Bv(_, s)
            | Expr::Str(_, s)
            | Expr::Bool(_, s)
            | Expr::Null(s)
            | Expr::Undefined(s)
            | Expr::Var(_, s)
            | Expr::This(s)
            | Expr::Field(_, _, s)
            | Expr::Index(_, _, s)
            | Expr::Call(_, _, s)
            | Expr::New(_, _, _, s)
            | Expr::Cast(_, _, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Ternary(_, _, _, s)
            | Expr::ArrayLit(_, s) => *s,
        }
    }
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::VarDecl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::ExprStmt { span, .. }
            | Stmt::Seq(_, span)
            | Stmt::Skip(span) => *span,
            Stmt::Fun(f) => f.span,
        }
    }
}
