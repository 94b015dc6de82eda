//! The surface type-annotation language of RSC.
//!
//! ```text
//! T ::= {v: B | p}                    refinement type
//!     | B                             base type (number, boolean, …)
//!     | N<args>                       named type / alias application
//!     | T[]   T[]+                    (non-empty) array sugar
//!     | T + T                         union (the paper writes unions with +)
//!     | <A,B>(x: T, …) => T           (polymorphic) function type
//! ```
//!
//! Named-type arguments may be types, logical terms (e.g. `idx<a>`,
//! `natN<n>`, `grid<this.w, this.h>`) or mutability modifiers
//! (`Array<MU, T>`), disambiguated by the parser and resolved during alias
//! expansion in `rsc-core`.

use std::fmt;

use rsc_logic::{Pred, Sym};

use crate::span::Span;

/// Reference mutability, following IGJ (§4.4 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mutability {
    /// `IM` — neither this reference nor any other may mutate the object.
    Immutable,
    /// `MU` — this (and other) references may mutate the object.
    Mutable,
    /// `RO` — this reference cannot mutate, others may.
    ReadOnly,
    /// `UQ` — the only reference to the object (initialization state).
    Unique,
}

impl Mutability {
    /// Parses the conventional two-letter abbreviation.
    pub fn from_abbrev(s: &str) -> Option<Mutability> {
        match s {
            "IM" | "Immutable" => Some(Mutability::Immutable),
            "MU" | "Mutable" => Some(Mutability::Mutable),
            "RO" | "ReadOnly" => Some(Mutability::ReadOnly),
            "UQ" | "Unique" => Some(Mutability::Unique),
            _ => None,
        }
    }

    /// The conventional abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Mutability::Immutable => "IM",
            Mutability::Mutable => "MU",
            Mutability::ReadOnly => "RO",
            Mutability::Unique => "UQ",
        }
    }

    /// Whether a reference of this mutability may be used where `want` is
    /// required (receiver compatibility): `MU ≤ RO`, `IM ≤ RO`, and `UQ`
    /// satisfies everything (it can commit to any state).
    pub fn satisfies(self, want: Mutability) -> bool {
        match want {
            Mutability::ReadOnly => true,
            Mutability::Mutable => matches!(self, Mutability::Mutable | Mutability::Unique),
            Mutability::Immutable => matches!(self, Mutability::Immutable | Mutability::Unique),
            Mutability::Unique => matches!(self, Mutability::Unique),
        }
    }
}

impl fmt::Display for Mutability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// An argument of a named type application.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum AnnArg {
    /// A type argument.
    Ty(AnnTy),
    /// A logical term argument (dependent alias parameter).
    Term(rsc_logic::Term),
    /// A mutability modifier.
    Mut(Mutability),
}

/// A (possibly polymorphic, dependent) function type.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct FunTy {
    /// Type parameters (`<A, B>`).
    pub tparams: Vec<Sym>,
    /// Named parameters with their types; later parameter types and the
    /// return type may refer to earlier parameter names.
    pub params: Vec<(Sym, AnnTy)>,
    /// The return type.
    pub ret: Box<AnnTy>,
}

/// A surface type annotation.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum AnnTy {
    /// A named type: primitive, class, interface, enum, alias application
    /// or type variable.
    Name(Sym, Vec<AnnArg>),
    /// A refinement `{v: T | p}`. The bound value-variable name is
    /// recorded (conventionally `v`).
    Refined {
        /// The value variable bound by the refinement.
        vv: Sym,
        /// The refined base.
        base: Box<AnnTy>,
        /// The refinement predicate.
        pred: Pred,
    },
    /// `T[]` (element type, mutability, non-empty flag). `T[]+` adds the
    /// refinement `0 < len(v)`.
    Array {
        /// Element type.
        elem: Box<AnnTy>,
        /// Array-object mutability (`T[]` defaults to immutable).
        mutability: Mutability,
        /// True for the `T[]+` non-empty sugar.
        nonempty: bool,
    },
    /// A union, written with `+` (as in the paper).
    Union(Vec<AnnTy>),
    /// A function type.
    Arrow(FunTy),
}

impl AnnTy {
    /// A plain named type with no arguments.
    pub fn name(s: impl Into<Sym>) -> AnnTy {
        AnnTy::Name(s.into(), Vec::new())
    }

    /// `number`.
    pub fn number() -> AnnTy {
        AnnTy::name("number")
    }

    /// `boolean`.
    pub fn boolean() -> AnnTy {
        AnnTy::name("boolean")
    }
}

impl fmt::Display for AnnTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnTy::Name(n, args) => {
                write!(f, "{n}")?;
                if !args.is_empty() {
                    write!(f, "<")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        match a {
                            AnnArg::Ty(t) => write!(f, "{t}")?,
                            AnnArg::Term(t) => write!(f, "{t}")?,
                            AnnArg::Mut(m) => write!(f, "{m}")?,
                        }
                    }
                    write!(f, ">")?;
                }
                Ok(())
            }
            AnnTy::Refined { vv, base, pred } => write!(f, "{{{vv}: {base} | {pred}}}"),
            AnnTy::Array {
                elem,
                mutability,
                nonempty,
            } => {
                // `T[]` is sugar for Array<MU, T>; other mutabilities are
                // printed in the explicit form so printing is lossless.
                if *mutability == Mutability::Mutable {
                    write!(f, "{elem}[]")?;
                    if *nonempty {
                        write!(f, "+")?;
                    }
                } else if *nonempty {
                    write!(f, "{{v: Array<{mutability}, {elem}> | 0 < len(v)}}")?;
                } else {
                    write!(f, "Array<{mutability}, {elem}>")?;
                }
                Ok(())
            }
            AnnTy::Union(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            AnnTy::Arrow(ft) => {
                if !ft.tparams.is_empty() {
                    write!(f, "<")?;
                    for (i, p) in ft.tparams.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}")?;
                    }
                    write!(f, ">")?;
                }
                write!(f, "(")?;
                for (i, (x, t)) in ft.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}: {t}")?;
                }
                write!(f, ") => {}", ft.ret)
            }
        }
    }
}

/// A type annotation together with its source location.
#[derive(Clone, PartialEq, Debug)]
pub struct SpannedTy {
    /// The annotation.
    pub ty: AnnTy,
    /// Where it was written.
    pub span: Span,
}
