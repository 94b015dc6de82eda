//! # rsc-core
//!
//! **Refined TypeScript (RSC)** — a reproduction of the refinement type
//! checker from *Refinement Types for TypeScript* (Vekris, Cosman & Jhala,
//! PLDI 2016) with every substrate built in-tree:
//!
//! * [`rsc_syntax`] parses the RSC input language,
//! * [`rsc_ssa`] translates it to the functional core IRSC (§3.1),
//! * this crate generates subtyping constraints over Liquid templates
//!   (Figure 5 + §4's reflection, hierarchies, mutability, overloads),
//! * [`rsc_liquid`] runs the predicate-abstraction fixpoint (§2.2),
//! * [`rsc_smt`] decides the verification conditions.
//!
//! # Quickstart
//!
//! ```
//! use rsc_core::{check_program, CheckerOptions};
//!
//! let result = check_program(
//!     r#"
//!     type nat = {v: number | 0 <= v};
//!     function abs(x: number): nat {
//!         if (x < 0) { return 0 - x; }
//!         return x;
//!     }
//!     "#,
//!     CheckerOptions::default(),
//! );
//! assert!(result.ok(), "{:?}", result.diagnostics);
//! ```

#![warn(missing_docs)]

mod calls;
mod checker;
mod diag;
mod rtype;
mod synth;
mod table;

pub use checker::{
    check_program, check_program_ast, generate_artifacts, solve_artifacts, BundleReport,
    CheckArtifacts, CheckResult, CheckStats, Checker, CheckerOptions, Env, RetainedBundle, Unit,
};
pub use diag::{Diagnostic, Severity};
pub use rsc_liquid::{Blame, ObligationKind};
pub use rsc_logic::Sym;
pub use rsc_syntax::{LineCol, LineIndex, Span};
pub use rtype::{Base, Prim, RFun, RType};
pub use table::{ClassTable, FieldInfo, MethodInfo, ObjInfo, ResolveError};
