//! # rsc-logic
//!
//! The refinement logic underlying Refined TypeScript (RSC), following
//! §3.2 of *Refinement Types for TypeScript* (PLDI 2016).
//!
//! Logical predicates `p` are quantifier-free formulas over terms `t`:
//! variables, constants, the value variable `v` (written ν in the paper),
//! the receiver `this`, field accesses `t.f`, uninterpreted function
//! applications `f(t̄)` (e.g. `len(a)`, `ttag(x)`, `impl(x, C)`), linear
//! arithmetic, and 32-bit bit-vector operations (used to encode interface
//! hierarchies, §4.3 of the paper).
//!
//! The crate also provides:
//!
//! * [`Sort`]s and sort checking ([`SortEnv`]) so that predicates can be
//!   checked well-formed before being shipped to the SMT layer,
//! * capture-free [`Subst`]itutions,
//! * κ-variables ([`KVar`]) with pending substitutions, the unknowns of
//!   Liquid type inference (§2.2.1),
//! * [`Qualifier`]s, the logical templates from which Liquid inference
//!   builds candidate refinements,
//! * a three-valued evaluator ([`eval_pred`]) of predicates under a
//!   concrete [`Interp`]retation, which checks counterexample models.
//!
//! # Example
//!
//! ```
//! use rsc_logic::{Pred, Term, CmpOp};
//!
//! // 0 <= v && v < len(a)   — the `idx<a>` refinement from the paper.
//! let v = Term::var("v");
//! let len_a = Term::app("len", vec![Term::var("a")]);
//! let p = Pred::and(vec![
//!     Pred::cmp(CmpOp::Le, Term::int(0), v.clone()),
//!     Pred::cmp(CmpOp::Lt, v, len_a),
//! ]);
//! assert_eq!(p.to_string(), "(0 <= v && v < len(a))");
//! ```

#![warn(missing_docs)]

mod eval;
mod fx;
mod kvar;
mod pred;
mod qualifier;
mod sort;
mod subst;
mod sym;
mod term;

pub use eval::{eval_pred, eval_term, Interp, Value};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use kvar::{KVar, KVarId};
pub use pred::{CmpOp, Pred};
pub use qualifier::{prelude_qualifiers, Qualifier};
pub use sort::{check_pred_in, sort_of_in, FunSig, Sort, SortEnv, SortLookup, SortScope};
pub use subst::Subst;
pub use sym::Sym;
pub use term::{BinOp, Term};

/// The reserved name of the value variable (ν in the paper).
pub const VV: &str = "v";

/// The reserved name of the receiver variable.
pub const THIS: &str = "this";

/// Sentinel integer constant used to model the `undefined` value after sort
/// erasure (see DESIGN.md). It is unreachable by ordinary program arithmetic.
pub const UNDEFINED_SENTINEL: i64 = i64::MIN + 0x7001;

/// Sentinel integer constant used to model the `null` value after sort
/// erasure.
pub const NULL_SENTINEL: i64 = i64::MIN + 0x7002;
