//! # rsc-absint
//!
//! Abstract interpretation for the RSC refinement checker, in two
//! independent parts with *different* soundness budgets:
//!
//! 1. **Obligation discharge** ([`entailed_by`]): before an atomic
//!    subtyping obligation reaches the SMT solver, the checker asks
//!    whether the obligation's own hypotheses abstractly entail its
//!    goal. A `true` answer skips the SMT query. The pre-pass may only
//!    *discharge* obligations, never report errors, and every discharge
//!    must be re-derivable by the solver from the same hypotheses — so
//!    the entailment procedure is confined to a comparison-only
//!    fragment the solver also decides: `false`, integer comparisons
//!    and reference equalities as hypotheses, `true`, integer
//!    comparisons and reference equalities as goals (linear arithmetic
//!    with integer tightening and ground equalities). Contradictory
//!    hypotheses prove only goals over binder-sorted variables, the
//!    goals the solver can state. The `rsc fuzz` differential oracle
//!    replays discharged obligations through the solver to enforce the
//!    contract. A caller with many goals over one hypothesis list (the
//!    fixpoint's candidate qualifiers) folds the list once with
//!    [`FactEnv::of_hyps`] and asks each goal with the read-only
//!    [`FactEnv::entails`], which answers exactly as [`entailed_by`]
//!    does on a fresh fold.
//! 2. **Lints** ([`lint_program`]): each function body is lowered to
//!    one CFG, and a worklist-based forward dataflow analysis computes,
//!    per basic block, the entry facts of a product of
//!
//!    * **intervals** over `i64` with ±∞ (widening at loop heads), for
//!      integers and array lengths, and
//!    * **definite nullness / truthiness**,
//!
//!    and the lints read it in one walk over the blocks: advisory
//!    warnings with stable codes L0001–L0004 (unreachable branch,
//!    tautological guard, dead refinement, always-out-of-bounds index).
//!    Lints never affect type errors, and the discharge never reads
//!    these facts.

#![warn(missing_docs)]

mod domain;
mod engine;
pub mod entail;
mod lint;

pub use entail::{entailed_by, BinderSorts, FactEnv, MAX_INT_DISEQS};
pub use lint::{lint_program, Lint};
