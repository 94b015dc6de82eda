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
//! 2. **Lints** ([`lint_program`]): a worklist-based forward dataflow
//!    analysis over the IRSC SSA form ([`analyze_program`]) computes,
//!    per SSA value per function unit, a reduced product of
//!
//!    * **intervals** over `i64` with ±∞ (widening at loop heads,
//!      narrowing on descent),
//!    * **congruences** `v ≡ r (mod m)`, and
//!    * **definite nullness / truthiness**,
//!
//!    and the lints read it: advisory warnings with stable codes
//!    L0001–L0004 (unreachable branch, tautological guard, dead
//!    refinement, always-out-of-bounds index). Lints may use the full
//!    product including congruences, and never affect type errors.
//!    The discharge never reads these facts.

#![warn(missing_docs)]

pub mod domain;
pub mod engine;
pub mod entail;
pub mod lint;

pub use domain::{AbsVal, Congruence, Interval, Nullness, Truth};
pub use engine::{analyze_body, analyze_program, AbsEnv, BodyFacts, ProgramFacts};
pub use entail::{entailed_by, FactEnv, MAX_INT_DISEQS};
pub use lint::{lint_program, Lint};
