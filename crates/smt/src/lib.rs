//! # rsc-smt
//!
//! An SMT solver for the decidable logic used by Refined TypeScript
//! (*Refinement Types for TypeScript*, PLDI 2016): quantifier-free linear
//! integer arithmetic, equality with uninterpreted functions, 32-bit
//! bit-vectors (interface-hierarchy flags, §4.3) and distinct string
//! constants (`ttag` reflection tags, §4.2).
//!
//! The paper discharges verification conditions with Z3 [Nelson 1981 /
//! de Moura–Bjørner]; this crate is a from-scratch replacement covering
//! exactly the fragment RSC emits:
//!
//! * [`sat`] — a CDCL SAT core (watched literals, 1UIP learning),
//! * [`euf`] — congruence closure,
//! * [`lia`] — integer-tightened Fourier–Motzkin with equality
//!   substitution and disequality splitting,
//! * [`bv`] — eager bit-blasting of 32-bit vector operations,
//! * [`theory`] — EUF+LIA combination with bounded Nelson–Oppen equality
//!   propagation,
//! * [`incr`] — the lazy DPLL(T) driver, [`IncrContext::query`]: one
//!   loop for every query, on a context that persists across one
//!   constraint's queries or lives for one,
//! * [`solver`] — the validity front end [`Solver::is_valid`], with the
//!   VC cache ([`cache`]) and the model pool in front of the driver,
//! * [`model`] — counterexample models of refuting queries, checked by
//!   [`rsc_logic::eval_pred`] and pooled per constraint check so one
//!   model can refute sibling candidates without a query.
//!
//! Soundness contract: the only answer verification relies on is
//! [`SatResult::Unsat`], and every resource cap or incompleteness in the
//! solver errs toward `Sat`/`Unknown`, i.e. toward *rejecting* programs.

#![warn(missing_docs)]

pub mod atom;
pub mod bv;
pub mod cache;
pub mod cnf;
pub mod encode;
pub mod euf;
pub mod incr;
pub mod lia;
pub mod model;
pub mod node;
pub mod sat;
pub mod solver;
pub mod theory;

pub use cache::{canonical_query, CacheCounters, CanonicalQuery, DiskCache, VcCache};
pub use incr::{IncrContext, MAX_ROUNDS};
pub use model::{Model, ModelPool};
pub use solver::{SatResult, Solver, SolverStats};
