//! # rsc-ssa
//!
//! The SSA translation from FRSC (the imperative surface language) to
//! IRSC (the functional core the refinement checker operates on), per
//! §3.1 of *Refinement Types for TypeScript* (PLDI 2016).
//!
//! Assignments become `let` bindings of fresh variables; conditionals
//! become `letif` with Φ-variables joining the branches (rule S-ITE);
//! loops — which the paper's formal core omits but its tool supports
//! (§2.2.2) — become `letloop` with Φ-variables at the loop head, whose
//! refinements the Liquid fixpoint infers as loop invariants.
//!
//! # Example
//!
//! ```
//! let prog = rsc_syntax::parse_program(
//!     "function f(c: boolean): number {
//!          var x = 0;
//!          if (c) { x = 1; }
//!          return x;
//!      }",
//! ).unwrap();
//! let ir = rsc_ssa::transform_program(&prog);
//! assert_eq!(ir.funs.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod ir;
pub mod transform;

pub use cfg::{Block, BlockId, Cfg, Edge, Stmt, Terminator};
pub use ir::{Body, IrClass, IrCtor, IrExpr, IrFun, IrMethod, IrProgram, LoopPhi, Phi};
pub use transform::{transform_program, Ssa, SsaEnv};
