//! # rsc-interp
//!
//! Executable operational semantics for both of the paper's languages:
//!
//! * [`frsc`] — the imperative surface language (Figure 10),
//! * [`irsc`] — the SSA functional core (Figure 12).
//!
//! Running both on the same program tests **SSA Consistency** (Theorem 1:
//! the translation preserves behaviour), and running verified programs
//! tests **type safety** end-to-end (Theorems 2–5: verified programs never
//! hit [`RuntimeError`]s).
//!
//! # Example
//!
//! ```
//! use rsc_interp::{run_frsc, run_irsc, Value};
//!
//! let src = "var x = 3; var y = 0;
//!            if (x > 2) { y = x * 2; } else { y = 0; }
//!            return y;";
//! let prog = rsc_syntax::parse_program(src).unwrap();
//! let ir = rsc_ssa::transform_program(&prog);
//! let a = run_frsc(&prog, 10_000).unwrap();
//! let b = run_irsc(&ir, 10_000).unwrap();
//! assert_eq!(a, Value::Num(6));
//! assert_eq!(a, b);
//! ```

#![warn(missing_docs)]

pub mod frsc;
pub mod irsc;
pub mod ops;
pub mod value;

pub use frsc::{run_frsc, FrscInterp};
pub use irsc::{run_irsc, IrscInterp};
pub use value::{Heap, Obj, RuntimeError, Value};
