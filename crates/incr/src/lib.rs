//! # rsc-incr
//!
//! Incremental checking sessions: the layer that turns the batch checker
//! of [`rsc_core`] into a long-lived service whose unit of work is "one
//! function changed, re-check now" instead of "check the whole program".
//!
//! A [`CheckSession`] persists across edits and holds a bounded memo of
//! bundle verdicts keyed by their canonical cross-run fingerprints
//! (every verdict of the last two runs, plus the most recently used
//! older ones) and the run-spanning VC cache (legal since
//! `rsc_smt::cache` folds uninterpreted-symbol signatures into its
//! keys). On an edit the session runs the front end once (SSA inside
//! `rsc_core::generate_artifacts`) and re-generates constraints (cheap,
//! and mostly VC-cache hits), re-solves exactly the bundles whose
//! canonical problem no remembered run solved, reports as dirty the
//! units of the bundles the previous run did not have, and merges fresh
//! diagnostics with retained ones — byte-identical to a from-scratch
//! run, which `tests/incremental_equivalence.rs` enforces over random
//! edit scripts.
//!
//! One layer up, a [`Workspace`] scales sessions to *documents*: one
//! [`CheckSession`] per URI/path over a shared VC cache, `import`
//! resolution into a merged (concatenated) program, and cross-file
//! dependency edges keyed by each file's export-surface hash, taken off
//! the AST the resolver parsed — see [`workspace`].
//!
//! Two front-ends surface the subsystem through the `rsc` binary:
//! `rsc serve` (an LSP subset as newline-delimited JSON-RPC on stdin,
//! with per-URI `publishDiagnostics` — see [`serve`]) and `rsc --watch`
//! (re-check on mtime change of any file in the watched documents'
//! import closures).

#![warn(missing_docs)]

pub mod json;
pub mod persist;
pub mod serve;
mod session;
pub mod workspace;

pub use json::Json;
pub use persist::BundleStore;
pub use serve::Serve;
pub use session::{CheckSession, IncrStats, SessionOutcome};
pub use workspace::{
    qualified_program, resolve_closure, DocReport, Merged, ModuleFile, Workspace, WorkspaceError,
};

// Re-exported so batch drivers can build the shared cache
// [`Workspace::with_cache`] expects without depending on `rsc_smt`.
pub use rsc_smt::VcCache;
