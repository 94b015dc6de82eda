//! # rsc-obs
//!
//! The observability layer for the RSC workspace: hierarchical phase
//! spans, a Chrome-trace-event writer, and a metrics registry with
//! monotonic counters and fixed-bucket histograms.
//!
//! The paper's evaluation (§6, Fig. 6) is a *timing* table, so the
//! reproduction needs per-phase cost accounting — parse → SSA →
//! class-table → constraint-gen → partition → per-bundle solve (down to
//! individual fixpoint iterations and SMT queries) — not just the
//! counters `CheckStats` already carries. This crate provides that
//! accounting with two hard properties:
//!
//! * **Disabled is (almost) free.** Collection is off by default and
//!   gated on one [`AtomicBool`](std::sync::atomic::AtomicBool); a disabled [`span!`] is a relaxed
//!   atomic load returning a `None` guard — no clock read, no
//!   allocation, no lock. The CI `observability` leg asserts the bound.
//! * **Collection never feeds back into verdicts.** Spans record wall
//!   time only; nothing in the checker, fixpoint, or SMT solver reads
//!   the collector. Diagnostics are byte-identical with profiling on or
//!   off, at any `--jobs` (enforced by `tests/profile_determinism.rs`
//!   at the workspace root).
//!
//! Worker threads of the vendored work-stealing pool finish spans in
//! scheduling order, so the raw span log is wall-clock-ordered and
//! nondeterministic. Deterministic surfaces ([`Profile::phase_totals`])
//! therefore aggregate by *phase name* (and sum durations), never by
//! completion order; per-bundle data is keyed by bundle index via the
//! span's `unit` field.
//!
//! Like everything under `third_party/`, this crate is hand-rolled and
//! zero-dependency: the build environment has no registry access.

#![warn(missing_docs)]

mod histogram;
mod registry;
mod span;
mod trace;

pub use histogram::Histogram;
pub use registry::Registry;
pub use span::{
    drain, enabled, set_enabled, span, span_unit, Phase, Profile, SpanGuard, SpanRecord,
};
pub use trace::chrome_trace_json;

/// Start a phase span; the returned guard records the span when dropped.
///
/// ```
/// {
///     let _sp = rsc_obs::span!("solve");
///     // ... timed work ...
/// } // span recorded here (if collection is enabled)
/// ```
///
/// The two-argument form attaches a numeric unit (bundle index,
/// iteration number, ...):
///
/// ```
/// let _sp = rsc_obs::span!("solve-bundle", unit = 3usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, unit = $unit:expr) => {
        $crate::span_unit($name, $unit as u64)
    };
}
