//! The pure parts of the benchmark of record, shared by the `perfbench`
//! harness and the `steady` tool: order statistics and self-time
//! attribution over spans.

pub mod stats;
pub mod trace;
