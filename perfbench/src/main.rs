//! The RSC benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin perfbench -- \
//!     --workload corpus-cold|edit-session|warm-batch --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run measures one workload in
//! process, checks every verdict against a known answer, prints a
//! human-readable report and, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `perfbench/README.md` for the workloads and metric definitions.

mod batch;
mod common;
mod corpus;
mod edit;

use common::{Outcome, Settings};

const USAGE: &str =
    "usage: perfbench --workload corpus-cold|edit-session|warm-batch --seed N --seconds S --trace 0|1";

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<(), String> {
    // `RSC_JOBS`, `RSC_INCR_SMT`, `RSC_CACHE_CAP` and `RSC_DEBUG` silently
    // override checker options; a run under any of them measures
    // something else.
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("RSC_"))
        .collect();
    if !overrides.is_empty() {
        return Err(format!(
            "refusing to run with {} set: these variables override the pinned checker options",
            overrides.join(", ")
        ));
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{USAGE}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    let workload = value("--workload")?.to_string();
    let seed: u64 = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let settings = Settings {
        seed,
        seconds,
        trace,
    };

    let mut outcome = match workload.as_str() {
        "corpus-cold" => corpus::run(&settings)?,
        "edit-session" => edit::run(&settings)?,
        "warm-batch" => batch::run(&settings)?,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    if trace {
        common::complete(&mut outcome, common::PER_LAYER);
    } else {
        outcome.metric("peak_rss_mb", common::peak_rss_mb(), "MB", 1);
        common::complete(&mut outcome, common::END_TO_END);
    }
    print_report(&workload, &settings, &outcome);
    Ok(())
}

fn print_report(workload: &str, settings: &Settings, out: &Outcome) {
    println!(
        "perfbench {workload}: seed {}, {} s, trace {}",
        settings.seed,
        settings.seconds,
        u8::from(settings.trace)
    );
    for (k, v) in machine_info() {
        println!("  {k}: {v}");
    }
    for (k, v) in &out.record {
        println!("  {k}: {v}");
    }
    println!(
        "  operations: {} attempted, {} failed (failed_ratio {})",
        out.attempted,
        out.failed,
        common::ratio(out.failed, out.attempted)
    );
    for f in &out.failures {
        println!("  FAILED {f}");
    }
    let not_finite: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    for p in &out.problems {
        println!("  PROBLEM {p}");
    }
    for name in &not_finite {
        println!("  PROBLEM {name} is not a finite number");
    }
    for m in &out.metrics {
        println!(
            "  {:<40} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let correct = out.failed == 0 && out.problems.is_empty() && not_finite.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; a non-finite value (reported as a problem) is written as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// `nproc`, CPU model, kernel and commit, recorded with every result.
fn machine_info() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("nproc", nproc),
        ("cpu", cpu),
        ("kernel", kernel),
        ("commit", commit),
    ]
}
