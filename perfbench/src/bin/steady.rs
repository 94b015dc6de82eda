//! Steadiness check for the benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin steady -- \
//!     BENCHMARK.json SET_A [SET_B]
//! ```
//!
//! A set is a file holding the result lines of several runs of one
//! workload (one JSON object per line; other lines are skipped, so whole
//! captured outputs work too). For every metric the tool prints each
//! set's median, quartiles and spread (interquartile distance over the
//! median). It flags an end-to-end metric whose spread exceeds its bound
//! in `BENCHMARK.json` (or a third of it, as a warning), and, given two
//! sets, one whose second median is worse than the first by more than the
//! bound. Exits 1 if anything is flagged.

use std::collections::BTreeMap;

use perfbench::stats;
use rsc_incr::Json;

struct Bound {
    bound: f64,
    lower_is_better: bool,
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Metric name → (bound, direction) for every end-to-end metric.
fn bounds(benchmark: &Json) -> BTreeMap<String, Bound> {
    let mut out = BTreeMap::new();
    if let Some(Json::Arr(metrics)) = benchmark.get("end_to_end") {
        for m in metrics {
            if let (Some(name), Some(bound)) = (
                m.get("name").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
            ) {
                let lower = m.get("better").and_then(Json::as_str) != Some("higher");
                out.insert(
                    name.to_string(),
                    Bound {
                        bound,
                        lower_is_better: lower,
                    },
                );
            }
        }
    }
    out
}

/// Metric name → values, one per run in the set.
fn load_set(path: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut runs = 0;
    for line in read(path)?.lines() {
        let Ok(v) = Json::parse(line.trim()) else {
            continue;
        };
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            continue;
        };
        runs += 1;
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                out.entry(name.clone()).or_default().push(x);
            }
        }
    }
    if runs == 0 {
        return Err(format!("{path}: no result lines"));
    }
    Ok(out)
}

fn summary(values: &[f64]) -> String {
    let (q1, q2, q3) = stats::quartiles(values);
    format!(
        "n={:<3} median {:>12.4} q1 {:>12.4} q3 {:>12.4} spread {:>7.4}",
        values.len(),
        q2,
        q1,
        q3,
        stats::spread(values)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 || args.len() > 3 {
        eprintln!("usage: steady BENCHMARK.json SET_A [SET_B]");
        std::process::exit(2);
    }
    let run = || -> Result<bool, String> {
        let benchmark = Json::parse(&read(&args[0])?)?;
        let bounds = bounds(&benchmark);
        let sets: Vec<BTreeMap<String, Vec<f64>>> = args[1..]
            .iter()
            .map(|p| load_set(p))
            .collect::<Result<_, _>>()?;
        let mut flagged = false;
        for (name, values) in &sets[0] {
            println!("{name}");
            let bound = bounds.get(name);
            for (k, set) in sets.iter().enumerate() {
                let Some(v) = set.get(name) else { continue };
                let spread = stats::spread(v);
                let mut flag = String::new();
                if let Some(b) = bound {
                    if spread > b.bound {
                        // Set-up time is held to its median only: its
                        // spread follows the seed's inputs.
                        if name != "setup_s" {
                            flagged = true;
                        }
                        flag = format!("  SPREAD > bound {}", b.bound);
                    } else if spread > b.bound / 3.0 {
                        flag = format!("  spread > bound/3 ({:.4})", b.bound / 3.0);
                    }
                }
                println!("  set {}: {}{flag}", (b'A' + k as u8) as char, summary(v));
            }
            if let (Some(b), Some(second)) = (bound, sets.get(1).and_then(|s| s.get(name))) {
                let (m1, m2) = (stats::median(values), stats::median(second));
                let worse = if b.lower_is_better {
                    (m2 - m1) / m1
                } else {
                    (m1 - m2) / m1
                };
                let flag = if worse > b.bound {
                    flagged = true;
                    "  WORSE > bound"
                } else {
                    ""
                };
                println!("  B vs A: {:+.4} worse (bound {}){flag}", worse, b.bound);
            }
        }
        Ok(flagged)
    };
    match run() {
        Ok(false) => {}
        Ok(true) => std::process::exit(1),
        Err(e) => {
            eprintln!("steady: {e}");
            std::process::exit(2);
        }
    }
}
