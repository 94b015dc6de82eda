//! What every workload shares: run settings, counters, the per-layer
//! vocabulary, span collection and the shape of a result.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rsc_core::{CheckResult, CheckerOptions};

use perfbench::stats;
use perfbench::trace::{self, Attribution, Span};

/// Command-line settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Workload seed: the only source of the workload's inputs.
    pub seed: u64,
    /// Seconds the timed part runs for (whole passes, at least
    /// [`MIN_SAMPLES`] operations).
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end run.
    pub trace: bool,
}

/// A percentile is reported only from at least ten samples beyond it,
/// so p90 needs 100.
pub const MIN_SAMPLES: usize = 100;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Checker options with every knob pinned: one worker per check (file
/// parallelism comes from the pool in `warm-batch`), no environment
/// fallbacks left to resolve (the harness refuses `RSC_*`).
pub fn options() -> CheckerOptions {
    CheckerOptions {
        path_sensitivity: true,
        prelude_qualifiers: true,
        mine_qualifiers: true,
        jobs: 1,
        vc_cache: true,
        cache_capacity: 0,
        incremental_smt: true,
        absint: true,
        lints: true,
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

/// A finished workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed (first few only).
    pub failures: Vec<String>,
    /// Non-operation correctness problems (e.g. a counter that did not
    /// repeat exactly at one worker).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `key: value` facts recorded with the result (workers, sizes,
    /// exact counters).
    pub record: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    /// Counts one operation; `Err` marks it failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })
}

/// Sorted error codes of a check (warnings excluded).
pub fn error_codes(r: &CheckResult) -> BTreeSet<String> {
    r.diagnostics
        .iter()
        .map(|d| d.code.unwrap_or("(no code)").to_string())
        .collect()
}

/// Compares a check's error codes against its known answer.
pub fn verdict(got: &BTreeSet<String>, want: &BTreeSet<String>, what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: error codes {got:?}, known answer {want:?}"
        ))
    }
}

/// Deterministic work counters, keyed by metric name. At one worker a
/// pass's counters must repeat exactly.
pub type Counters = BTreeMap<&'static str, u64>;

/// Adds the solver work a check actually did (bundles reused from a
/// session or the disk tier did no work and are skipped).
pub fn count_check(c: &mut Counters, r: &CheckResult) {
    *c.entry("rsc_core.constraints").or_default() += r.stats.constraints as u64;
    *c.entry("rsc_core.kvars").or_default() += r.stats.kvars as u64;
    *c.entry("rsc_core.bundles").or_default() += r.stats.bundles as u64;
    *c.entry("cache_hits").or_default() += r.stats.cache_hits;
    *c.entry("cache_misses").or_default() += r.stats.cache_misses;
    for b in r.bundle_reports.iter().filter(|b| !b.cached) {
        *c.entry("rsc_liquid.queries").or_default() += b.smt_queries;
        *c.entry("rsc_absint.discharged").or_default() += b.discharged;
        *c.entry("rsc_smt.solved").or_default() += b.smt.queries;
        *c.entry("valid").or_default() += b.smt.valid;
        *c.entry("rsc_smt.sat_rounds").or_default() += b.smt.sat_rounds;
        *c.entry("rsc_smt.theory_conflicts").or_default() += b.smt.theory_conflicts;
    }
}

/// Adds `other` into `c`.
pub fn add_counters(c: &mut Counters, other: &Counters) {
    for (k, v) in other {
        *c.entry(k).or_default() += v;
    }
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Checks that a pass's counters equal the first pass's.
pub fn same_counters(first: &Counters, now: &Counters, pass: usize, out: &mut Outcome) {
    if first != now && out.problems.len() < 4 {
        out.problems.push(format!(
            "pass {pass}: work counters {now:?} differ from pass 0's {first:?}"
        ));
    }
}

/// The layer each program span's self time is charged to.
pub fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "parse" => "rsc_syntax.parse_ms",
        "ssa" => "rsc_ssa.ssa_ms",
        "class-table" => "rsc_core.class_table_ms",
        "constraint-gen" => "rsc_core.constraint_gen_ms",
        "partition" => "rsc_core.partition_ms",
        "solve" => "rsc_core.solve_driver_ms",
        "absint" => "rsc_absint.lints_ms",
        "solve-bundle" | "fixpoint-iter" => "rsc_liquid.fixpoint_self_ms",
        "smt-query" => "rsc_smt.query_ms",
        "imports" => "rsc_incr.workspace.imports_ms",
        "check" => "rsc_incr.session.self_ms",
        _ => return None,
    })
}

/// Rows of per-operation medians a report lists.
const ROWS: usize = 16;

/// Name of the harness's own span around each public call.
pub const OP_SPAN: &str = "perfbench.op";
/// Name of the zero-length spans marking a traced pass's window.
const MARK_SPAN: &str = "perfbench.mark";

/// Turns the `rsc_obs` collector on (emptied) and marks a traced pass's
/// start on the calling thread.
pub fn begin_traced_pass() {
    rsc_obs::set_enabled(true);
    rsc_obs::drain();
    drop(rsc_obs::span(MARK_SPAN));
}

/// What one traced pass left in the collector.
pub struct PassTrace {
    pub attribution: Attribution,
    /// Work counted in spans: parse calls and fixpoint iterations.
    pub counts: Counters,
}

/// Marks the pass's end, drains and turns the collector off, and
/// attributes the window between the two marks.
pub fn end_traced_pass() -> PassTrace {
    drop(rsc_obs::span(MARK_SPAN));
    let profile = rsc_obs::drain();
    rsc_obs::set_enabled(false);
    let marks: Vec<u64> = profile
        .spans
        .iter()
        .filter(|s| s.name == MARK_SPAN)
        .map(|s| s.start_ns)
        .collect();
    let (from, to) = (
        marks.iter().copied().min().unwrap_or(0),
        marks.iter().copied().max().unwrap_or(0),
    );
    let mut counts = Counters::from([
        ("rsc_syntax.parse_calls", 0),
        ("rsc_liquid.fixpoint_iters", 0),
    ]);
    let spans: Vec<Span> = profile
        .spans
        .iter()
        .filter(|s| s.name != MARK_SPAN)
        .map(|s| {
            match s.name {
                "parse" => *counts.entry("rsc_syntax.parse_calls").or_default() += 1,
                "fixpoint-iter" => *counts.entry("rsc_liquid.fixpoint_iters").or_default() += 1,
                _ => {}
            }
            Span {
                layer: layer_of(s.name),
                tid: s.tid,
                depth: s.depth,
                start_ns: s.start_ns,
                end_ns: s.start_ns + s.dur_ns,
            }
        })
        .collect();
    PassTrace {
        attribution: trace::attribute(&spans, from, to),
        counts,
    }
}

/// Reports a traced run's layer times per pass: wall-time self times
/// (which add up to `traced_wall_ms` with `unattributed_ms`), the same
/// summed across workers, and the tracing overhead.
pub fn report_layers(
    out: &mut Outcome,
    total: &Attribution,
    passes: usize,
    traced_walls: &[f64],
    untraced_walls: &[f64],
) {
    let per_pass = |ns: f64| ns / passes.max(1) as f64 / 1e6;
    // Each layer with a self time is declared twice: `<layer>_ms` and
    // `<layer>_summed_ms`.
    for (summed_name, _) in PER_LAYER.iter().filter(|(n, _)| n.ends_with("_summed_ms")) {
        let layer = format!("{}_ms", summed_name.trim_end_matches("_summed_ms"));
        let wall = total.wall.get(layer.as_str()).copied().unwrap_or(0.0);
        let summed = total.summed.get(layer.as_str()).copied().unwrap_or(0.0);
        out.metric(&layer, per_pass(wall), "ms", passes);
        out.metric(summed_name, per_pass(summed), "ms", passes);
    }
    out.metric(
        "unattributed_ms",
        per_pass(total.unattributed_ns),
        "ms",
        passes,
    );
    out.metric("traced_wall_ms", per_pass(total.wall_ns), "ms", passes);
    out.metric(
        "rsc_obs.overhead_ratio",
        stats::median(traced_walls) / stats::median(untraced_walls) - 1.0,
        "ratio",
        traced_walls.len().min(untraced_walls.len()),
    );
}

/// The solver counters and ratios of one pass (the workloads whose
/// checks return a `CheckResult`).
pub fn report_counters(out: &mut Outcome, c: &Counters, passes: usize) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    for name in [
        "rsc_syntax.parse_calls",
        "rsc_core.constraints",
        "rsc_core.kvars",
        "rsc_core.bundles",
        "rsc_absint.discharged",
        "rsc_liquid.fixpoint_iters",
        "rsc_liquid.queries",
        "rsc_smt.solved",
        "rsc_smt.sat_rounds",
        "rsc_smt.theory_conflicts",
    ] {
        out.metric(name, get(name) as f64, "count", passes);
    }
    let discharged = get("rsc_absint.discharged");
    out.metric(
        "rsc_absint.discharge_ratio",
        ratio(discharged, discharged + get("rsc_liquid.queries")),
        "ratio",
        passes,
    );
    out.metric(
        "rsc_smt.valid_ratio",
        ratio(get("valid"), get("rsc_smt.solved")),
        "ratio",
        passes,
    );
}

/// The VC-cache ratio and size.
pub fn report_cache(out: &mut Outcome, hits: u64, misses: u64, entries: u64) {
    out.metric(
        "rsc_smt.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        1,
    );
    out.metric("rsc_smt.cache_entries", entries as f64, "count", 1);
}

/// The session and workspace counters of one pass.
pub fn report_session(out: &mut Outcome, c: &Counters, passes: usize) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    let (solved, reused, checks) = (get("solved"), get("reused"), get("checks"));
    for (name, value, unit) in [
        (
            "rsc_incr.session.solved_per_check",
            ratio(solved, checks),
            "ratio",
        ),
        (
            "rsc_incr.session.reuse_ratio",
            ratio(reused, reused + solved),
            "ratio",
        ),
        (
            "rsc_incr.session.fast_path_ratio",
            ratio(get("fast_path"), checks),
            "ratio",
        ),
    ] {
        out.metric(name, value, unit, passes);
    }
    for name in [
        "rsc_incr.workspace.closure_files",
        "rsc_incr.workspace.importers_rechecked",
        "rsc_incr.workspace.importers_skipped",
    ] {
        out.metric(name, get(name) as f64, "count", passes);
    }
}

/// Every end-to-end metric, in report order, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("latency_ms_geomean", "ms"),
    ("throughput_loc_per_s", "LOC/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Every per-layer metric, in report order, with its unit. A traced run
/// prints all of them on every workload; one whose layer the workload
/// bypasses, or cannot observe through the surface it drives, reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rsc_syntax.parse_ms", "ms"),
    ("rsc_syntax.parse_calls", "count"),
    ("rsc_ssa.ssa_ms", "ms"),
    ("rsc_core.class_table_ms", "ms"),
    ("rsc_core.constraint_gen_ms", "ms"),
    ("rsc_core.partition_ms", "ms"),
    ("rsc_core.solve_driver_ms", "ms"),
    ("rsc_core.constraints", "count"),
    ("rsc_core.kvars", "count"),
    ("rsc_core.bundles", "count"),
    ("rsc_absint.lints_ms", "ms"),
    ("rsc_absint.discharged", "count"),
    ("rsc_absint.discharge_ratio", "ratio"),
    ("rsc_absint.setup_discharge_ratio", "ratio"),
    ("rsc_liquid.fixpoint_self_ms", "ms"),
    ("rsc_liquid.fixpoint_iters", "count"),
    ("rsc_liquid.queries", "count"),
    ("rsc_smt.query_ms", "ms"),
    ("rsc_smt.solved", "count"),
    ("rsc_smt.sat_rounds", "count"),
    ("rsc_smt.theory_conflicts", "count"),
    ("rsc_smt.valid_ratio", "ratio"),
    ("rsc_smt.cache_hit_ratio", "ratio"),
    ("rsc_smt.cache_entries", "count"),
    ("threadpool.busy_ratio", "ratio"),
    ("threadpool.max_job_share", "ratio"),
    ("rsc_incr.session.self_ms", "ms"),
    ("rsc_incr.session.solved_per_check", "ratio"),
    ("rsc_incr.session.reuse_ratio", "ratio"),
    ("rsc_incr.session.fast_path_ratio", "ratio"),
    ("rsc_incr.workspace.imports_ms", "ms"),
    ("rsc_incr.workspace.closure_files", "count"),
    ("rsc_incr.workspace.importers_rechecked", "count"),
    ("rsc_incr.workspace.importers_skipped", "count"),
    ("rsc_incr.serve.overhead_ms", "ms"),
    ("rsc_incr.serve.response_bytes", "bytes"),
    ("rsc_incr.persist.open_ms", "ms"),
    ("rsc_incr.persist.bundles_loaded", "count"),
    ("rsc_incr.persist.vc_entries_loaded", "count"),
    ("rsc_incr.persist.disk_bytes", "bytes"),
    ("rsc_obs.overhead_ratio", "ratio"),
    ("unattributed_ms", "ms"),
    ("traced_wall_ms", "ms"),
    ("rsc_syntax.parse_summed_ms", "ms"),
    ("rsc_ssa.ssa_summed_ms", "ms"),
    ("rsc_core.class_table_summed_ms", "ms"),
    ("rsc_core.constraint_gen_summed_ms", "ms"),
    ("rsc_core.partition_summed_ms", "ms"),
    ("rsc_core.solve_driver_summed_ms", "ms"),
    ("rsc_absint.lints_summed_ms", "ms"),
    ("rsc_liquid.fixpoint_self_summed_ms", "ms"),
    ("rsc_smt.query_summed_ms", "ms"),
    ("rsc_incr.workspace.imports_summed_ms", "ms"),
    ("rsc_incr.session.self_summed_ms", "ms"),
    ("rsc_incr.serve.overhead_summed_ms", "ms"),
];

/// Orders a run's metrics as `declared`, adding a 0 for each one the
/// workload did not report; a metric reported twice or not declared is
/// a problem.
pub fn complete(out: &mut Outcome, declared: &[(&str, &'static str)]) {
    let mut by_name: BTreeMap<String, Metric> = BTreeMap::new();
    for m in std::mem::take(&mut out.metrics) {
        if by_name.contains_key(&m.name) {
            out.problems
                .push(format!("metric {} reported twice", m.name));
        }
        by_name.insert(m.name.clone(), m);
    }
    out.metrics = declared
        .iter()
        .map(|&(name, unit)| {
            by_name.remove(name).unwrap_or(Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
                samples: 0,
            })
        })
        .collect();
    for name in by_name.keys() {
        out.problems.push(format!("undeclared metric {name}"));
    }
}

/// The timed loop shared by every workload: whole passes until the
/// deadline has passed and at least [`MIN_SAMPLES`] operations ran (a
/// hard cap of four times the run length bounds a slow machine). In a
/// traced run every other pass is traced.
pub fn timed_passes(
    settings: &Settings,
    ops_per_pass: usize,
    mut pass: impl FnMut(usize, bool),
) -> usize {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= settings.seconds && n * ops_per_pass >= MIN_SAMPLES;
        // Traced runs end on a traced pass so both kinds are balanced.
        if (enough && (!settings.trace || n % 2 == 0)) || elapsed >= 4.0 * settings.seconds {
            return n;
        }
        pass(n, settings.trace && n % 2 == 1);
        n += 1;
    }
}

/// The end-to-end latency metrics over every timed operation, plus the
/// geometric mean of each distinct operation's median. Each operation's
/// own median is recorded too, slowest first (at most [`ROWS`] rows).
pub fn report_latency(out: &mut Outcome, by_op: &[Vec<f64>], names: &[String]) {
    let mut rows: Vec<(f64, &String, usize)> = by_op
        .iter()
        .zip(names)
        .map(|(v, name)| (stats::median(v), name, v.len()))
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (ms, name, n) in rows.into_iter().take(ROWS) {
        out.note(&format!("median_ms {name}"), format!("{ms:.3} (n={n})"));
    }
    let all: Vec<f64> = by_op.iter().flatten().copied().collect();
    let n = all.len();
    out.metric("latency_ms_p50", stats::percentile(&all, 50.0), "ms", n);
    if n < MIN_SAMPLES {
        out.problems
            .push(format!("only {n} samples: p90 needs {MIN_SAMPLES}"));
    }
    out.metric("latency_ms_p90", stats::percentile(&all, 90.0), "ms", n);
    let medians: Vec<f64> = by_op
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::median(v))
        .collect();
    out.metric("latency_ms_geomean", stats::geomean(&medians), "ms", n);
}

/// `throughput_loc_per_s`: LOC of one pass over the median pass wall
/// time, and `setup_s`: the median set-up.
pub fn report_pass_rate(out: &mut Outcome, loc: usize, pass_walls_s: &[f64], setups_s: &[f64]) {
    let ms: Vec<f64> = pass_walls_s.iter().map(|s| s * 1e3).collect();
    let (q1, q2, q3) = stats::quartiles(&ms);
    out.note(
        "pass_wall_ms",
        format!(
            "min {:.1} q1 {q1:.1} median {q2:.1} q3 {q3:.1} max {:.1} (n={})",
            ms.iter().copied().fold(f64::INFINITY, f64::min),
            ms.iter().copied().fold(0.0, f64::max),
            ms.len()
        ),
    );
    out.note("pass_walls_ms_in_order", format!("{ms:.0?}"));
    out.note("setups_s", format!("{setups_s:.3?}"));
    out.metric(
        "throughput_loc_per_s",
        loc as f64 / stats::median(pass_walls_s),
        "LOC/s",
        pass_walls_s.len(),
    );
    out.metric("setup_s", stats::median(setups_s), "s", setups_s.len());
}

/// Peak resident memory of this process (one workload per process), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// splitmix64: the harness's own seeded stream (orders and choices).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}
