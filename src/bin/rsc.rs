//! The `rsc` command-line checker: verify `.rsc` files (and their
//! import closures) from the shell, serve an editor session over
//! stdin/stdout, watch a file set, batch-check a tree, or fuzz the
//! checker itself.
//!
//! ```text
//! cargo run --bin rsc -- benchmarks/navier-stokes.rsc
//! cargo run --bin rsc -- app.rsc lib.rsc        # multi-file roots
//! cargo run --bin rsc -- src/                   # directory mode
//! cargo run --bin rsc -- --no-path-sensitivity file.rsc
//! cargo run --bin rsc -- --jobs 4 benchmarks/*.rsc
//! cargo run --bin rsc -- serve          # LSP over NDJSON on stdin
//! cargo run --bin rsc -- --watch a.rsc b.rsc  # re-check on save
//! cargo run --bin rsc -- check --recursive workspace/  # parallel batch
//! cargo run --bin rsc -- fuzz --cases 1000 --seed 0    # oracles
//! cargo run --bin rsc -- --profile trace.json file.rsc # Perfetto trace
//! cargo run --bin rsc -- --stats-json file.rsc         # per-phase JSON
//! ```
//!
//! Files may `import {name} from "./other"`: each root is checked as
//! its full import closure (a merged program), through one shared
//! workspace so overlapping closures share the VC cache. Directory
//! arguments expand to every `.rsc`/`.ts` file beneath them, sorted.
//!
//! Rejections are rendered rustc-style, with the error code of the
//! failed obligation kind, a source excerpt, and a caret underline over
//! the blamed range — located in the owning *file* of the closure (see
//! `rsc_core::Diagnostic::render`).
//!
//! Both `serve` and `--watch` run a persistent [`rsc_incr::Workspace`]:
//! after the first check, only the constraint bundles whose canonical
//! problem changed are re-solved, per document (see `ARCHITECTURE.md`).
//! `--watch` polls every file in the watched documents' import
//! closures, so saving an imported dependency re-checks its importers.
//!
//! Exit code 0 = verified, 1 = verification errors, 2 = usage/IO error.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use rsc_core::{CheckerOptions, LineIndex};
use rsc_gen::FuzzConfig;
use rsc_incr::{DocReport, Json, Serve, VcCache, Workspace};
use threadpool::Pool;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands: `rsc fuzz ...` has its own flag set; `rsc check ...`
    // is an alias for the default mode (so `rsc check --recursive dir`
    // reads naturally).
    if argv.first().map(String::as_str) == Some("fuzz") {
        run_fuzz_cli(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("check") {
        argv.remove(0);
    }

    let mut opts = CheckerOptions::default();
    let mut args_files: Vec<String> = Vec::new();
    let mut quiet = false;
    let mut want_jobs = false;
    let mut want_cache_cap = false;
    let mut want_profile = false;
    let mut want_vc_cache_dir = false;
    let mut vc_cache_dir: Option<String> = None;
    let mut serve = false;
    let mut watch = false;
    let mut recursive = false;
    let mut profile_path: Option<String> = None;
    let mut stats_json = false;
    for arg in argv {
        if want_jobs {
            want_jobs = false;
            opts.jobs = parse_jobs(&arg);
            continue;
        }
        if want_cache_cap {
            want_cache_cap = false;
            opts.cache_capacity = parse_cache_cap(&arg);
            continue;
        }
        if want_profile {
            want_profile = false;
            profile_path = Some(arg);
            continue;
        }
        if want_vc_cache_dir {
            want_vc_cache_dir = false;
            vc_cache_dir = Some(arg);
            continue;
        }
        match arg.as_str() {
            "serve" => serve = true,
            "--watch" | "-w" => watch = true,
            "--recursive" | "-r" => recursive = true,
            "--no-path-sensitivity" => opts.path_sensitivity = false,
            "--no-prelude-qualifiers" => opts.prelude_qualifiers = false,
            "--no-mined-qualifiers" => opts.mine_qualifiers = false,
            "--no-vc-cache" => opts.vc_cache = false,
            "--no-incremental-smt" => opts.incremental_smt = false,
            "--no-absint" => opts.absint = false,
            "--no-lints" => opts.lints = false,
            "--jobs" | "-j" => want_jobs = true,
            "--cache-cap" => want_cache_cap = true,
            "--vc-cache" => want_vc_cache_dir = true,
            "--profile" => want_profile = true,
            "--stats-json" => stats_json = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            f if !f.starts_with('-') => args_files.push(f.to_string()),
            other => match other.strip_prefix("--jobs=") {
                Some(n) => opts.jobs = parse_jobs(n),
                None => match other.strip_prefix("--cache-cap=") {
                    Some(n) => opts.cache_capacity = parse_cache_cap(n),
                    None => match other.strip_prefix("--profile=") {
                        Some(p) => profile_path = Some(p.to_string()),
                        None => match other.strip_prefix("--vc-cache=") {
                            Some(d) => vc_cache_dir = Some(d.to_string()),
                            None => {
                                eprintln!("rsc: unknown flag {other}");
                                print_usage();
                                std::process::exit(2);
                            }
                        },
                    },
                },
            },
        }
    }
    if want_jobs {
        eprintln!("rsc: --jobs expects a worker count");
        print_usage();
        std::process::exit(2);
    }
    if want_cache_cap {
        eprintln!("rsc: --cache-cap expects an entry count");
        print_usage();
        std::process::exit(2);
    }
    if want_profile {
        eprintln!("rsc: --profile expects an output path");
        print_usage();
        std::process::exit(2);
    }
    if want_vc_cache_dir {
        eprintln!("rsc: --vc-cache expects a directory");
        print_usage();
        std::process::exit(2);
    }
    // The flag wins; RSC_VC_CACHE is the no-flag spelling for wrappers.
    if vc_cache_dir.is_none() {
        if let Ok(d) = std::env::var("RSC_VC_CACHE") {
            if !d.is_empty() {
                vc_cache_dir = Some(d);
            }
        }
    }
    let with_disk = |ws: Workspace| match &vc_cache_dir {
        Some(dir) => ws.persisting_to(dir),
        None => ws,
    };
    if serve {
        if watch || !args_files.is_empty() {
            eprintln!("rsc: serve takes no files (send textDocument/didOpen on stdin)");
            std::process::exit(2);
        }
        if profile_path.is_some() || stats_json {
            eprintln!("rsc: serve reports timing via the rsc/metrics request");
            std::process::exit(2);
        }
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(e) =
            Serve::run_over(with_disk(Workspace::new(opts)), stdin.lock(), stdout.lock())
        {
            eprintln!("rsc: serve I/O error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let files = expand_files(&args_files);
    if watch {
        if files.is_empty() {
            eprintln!("rsc: --watch expects at least one file");
            std::process::exit(2);
        }
        run_watch(
            &files,
            opts,
            quiet,
            profile_path.as_deref(),
            vc_cache_dir.as_deref(),
        );
        return;
    }
    if files.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    if recursive {
        if stats_json {
            eprintln!("rsc: --stats-json is not supported with --recursive");
            std::process::exit(2);
        }
        run_recursive(
            &files,
            opts,
            quiet,
            profile_path.as_deref(),
            vc_cache_dir.as_deref(),
        );
    }

    // Observability surfaces: both flags flip the same collector on;
    // collection must never change verdicts or diagnostics (see
    // `tests/profile_determinism.rs`).
    let obs_on = profile_path.is_some() || stats_json;
    if obs_on {
        rsc_obs::set_enabled(true);
        rsc_obs::drain(); // discard anything recorded before the batch
    }

    // One workspace for the whole batch: each root is checked as its
    // import closure, and overlapping closures share the VC cache.
    let mut ws = with_disk(Workspace::new(opts));
    let mut lints = LintsOnce::new(&files);
    let mut failed = false;
    let mut all_spans: Vec<rsc_obs::SpanRecord> = Vec::new();
    let mut json_files: Vec<Json> = Vec::new();
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rsc: cannot read {file}: {e}");
                std::process::exit(2);
            }
        };
        let start = std::time::Instant::now();
        let report = ws.check_one(file, src);
        let elapsed = start.elapsed();
        let profile = if obs_on {
            rsc_obs::drain()
        } else {
            rsc_obs::Profile::default()
        };
        let ok = report.outcome.result.ok();
        failed |= !ok;
        if stats_json {
            json_files.push(stats_json_entry(file, &report, &profile, elapsed));
            if !ok {
                // Keep stdout machine-readable; humans read stderr.
                eprint!("{}", rendered(&report));
            }
            eprint!("{}", lints.render(file, lint_sites(&report)));
        } else {
            print!(
                "{}{}",
                verdict_text(file, &report, elapsed, quiet),
                lints.render(file, lint_sites(&report))
            );
        }
        if profile_path.is_some() {
            all_spans.extend(profile.spans);
        }
    }
    if stats_json {
        let report = Json::Obj(vec![("files".into(), Json::Arr(json_files))]);
        println!("{report}");
    }
    if let Some(path) = &profile_path {
        write_trace(path, &all_spans);
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// Writes a Chrome trace-event file (loadable in Perfetto /
/// `chrome://tracing`) from the collected spans.
fn write_trace(path: &str, spans: &[rsc_obs::SpanRecord]) {
    if let Err(e) = std::fs::write(path, rsc_obs::chrome_trace_json(spans)) {
        eprintln!("rsc: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

/// One `--stats-json` entry: verdict and structural stats are
/// deterministic at any `--jobs` (per-bundle rows are in bundle-index
/// order); `*_us` timings and the VC-cache hit/miss split are
/// measurements and vary run to run.
fn stats_json_entry(
    file: &str,
    report: &DocReport,
    profile: &rsc_obs::Profile,
    elapsed: std::time::Duration,
) -> Json {
    fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
    fn num(n: impl TryInto<u64>) -> Json {
        Json::num(n.try_into().unwrap_or(u64::MAX) as f64)
    }
    let result = &report.outcome.result;
    let stats = &result.stats;
    let bundles = result.bundle_reports.iter().enumerate().map(|(i, b)| {
        obj(vec![
            ("index", num(i)),
            ("constraints", num(b.constraints)),
            ("kvars", num(b.kvars)),
            ("cached", Json::Bool(b.cached)),
            ("failures", num(b.failures.len())),
            ("smt_queries", num(b.smt_queries)),
            ("cache_hits", num(b.smt.cache_hits)),
            ("model_refuted", num(b.smt.model_refuted)),
            ("discharged_static", num(b.discharged)),
            ("solve_us", num(b.solve_ns / 1_000)),
        ])
    });
    let phases = profile.phase_totals().into_iter().map(|p| {
        obj(vec![
            ("name", Json::str(p.name)),
            ("count", num(p.count)),
            ("total_us", num(p.total_ns / 1_000)),
        ])
    });
    obj(vec![
        ("file", Json::str(file)),
        ("ok", Json::Bool(result.ok())),
        ("files_in_closure", num(report.merged.files.len())),
        (
            "stats",
            obj(vec![
                ("constraints", num(stats.constraints)),
                ("kvars", num(stats.kvars)),
                ("smt_queries", num(stats.smt_queries)),
                ("obligations_discharged", num(stats.obligations_discharged)),
                ("model_refuted", num(stats.model_refuted)),
                ("bundles", num(stats.bundles)),
                ("bundles_reused", num(stats.bundles_reused)),
                ("diagnostics", num(result.diagnostics.len())),
                ("lints", num(result.lints.len())),
            ]),
        ),
        ("bundles", Json::Arr(bundles.collect())),
        ("phases", Json::Arr(phases.collect())),
        (
            "cache",
            obj(vec![
                ("hits", num(stats.cache_hits)),
                ("misses", num(stats.cache_misses)),
                ("evictions", num(stats.cache_evictions)),
            ]),
        ),
        ("time_us", num(elapsed.as_micros())),
    ])
}

/// Renders a per-phase accumulator as `name 1.2ms×3, ...` (name order).
fn phase_summary(acc: &BTreeMap<&'static str, (u64, u64)>) -> String {
    acc.iter()
        .map(|(name, (count, ns))| format!("{name} {:.1}ms\u{d7}{count}", *ns as f64 / 1e6))
        .collect::<Vec<_>>()
        .join(", ")
}

/// What the batch modes print for one root before its lints: the
/// `SAFE (…)` line (nothing under `--quiet`), or the `UNSAFE (…)` line
/// and the rendered diagnostics.
fn verdict_text(file: &str, report: &DocReport, elapsed: Duration, quiet: bool) -> String {
    let result = &report.outcome.result;
    if !result.ok() {
        return format!(
            "{file}: UNSAFE ({} errors, {elapsed:.0?})\n{}",
            result.diagnostics.len(),
            rendered(report)
        );
    }
    if quiet {
        return String::new();
    }
    let closure = report.merged.files.len();
    let files_note = if closure > 1 {
        format!(", {closure} files")
    } else {
        String::new()
    };
    format!(
        "{file}: SAFE ({} constraints, {} κ-vars, {} SMT queries, \
         {} bundles{files_note}, {:.0}% VC-cache hits, {elapsed:.0?})\n",
        result.stats.constraints,
        result.stats.kvars,
        result.stats.smt_queries,
        result.stats.bundles,
        100.0 * result.stats.cache_hit_rate(),
    )
}

/// Renders every diagnostic of a report against its owning file's own
/// text (a closure diagnostic may live in an imported file, not the
/// root).
fn rendered(report: &DocReport) -> String {
    let idxs: Vec<LineIndex> = report
        .merged
        .files
        .iter()
        .map(|f| LineIndex::new(&f.text))
        .collect();
    let mut out = String::new();
    for d in &report.outcome.result.diagnostics {
        let (fi, local) = report.merged.localize(d);
        let f = &report.merged.files[fi];
        out.push_str(&local.render_with(&f.name, &f.text, &idxs[fi]));
    }
    out
}

/// A report's lint warnings, each rendered rustc-style and paired with
/// the name of the closure file it sits in.
fn lint_sites(report: &DocReport) -> Vec<(String, String)> {
    let idxs: Vec<LineIndex> = report
        .merged
        .files
        .iter()
        .map(|f| LineIndex::new(&f.text))
        .collect();
    report
        .outcome
        .result
        .lints
        .iter()
        .map(|d| {
            let (fi, local) = report.merged.localize(d);
            let f = &report.merged.files[fi];
            (
                f.name.clone(),
                local.render_with(&f.name, &f.text, &idxs[fi]),
            )
        })
        .collect()
}

/// Prints each lint of a batch once. The lint pass runs over a root's
/// whole import closure, so an imported file's warnings come back under
/// every importer. A lint is printed under its own file when that file
/// is a root of the run, and otherwise under the first root, in run
/// order, whose closure contains it.
struct LintsOnce<'a> {
    roots: HashSet<&'a str>,
    /// Non-root files whose lints have been printed.
    printed: HashSet<String>,
}

impl<'a> LintsOnce<'a> {
    fn new(roots: &'a [String]) -> LintsOnce<'a> {
        LintsOnce {
            roots: roots.iter().map(String::as_str).collect(),
            printed: HashSet::new(),
        }
    }

    /// The lints `root` prints, out of `sites` (from [`lint_sites`]):
    /// after its verdict line — lints never change the verdict or the
    /// exit code.
    fn render(&mut self, root: &str, sites: Vec<(String, String)>) -> String {
        let mut out = String::new();
        let mut firsts = Vec::new();
        for (file, text) in sites {
            let show = if self.roots.contains(file.as_str()) {
                file == root
            } else {
                !self.printed.contains(&file)
            };
            if show {
                out.push_str(&text);
                if file != root {
                    firsts.push(file);
                }
            }
        }
        self.printed.extend(firsts);
        out
    }
}

/// `--recursive` batch mode: one job per root file on a work-stealing
/// [`Pool`], each job running its own single-threaded [`Workspace`]
/// over one shared VC cache (verdicts are pure functions of the
/// canonical VC, so cross-thread sharing is sound). Per-file output is
/// buffered and printed in input order, byte-identical to the serial
/// loop's lines; the lints each root prints are chosen there too, by
/// [`LintsOnce`].
fn run_recursive(
    files: &[String],
    opts: CheckerOptions,
    quiet: bool,
    profile: Option<&str>,
    vc_cache_dir: Option<&str>,
) -> ! {
    if profile.is_some() {
        rsc_obs::set_enabled(true);
        rsc_obs::drain();
    }
    let pool = Pool::new(opts.effective_jobs());
    let cache = VcCache::shared_with_capacity(opts.cache_capacity);
    // File-level parallelism replaces bundle-level parallelism.
    let mut inner = opts;
    inner.jobs = 1;
    let start = std::time::Instant::now();
    let jobs: Vec<_> = files
        .iter()
        .map(|file| {
            let file = file.clone();
            let cache = Arc::clone(&cache);
            let disk_dir = vc_cache_dir.map(str::to_string);
            // Returns (output text, lint sites, verified, I/O error).
            move || -> (String, Vec<(String, String)>, bool, bool) {
                let src = match std::fs::read_to_string(&file) {
                    Ok(s) => s,
                    Err(e) => {
                        let msg = format!("rsc: cannot read {file}: {e}\n");
                        return (msg, Vec::new(), false, true);
                    }
                };
                let t = std::time::Instant::now();
                let mut ws = Workspace::with_cache(inner, cache);
                if let Some(dir) = disk_dir {
                    ws = ws.persisting_to(dir);
                }
                let report = ws.check_one(&file, src);
                let out = verdict_text(&file, &report, t.elapsed(), quiet);
                (out, lint_sites(&report), report.outcome.result.ok(), false)
            }
        })
        .collect();
    let results = pool.run(jobs);
    if let Some(path) = profile {
        write_trace(path, &rsc_obs::drain().spans);
    }
    let mut lints = LintsOnce::new(files);
    let mut failed = false;
    let mut io_err = false;
    let mut safe = 0;
    for (file, (text, sites, ok, io)) in files.iter().zip(results) {
        if io {
            eprint!("{text}");
        } else {
            print!("{text}{}", lints.render(file, sites));
        }
        failed |= !ok && !io;
        io_err |= io;
        safe += usize::from(ok);
    }
    if !quiet {
        println!(
            "checked {} files ({safe} safe) in {:.1?} on {} workers",
            files.len(),
            start.elapsed(),
            pool.workers()
        );
    }
    std::process::exit(if io_err {
        2
    } else if failed {
        1
    } else {
        0
    });
}

/// `rsc fuzz`: generate well-typed programs, break one obligation per
/// case, and run the six differential oracles. With
/// `--emit-workspace DIR`, instead materializes a ≥`--min-loc`-LOC
/// multi-file workspace for `rsc check --recursive`.
fn run_fuzz_cli(args: &[String]) -> ! {
    let mut cfg = FuzzConfig::default();
    let mut quiet = false;
    let mut emit: Option<std::path::PathBuf> = None;
    let mut min_loc = 20_000usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cases" => cfg.cases = fuzz_num(fuzz_val(args, &mut i, "--cases"), "--cases"),
            "--seed" => cfg.seed = fuzz_num(fuzz_val(args, &mut i, "--seed"), "--seed"),
            "--skip" => cfg.skip = fuzz_num(fuzz_val(args, &mut i, "--skip"), "--skip"),
            "--size" => cfg.size = fuzz_num(fuzz_val(args, &mut i, "--size"), "--size"),
            "--workspace-depth" => {
                cfg.workspace_depth = fuzz_num(
                    fuzz_val(args, &mut i, "--workspace-depth"),
                    "--workspace-depth",
                )
            }
            "--jobs" | "-j" => cfg.jobs = fuzz_num(fuzz_val(args, &mut i, "--jobs"), "--jobs"),
            "--emit-workspace" => emit = Some(fuzz_val(args, &mut i, "--emit-workspace").into()),
            "--min-loc" => min_loc = fuzz_num(fuzz_val(args, &mut i, "--min-loc"), "--min-loc"),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other => {
                eprintln!("rsc fuzz: unknown flag {other}");
                print_usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(dir) = emit {
        match rsc_gen::emit_workspace(&dir, cfg.seed, min_loc, cfg.workspace_depth, 12) {
            Ok(s) => {
                println!(
                    "emitted {} files, {} LOC ({} clusters) under {}",
                    s.files,
                    s.loc,
                    s.clusters,
                    s.dir.display()
                );
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("rsc fuzz: cannot write {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }

    let start = std::time::Instant::now();
    // Aggregate phase timings over every generated check (the per-phase
    // accumulator is deterministic in shape, wall-clock in values).
    rsc_obs::set_enabled(true);
    rsc_obs::drain();
    let heartbeat = (cfg.cases / 10).max(50);
    let summary = rsc_gen::run_fuzz(&cfg, |case, out| {
        let done = case + 1 - cfg.skip;
        if !quiet && done % heartbeat == 0 {
            println!(
                "[fuzz] {done}/{} cases, {} mutants, {} violations, {:.1?}",
                cfg.cases,
                out.mutants,
                out.violations.len(),
                start.elapsed()
            );
        }
    });

    let mut timing: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    rsc_obs::drain().accumulate_into(&mut timing);
    if !quiet && !timing.is_empty() {
        println!("fuzz timing: {}", phase_summary(&timing));
    }

    for v in &summary.violations {
        println!(
            "FAIL case {} ({} oracle) — replay: rsc fuzz --seed {} --skip {} --cases 1",
            v.case, v.oracle, v.seed, v.case
        );
        for line in v.detail.lines() {
            println!("  {line}");
        }
    }
    let kinds: Vec<String> = summary
        .kinds
        .iter()
        .map(|(k, n)| format!("{k}\u{d7}{n}"))
        .collect();
    println!(
        "fuzz: seed {}, {} cases, {} mutants [{}] in {:.1?}: {}",
        cfg.seed,
        summary.cases,
        summary.mutants,
        kinds.join(" "),
        start.elapsed(),
        if summary.violations.is_empty() {
            "all oracles passed".to_string()
        } else {
            format!("{} VIOLATIONS", summary.violations.len())
        }
    );
    std::process::exit(if summary.violations.is_empty() { 0 } else { 1 });
}

/// Fetches the value after a `rsc fuzz` flag, advancing the cursor.
fn fuzz_val<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => {
            eprintln!("rsc fuzz: {flag} expects a value");
            std::process::exit(2);
        }
    }
}

fn fuzz_num<T: std::str::FromStr>(v: &str, flag: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("rsc fuzz: {flag} expects a number, got {v:?}");
        std::process::exit(2);
    })
}

/// Expands directory arguments to every `.rsc`/`.ts` file beneath them
/// (sorted); plain files pass through in argument order.
fn expand_files(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for a in args {
        let path = std::path::Path::new(a);
        if path.is_dir() {
            let mut found = Vec::new();
            collect_sources(path, &mut found);
            found.sort();
            if found.is_empty() {
                eprintln!("rsc: no .rsc/.ts files under {a}");
                std::process::exit(2);
            }
            out.extend(found);
        } else {
            out.push(a.clone());
        }
    }
    out
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if matches!(
            p.extension().and_then(|e| e.to_str()),
            Some("rsc") | Some("ts")
        ) {
            if let Some(s) = p.to_str() {
                out.push(s.to_string());
            }
        }
    }
}

/// Prints one watch-loop check: verdict, incremental reuse, timing, and
/// the lints `lints` lets this report print.
fn report_watch(report: &DocReport, quiet: bool, lints: &mut LintsOnce) {
    let incr = &report.outcome.incr;
    let file = &report.uri;
    let reuse = if incr.fast_path {
        "unchanged".to_string()
    } else {
        format!("{} reused / {} solved", incr.reused, incr.solved)
    };
    if report.outcome.result.ok() {
        if !quiet {
            println!(
                "[watch] {file}: SAFE ({} bundles, {reuse}, {}µs)",
                incr.bundles, incr.total_micros
            );
        }
    } else {
        println!(
            "[watch] {file}: UNSAFE ({} errors, {reuse}, {}µs)",
            report.outcome.result.diagnostics.len(),
            incr.total_micros
        );
        let multi = report.merged.files.len() > 1;
        for d in &report.outcome.result.diagnostics {
            let (fi, local) = report.merged.localize(d);
            if multi {
                println!("  [{}] {local}", report.merged.files[fi].name);
            } else {
                println!("  {local}");
            }
        }
    }
    let multi = report.merged.files.len() > 1;
    let sites = report.outcome.result.lints.iter().map(|d| {
        let (fi, local) = report.merged.localize(d);
        let name = &report.merged.files[fi].name;
        let text = if multi {
            format!("  [{name}] {local}\n")
        } else {
            format!("  {local}\n")
        };
        (name.clone(), text)
    });
    print!("{}", lints.render(file, sites.collect()));
}

/// Re-checks the watched roots through one persistent workspace
/// whenever any file in their import closures changes on disk. Each
/// round of checks (the initial one, then each poll's) prints a lint
/// once, as the batch modes do (see [`LintsOnce`]). Polling
/// interval: `RSC_WATCH_POLL_MS` (default 150). For scripted runs,
/// `RSC_WATCH_MAX_CHECKS` bounds the number of document checks before
/// exiting (the exit code then reflects each document's last check).
fn run_watch(
    files: &[String],
    opts: CheckerOptions,
    quiet: bool,
    profile: Option<&str>,
    vc_cache_dir: Option<&str>,
) {
    let poll = std::env::var("RSC_WATCH_POLL_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(150);
    let max_checks = std::env::var("RSC_WATCH_MAX_CHECKS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let mtime = |f: &str| std::fs::metadata(f).and_then(|m| m.modified()).ok();

    // The watch loop always collects phase timings: each drained batch
    // folds into a per-phase accumulator so a bounded run
    // (`RSC_WATCH_MAX_CHECKS`) can exit with an aggregate summary.
    rsc_obs::set_enabled(true);
    rsc_obs::drain();
    let mut timing: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut spans: Vec<rsc_obs::SpanRecord> = Vec::new();
    let take_profile = |timing: &mut BTreeMap<&'static str, (u64, u64)>,
                        spans: &mut Vec<rsc_obs::SpanRecord>| {
        let p = rsc_obs::drain();
        p.accumulate_into(timing);
        if profile.is_some() {
            spans.extend(p.spans);
        }
    };

    let mut ws = Workspace::new(opts);
    if let Some(dir) = vc_cache_dir {
        ws = ws.persisting_to(dir);
    }
    let mut checks = 0u64;
    let mut verdicts: BTreeMap<String, bool> = BTreeMap::new();
    let exit = |verdicts: &BTreeMap<String, bool>,
                timing: &BTreeMap<&'static str, (u64, u64)>,
                spans: &[rsc_obs::SpanRecord]|
     -> ! {
        if !quiet && !timing.is_empty() {
            println!("[watch] timing: {}", phase_summary(timing));
        }
        if let Some(path) = profile {
            write_trace(path, spans);
        }
        std::process::exit(if verdicts.values().all(|&ok| ok) {
            0
        } else {
            1
        });
    };

    let mut lints = LintsOnce::new(files);
    for file in files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rsc: cannot read {file}: {e}");
                std::process::exit(2);
            }
        };
        for report in ws.update(file, src) {
            verdicts.insert(report.uri.clone(), report.outcome.result.ok());
            report_watch(&report, quiet, &mut lints);
            checks += 1;
        }
        take_profile(&mut timing, &mut spans);
    }

    let mut seen: BTreeMap<String, Option<std::time::SystemTime>> = ws
        .watched_files()
        .iter()
        .map(|f| (f.clone(), mtime(f)))
        .collect();

    loop {
        if let Some(max) = max_checks {
            if checks >= max {
                exit(&verdicts, &timing, &spans);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(poll));
        // The poll set tracks the *current* closures: a newly added
        // import gets watched from the next iteration on.
        let watched = ws.watched_files();
        let mut changed: Vec<String> = Vec::new();
        for f in &watched {
            let now = mtime(f);
            match seen.get(f) {
                Some(prev) if *prev != now => changed.push(f.clone()),
                Some(_) => {}
                // Newly watched (an import added by the edit that was
                // just checked): record its mtime without re-checking —
                // the update that introduced it already covered it.
                None => {}
            }
            seen.insert(f.clone(), now);
        }
        seen.retain(|k, _| watched.contains(k));
        let mut lints = LintsOnce::new(files);
        for f in &changed {
            let reports = if ws.contains(f) {
                match std::fs::read_to_string(f) {
                    Ok(src) => ws.update(f, src),
                    Err(e) => {
                        eprintln!("rsc: cannot read {f}: {e} (still watching)");
                        continue;
                    }
                }
            } else {
                // A dependency changed: re-check every root that
                // imports it (the closure re-reads the disk).
                ws.importers_of(f)
                    .into_iter()
                    .filter_map(|root| ws.recheck(&root))
                    .collect()
            };
            for report in reports {
                verdicts.insert(report.uri.clone(), report.outcome.result.ok());
                report_watch(&report, quiet, &mut lints);
                checks += 1;
            }
            take_profile(&mut timing, &mut spans);
        }
    }
}

fn parse_jobs(s: &str) -> usize {
    match s.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("rsc: --jobs expects a positive integer, got {s:?}");
            std::process::exit(2);
        }
    }
}

fn parse_cache_cap(s: &str) -> usize {
    match s.parse::<usize>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("rsc: --cache-cap expects a non-negative integer, got {s:?}");
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: rsc [--no-path-sensitivity] [--no-prelude-qualifiers] \
         [--no-mined-qualifiers] [--no-vc-cache] [--no-incremental-smt] \
         [--no-absint] [--no-lints] [--vc-cache DIR] [--jobs N] [--quiet] \
         <file.rsc | dir>...\n\
         \u{20}      rsc serve            speak LSP (didOpen/didChange/didClose,\n\
         \u{20}                           rsc/metrics) as one JSON-RPC message per line\n\
         \u{20}      rsc --watch <file>...  incremental re-check on every mtime change\n\
         \u{20}                           of the files or their imported dependencies\n\
         \u{20}      rsc check --recursive <dir>  batch-check every file in parallel\n\
         \u{20}                           (work-stealing pool, shared VC cache)\n\
         \u{20}      rsc fuzz [--cases N] [--seed S] [--skip K] [--size F]\n\
         \u{20}               [--workspace-depth D] [--jobs N]\n\
         \u{20}                           generate well-typed programs + mutants and\n\
         \u{20}                           run the differential oracles\n\
         \u{20}      rsc fuzz --emit-workspace <dir> [--min-loc N] [--seed S]\n\
         \u{20}                           materialize a large multi-file workspace\n\
         \n\
         Files may `import {{name}} from \"./other\"`; each root is checked\n\
         as its full import closure. Directories expand to their .rsc/.ts files.\n\
         \n\
         --jobs N  solve constraint bundles on N worker threads\n\
         \u{20}         (default: RSC_JOBS env var, else available cores, max 8)\n\
         --cache-cap N  bound the VC cache to ~N entries (LRU eviction;\n\
         \u{20}         default: unbounded)\n\
         --vc-cache DIR  persist solver verdicts to DIR across runs\n\
         \u{20}         (RSC_VC_CACHE env var; a warm re-check of unchanged\n\
         \u{20}         code reuses every bundle and solves 0 VCs)\n\
         --no-incremental-smt  solve each fixpoint query in a fresh SMT\n\
         \u{20}         context instead of per-constraint persistent ones\n\
         \u{20}         (ablation/debug; diagnostics are identical)\n\
         --no-absint  skip the abstract-interpretation pre-pass that\n\
         \u{20}         discharges obligations before SMT (ablation;\n\
         \u{20}         diagnostics are identical, more queries are issued)\n\
         --no-lints  suppress the dataflow lint warnings (L0001-L0004:\n\
         \u{20}         unreachable branch, tautological guard, dead\n\
         \u{20}         refinement, constant index out of bounds)\n\
         --profile FILE  write a Chrome trace-event profile of every phase\n\
         \u{20}         (open in Perfetto or chrome://tracing)\n\
         --stats-json  print a machine-readable per-phase/per-bundle report\n\
         \u{20}         on stdout (diagnostics then render on stderr)"
    );
}
