//! `warm-batch`: a CI re-run over a warm persistent cache. The only
//! workload that runs the disk tier (`BundleStore` + `DiskCache`, opened
//! and loaded per root) and the file-level pool.
//!
//! Set-up generates a seeded workspace with `rsc_gen` (as `rsc fuzz
//! --emit-workspace` does) and runs the cold batch, at one worker, that
//! fills a `--vc-cache` directory. Every timed pass starts from an identical copy
//! of that directory, with the same seeded twentieth of the files edited,
//! and checks every file as a root over its import closure: a fresh
//! `Workspace::with_cache(..).persisting_to(..)` per root, the roots on a
//! two-worker `threadpool::Pool` sharing one VC cache, as `rsc check
//! --recursive --vc-cache DIR --jobs 2` does.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rsc_incr::{BundleStore, VcCache, Workspace};
use rsc_smt::DiskCache;

use crate::common::{self, Counters, Outcome, Settings};
use perfbench::stats;
use perfbench::trace::Attribution;

/// Pool workers for the timed passes (the roots run in parallel).
const WORKERS: usize = 2;
/// Generated workspace size and shape (`rsc fuzz --emit-workspace`'s
/// chain depth and cluster size).
const MIN_LOC: usize = 3000;
const DEPTH: usize = 2;
const FUNS_PER_CLUSTER: usize = 12;

/// One root of the batch.
struct Root {
    key: String,
    text: Arc<String>,
    /// Error codes its closure must report.
    expect: BTreeSet<String>,
}

/// What one root's check produced.
struct RootResult {
    root: usize,
    /// `Workspace` creation plus `check_one`, ms.
    latency_ms: f64,
    /// The whole pool job, ms (threadpool busy time).
    busy_ms: f64,
    outcome: Result<Counters, String>,
}

pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let work = PathBuf::from(format!(".perfbench_work/batch-{}", std::process::id()));
    let result = run_in(&work, settings);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    result
}

fn io(e: std::io::Error, what: &Path) -> String {
    format!("{}: {e}", what.display())
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| io(e, dir))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| io(e, dir))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    for entry in std::fs::read_dir(from).map_err(|e| io(e, from))? {
        let entry = entry.map_err(|e| io(e, from))?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| io(e, to))?;
    }
    Ok(())
}

/// The workspace's files, sorted, with their texts.
fn read_workspace(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| io(e, dir))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".rsc"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let path = dir.join(&n);
            let text = std::fs::read_to_string(&path).map_err(|e| io(e, &path))?;
            Ok((n, text))
        })
        .collect()
}

/// The files a file's import closure holds (itself included), read from
/// its `import {…} from "./name";` lines.
fn closures(files: &[(String, String)]) -> Vec<BTreeSet<usize>> {
    let index: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), i))
        .collect();
    let direct: Vec<Vec<usize>> = files
        .iter()
        .map(|(_, text)| {
            text.lines()
                .filter(|l| l.starts_with("import "))
                .filter_map(|l| l.split("from \"./").nth(1)?.split('"').next())
                .filter_map(|n| index.get(n).copied())
                .collect()
        })
        .collect();
    (0..files.len())
        .map(|i| {
            let mut seen = BTreeSet::from([i]);
            let mut todo = vec![i];
            while let Some(f) = todo.pop() {
                for &g in &direct[f] {
                    if seen.insert(g) {
                        todo.push(g);
                    }
                }
            }
            seen
        })
        .collect()
}

/// Checks every root on a `workers`-thread pool over one shared VC
/// cache, persisting to `cache_dir`.
fn run_pass(
    roots: &[Root],
    cache_dir: &Path,
    workers: usize,
    tracing: bool,
) -> (Vec<RootResult>, f64, Arc<VcCache>) {
    let cache = VcCache::shared();
    let jobs: Vec<_> = roots
        .iter()
        .enumerate()
        .map(|(i, root)| {
            let cache = Arc::clone(&cache);
            let dir = cache_dir.to_path_buf();
            let key = root.key.clone();
            let text = Arc::clone(&root.text);
            move || {
                let job = Instant::now();
                let _sp = tracing.then(|| rsc_obs::span(common::OP_SPAN));
                let t = Instant::now();
                let checked = common::guarded(|| {
                    let mut ws = Workspace::with_cache(common::options(), cache).persisting_to(dir);
                    let report = ws.check_one(&key, (*text).clone());
                    (report, ws)
                });
                let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                let outcome = checked.map(|(report, ws)| {
                    drop(ws);
                    let mut c = Counters::new();
                    let r = &report.outcome.result;
                    common::count_check(&mut c, r);
                    let incr = &report.outcome.incr;
                    for (k, v) in [
                        ("checks", 1),
                        ("solved", incr.solved as u64),
                        ("reused", incr.reused as u64),
                        ("fast_path", u64::from(incr.fast_path)),
                        (
                            "rsc_incr.workspace.closure_files",
                            report.merged.files.len() as u64,
                        ),
                    ] {
                        *c.entry(k).or_default() += v;
                    }
                    let codes = common::error_codes(r);
                    (c, codes)
                });
                drop(_sp);
                (i, latency_ms, job.elapsed().as_secs_f64() * 1e3, outcome)
            }
        })
        .collect();
    let t = Instant::now();
    let done = threadpool::Pool::new(workers).run(jobs);
    let wall = t.elapsed().as_secs_f64();
    let results = done
        .into_iter()
        .map(|(i, latency_ms, busy_ms, outcome)| RootResult {
            root: i,
            latency_ms,
            busy_ms,
            outcome: outcome
                .map_err(|e| format!("{}: {e}", roots[i].key))
                .and_then(|(c, codes)| {
                    common::verdict(&codes, &roots[i].expect, &roots[i].key).map(|_| c)
                }),
        })
        .collect();
    (results, wall, cache)
}

/// Versions of the persisted files in a cache directory.
fn versions(dir: &Path) -> Result<BTreeSet<u64>, String> {
    let mut out = BTreeSet::new();
    for entry in std::fs::read_dir(dir).map_err(|e| io(e, dir))? {
        let name = entry.map_err(|e| io(e, dir))?.file_name();
        let name = name.to_string_lossy();
        let hex = name
            .strip_prefix("vc-")
            .and_then(|n| n.strip_suffix(".vcc"))
            .or_else(|| {
                name.strip_prefix("bundles-")
                    .and_then(|n| n.strip_suffix(".rbc"))
            });
        if let Some(v) = hex.and_then(|h| u64::from_str_radix(h, 16).ok()) {
            out.insert(v);
        }
    }
    Ok(out)
}

/// Opens and loads both disk tiers of every version in `dir`: the
/// persist layer's cost, timed from outside. Returns (ms, bundles
/// loaded, VC entries loaded).
fn open_tiers(dir: &Path) -> Result<(f64, u64, u64), String> {
    let versions = versions(dir)?;
    let t = Instant::now();
    let (mut bundles, mut entries) = (0u64, 0u64);
    let cache = VcCache::new();
    for v in versions {
        let store = BundleStore::open(dir, v).map_err(|e| io(e, dir))?;
        let vc = DiskCache::open(dir, v).map_err(|e| io(e, dir))?;
        vc.load_into(&cache);
        bundles += store.loaded() as u64;
        entries += vc.loaded() as u64;
    }
    Ok((t.elapsed().as_secs_f64() * 1e3, bundles, entries))
}

fn run_in(work: &Path, settings: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ws_dir = work.join("ws");
    let fill_dir = work.join("fill");
    let pass_dir = work.join("pass");
    let repeats = if settings.trace {
        1
    } else {
        common::SETUP_REPEATS
    };
    let mut setups = Vec::new();
    let mut files = Vec::new();
    let mut fill_counters = Counters::new();
    for _ in 0..repeats {
        let t = Instant::now();
        fresh_dir(&ws_dir)?;
        fresh_dir(&fill_dir)?;
        rsc_gen::emit_workspace(&ws_dir, settings.seed, MIN_LOC, DEPTH, FUNS_PER_CLUSTER)
            .map_err(|e| io(e, &ws_dir))?;
        files = read_workspace(&ws_dir)?;
        // Generated programs are safe by construction.
        let roots: Vec<Root> = files
            .iter()
            .map(|(n, text)| Root {
                key: format!("{}/{n}", ws_dir.display()),
                text: Arc::new(text.clone()),
                expect: BTreeSet::new(),
            })
            .collect();
        // The fill runs at one worker: at two, which root persists a
        // shared proof first depends on scheduling, and so does the
        // filled directory every timed pass starts from.
        let (results, _, _) = run_pass(&roots, &fill_dir, 1, false);
        fill_counters = Counters::new();
        for r in results {
            out.op(r
                .outcome
                .map(|c| common::add_counters(&mut fill_counters, &c)));
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    // The edits: a seeded twentieth of the files, alternately a seeded
    // single-obligation bug (its template's code) and a private addition
    // that is safe by construction. Only files nothing imports are
    // edited, so each edit re-checks exactly one root: editing a shared
    // file re-solves every importer in every closure holding it, which
    // made a pass's work, and its slowest root, hinge on the seed.
    let mut rng = common::Rng::new(settings.seed, 3);
    let before = closures(&files);
    let mut editable: Vec<usize> = (0..files.len())
        .filter(|&i| files[i].0 != "root.rsc")
        .filter(|&i| (0..files.len()).all(|r| r == i || !before[r].contains(&i)))
        .collect();
    rng.shuffle(&mut editable);
    let n_edits = (files.len() / 20).max(1);
    let mut bug_codes: BTreeMap<usize, String> = BTreeMap::new();
    for (k, &f) in editable.iter().take(n_edits).enumerate() {
        let extra = if k % 2 == 0 {
            let bug = crate::edit::bug_template(&mut rng);
            bug_codes.insert(f, bug.kind.code().to_string());
            bug.text
        } else {
            "function pbSafe(x: number): number { return x; }\n".to_string()
        };
        files[f].1.push_str(&extra);
        let path = ws_dir.join(&files[f].0);
        std::fs::write(&path, &files[f].1).map_err(|e| io(e, &path))?;
    }
    let closure = closures(&files);
    let roots: Vec<Root> = files
        .iter()
        .enumerate()
        .map(|(i, (n, text))| Root {
            key: format!("{}/{n}", ws_dir.display()),
            text: Arc::new(text.clone()),
            expect: closure[i]
                .iter()
                .filter_map(|f| bug_codes.get(f).cloned())
                .collect(),
        })
        .collect();
    let loc: usize = files.iter().map(|(_, t)| rsc_bench::count_loc(t)).sum();
    let unsafe_roots = roots.iter().filter(|r| !r.expect.is_empty()).count();

    let mut by_root: Vec<Vec<f64>> = vec![Vec::new(); roots.len()];
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut busy = Vec::new();
    let mut max_share = Vec::new();
    let mut layers = Attribution::default();
    let mut first: Option<Counters> = None;
    let mut cache_stats = (0u64, 0u64, 0u64);
    let mut spans_per_pass = Counters::new();
    let mut setup_err = None;
    let passes = common::timed_passes(settings, roots.len(), |_, tracing| {
        if let Err(e) = copy_dir(&fill_dir, &pass_dir) {
            setup_err.get_or_insert(e);
            return;
        }
        if tracing {
            common::begin_traced_pass();
        }
        let (results, wall, cache) = run_pass(&roots, &pass_dir, WORKERS, tracing);
        if tracing {
            let pt = common::end_traced_pass();
            layers.add(&pt.attribution);
            if traced_walls.is_empty() {
                spans_per_pass = pt.counts;
            }
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            let job_ms: Vec<f64> = results.iter().map(|r| r.busy_ms).collect();
            busy.push(job_ms.iter().sum::<f64>() / (WORKERS as f64 * wall * 1e3));
            max_share.push(job_ms.iter().copied().fold(0.0, f64::max) / (wall * 1e3));
        }
        let mut c = Counters::new();
        for r in results {
            if !tracing {
                by_root[r.root].push(r.latency_ms);
            }
            out.op(r.outcome.map(|rc| common::add_counters(&mut c, &rc)));
        }
        if first.is_none() {
            let cc = cache.counters();
            cache_stats = (cc.hits, cc.misses, cc.entries);
            first = Some(c);
        }
    });
    if let Some(e) = setup_err {
        return Err(e);
    }

    let c = first.unwrap_or_default();
    out.note("workers", WORKERS);
    out.note("files", files.len());
    out.note("loc_per_pass", loc);
    out.note("edited_files", n_edits);
    out.note("unsafe_roots", unsafe_roots);
    out.note("passes", passes);
    out.note("cold_fill_counters", format!("{fill_counters:?}"));
    out.note(
        "counters_first_pass (not exact at 2 workers)",
        format!("{c:?}"),
    );
    if settings.trace {
        let mut counted = c.clone();
        counted.extend(spans_per_pass);
        common::report_counters(&mut out, &counted, passes);
        let (hits, misses, entries) = cache_stats;
        common::report_cache(&mut out, hits, misses, entries);
        common::report_session(&mut out, &c, passes);
        out.metric(
            "threadpool.busy_ratio",
            stats::median(&busy),
            "ratio",
            busy.len(),
        );
        out.metric(
            "threadpool.max_job_share",
            stats::median(&max_share),
            "ratio",
            max_share.len(),
        );
        // The persist layer, timed from outside on copies of the filled
        // directory.
        let mut open_ms = Vec::new();
        let mut loaded = (0, 0);
        for _ in 0..5 {
            copy_dir(&fill_dir, &pass_dir)?;
            let (ms, bundles, entries) = open_tiers(&pass_dir)?;
            open_ms.push(ms);
            loaded = (bundles, entries);
        }
        let disk_bytes: u64 = std::fs::read_dir(&fill_dir)
            .map_err(|e| io(e, &fill_dir))?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        out.metric(
            "rsc_incr.persist.open_ms",
            stats::median(&open_ms),
            "ms",
            open_ms.len(),
        );
        out.metric(
            "rsc_incr.persist.bundles_loaded",
            loaded.0 as f64,
            "count",
            1,
        );
        out.metric(
            "rsc_incr.persist.vc_entries_loaded",
            loaded.1 as f64,
            "count",
            1,
        );
        out.metric("rsc_incr.persist.disk_bytes", disk_bytes as f64, "bytes", 1);
        let fill = |k: &str| fill_counters.get(k).copied().unwrap_or(0);
        let discharged = fill("rsc_absint.discharged");
        out.metric(
            "rsc_absint.setup_discharge_ratio",
            common::ratio(discharged, discharged + fill("rsc_liquid.queries")),
            "ratio",
            1,
        );
        common::report_layers(&mut out, &layers, traced_walls.len(), &traced_walls, &walls);
    } else {
        let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
        common::report_latency(&mut out, &by_root, &names);
        common::report_pass_rate(&mut out, loc, &walls, &setups);
    }
    Ok(out)
}
