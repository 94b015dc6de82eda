//! Persistent check sessions: re-check an evolving program, re-solving
//! only what changed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rsc_core::{
    generate_artifacts, solve_artifacts, CheckResult, CheckStats, CheckerOptions, Diagnostic,
    RetainedBundle,
};
use rsc_smt::{cache::ENCODER_VERSION, DiskCache, VcCache};

use crate::graph::DepGraph;
use crate::persist::BundleStore;

/// Incremental bookkeeping for one [`CheckSession::check`] call.
#[derive(Clone, Debug, Default)]
pub struct IncrStats {
    /// Bundles in this run.
    pub bundles: usize,
    /// Bundles whose verdicts were reused from the previous run.
    pub reused: usize,
    /// Bundles actually re-solved.
    pub solved: usize,
    /// Names of units the dependency graph flagged dirty (empty on the
    /// first check of a session).
    pub dirty_units: Vec<String>,
    /// True when the whole-program hash matched and the previous result
    /// was returned without re-generating anything.
    pub fast_path: bool,
    /// Importer documents whose re-check was skipped entirely because
    /// the edited dependency's export surface did not change (filled in
    /// by the workspace layer on the edited document's report; always 0
    /// for plain single-document sessions).
    pub importers_skipped: usize,
    /// Wall-clock time of this check, in microseconds.
    pub total_micros: u64,
}

/// The result of one session re-check: the ordinary [`CheckResult`]
/// (byte-identical to a cold `check_program` of the same source) plus
/// the session's incremental bookkeeping.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// The checker result, exactly as a cold run would produce it.
    pub result: CheckResult,
    /// What the session reused versus re-solved.
    pub incr: IncrStats,
}

/// State carried from the previous successful generation run.
struct State {
    /// The fast-path key of the snapshot the run checked.
    source_key: u64,
    graph: DepGraph,
    retained: HashMap<u128, RetainedBundle>,
    last: SessionOutcome,
}

/// A persistent checking session.
///
/// The session owns the cross-run VC cache and, after each run, the
/// per-bundle verdicts keyed by their canonical fingerprints
/// (`rsc_liquid::bundle_fingerprint`). On the next [`CheckSession::check`]
/// it re-generates constraints for the new source (cheap; narrowing
/// queries mostly hit the persistent VC cache), reuses every bundle whose
/// canonical problem is unchanged, and re-solves the rest. Verdicts are
/// pure functions of the canonical bundle problem, so the merged output
/// is byte-identical to a cold check of the same source — the retention
/// map is rebuilt from each run's reports, so verdicts for deleted code
/// are garbage-collected automatically.
pub struct CheckSession {
    opts: CheckerOptions,
    cache: Arc<VcCache>,
    state: Option<State>,
    /// Directory of the persistent disk tier (`--vc-cache DIR`), if any.
    disk_dir: Option<PathBuf>,
    /// The open disk tier. Lazily (re)opened after constraint
    /// generation: the cache version mixes the run-global fingerprint
    /// (qualifier set + sort environment, known only post-generation)
    /// with [`ENCODER_VERSION`].
    disk: Option<DiskState>,
}

/// The two persistent tiers, opened for one cache version.
struct DiskState {
    version: u64,
    vc: DiskCache,
    bundles: BundleStore,
}

/// A hash of one source text: the fast-path key of a single-text
/// session, and the workspace's key for a file's memoized facts.
pub(crate) fn text_hash(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(s.as_bytes());
    h.finish()
}

/// The on-disk cache version for a run: the run-global solve
/// fingerprint mixed with the encoder version (splitmix64 finalizer, so
/// close fingerprints land in unrelated files).
fn disk_version(global_fp: u64) -> u64 {
    let mut z = global_fp
        .wrapping_add(ENCODER_VERSION.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CheckSession {
    /// A fresh session checking with `opts`. The options are fixed for
    /// the session's lifetime (retained verdicts are only valid under
    /// the options that produced them). The session's cross-run VC cache
    /// honors `opts.cache_capacity`, which is what keeps week-long
    /// sessions at a flat memory footprint.
    pub fn new(opts: CheckerOptions) -> CheckSession {
        CheckSession::with_cache(opts, VcCache::shared_with_capacity(opts.cache_capacity))
    }

    /// A fresh session over a caller-supplied VC cache. This is how a
    /// [`crate::Workspace`] makes every document share one cache:
    /// verdicts are pure functions of the canonical VC (the cache keys
    /// fold in all applied symbol signatures), so sharing across
    /// documents is sound and makes opening a second file that overlaps
    /// the first mostly cache hits.
    pub fn with_cache(opts: CheckerOptions, cache: Arc<VcCache>) -> CheckSession {
        CheckSession {
            opts,
            cache,
            state: None,
            disk_dir: None,
            disk: None,
        }
    }

    /// A fresh session whose VC verdicts and bundle verdicts persist to
    /// `dir` across process restarts (the `--vc-cache DIR` tier). Warm
    /// verdicts for an unchanged program are served entirely from disk:
    /// the solve phase reuses every bundle and issues zero SMT queries.
    pub fn with_disk(opts: CheckerOptions, dir: impl Into<PathBuf>) -> CheckSession {
        CheckSession::new(opts).persisting_to(dir)
    }

    /// Attaches the persistent disk tier rooted at `dir` (builder-style;
    /// see [`CheckSession::with_disk`]). The tier is opened lazily on
    /// the next check — an unreadable directory degrades to a cold
    /// in-memory cache with a warning, never a failed check.
    pub fn persisting_to(mut self, dir: impl Into<PathBuf>) -> CheckSession {
        self.disk_dir = Some(dir.into());
        self.disk = None;
        self
    }

    /// The session's options.
    pub fn options(&self) -> CheckerOptions {
        self.opts
    }

    /// The cross-run VC cache.
    pub fn cache(&self) -> &Arc<VcCache> {
        &self.cache
    }

    /// The previous check's outcome, if any.
    pub fn last(&self) -> Option<&SessionOutcome> {
        self.state.as_ref().map(|s| &s.last)
    }

    /// The dependency graph of the last successfully generated snapshot
    /// (used by the workspace layer to attribute dirty units to files).
    pub fn graph(&self) -> Option<&DepGraph> {
        self.state.as_ref().map(|s| &s.graph)
    }

    /// Opens (or re-opens, when the run-global fingerprint changed) the
    /// persistent tiers for this run's cache version, seeding the
    /// in-memory VC cache with every proof on disk. No-op without a
    /// configured `--vc-cache` directory; I/O failures degrade to a
    /// cold in-memory cache with a warning on stderr.
    fn open_disk(&mut self, global_fp: u64) {
        let Some(dir) = &self.disk_dir else { return };
        let version = disk_version(global_fp);
        if self.disk.as_ref().is_some_and(|d| d.version == version) {
            return;
        }
        self.disk = None;
        let vc = match DiskCache::open(dir, version) {
            Ok(vc) => vc,
            Err(e) => {
                eprintln!("rsc: cannot open VC cache in {}: {e}", dir.display());
                return;
            }
        };
        let bundles = match BundleStore::open(dir, version) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("rsc: cannot open bundle cache in {}: {e}", dir.display());
                return;
            }
        };
        vc.load_into(&self.cache);
        self.disk = Some(DiskState {
            version,
            vc,
            bundles,
        });
    }

    /// Appends this run's new proofs and bundle verdicts to the disk
    /// tier (the delta only — both stores track what is already
    /// persisted). Write failures warn and leave the in-memory run
    /// intact.
    fn flush_disk(&mut self, retained: &HashMap<u128, RetainedBundle>) {
        let Some(disk) = &mut self.disk else { return };
        if let Err(e) = disk.vc.flush(&self.cache) {
            eprintln!("rsc: cannot write VC cache: {e}");
        }
        if let Err(e) = disk.bundles.flush(retained.iter().map(|(fp, b)| (*fp, b))) {
            eprintln!("rsc: cannot write bundle cache: {e}");
        }
    }

    /// Checks `src`, reusing whatever the previous run proved.
    pub fn check(&mut self, src: &str) -> SessionOutcome {
        let start = Instant::now();
        let key = text_hash(src);
        if let Some(out) = self.fast_path(key, start) {
            return out;
        }
        let prog = match rsc_syntax::parse_program(src) {
            Ok(p) => p,
            Err(e) => return self.front_error(e.message, e.span, start),
        };
        self.check_prog(&prog, key, start)
    }

    /// Checks an already-parsed program, reusing whatever the previous
    /// run proved. This is the workspace layer's entry point for merged
    /// closures whose items were module-qualified in memory (there is no
    /// source text whose parse yields the qualified AST). The session
    /// invariant is the same as [`CheckSession::check`]: the result is
    /// byte-identical to a cold `check_program_ast` of the same AST.
    ///
    /// `source_key` names the sources `prog` was built from, spans
    /// included — for example a hash of every file's name and text.
    /// Equal keys must mean equal programs: when the key repeats the
    /// previous run's, the session returns that run's result verbatim.
    pub fn check_ast(&mut self, prog: &rsc_syntax::Program, source_key: u64) -> SessionOutcome {
        let start = Instant::now();
        if let Some(out) = self.fast_path(source_key, start) {
            return out;
        }
        self.check_prog(prog, source_key, start)
    }

    /// The fast path: the previous result, verbatim, when `key` names
    /// the snapshot it was generated from (e.g. a watch loop waking up
    /// on an mtime touch). The key is span-exact, so a comment-only
    /// edit, whose diagnostics move, never takes it.
    fn fast_path(&self, key: u64, start: Instant) -> Option<SessionOutcome> {
        let state = self.state.as_ref().filter(|s| s.source_key == key)?;
        let mut out = state.last.clone();
        out.incr.fast_path = true;
        out.incr.reused = out.incr.bundles;
        out.incr.solved = 0;
        out.incr.dirty_units = Vec::new();
        out.incr.total_micros = start.elapsed().as_micros() as u64;
        Some(out)
    }

    fn check_prog(
        &mut self,
        prog: &rsc_syntax::Program,
        source_key: u64,
        start: Instant,
    ) -> SessionOutcome {
        let _sp = rsc_obs::span!("check");
        let ir = match rsc_ssa::transform_program(prog) {
            Ok(i) => i,
            Err(e) => return self.front_error(e.message, e.span, start),
        };
        let graph = DepGraph::build(&ir);

        let prev = self.state.take();
        let dirty_units = prev
            .as_ref()
            .map(|s| graph.dirty_against(&s.graph))
            .unwrap_or_default();

        let artifacts = generate_artifacts(&ir, self.opts, Arc::clone(&self.cache));
        self.open_disk(artifacts.global_fp);
        let disk = self.disk.as_ref();
        let retained_ref = prev.as_ref().map(|s| &s.retained);
        let result = solve_artifacts(artifacts, &mut |fp| {
            retained_ref
                .and_then(|m| m.get(&fp))
                .or_else(|| disk.and_then(|d| d.bundles.get(fp)))
                .cloned()
        });

        drop(prev);

        // Rebuild retention from this run's reports: content-keyed, so
        // verdicts for edited-away bundles disappear naturally.
        let retained: HashMap<u128, RetainedBundle> = result
            .bundle_reports
            .iter()
            .map(|r| (r.fingerprint, r.retained()))
            .collect();
        self.flush_disk(&retained);
        let incr = IncrStats {
            bundles: result.bundle_reports.len(),
            reused: result.stats.bundles_reused,
            solved: result.bundle_reports.len() - result.stats.bundles_reused,
            dirty_units,
            fast_path: false,
            importers_skipped: 0,
            total_micros: start.elapsed().as_micros() as u64,
        };
        let outcome = SessionOutcome { result, incr };
        self.state = Some(State {
            source_key,
            graph,
            retained,
            last: outcome.clone(),
        });
        outcome
    }

    /// Replays an edit script — a sequence of full program snapshots —
    /// through the session, returning one outcome per step. Each
    /// outcome is byte-identical to a cold check of that snapshot (the
    /// session invariant), which is exactly what the `rsc fuzz`
    /// incremental-equivalence oracle replays generated edit scripts
    /// to confirm.
    pub fn replay_script<'a>(
        &mut self,
        steps: impl IntoIterator<Item = &'a str>,
    ) -> Vec<SessionOutcome> {
        steps.into_iter().map(|s| self.check(s)).collect()
    }

    /// A parse/SSA front-end error: reported like a cold check would
    /// (one diagnostic, no stats), previous retained state kept for the
    /// next parseable snapshot.
    fn front_error(
        &mut self,
        message: String,
        span: rsc_syntax::Span,
        start: Instant,
    ) -> SessionOutcome {
        SessionOutcome {
            result: CheckResult {
                diagnostics: vec![Diagnostic::error(message, span)],
                lints: Vec::new(),
                stats: CheckStats::default(),
                bundle_reports: Vec::new(),
            },
            incr: IncrStats {
                total_micros: start.elapsed().as_micros() as u64,
                ..IncrStats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_core::check_program;

    const PROG: &str = r#"
        type nat = {v: number | 0 <= v};
        function abs(x: number): nat {
            if (x < 0) { return 0 - x; }
            return x;
        }
        function clamp(x: number): nat {
            if (x < 0) { return 0; }
            return x;
        }
    "#;

    fn render(r: &CheckResult) -> String {
        r.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn edit_matches_cold_and_reuses() {
        let mut s = CheckSession::new(CheckerOptions::default());
        let first = s.check(PROG);
        assert!(first.result.ok(), "{}", render(&first.result));
        assert_eq!(first.incr.reused, 0);

        // Body edit in `abs` only: clamp's bundle must be reused.
        let edited = PROG.replace("return 0 - x;", "return (0 - x) + 1;");
        let second = s.check(&edited);
        let cold = check_program(&edited, CheckerOptions::default());
        assert_eq!(render(&second.result), render(&cold));
        assert_eq!(second.result.ok(), cold.ok());
        assert!(
            second.incr.reused > 0,
            "expected reuse, got {:?}",
            second.incr
        );
        assert!(second.incr.solved < second.incr.bundles);
        assert!(second.incr.dirty_units.contains(&"fun:abs".to_string()));

        // Edit back: everything retained from the first run still keyed.
        let third = s.check(PROG);
        assert!(third.result.ok());
        assert!(third.incr.reused > 0);
    }

    #[test]
    fn fast_path_on_identical_source() {
        let mut s = CheckSession::new(CheckerOptions::default());
        let first = s.check(PROG);
        let again = s.check(PROG);
        assert!(again.incr.fast_path);
        assert_eq!(render(&first.result), render(&again.result));
        assert_eq!(again.incr.solved, 0);
    }

    /// The fast-path key is the source text, spans included: an
    /// identical snapshot takes the fast path, while a comment-only
    /// edit (every span moves, no constraint changes) re-generates and
    /// reuses every bundle, so its diagnostics follow the new lines.
    #[test]
    fn fast_path_key_is_span_exact() {
        let bad = PROG.replace("return 0 - x;", "return x;");
        let mut s = CheckSession::new(CheckerOptions::default());
        let first = s.check(&bad);
        assert!(!first.result.ok());
        assert!(s.check(&bad).incr.fast_path);

        let commented = format!("// a comment line\n{bad}");
        let shifted = s.check(&commented);
        assert!(!shifted.incr.fast_path);
        assert_eq!(shifted.incr.solved, 0);
        assert_eq!(shifted.incr.reused, shifted.incr.bundles);
        let cold = check_program(&commented, CheckerOptions::default());
        assert_eq!(render(&shifted.result), render(&cold));
        assert_ne!(render(&shifted.result), render(&first.result));
    }

    #[test]
    fn parse_error_reports_and_recovers() {
        let mut s = CheckSession::new(CheckerOptions::default());
        assert!(s.check(PROG).result.ok());
        let broken = s.check("function ((");
        assert!(!broken.result.ok());
        // Retained state survives the broken snapshot.
        let back = s.check(PROG);
        assert!(back.result.ok());
        assert!(back.incr.reused > 0 || back.incr.fast_path);
    }

    /// A global error (class-table build failure) reports exactly like a
    /// cold check. The old "transiently duplicated class name" band-aid
    /// that special-cased zero-bundle failures is gone: cross-file name
    /// collisions can no longer nuke the class table (closure merging
    /// α-renames each module's declarations — see `workspace`), so the
    /// session no longer needs a recovery path for them.
    #[test]
    fn class_table_error_reports_like_cold() {
        let mut s = CheckSession::new(CheckerOptions::default());
        assert!(s.check(PROG).result.ok());
        let broken_src = format!("{PROG}\nclass D {{\n    f : Missing;\n}}\n");
        let broken = s.check(&broken_src);
        let cold = check_program(&broken_src, CheckerOptions::default());
        assert_eq!(render(&broken.result), render(&cold));
        assert!(!broken.result.ok());
        // The fix re-checks correctly (identity with cold holds on every
        // snapshot, which is the invariant that matters).
        let back = s.check(PROG);
        assert!(back.result.ok());
    }

    #[test]
    fn failing_edit_is_byte_identical_to_cold() {
        let mut s = CheckSession::new(CheckerOptions::default());
        s.check(PROG);
        let bad = PROG.replace("if (x < 0) { return 0; }", "if (x < 1) { return 0 - 1; }");
        let session = s.check(&bad);
        let cold = check_program(&bad, CheckerOptions::default());
        assert_eq!(render(&session.result), render(&cold));
        assert!(!session.result.ok());
    }
}
