//! Persistent check sessions: re-check an evolving program, re-solving
//! only what changed.
//!
//! A check runs the front end once: [`CheckSession::check`] parses, and
//! [`CheckSession::check_ast`] takes the workspace's parse, then
//! `rsc_core::generate_artifacts` runs SSA and generation. Which
//! bundles re-solve, and which units the check reports dirty, both
//! follow from bundle fingerprints: a bundle whose fingerprint the memo
//! or the disk tier holds is reused, and the units of every bundle the
//! previous run did not have are dirty.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rsc_core::{
    generate_artifacts, solve_artifacts, BundleReport, CheckResult, CheckStats, CheckerOptions,
    Diagnostic, RetainedBundle, Unit,
};
use rsc_smt::{cache::ENCODER_VERSION, DiskCache, VcCache};

use crate::persist::BundleStore;

/// Incremental bookkeeping for one [`CheckSession::check`] call.
#[derive(Clone, Debug, Default)]
pub struct IncrStats {
    /// Bundles in this run.
    pub bundles: usize,
    /// Bundles whose verdicts came from an earlier run or the disk tier.
    pub reused: usize,
    /// Bundles actually re-solved.
    pub solved: usize,
    /// The units of every bundle whose fingerprint the previous run did
    /// not have, in bundle order (empty on the first check of a session
    /// and on the fast path). A unit is reported with its whole bundle,
    /// an unannotated function through its callers (whose bundles hold
    /// its constraints), and a unit without constraints never.
    pub dirty_units: Vec<Unit>,
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
    last: SessionOutcome,
}

/// The session's bundle verdicts, keyed by bundle fingerprint, across
/// generation runs.
///
/// Each entry records the last run that solved or reused it. After run
/// `n` the memo keeps every verdict of runs `n` and `n - 1`, plus the
/// most recently used older ones up to run `n`'s bundle count; so an
/// undo of the last edit re-solves nothing, and the memo never holds
/// more than `2·|n| + |n - 1|` entries, proportional to the document.
#[derive(Default)]
struct VerdictMemo {
    /// Generation runs recorded so far.
    run: u64,
    entries: HashMap<u128, (RetainedBundle, u64)>,
}

impl VerdictMemo {
    fn get(&self, fingerprint: u128) -> Option<&RetainedBundle> {
        self.entries.get(&fingerprint).map(|(b, _)| b)
    }

    /// Records one run's bundles as used by it, then evicts the older
    /// verdicts past the bound. Ties between equally recent verdicts
    /// break on the fingerprint, so what survives never depends on map
    /// order.
    fn record(&mut self, reports: &[BundleReport]) {
        self.run += 1;
        let run = self.run;
        for r in reports {
            self.entries
                .entry(r.fingerprint)
                .and_modify(|e| e.1 = run)
                .or_insert_with(|| (r.retained(), run));
        }
        let mut older: Vec<(u64, u128)> = self
            .entries
            .iter()
            .filter(|(_, (_, used))| used + 1 < run)
            .map(|(fp, (_, used))| (*used, *fp))
            .collect();
        if older.len() > reports.len() {
            older.sort_unstable_by(|a, b| b.cmp(a));
            for (_, fp) in &older[reports.len()..] {
                self.entries.remove(fp);
            }
        }
    }
}

/// A persistent checking session.
///
/// The session owns the cross-run VC cache and a bounded memo of bundle
/// verdicts keyed by their canonical fingerprints
/// (`rsc_liquid::bundle_fingerprint`). On the next [`CheckSession::check`]
/// it re-generates constraints for the new source (cheap; narrowing
/// queries mostly hit the persistent VC cache), reuses every bundle whose
/// canonical problem an earlier run or the disk tier solved, and
/// re-solves the rest. Verdicts are pure functions of the canonical
/// bundle problem (`global_fp` included), so the merged output is
/// byte-identical to a cold check of the same source. The memo keeps
/// every verdict of the last two runs and, of older ones, the most
/// recently used up to the last run's bundle count, so an edit back to
/// a recent state re-solves nothing while memory stays proportional to
/// the document.
pub struct CheckSession {
    opts: CheckerOptions,
    cache: Arc<VcCache>,
    state: Option<State>,
    memo: VerdictMemo,
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
            memo: VerdictMemo::default(),
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

    /// Number of bundle verdicts the session holds for later runs.
    pub fn memo_len(&self) -> usize {
        self.memo.entries.len()
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
    /// persisted). Only the bundles of `reports` are written, never
    /// older memo entries. Write failures warn and leave the in-memory
    /// run intact.
    fn flush_disk(&mut self, reports: &[BundleReport]) {
        let Some(disk) = &mut self.disk else { return };
        if let Err(e) = disk.vc.flush(&self.cache) {
            eprintln!("rsc: cannot write VC cache: {e}");
        }
        let memo = &self.memo;
        let run = reports
            .iter()
            .filter_map(|r| memo.get(r.fingerprint).map(|b| (r.fingerprint, b)));
        if let Err(e) = disk.bundles.flush(run) {
            eprintln!("rsc: cannot write bundle cache: {e}");
        }
    }

    /// Checks `src`, reusing whatever an earlier run proved.
    pub fn check(&mut self, src: &str) -> SessionOutcome {
        let start = Instant::now();
        let key = text_hash(src);
        if let Some(out) = self.fast_path(key, start) {
            return out;
        }
        let prog = match rsc_syntax::parse_program(src) {
            Ok(p) => p,
            Err(e) => return parse_error(e, start),
        };
        self.check_prog(&prog, key, start)
    }

    /// Checks an already-parsed program, reusing whatever an earlier
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
        let artifacts = generate_artifacts(prog, self.opts, Arc::clone(&self.cache));
        self.open_disk(artifacts.global_fp);
        let disk = self.disk.as_ref();
        let memo = &self.memo;
        let result = solve_artifacts(artifacts, &mut |fp| {
            memo.get(fp)
                .or_else(|| disk.and_then(|d| d.bundles.get(fp)))
                .cloned()
        });

        self.memo.record(&result.bundle_reports);
        self.flush_disk(&result.bundle_reports);
        let dirty_units = match self.state.take() {
            Some(prev) => {
                let seen: HashSet<u128> = prev
                    .last
                    .result
                    .bundle_reports
                    .iter()
                    .map(|r| r.fingerprint)
                    .collect();
                result
                    .bundle_reports
                    .iter()
                    .filter(|r| !seen.contains(&r.fingerprint))
                    .flat_map(|r| r.units.iter().cloned())
                    .collect()
            }
            None => Vec::new(),
        };
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
}

/// A parse error: reported like a cold check would (one diagnostic, no
/// stats); the session's previous state and verdict memo are kept for
/// the next parseable snapshot.
fn parse_error(e: rsc_syntax::ParseError, start: Instant) -> SessionOutcome {
    SessionOutcome {
        result: CheckResult {
            diagnostics: vec![Diagnostic::error(e.message, e.span)],
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
        let dirty: Vec<&str> = second.incr.dirty_units.iter().map(|u| &*u.name).collect();
        assert_eq!(dirty, ["fun:abs"]);

        // Edit back: every verdict of the first run is still in the
        // memo, so nothing re-solves.
        let third = s.check(PROG);
        assert!(third.result.ok());
        assert_eq!(third.incr.solved, 0, "{:?}", third.incr);
        assert_eq!(third.incr.reused, third.incr.bundles);
    }

    /// Walks `abs` through more versions than the memo keeps. After
    /// every run the memo holds at most twice the run's bundles plus the
    /// previous run's. A version two edits back is still kept (the most
    /// recently used older verdicts), while one evicted long ago
    /// re-solves its bundle and still matches a cold check.
    #[test]
    fn memo_is_bounded_and_evicted_versions_resolve() {
        let version = |k: usize| {
            let body = format!("return 0 - x{};", " + x - x".repeat(k));
            PROG.replace("return 0 - x;", &body)
        };
        let mut s = CheckSession::new(CheckerOptions::default());
        let mut prev_bundles = 0;
        for k in 0..8 {
            let out = s.check(&version(k));
            assert!(out.result.ok(), "{}", render(&out.result));
            assert_eq!(out.incr.solved, if k == 0 { 2 } else { 1 });
            let bound = 2 * out.incr.bundles + prev_bundles;
            assert!(s.memo_len() <= bound, "{} > {bound}", s.memo_len());
            prev_bundles = out.incr.bundles;
        }
        // `clamp`, `abs` at versions 7 and 6, and two older `abs`.
        assert_eq!(s.memo_len(), 5);

        let back = s.check(&version(5));
        assert_eq!(back.incr.solved, 0, "{:?}", back.incr);

        let evicted = s.check(&version(0));
        assert_eq!(evicted.incr.solved, 1, "{:?}", evicted.incr);
        let cold = check_program(&version(0), CheckerOptions::default());
        assert_eq!(render(&evicted.result), render(&cold));
        assert_eq!(evicted.result.ok(), cold.ok());
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
