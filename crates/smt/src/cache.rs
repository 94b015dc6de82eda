//! A shared verification-condition cache.
//!
//! The Liquid fixpoint re-proves the same implication many times: every
//! outer iteration re-validates each kept qualifier of every unchanged
//! constraint, overload conjuncts duplicate whole environments, and loop
//! bodies re-check the same invariant obligations. The parallel checking
//! driver therefore shares one [`VcCache`] across all per-function solver
//! instances.
//!
//! # Canonical fingerprints
//!
//! Two queries that differ only in variable names (SSA temporaries,
//! overload parameter copies) or in hypothesis order are the same VC. A
//! query `is_sat(Γ, p₁ ∧ … ∧ pₙ)` is canonicalized before lookup:
//!
//! 1. the conjuncts are sorted by their rendering (a name-stable order),
//! 2. variables are alpha-renamed via [`Subst`] to `#0, #1, …` in order
//!    of first occurrence over the sorted sequence,
//! 3. the key is the renamed conjuncts plus the sorts of `#0, #1, …`.
//!
//! Key equality therefore implies the queries are alpha-variants of the
//! same conjunction under the same sort assignment, so they are
//! equisatisfiable. Uninterpreted function symbols are *not* renamed;
//! instead, the key records the *signature* of every function symbol and
//! field selector the canonical conjuncts apply (step 4 below). Two
//! programs that reuse a symbol name at different signatures therefore
//! get different keys, which is what makes it legal for a cache to
//! outlive a single checker run: incremental check sessions (the
//! `rsc_incr` crate) share one cache across every re-check of an evolving
//! program, and across programs, without consulting any class table.
//!
//! # Soundness contract: only Unsat is memoized
//!
//! Only **Unsat** answers (= proven-valid VCs) are stored. An Unsat
//! answer is a proof and remains correct wherever the same canonical
//! query reappears. Sat and Unknown answers are *not* cached: Unknown
//! depends on resource caps, and a cached Sat could mask a later
//! refutation if the solver's encoding is ever extended — caching either
//! could only ever turn a rejected program into an accepted one, which is
//! the unsound direction. A false cache *miss* merely re-runs the solver.
//!
//! # Determinism
//!
//! When a cache is attached, [`crate::Solver::is_valid`] solves the
//! *canonical* form of the query (the exact conjunct sequence hashed into
//! the key), so the verdict is a pure function of the canonical key. Hit
//! or miss, first thread or last, the answer is identical — this is what
//! makes parallel checking produce byte-identical diagnostics for any
//! worker count. (A cached solver may differ from an *uncached* one on
//! queries cut off by the round cap — conjunct order steers the search —
//! but only between `Unsat` and `Unknown`, i.e. in the conservative
//! reject-more direction, and deterministically so for a given mode.)

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::fmt::Write;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rsc_logic::{FunSig, FxHashMap, FxHashSet, Pred, Sort, SortLookup, Subst, Sym, Term};

/// Number of independently locked shards. Contention is low (queries are
/// long compared to a hash lookup), 16 keeps it negligible.
const SHARDS: usize = 16;

/// Cache counters at one point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the solver.
    pub misses: u64,
    /// Canonical VCs currently stored.
    pub entries: u64,
    /// Entries evicted by the capacity bound (0 for unbounded caches).
    pub evictions: u64,
}

impl CacheCounters {
    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe map of canonical VC fingerprints proven Unsat, sharded
/// to keep lock contention off the solving hot path.
///
/// # Bounding (generation-count LRU)
///
/// Long-lived incremental sessions share one cache across every
/// re-check, so an unbounded cache grows for the life of the session.
/// With a capacity set ([`VcCache::with_capacity`],
/// `CheckerOptions::cache_capacity`, `rsc --cache-cap`), every entry
/// carries the global *generation* (a counter bumped on each probe and
/// record) at which it was last touched; when a shard exceeds its slice
/// of the capacity, the oldest-generation entries are evicted. Evicting
/// an Unsat proof is always sound — the next identical query merely
/// re-runs the solver on the same canonical form and re-proves it, so
/// verdicts (and diagnostics) are unchanged at any capacity.
#[derive(Debug, Default)]
pub struct VcCache {
    /// Canonical key → generation of last touch.
    shards: [Mutex<FxHashMap<String, u64>>; SHARDS],
    /// Max entries per shard (0 = unbounded).
    shard_cap: usize,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl VcCache {
    /// An empty, unbounded cache.
    pub fn new() -> VcCache {
        VcCache::default()
    }

    /// An empty cache bounded to roughly `capacity` entries (`0` =
    /// unbounded). The bound is enforced per shard, so the effective
    /// cap is `capacity` rounded up to a multiple of the shard count.
    pub fn with_capacity(capacity: usize) -> VcCache {
        VcCache {
            shard_cap: capacity.div_ceil(SHARDS),
            ..VcCache::default()
        }
    }

    /// An empty unbounded cache behind an [`Arc`], ready to share
    /// across solvers.
    pub fn shared() -> Arc<VcCache> {
        Arc::new(VcCache::new())
    }

    /// [`VcCache::with_capacity`] behind an [`Arc`].
    pub fn shared_with_capacity(capacity: usize) -> Arc<VcCache> {
        Arc::new(VcCache::with_capacity(capacity))
    }

    fn shard(&self, key: &str) -> &Mutex<FxHashMap<String, u64>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn next_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up a canonical key, bumping the hit/miss counters. `true`
    /// means the key was previously proven Unsat. A hit refreshes the
    /// entry's generation (LRU touch).
    pub fn probe(&self, key: &str) -> bool {
        let generation = self.next_generation();
        let hit = match self.shard(key).lock().unwrap().get_mut(key) {
            Some(entry) => {
                *entry = generation;
                true
            }
            None => false,
        };
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Records a canonical key as proven Unsat. When the key's shard
    /// exceeds its capacity slice, the oldest-generation entries are
    /// evicted in one batch down to `cap - max(cap/8, 1)` (never below
    /// one entry, so the just-recorded proof always survives). For
    /// non-tiny caps that leaves real headroom: a shard pinned at
    /// capacity pays one sort every `cap/8` inserts — amortized
    /// `O(log cap)` per insert — instead of a full scan on every one.
    /// (At `shard_cap == 1` the headroom degenerates and every insert
    /// sorts, but that sort is over two entries.)
    pub fn record_unsat(&self, key: String) {
        let generation = self.next_generation();
        let mut shard = self.shard(&key).lock().unwrap();
        shard.insert(key, generation);
        if self.shard_cap > 0 && shard.len() > self.shard_cap {
            let keep = (self.shard_cap - (self.shard_cap / 8).max(1)).max(1);
            let evict = shard.len() - keep;
            // Generations are unique (a global fetch_add), so selecting
            // the `evict`-th smallest gives an exact cutoff — no key
            // strings are cloned and the work under the lock is O(n).
            let mut generations: Vec<u64> = shard.values().copied().collect();
            let (_, &mut cutoff, _) = generations.select_nth_unstable(evict - 1);
            shard.retain(|_, generation| *generation > cutoff);
            self.evictions.fetch_add(evict as u64, Ordering::Relaxed);
        }
    }

    /// Clones every stored key — the disk tier's flush source. Shards
    /// are locked one at a time, so concurrent probes only ever wait on
    /// their own shard.
    pub fn snapshot_keys(&self) -> Vec<String> {
        let mut keys = Vec::new();
        for shard in &self.shards {
            keys.extend(shard.lock().unwrap().keys().cloned());
        }
        keys
    }

    /// Seeds the cache with keys proven Unsat in an earlier process (the
    /// disk tier's load path). Seeded entries join the LRU like any
    /// other record.
    pub fn seed(&self, keys: impl IntoIterator<Item = String>) {
        for k in keys {
            self.record_unsat(k);
        }
    }

    /// Current counters (entries counted across all shards).
    pub fn counters(&self) -> CacheCounters {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap().len() as u64)
            .sum();
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A canonicalized `is_sat` query: the fingerprint key, the canonical
/// conjunct sequence it denotes (sorted, alpha-renamed, deduped), and the
/// canonical binders `#0, #1, …` with their sorts. Solving the conjuncts
/// under a [`rsc_logic::SortScope`] layering `binders` over the source
/// environment is equisatisfiable with solving the original query — the
/// overlay is a pair of borrows, so neither a hit nor a miss ever clones
/// an environment.
#[derive(Debug)]
pub struct CanonicalQuery {
    /// The cache fingerprint.
    pub key: String,
    /// The canonical conjuncts (exactly what the key hashes).
    pub preds: Vec<Pred>,
    /// Sorts of the canonical variables, indexed by their number.
    pub binders: Vec<(Sym, Sort)>,
}

/// Renders the *effective* signature of an applied symbol into the key.
/// Field selectors are special-cased: sorting only ever reads their
/// result sort (defaulting to `int` when unregistered), so that is all
/// the key needs to record.
fn write_sig(key: &mut String, env: &dyn SortLookup, f: &Sym) {
    let _ = write!(key, "{f}!");
    if f.as_str().starts_with("field$") {
        let r = env.sig_of_fun(f).map(|s| s.result()).unwrap_or(Sort::Int);
        let _ = write!(key, "{r};");
        return;
    }
    match env.sig_of_fun(f) {
        Some(FunSig::Fixed(args, r)) => {
            for a in args {
                let _ = write!(key, "{a},");
            }
            let _ = write!(key, "->{r};");
        }
        Some(FunSig::AnyArgs(n, r)) => {
            let _ = write!(key, "any{n}->{r};");
        }
        None => {
            let _ = write!(key, "?;");
        }
    }
}

/// Collects every uninterpreted symbol a term applies: `App` heads and
/// `field$f` selectors (whose sorts come from the same signature table).
fn applied_syms_term(t: &Term, out: &mut BTreeSet<Sym>) {
    match t {
        Term::Var(_) | Term::IntLit(_) | Term::BoolLit(_) | Term::StrLit(_) | Term::BvLit(_) => {}
        Term::Field(b, f) => {
            out.insert(Sym::from(format!("field${f}")));
            applied_syms_term(b, out);
        }
        Term::App(f, args) => {
            out.insert(*f);
            for a in args {
                applied_syms_term(a, out);
            }
        }
        Term::Bin(_, a, b) => {
            applied_syms_term(a, out);
            applied_syms_term(b, out);
        }
        Term::Neg(a) => applied_syms_term(a, out),
    }
}

fn applied_syms_pred(p: &Pred, out: &mut BTreeSet<Sym>) {
    match p {
        Pred::True | Pred::False => {}
        Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|q| applied_syms_pred(q, out)),
        Pred::Not(q) => applied_syms_pred(q, out),
        Pred::Imp(a, b) | Pred::Iff(a, b) => {
            applied_syms_pred(a, out);
            applied_syms_pred(b, out);
        }
        Pred::Cmp(_, a, b) => {
            applied_syms_term(a, out);
            applied_syms_term(b, out);
        }
        Pred::App(f, args) => {
            out.insert(*f);
            for a in args {
                applied_syms_term(a, out);
            }
        }
        Pred::TermPred(t) => applied_syms_term(t, out),
        Pred::KVar(_, s) => {
            for (_, t) in s.iter() {
                applied_syms_term(t, out);
            }
        }
    }
}

/// Canonicalizes an `is_sat` query (see [`CanonicalQuery`]).
pub fn canonical_query(env: &dyn SortLookup, preds: &[Pred]) -> CanonicalQuery {
    let refs: Vec<&Pred> = preds.iter().collect();
    canonical_query_refs(env, &refs)
}

/// [`canonical_query`] over borrowed conjuncts: the validity entry
/// points canonicalize `hyps + ¬goal` on every query, and borrowing
/// avoids deep-cloning the hypothesis predicates just to build the key.
pub fn canonical_query_refs(env: &dyn SortLookup, preds: &[&Pred]) -> CanonicalQuery {
    // 1. Name-stable order: sort conjuncts by their original rendering.
    let mut rendered: Vec<(String, &Pred)> = preds
        .iter()
        .map(|&p| {
            let mut s = String::new();
            p.write_into(&mut s);
            (s, p)
        })
        .collect();
    rendered.sort_by(|a, b| a.0.cmp(&b.0));
    rendered.dedup_by(|a, b| a.0 == b.0);

    // 2. Alpha-rename free variables to #0, #1, … in order of first
    //    occurrence over the sorted sequence (free_vars is a BTreeSet, so
    //    the within-predicate order is deterministic too).
    let mut order: Vec<Sym> = Vec::new();
    let mut seen: FxHashSet<Sym> = FxHashSet::default();
    for (_, p) in &rendered {
        for x in p.free_vars() {
            if seen.insert(x) {
                order.push(x);
            }
        }
    }
    let mut rename = Subst::new();
    for (i, x) in order.iter().enumerate() {
        rename.push(*x, Term::var(format!("#{i}")));
    }
    let canonical: Vec<Pred> = rendered.iter().map(|(_, p)| rename.apply_pred(p)).collect();

    // 3. The key: canonical binder sorts, then the canonical conjuncts.
    let mut binders = Vec::with_capacity(order.len());
    let mut key = String::with_capacity(64 + 32 * canonical.len());
    for (i, x) in order.iter().enumerate() {
        match env.var_sort(x) {
            Some(s) => {
                binders.push((Sym::from(format!("#{i}")), s));
                let _ = write!(key, "#{i}:{s};");
            }
            None => {
                let _ = write!(key, "#{i}:?;");
            }
        }
    }
    // 4. The signatures of every applied uninterpreted symbol. With these
    //    in the key, key equality no longer presumes a fixed class table,
    //    so the cache may be shared across checker runs (incremental
    //    sessions) and across different programs.
    let mut applied: BTreeSet<Sym> = BTreeSet::new();
    for p in &canonical {
        applied_syms_pred(p, &mut applied);
    }
    for f in &applied {
        write_sig(&mut key, env, f);
    }
    key.push('\u{1}');
    for p in &canonical {
        p.write_into(&mut key);
        key.push('\u{2}');
    }
    CanonicalQuery {
        key,
        preds: canonical,
        binders,
    }
}

// ---------------------------------------------------------- disk tier ---

/// The persistent on-disk tier of the VC cache: canonical Unsat
/// fingerprints survive across processes, CI runs and machines, like a
/// build cache.
///
/// # Soundness and versioning
///
/// The disk tier stores exactly what [`VcCache`] stores — canonical keys
/// proven **Unsat** — so it inherits the same contract: a hit can only
/// skip re-proving a proof, never accept what a solver would reject,
/// *provided the solver that wrote the entry proves the same things as
/// the solver reading it*. That proviso is the version: every file is
/// named `vc-{version:016x}.vcc` and carries a `rsc-vc-cache v1
/// {version:016x}` header, where `version` hashes everything a verdict
/// depends on beyond the canonical key itself — the qualifier set and
/// sort environment (via the session's global fingerprint) and
/// [`ENCODER_VERSION`], bumped whenever the encoder/theory pipeline
/// changes what a canonical key *means*. A solver with a different
/// qualifier set or encoder simply opens a different file and starts
/// cold. Stale files are never misread, only ignored.
///
/// # Format and crash tolerance
///
/// After the header line, the file is a sequence of length-prefixed
/// records (`u32` little-endian byte length, then the key's UTF-8
/// bytes) — canonical keys embed `\u{1}`/`\u{2}` separators and
/// arbitrary renderings, so a line-oriented format would corrupt.
/// Writes are append-only; a torn tail (crash mid-flush) truncates the
/// load at the last complete record and loses nothing but uncommitted
/// proofs. A bad header means "not our file": the cache starts cold and
/// rewrites it on the next flush.
#[derive(Debug)]
pub struct DiskCache {
    path: std::path::PathBuf,
    version: u64,
    /// Keys known to be on disk already (loaded or flushed), so a flush
    /// appends only the delta.
    persisted: Mutex<FxHashSet<String>>,
    loaded: usize,
}

/// Bumped whenever the encoder, theory combination, or canonicalization
/// changes the meaning of a canonical VC fingerprint. Part of every
/// [`DiskCache`] version hash.
pub const ENCODER_VERSION: u64 = 1;

const DISK_MAGIC: &str = "rsc-vc-cache v1";

impl DiskCache {
    /// Opens (or initializes) the disk tier for `version` in `dir`,
    /// loading every complete record of a matching existing file. The
    /// caller should fold the qualifier-set/environment fingerprint and
    /// [`ENCODER_VERSION`] into `version`.
    pub fn open(dir: &std::path::Path, version: u64) -> std::io::Result<DiskCache> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("vc-{version:016x}.vcc"));
        let mut persisted = FxHashSet::default();
        match std::fs::read(&path) {
            Ok(bytes) => {
                let header = format!("{DISK_MAGIC} {version:016x}\n");
                if !bytes.starts_with(header.as_bytes()) {
                    // Not our file (corrupt header): drop it so the next
                    // flush rewrites a clean one.
                    let _ = std::fs::remove_file(&path);
                }
                if let Some(mut rest) = bytes.strip_prefix(header.as_bytes()) {
                    while rest.len() >= 4 {
                        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                        let Some(body) = rest.get(4..4 + len) else {
                            break; // torn tail: keep what we have
                        };
                        if let Ok(key) = std::str::from_utf8(body) {
                            persisted.insert(key.to_string());
                        }
                        rest = &rest[4 + len..];
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let loaded = persisted.len();
        Ok(DiskCache {
            path,
            version,
            persisted: Mutex::new(persisted),
            loaded,
        })
    }

    /// Number of keys loaded from an existing file at open.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Seeds `cache` with every key loaded from disk.
    pub fn load_into(&self, cache: &VcCache) {
        cache.seed(self.persisted.lock().unwrap().iter().cloned());
    }

    /// Appends every key of `cache` not yet on disk; returns how many
    /// records were written. Creates the file (with header) on first
    /// write. Concurrent flushes of the same `DiskCache` serialize on
    /// the internal lock; distinct processes append independently, and
    /// duplicate records across processes are harmless (loading is
    /// set-based).
    pub fn flush(&self, cache: &VcCache) -> std::io::Result<usize> {
        use std::io::Write as _;
        let keys = cache.snapshot_keys();
        let mut persisted = self.persisted.lock().unwrap();
        let fresh: Vec<&String> = keys.iter().filter(|k| !persisted.contains(*k)).collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        let exists = self.path.exists();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut buf = Vec::new();
        if !exists {
            let version = self.version;
            buf.extend_from_slice(format!("{DISK_MAGIC} {version:016x}\n").as_bytes());
        }
        for k in &fresh {
            buf.extend_from_slice(&(k.len() as u32).to_le_bytes());
            buf.extend_from_slice(k.as_bytes());
        }
        f.write_all(&buf)?;
        f.flush()?;
        let written = fresh.len();
        for k in fresh {
            persisted.insert(k.clone());
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::{CmpOp, Sort, SortEnv};

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        e.bind("x", Sort::Int);
        e.bind("y", Sort::Int);
        e.bind("a", Sort::Int);
        e.bind("b", Sort::Int);
        e
    }

    #[test]
    fn alpha_variants_share_a_key() {
        let e = env();
        let p1 = vec![
            Pred::cmp(CmpOp::Lt, Term::var("x"), Term::var("y")),
            Pred::cmp(CmpOp::Le, Term::int(0), Term::var("x")),
        ];
        let p2 = vec![
            Pred::cmp(CmpOp::Le, Term::int(0), Term::var("a")),
            Pred::cmp(CmpOp::Lt, Term::var("a"), Term::var("b")),
        ];
        let k1 = canonical_query(&e, &p1).key;
        let k2 = canonical_query(&e, &p2).key;
        assert_eq!(k1, k2, "renamed + reordered query must share the key");
    }

    #[test]
    fn different_sorts_split_the_key() {
        let mut e1 = SortEnv::new();
        e1.bind("x", Sort::Int);
        let mut e2 = SortEnv::new();
        e2.bind("x", Sort::Ref);
        let p = vec![Pred::eq(Term::var("x"), Term::var("x"))];
        let k1 = canonical_query(&e1, &p).key;
        let k2 = canonical_query(&e2, &p).key;
        assert_ne!(k1, k2);
    }

    #[test]
    fn probe_and_record() {
        let c = VcCache::new();
        assert!(!c.probe("k"));
        c.record_unsat("k".to_string());
        assert!(c.probe("k"));
        let counters = c.counters();
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.entries, 1);
        assert_eq!(counters.evictions, 0);
    }

    #[test]
    fn capacity_bounds_entries_and_counts_evictions() {
        // cap 16 → one entry per shard; hammering one shard must stay
        // bounded and evict in LRU (generation) order.
        let c = VcCache::with_capacity(16);
        for i in 0..100 {
            c.record_unsat(format!("key-{i}"));
        }
        let counters = c.counters();
        assert!(
            counters.entries <= 16,
            "entries {} exceed capacity",
            counters.entries
        );
        assert_eq!(counters.evictions + counters.entries, 100);
    }

    #[test]
    fn lru_prefers_recently_probed_entries() {
        // shard_cap = 8 (capacity 8 × SHARDS): fill one shard to its
        // cap, refresh the *oldest* entry by probing it, then overflow
        // the shard. The batch eviction must drop the oldest
        // *generations* — which, thanks to the probe's LRU touch, are
        // the unprobed early inserts, not the probed one.
        let c = VcCache::with_capacity(8 * SHARDS);
        let anchor = "anchor".to_string();
        let mut same_shard: Vec<String> = vec![anchor.clone()];
        for i in 0.. {
            if same_shard.len() == 9 {
                break;
            }
            let k = format!("collide-{i}");
            if std::ptr::eq(c.shard(&k), c.shard(&anchor)) {
                same_shard.push(k);
            }
            assert!(i < 1_000_000, "could not find colliding keys");
        }
        // Insert anchor first (oldest), then 7 more: shard at cap 8.
        for k in &same_shard[..8] {
            c.record_unsat(k.clone());
        }
        assert_eq!(c.counters().evictions, 0);
        // Refresh the oldest entry, then overflow.
        assert!(c.probe(&anchor));
        c.record_unsat(same_shard[8].clone());
        assert!(c.counters().evictions > 0);
        assert!(
            c.probe(&anchor),
            "probed entry must survive eviction (LRU touch)"
        );
        assert!(
            !c.probe(&same_shard[1]),
            "oldest unprobed entry must be evicted"
        );
        assert!(c.probe(&same_shard[8]), "latest insert must survive");
        // Unbounded caches never evict.
        let u = VcCache::new();
        for i in 0..1000 {
            u.record_unsat(format!("k{i}"));
        }
        assert_eq!(u.counters().evictions, 0);
        assert_eq!(u.counters().entries, 1000);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("rsc-vcc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn disk_round_trip_preserves_control_characters() {
        let dir = scratch_dir("roundtrip");
        let warm = VcCache::new();
        // Real canonical keys embed \u{1}/\u{2}; throw in a newline too.
        let keys = [
            "plain".to_string(),
            "a\u{1}b\u{2}c".to_string(),
            "multi\nline".to_string(),
        ];
        for k in &keys {
            warm.record_unsat(k.clone());
        }
        let disk = DiskCache::open(&dir, 42).unwrap();
        assert_eq!(disk.loaded(), 0);
        assert_eq!(disk.flush(&warm).unwrap(), 3);
        assert_eq!(
            disk.flush(&warm).unwrap(),
            0,
            "second flush appends nothing"
        );

        let disk2 = DiskCache::open(&dir, 42).unwrap();
        assert_eq!(disk2.loaded(), 3);
        let cold = VcCache::new();
        disk2.load_into(&cold);
        for k in &keys {
            assert!(cold.probe(k), "key {k:?} lost in the disk round trip");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_versions_are_isolated() {
        let dir = scratch_dir("versions");
        let warm = VcCache::new();
        warm.record_unsat("proof".to_string());
        let v1 = DiskCache::open(&dir, 1).unwrap();
        v1.flush(&warm).unwrap();
        // A different version (qualifier set / encoder changed) must not
        // see v1's proofs.
        let v2 = DiskCache::open(&dir, 2).unwrap();
        assert_eq!(v2.loaded(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tolerates_torn_tail_and_bad_header() {
        use std::io::Write as _;
        let dir = scratch_dir("torn");
        let warm = VcCache::new();
        warm.record_unsat("alpha".to_string());
        warm.record_unsat("beta".to_string());
        let disk = DiskCache::open(&dir, 7).unwrap();
        disk.flush(&warm).unwrap();
        let path = dir.join(format!("vc-{:016x}.vcc", 7u64));
        // Simulate a crash mid-append: a length prefix with no body.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&999u32.to_le_bytes()).unwrap();
            f.write_all(b"trunc").unwrap();
        }
        let reopened = DiskCache::open(&dir, 7).unwrap();
        assert_eq!(reopened.loaded(), 2, "complete records survive a torn tail");
        // A corrupt header means "not our file": load nothing, and the
        // file is dropped so the next flush rewrites it cleanly.
        std::fs::write(&path, b"garbage").unwrap();
        let bad = DiskCache::open(&dir, 7).unwrap();
        assert_eq!(bad.loaded(), 0);
        assert_eq!(bad.flush(&warm).unwrap(), 2);
        let again = DiskCache::open(&dir, 7).unwrap();
        assert_eq!(again.loaded(), 2, "flush after corruption rewrites cleanly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
