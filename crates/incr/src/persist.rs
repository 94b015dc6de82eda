//! On-disk persistence of per-bundle verdicts — the second tier of the
//! persistent VC cache (`--vc-cache DIR`).
//!
//! The [`rsc_smt::DiskCache`] tier persists *Unsat* canonical VCs, which
//! covers every query that proved something. But a cold fixpoint also
//! issues Sat queries (each dropped candidate costs one), and those are
//! deliberately never cached (`Sat` may be a resource-capped `Unknown`,
//! so caching it could mask a later, stronger proof). Re-checking an
//! unchanged program with only the VC tier warm would therefore still
//! re-solve every Sat query. This module closes that gap at the bundle
//! level: a [`BundleStore`] persists each bundle's *verdict*
//! ([`RetainedBundle`]) keyed by its canonical cross-run fingerprint
//! (`rsc_liquid::bundle_fingerprint`), so a warm re-check reuses whole
//! bundles and issues **zero** solve-phase SMT queries for unchanged
//! code.
//!
//! # Soundness
//!
//! A bundle fingerprint hashes the canonical structure of every
//! constraint, the qualifier set, and the sort environment (via the
//! run-global fingerprint) — a verdict is a pure function of it. The
//! same versioning contract as the VC tier applies on top: files are
//! named `bundles-{version:016x}.rbc` and carry the version in their
//! header, where `version` mixes the run-global fingerprint with
//! [`rsc_smt::cache::ENCODER_VERSION`]. A checker with different
//! qualifiers or a different encoder opens a different file and starts
//! cold; stale files are ignored, never misread.
//!
//! # Format and crash tolerance
//!
//! After a `rsc-bundle-cache v4 {version:016x}\n` header the file is a
//! sequence of fixed-layout little-endian records:
//!
//! ```text
//! u128 fingerprint
//! u64  smt_queries, u64 discharged, u64 solve_ns
//! u64×7 solver counters (queries, valid, sat_rounds,
//!        theory_conflicts, cache_hits, cache_misses, model_refuted)
//! u32  failure count, then that many u32 bundle-local indices
//! ```
//!
//! A file of an older layout, or with fingerprints computed another
//! way (v3 hashed rendered predicates, v4 hashes their structure), has
//! a different magic, so it is dropped like any other foreign file.
//!
//! Writes are append-only and loading is last-record-wins, so two
//! processes appending the same fingerprint stay consistent. A torn
//! tail (crash mid-flush) truncates the load at the last complete
//! record; a bad header means "not our file" and the file is dropped.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use rsc_core::RetainedBundle;
use rsc_smt::SolverStats;

const MAGIC: &str = "rsc-bundle-cache v4";

/// The bundle-verdict disk tier: a fingerprint-keyed, append-only store
/// of [`RetainedBundle`]s for one cache version. See the module docs.
#[derive(Debug)]
pub struct BundleStore {
    path: std::path::PathBuf,
    version: u64,
    loaded: HashMap<u128, RetainedBundle>,
    /// Fingerprints already on disk (loaded or flushed), so a flush
    /// appends only the delta.
    persisted: Mutex<HashSet<u128>>,
}

impl BundleStore {
    /// Opens (or initializes) the bundle store for `version` in `dir`,
    /// loading every complete record of a matching existing file. The
    /// caller should fold the run-global fingerprint and
    /// [`rsc_smt::cache::ENCODER_VERSION`] into `version`.
    pub fn open(dir: &std::path::Path, version: u64) -> std::io::Result<BundleStore> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("bundles-{version:016x}.rbc"));
        let mut loaded = HashMap::new();
        match std::fs::read(&path) {
            Ok(bytes) => {
                let header = format!("{MAGIC} {version:016x}\n");
                if !bytes.starts_with(header.as_bytes()) {
                    let _ = std::fs::remove_file(&path);
                }
                if let Some(mut rest) = bytes.strip_prefix(header.as_bytes()) {
                    while let Some((fp, bundle, tail)) = read_record(rest) {
                        loaded.insert(fp, bundle); // last record wins
                        rest = tail;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let persisted = loaded.keys().copied().collect();
        Ok(BundleStore {
            path,
            version,
            loaded,
            persisted: Mutex::new(persisted),
        })
    }

    /// Number of verdicts loaded from an existing file at open.
    pub fn loaded(&self) -> usize {
        self.loaded.len()
    }

    /// The verdict stored for `fingerprint`, if any.
    pub fn get(&self, fingerprint: u128) -> Option<&RetainedBundle> {
        self.loaded.get(&fingerprint)
    }

    /// Appends every `(fingerprint, verdict)` not yet on disk; returns
    /// how many records were written. Creates the file (with header) on
    /// first write. Flushed verdicts also become available to
    /// [`BundleStore::get`], so a long-lived session accumulates.
    pub fn flush<'a>(
        &mut self,
        bundles: impl IntoIterator<Item = (u128, &'a RetainedBundle)>,
    ) -> std::io::Result<usize> {
        use std::io::Write as _;
        let persisted = self.persisted.get_mut().unwrap();
        let fresh: Vec<(u128, RetainedBundle)> = bundles
            .into_iter()
            .filter(|(fp, _)| !persisted.contains(fp))
            .map(|(fp, b)| (fp, b.clone()))
            .collect();
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
            buf.extend_from_slice(format!("{MAGIC} {version:016x}\n").as_bytes());
        }
        for (fp, b) in &fresh {
            write_record(&mut buf, *fp, b);
        }
        f.write_all(&buf)?;
        f.flush()?;
        let written = fresh.len();
        for (fp, b) in fresh {
            persisted.insert(fp);
            self.loaded.insert(fp, b);
        }
        Ok(written)
    }
}

fn write_record(buf: &mut Vec<u8>, fp: u128, b: &RetainedBundle) {
    buf.extend_from_slice(&fp.to_le_bytes());
    buf.extend_from_slice(&b.smt_queries.to_le_bytes());
    buf.extend_from_slice(&b.discharged.to_le_bytes());
    buf.extend_from_slice(&b.solve_ns.to_le_bytes());
    for c in [
        b.smt.queries,
        b.smt.valid,
        b.smt.sat_rounds,
        b.smt.theory_conflicts,
        b.smt.cache_hits,
        b.smt.cache_misses,
        b.smt.model_refuted,
    ] {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf.extend_from_slice(&(b.failures.len() as u32).to_le_bytes());
    for &i in &b.failures {
        buf.extend_from_slice(&(i as u32).to_le_bytes());
    }
}

/// Parses one record off the front of `bytes`; `None` on a torn tail.
fn read_record(bytes: &[u8]) -> Option<(u128, RetainedBundle, &[u8])> {
    // Fixed part: 16 (fp) + 8 + 8 + 8 + 7×8 (counters) + 4 (count).
    const FIXED: usize = 16 + 8 + 8 + 8 + 56 + 4;
    if bytes.len() < FIXED {
        return None;
    }
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let fp = u128::from_le_bytes(bytes[0..16].try_into().unwrap());
    let smt_queries = u64_at(16);
    let discharged = u64_at(24);
    let solve_ns = u64_at(32);
    let smt = SolverStats {
        queries: u64_at(40),
        valid: u64_at(48),
        sat_rounds: u64_at(56),
        theory_conflicts: u64_at(64),
        cache_hits: u64_at(72),
        cache_misses: u64_at(80),
        model_refuted: u64_at(88),
    };
    let count = u32::from_le_bytes(bytes[96..100].try_into().unwrap()) as usize;
    let end = FIXED + 4 * count;
    if bytes.len() < end {
        return None;
    }
    let failures = (0..count)
        .map(|i| {
            let off = FIXED + 4 * i;
            u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize
        })
        .collect();
    let bundle = RetainedBundle {
        failures,
        smt,
        smt_queries,
        discharged,
        solve_ns,
    };
    Some((fp, bundle, &bytes[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rsc-rbc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(fp: u64) -> RetainedBundle {
        RetainedBundle {
            failures: vec![fp as usize, fp as usize + 3],
            smt: SolverStats {
                queries: fp,
                valid: fp + 1,
                sat_rounds: fp + 2,
                theory_conflicts: fp + 3,
                cache_hits: fp + 4,
                cache_misses: fp + 5,
                model_refuted: fp + 6,
            },
            smt_queries: fp * 10,
            discharged: fp * 7,
            solve_ns: fp * 100,
        }
    }

    #[test]
    fn round_trip_and_last_record_wins() {
        let dir = scratch_dir("roundtrip");
        let mut store = BundleStore::open(&dir, 9).unwrap();
        assert_eq!(store.loaded(), 0);
        let a = sample(1);
        let b = sample(2);
        assert_eq!(store.flush(vec![(10u128, &a), (20u128, &b)]).unwrap(), 2);
        // Re-flush of known fingerprints is a no-op.
        assert_eq!(store.flush(vec![(10u128, &a)]).unwrap(), 0);

        let reopened = BundleStore::open(&dir, 9).unwrap();
        assert_eq!(reopened.loaded(), 2);
        let got = reopened.get(10).unwrap();
        assert_eq!(got.failures, a.failures);
        assert_eq!(got.smt, a.smt, "every solver counter round-trips");
        assert_eq!(got.smt_queries, a.smt_queries);
        assert_eq!(got.solve_ns, a.solve_ns);
        assert!(reopened.get(30).is_none());

        // A second process appending the same fingerprint: loading is
        // last-record-wins.
        let mut other = BundleStore::open(&dir, 9).unwrap();
        // Forget that 10 is persisted so the append actually happens.
        other.persisted.get_mut().unwrap().remove(&10);
        let a2 = sample(7);
        assert_eq!(other.flush(vec![(10u128, &a2)]).unwrap(), 1);
        let last = BundleStore::open(&dir, 9).unwrap();
        assert_eq!(last.get(10).unwrap().smt_queries, a2.smt_queries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn versions_are_isolated() {
        let dir = scratch_dir("versions");
        let mut v1 = BundleStore::open(&dir, 1).unwrap();
        v1.flush(vec![(5u128, &sample(5))]).unwrap();
        let v2 = BundleStore::open(&dir, 2).unwrap();
        assert_eq!(v2.loaded(), 0);
        assert!(v2.get(5).is_none());
        assert_eq!(BundleStore::open(&dir, 1).unwrap().loaded(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Files of older stores are foreign to a v4 store: dropped, never
    /// misread. v2 has another layout (six counters, no
    /// `model_refuted`); v3 has this layout but fingerprints of rendered
    /// predicates, which no v4 fingerprint would ever look up.
    #[test]
    fn older_layout_is_ignored() {
        let dir = scratch_dir("v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bundles-{:016x}.rbc", 4u64));
        for (magic, counters) in [("rsc-bundle-cache v2", 9), ("rsc-bundle-cache v3", 10)] {
            let mut bytes = format!("{magic} {:016x}\n", 4u64).into_bytes();
            bytes.extend_from_slice(&vec![0u8; 16 + 8 * counters + 4]);
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(BundleStore::open(&dir, 4).unwrap().loaded(), 0);
            assert!(!path.exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tolerates_torn_tail_and_bad_header() {
        let dir = scratch_dir("torn");
        let mut store = BundleStore::open(&dir, 3).unwrap();
        store
            .flush(vec![(1u128, &sample(1)), (2u128, &sample(2))])
            .unwrap();
        let path = dir.join(format!("bundles-{:016x}.rbc", 3u64));
        // Torn tail: append half a record.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xab; 20]).unwrap();
        }
        let torn = BundleStore::open(&dir, 3).unwrap();
        assert_eq!(torn.loaded(), 2);

        // Bad header: the file is dropped and the store starts cold.
        std::fs::write(&path, b"garbage").unwrap();
        let cold = BundleStore::open(&dir, 3).unwrap();
        assert_eq!(cold.loaded(), 0);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
