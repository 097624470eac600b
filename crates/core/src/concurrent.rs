//! Concurrent DyTIS (§3.4): one latch protocol — a directory lock over
//! per-segment reader/writer locks (DESIGN.md §14).
//!
//! [`ConcurrentDyTis`] owns the per-table directory lock, the reader/writer
//! lock around every segment, the insert retry loop and the latches around
//! split / doubling installation. The directory itself (index, doubling,
//! split install, the §3.3 limit decision, scan step, audit, maintenance
//! record) is the `Directory` shared with the single-threaded
//! [`crate::DyTis`], and Algorithm 1's remap / expand / split decision is
//! its [`Segment::repair_in_place`]; this module only adds the latches.
//!
//! Every operation takes the two levels in the same order: a high-level
//! lock on the table's directory array, then a low-level reader/writer
//! lock on one segment. `get` and `scan` take both in read mode.
//! Operations that stay inside one segment (insert, remove/shrink,
//! remapping, expansion) hold the directory *read* lock, so the directory
//! cannot move underneath them, and the segment *write* lock. Split and
//! directory doubling take the directory *write* lock, hand-over-hand:
//! directory first, then the victim segment.
//!
//! Every segment-lock holder also holds its table's directory lock, so a
//! directory write-lock holder never waits on a segment lock and no lock
//! cycle can form. Scans walk the directory in key order, span by span,
//! under the directory read lock, one segment read lock at a time.

use crate::directory::Directory;
use crate::params::Params;
use crate::remap::mask64;
use crate::segment::{BucketUpsert, Repair, Segment, MAX_INSERT_STEPS};
use crate::stats::{DytisStats, Maint};
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, RwLock};
use index_traits::{AuditReport, Auditable, ConcurrentKvIndex, Key, Value};
use std::time::Instant;

/// Index and audit-report name.
const NAME: &str = "DyTIS (concurrent)";

/// One concurrent EH table: the shared directory behind its lock, plus the
/// key count.
struct Table {
    dir: RwLock<Directory<Arc<RwLock<Segment>>>>,
    num_keys: AtomicUsize,
}

impl Table {
    fn new(m_total: u32, params: &Params) -> Self {
        let first = Arc::new(RwLock::new(Segment::new(0)));
        Table {
            dir: RwLock::new(Directory::new(m_total, first, params)),
            num_keys: AtomicUsize::new(0),
        }
    }

    /// Counts one inserted key. Must be called while the lock that
    /// covered the bucket mutation is still held, so the audit (which
    /// holds the segment lock) never sees the key without the count.
    fn key_added(&self) {
        // Release pairs with the Acquire loads in `len()`, the scans'
        // empty-table check and the audit.
        self.num_keys.fetch_add(1, Ordering::Release);
    }

    /// Counts one removed key; same locking contract as `key_added`.
    fn key_removed(&self) {
        // Release pairs with the Acquire loads in `len()` and the audit.
        self.num_keys.fetch_sub(1, Ordering::Release);
    }

    /// Acquire pairs with the Release key-count updates, so a table
    /// observed non-empty has its inserts visible to the caller's probes.
    fn keys(&self) -> usize {
        self.num_keys.load(Ordering::Acquire)
    }
}

/// The multi-threaded DyTIS index of §3.4 (used by the Figure 12
/// evaluation): one reader/writer lock per segment under a per-table
/// directory lock; see the module docs.
pub struct ConcurrentDyTis {
    params: Params,
    tables: Vec<Table>,
    m_total: u32,
    /// Times an insert lost its fast path to contention or a pending
    /// structural fix and had to retry through `maintain`.
    insert_retries: AtomicU64,
}

impl ConcurrentDyTis {
    /// Creates an index with the paper's default parameters.
    pub fn new() -> Self {
        Self::with_params(Params::default())
    }

    /// Creates an index with explicit [`Params`].
    ///
    /// # Panics
    ///
    /// Panics if `first_level_bits` is outside `1..=16`.
    pub fn with_params(params: Params) -> Self {
        let r = params.first_level_bits;
        assert!((1..=16).contains(&r));
        let tables = (0..(1usize << r))
            .map(|_| Table::new(64 - r, &params))
            .collect();
        ConcurrentDyTis {
            params,
            tables,
            m_total: 64 - r,
            insert_retries: AtomicU64::new(0),
        }
    }

    /// The maintenance record summed over all first-level tables —
    /// operation counts, keys moved and per-operation time, as
    /// [`crate::DyTis::stats`] reports them. Exact once writers have
    /// quiesced.
    pub fn stats(&self) -> DytisStats {
        let mut acc = DytisStats::default();
        for t in &self.tables {
            acc.merge(&t.dir.read().record.snapshot());
        }
        acc
    }

    /// Totals of the structural maintenance operations performed so far
    /// (splits, segment expansions, remaps, directory doublings, shrinks,
    /// keys moved): [`ConcurrentDyTis::stats`] without the times.
    pub fn maintenance_stats(&self) -> index_traits::MaintenanceStats {
        self.stats().ops
    }

    /// Times an insert had to retry through the slow path (see field doc).
    pub fn insert_retries(&self) -> u64 {
        // relaxed: monotonic advisory counter.
        self.insert_retries.load(Ordering::Relaxed)
    }

    #[inline]
    fn table_of(&self, key: Key) -> usize {
        (key >> (64 - self.params.first_level_bits)) as usize
    }

    #[inline]
    fn sub_key(&self, key: Key) -> u64 {
        key & mask64(self.m_total)
    }

    /// Bucket index of sub-key `sk` within `seg`.
    fn bucket_of(&self, seg: &Segment, sk: u64) -> usize {
        seg.bucket_of(seg.local_key(sk, self.m_total), self.m_total)
    }

    /// Slow path: one structural step under the directory write lock —
    /// doubling the directory when the victim is at global depth, then
    /// splitting it — and returns so the fast path can retry.
    fn maintain(&self, table: &Table, sk: u64) {
        let mut dir = table.dir.write();
        let victim = Arc::clone(dir.entry(sk));
        // Every segment-lock holder also holds the directory lock, so this
        // acquisition never blocks.
        let seg = victim.write();
        if seg.bucket_len(self.bucket_of(&seg, sk)) < self.params.bucket_entries {
            return; // Another thread already fixed it.
        }
        // The fast path already ran Algorithm 1 on this segment and found
        // no in-place repair.
        let p = &self.params;
        if seg.local_depth == dir.global_depth() {
            dir.double(p);
        }
        let t0 = Instant::now();
        let (left, right) = seg.split(self.m_total, p);
        let (left, right) = (Arc::new(RwLock::new(left)), Arc::new(RwLock::new(right)));
        let idx = dir.index(sk);
        dir.install_split(idx, seg.local_depth, left, right);
        dir.record.note(Maint::Split, seg.num_keys as u64, t0);
    }

    /// Scans one table from `start` (or from its first key when `None`)
    /// in key order; returns `true` when `count` pairs have been collected.
    fn scan_table(
        &self,
        table: &Table,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        let dir = table.dir.read();
        if table.keys() == 0 {
            return out.len() >= count;
        }
        let mut idx = start.map_or(0, |(sk, _)| dir.index(sk));
        let mut first = start;
        while idx < dir.entries().len() {
            let seg = dir.entries()[idx].read();
            let (b, slot) = first
                .take()
                .map_or((0, 0), |(sk, key)| seg.seek(sk, key, self.m_total));
            if seg.walk_from(b, slot, count, out).is_some() {
                return true;
            }
            idx = dir.next_index(idx, seg.local_depth);
        }
        out.len() >= count
    }

    /// Intentionally broken insert, compiled only for model checking:
    /// proves the loom models are non-vacuous.
    ///
    /// Identical to [`index_traits::ConcurrentKvIndex::insert`] except the
    /// table key count is bumped *after* the segment lock is dropped, and
    /// with a torn `load`+`store` instead of `fetch_add` — the "it's just a
    /// counter" shortcut the §3.4 protocol forbids. The loom model in
    /// `tests/loom_models.rs` must find the two-thread schedule where one
    /// increment is lost (`len()` under-counts, the `table-key-count`
    /// audit trips). Callers must pick keys that fit the existing buckets;
    /// the maintenance slow path is deliberately not reproduced here.
    #[cfg(loom)]
    pub fn insert_seeded_torn_counter(&self, key: Key, value: Value) {
        let table = &self.tables[self.table_of(key)];
        let sk = self.sub_key(key);
        let inserted = {
            let dir = table.dir.read();
            let mut seg = dir.entry(sk).write();
            let b = self.bucket_of(&seg, sk);
            match seg.upsert_in_bucket(b, key, value, self.params.bucket_entries) {
                BucketUpsert::Inserted => true,
                BucketUpsert::Updated => false,
                BucketUpsert::Full => panic!("seeded-bug insert requires a key that fits"),
            }
        };
        if inserted {
            // BUG (seeded): torn read-modify-write outside the critical
            // section — a concurrent insert between the load and the store
            // loses an increment.
            let n = table.num_keys.load(Ordering::Acquire);
            table.num_keys.store(n + 1, Ordering::Release);
        }
    }
}

impl Default for ConcurrentDyTis {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentKvIndex for ConcurrentDyTis {
    fn insert(&self, key: Key, value: Value) {
        let table = &self.tables[self.table_of(key)];
        let sk = self.sub_key(key);
        let p = &self.params;
        let mut steps = 0u32;
        loop {
            steps += 1;
            assert!(
                steps < MAX_INSERT_STEPS,
                "concurrent insert failed to converge"
            );
            let repaired = {
                let dir = table.dir.read();
                let mut seg = dir.entry(sk).write();
                let k = seg.local_key(sk, self.m_total);
                let b = seg.bucket_of(k, self.m_total);
                match seg.upsert_in_bucket(b, key, value, p.bucket_entries) {
                    BucketUpsert::Updated => return,
                    BucketUpsert::Inserted => {
                        table.key_added();
                        return;
                    }
                    // Segment-local fixes (remapping, expansion) only change
                    // this segment object's contents, so they are legal under
                    // the directory read lock + segment write lock held here;
                    // splits and doubling need the directory write lock.
                    BucketUpsert::Full => {
                        let (gd, cap) = (dir.global_depth(), dir.segment_cap(seg.local_depth, p));
                        let repair = seg.repair_in_place(k, gd, self.m_total, cap, p, &dir.record);
                        repair != Repair::NeedsSplit
                    }
                }
            };
            if repaired {
                continue; // Repairs strictly grow the bucket's capacity share.
            }
            // relaxed: monotonic advisory counter (lock-acquisition retries).
            self.insert_retries.fetch_add(1, Ordering::Relaxed);
            obs::counter!("cdytis.insert_retries").inc();
            self.maintain(table, sk);
        }
    }

    fn get(&self, key: Key) -> Option<Value> {
        let table = &self.tables[self.table_of(key)];
        let sk = self.sub_key(key);
        let dir = table.dir.read();
        let seg = dir.entry(sk).read();
        seg.get(sk, key, self.m_total, &self.params)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        let table = &self.tables[self.table_of(key)];
        let sk = self.sub_key(key);
        let dir = table.dir.read();
        let mut seg = dir.entry(sk).write();
        let b = self.bucket_of(&seg, sk);
        let v = seg.remove_from_bucket(b, key)?;
        table.key_removed();
        // Deletion merge (§3.3): a shrink only changes the segment object's
        // contents, so the segment write lock suffices (§3.4).
        seg.shrink_if_sparse(self.m_total, &self.params, &dir.record);
        Some(v)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        let first = self.table_of(start);
        let from = Some((self.sub_key(start), start));
        if self.scan_table(&self.tables[first], from, count, out) {
            return;
        }
        for t in &self.tables[first + 1..] {
            if self.scan_table(t, None, count, out) {
                return;
            }
        }
    }

    fn len(&self) -> usize {
        self.tables.iter().map(Table::keys).sum()
    }

    fn name(&self) -> &'static str {
        NAME
    }
}

impl Auditable for ConcurrentDyTis {
    /// Deep audit under the documented lock order: per table, the directory
    /// read lock is taken first, then each segment's read lock in directory
    /// order (one at a time). Must not be called by a thread already
    /// holding one of this index's locks.
    fn audit(&self) -> AuditReport {
        let mut report = AuditReport::new(NAME);
        for (t, table) in self.tables.iter().enumerate() {
            let dir = table.dir.read();
            let keys = Some((&self.params, table.keys()));
            dir.audit(t, keys, &mut report, Arc::ptr_eq, |e| Some(e.read()));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::TABLE_KEY_COUNT;
    use std::sync::Arc as StdArc;

    const SCRAMBLE: u64 = 0x9E3779B97F4A7C15;

    fn small() -> ConcurrentDyTis {
        ConcurrentDyTis::with_params(Params::small())
    }

    /// `small()` preloaded with keys `0..2_000` and audited clean — the
    /// starting point of every seeded-corruption test.
    fn audited() -> ConcurrentDyTis {
        let idx = small();
        for k in 0..2_000u64 {
            idx.insert(k, k);
        }
        idx.audit().assert_clean();
        idx
    }

    fn violates(idx: &ConcurrentDyTis, invariants: &[&str]) -> bool {
        idx.audit()
            .violations
            .iter()
            .any(|v| invariants.contains(&v.invariant))
    }

    #[test]
    fn single_thread_roundtrip() {
        let idx = small();
        for k in 0..6_000u64 {
            idx.insert(k * 3, k);
        }
        assert_eq!(idx.len(), 6_000);
        for k in (0..6_000u64).step_by(71) {
            assert_eq!(idx.get(k * 3), Some(k));
        }
        let mut out = Vec::new();
        idx.scan(0, 1_000, &mut out);
        assert_eq!(out.len(), 1_000);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let idx = StdArc::new(small());
        let threads = 4;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let idx = StdArc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let k = (t as u64) * per + i;
                        idx.insert(k.wrapping_mul(SCRAMBLE), k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), threads as usize * per as usize);
        for t in 0..threads as u64 {
            for i in (0..per).step_by(97) {
                let k = t * per + i;
                assert_eq!(idx.get(k.wrapping_mul(SCRAMBLE)), Some(k));
            }
        }
    }

    #[test]
    fn concurrent_overlapping_upserts() {
        let idx = StdArc::new(small());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let idx = StdArc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        idx.insert(i, i + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 5_000);
        for i in (0..5_000u64).step_by(53) {
            assert_eq!(idx.get(i), Some(i + 1));
        }
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let idx = StdArc::new(small());
        for i in 0..5_000u64 {
            idx.insert(i * 2, i);
        }
        let writer = {
            let idx = StdArc::clone(&idx);
            std::thread::spawn(move || {
                for i in 5_000..15_000u64 {
                    idx.insert(i * 2, i);
                }
            })
        };
        let reader = {
            let idx = StdArc::clone(&idx);
            std::thread::spawn(move || {
                let mut hits = 0;
                for _ in 0..3 {
                    for i in 0..5_000u64 {
                        if idx.get(i * 2) == Some(i) {
                            hits += 1;
                        }
                    }
                }
                hits
            })
        };
        let scanner = {
            let idx = StdArc::clone(&idx);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for _ in 0..50 {
                    out.clear();
                    idx.scan(0, 100, &mut out);
                    assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                }
            })
        };
        writer.join().unwrap();
        assert_eq!(reader.join().unwrap(), 15_000);
        scanner.join().unwrap();
        assert_eq!(idx.len(), 15_000);
    }

    #[test]
    fn audit_clean_after_concurrent_growth() {
        let idx = StdArc::new(small());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let idx = StdArc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        idx.insert((t * 5_000 + i).wrapping_mul(SCRAMBLE), i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer");
        }
        let report = idx.audit();
        assert!(report.checks > 20_000);
        report.assert_clean();
    }

    #[test]
    fn audit_detects_corrupted_segment_key_count() {
        let idx = audited();
        {
            let dir = idx.tables[0].dir.read();
            dir.entries()[0].write().num_keys += 1;
        }
        assert!(violates(&idx, &["segment-key-count", TABLE_KEY_COUNT]));
    }

    #[test]
    fn read_hammer_during_splits() {
        // Writer splits/doubles under tiny geometry while readers spin on
        // stable keys and scans.
        let idx = StdArc::new(small());
        for i in 0..2_000u64 {
            idx.insert(i * 4, i);
        }
        let stop = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let idx = StdArc::clone(&idx);
                let stop = StdArc::clone(&stop);
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for i in (0..2_000u64).step_by(7) {
                            assert_eq!(idx.get(i * 4), Some(i));
                        }
                        out.clear();
                        idx.scan(0, 64, &mut out);
                        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                    }
                })
            })
            .collect();
        let before = idx.maintenance_stats();
        for i in 2_000..30_000u64 {
            idx.insert(i * 4 + 1, i);
        }
        let fired = idx.maintenance_stats().delta_since(&before);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // Non-vacuity: the readers raced real structural surgery.
        assert!(
            fired.splits > 0 && fired.doublings > 0,
            "readers never raced a split and a doubling: {fired:?}"
        );
        idx.audit().assert_clean();
    }

    #[test]
    fn remove_concurrent_smoke() {
        let idx = small();
        for i in 0..5_000u64 {
            idx.insert(i, i);
        }
        for i in 0..2_500u64 {
            assert_eq!(idx.remove(i), Some(i));
        }
        assert_eq!(idx.len(), 2_500);
        assert_eq!(idx.remove(0), None);
        assert_eq!(idx.get(0), None);
        assert_eq!(idx.get(3_000), Some(3_000));
    }

    /// Single-threaded insert-only streams for the two decision pins below:
    /// golden-ratio scrambled keys (expansion-heavy — long enough to raise
    /// the §3.3 adaptive limit) and 200 clusters at `2^40` spacing filled
    /// round-robin (remaps dominate).
    fn streams() -> [(&'static str, Vec<Key>); 2] {
        let scrambled = (0..40_000u64).map(|i| i.wrapping_mul(SCRAMBLE));
        let clustered =
            (0..40_000u64).map(|i| ((i % 200) << 40) | ((i / 200).wrapping_mul(SCRAMBLE) >> 30));
        [
            ("scrambled", scrambled.collect()),
            ("clustered", clustered.collect()),
        ]
    }

    /// `DyTis` and `ConcurrentDyTis` share the directory, Algorithm 1
    /// (`Segment::repair_in_place`), the shrink rule and the maintenance
    /// record but keep their own insert loops: the same stream, then the
    /// removal of seven keys in eight, must make the same maintenance
    /// decisions, and record the same keys moved, through both. (Removing
    /// every other key leaves segments near half full, above
    /// `shrink_threshold`, and shrinks nothing.)
    #[test]
    fn dytis_and_concurrent_agree_on_maintenance_decisions() {
        use index_traits::KvIndex;
        for (name, keys) in streams() {
            let mut single = crate::DyTis::with_params(Params::small());
            let shell = small();
            for (i, &k) in keys.iter().enumerate() {
                single.insert(k, i as u64);
                shell.insert(k, i as u64);
            }
            let single_limits: Vec<u32> = single
                .tables
                .iter()
                .map(|t| t.active_limit_mult())
                .collect();
            let limit = |t: &Table| t.dir.read().active_limit_mult();
            let shell_limits: Vec<u32> = shell.tables.iter().map(limit).collect();
            if name == "scrambled" {
                assert!(
                    shell_limits.contains(&Params::small().limit_mult_raised),
                    "stream never raised the adaptive limit"
                );
            }
            assert_eq!(single_limits, shell_limits, "{name}");
            let (a, b) = (single.stats().ops, shell.maintenance_stats());
            assert_eq!(
                (a.splits, a.expansions, a.remaps, a.doublings),
                (b.splits, b.expansions, b.remaps, b.doublings),
                "{name}"
            );
            assert!(b.keys_moved > 0, "{name}: no keys moved");
            assert_eq!(a.keys_moved, b.keys_moved, "{name}");
            let times = shell.stats().times;
            assert!(
                times.split_ns > 0 && times.doubling_ns > 0,
                "{name}: {times:?}"
            );
            if name == "scrambled" {
                assert!(times.expansion_ns > 0, "{name}: {times:?}");
            } else {
                assert!(times.remap_ns > 0, "{name}: {times:?}");
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            single.scan(0, usize::MAX, &mut a);
            shell.scan(0, usize::MAX, &mut b);
            assert_eq!(a.len(), keys.len(), "{name}");
            assert_eq!(a, b, "{name}");
            for (i, &k) in keys.iter().enumerate().filter(|(i, _)| i % 8 != 0) {
                assert_eq!(single.remove(k), Some(i as u64), "{name}");
                assert_eq!(shell.remove(k), Some(i as u64), "{name}");
            }
            let (a, b) = (
                single.stats().ops.shrinks,
                shell.maintenance_stats().shrinks,
            );
            assert!(a > 0, "{name}: removals never shrank a segment");
            assert_eq!(a, b, "{name}");
            assert!(shell.stats().times.shrink_ns > 0, "{name}");
            let moved = (single.stats().ops.keys_moved, shell.stats().ops.keys_moved);
            assert_eq!(moved.0, moved.1, "{name}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            single.scan(0, usize::MAX, &mut a);
            shell.scan(0, usize::MAX, &mut b);
            assert_eq!(a.len(), keys.len() / 8, "{name}");
            assert_eq!(a, b, "{name}");
            single.audit().assert_clean();
            shell.audit().assert_clean();
        }
    }

    /// Golden pin of Algorithm 1: the exact maintenance counters of the
    /// streams above, captured at the commit before the decision was lifted
    /// into `Segment::repair_in_place`. A mismatch means a decision moved.
    #[test]
    fn maintenance_decisions_match_golden_counters() {
        use index_traits::KvIndex;
        // (splits, expansions, remaps, doublings, keys_moved)
        let golden = [(60, 256, 0, 16, 60_018), (13, 3, 1_266, 13, 8_125_496)];
        for ((name, keys), want) in streams().into_iter().zip(golden) {
            let mut idx = crate::DyTis::with_params(Params::small());
            for (i, &k) in keys.iter().enumerate() {
                idx.insert(k, i as u64);
            }
            let s = idx.stats().ops;
            let got = (s.splits, s.expansions, s.remaps, s.doublings, s.keys_moved);
            assert_eq!(got, want, "{name}");
            assert_eq!(s.shrinks, 0, "{name}");
        }
    }
}
