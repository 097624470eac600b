//! Concurrent DyTIS (§3.4): one latch protocol — a directory lock over
//! per-segment reader/writer locks (DESIGN.md §14).
//!
//! [`ConcurrentDyTis`] owns the per-table directory lock, the reader/writer
//! lock around every segment, the insert retry loop, split / doubling
//! installation, the counters and the audit. Algorithm 1's remap / expand /
//! split decision is [`Segment::repair_in_place`], shared with the
//! single-threaded [`crate::DyTis`]; this module only adds its bookkeeping.
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
//! cycle can form. Scans walk the directory in key order (equivalent to
//! the single-threaded sibling pointers) under the directory read lock,
//! one segment read lock at a time.

use crate::params::Params;
use crate::remap::mask64;
use crate::segment::{adaptive_limit_mult, BucketUpsert, Repair, Segment};
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, RwLock};
use index_traits::{AuditReport, Auditable, ConcurrentKvIndex, Key, Value};

/// Index and audit-report name.
const NAME: &str = "DyTIS (concurrent)";

/// Audit invariant ID of the key accounting, named once so the
/// seeded-corruption test cannot drift from the audit.
const TABLE_KEY_COUNT: &str = "table-key-count";

/// Directory index of sub-key `sk` at `global_depth`.
#[inline]
fn dir_index(global_depth: u32, sk: u64, m_total: u32) -> usize {
    (sk >> (m_total - global_depth)) as usize
}

/// Directory of one concurrent EH table.
struct Dir {
    global_depth: u32,
    entries: Vec<Arc<RwLock<Segment>>>,
    /// Active segment-size limit multiplier (adaptive, §3.3).
    active_limit_mult: u32,
    limit_decided: bool,
}

/// One concurrent EH table: directory lock + per-segment locks + its
/// maintenance counters.
struct Table {
    dir: RwLock<Dir>,
    num_keys: AtomicUsize,
    splits: AtomicU64,
    expansions: AtomicU64,
    remaps: AtomicU64,
    doublings: AtomicU64,
    shrinks: AtomicU64,
}

impl Table {
    fn new(limit_mult: u32) -> Self {
        Table {
            dir: RwLock::new(Dir {
                global_depth: 0,
                entries: vec![Arc::new(RwLock::new(Segment::new(0)))],
                active_limit_mult: limit_mult,
                limit_decided: false,
            }),
            num_keys: AtomicUsize::new(0),
            splits: AtomicU64::new(0),
            expansions: AtomicU64::new(0),
            remaps: AtomicU64::new(0),
            doublings: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
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
            .map(|_| Table::new(params.limit_mult))
            .collect();
        ConcurrentDyTis {
            params,
            tables,
            m_total: 64 - r,
            insert_retries: AtomicU64::new(0),
        }
    }

    /// Totals of the structural maintenance operations performed so far
    /// (splits, segment expansions, remaps, directory doublings, shrinks),
    /// summed over all first-level tables.  Exact once writers have
    /// quiesced.  `keys_moved` is not tracked by the concurrent index and
    /// reads 0.
    pub fn maintenance_stats(&self) -> index_traits::MaintenanceStats {
        let mut s = index_traits::MaintenanceStats::default();
        for t in &self.tables {
            // relaxed: monotonic advisory counters; exact totals are only
            // required after the writing threads have been joined.
            s.splits += t.splits.load(Ordering::Relaxed);
            // relaxed: see above.
            s.expansions += t.expansions.load(Ordering::Relaxed);
            // relaxed: see above.
            s.remaps += t.remaps.load(Ordering::Relaxed);
            // relaxed: see above.
            s.doublings += t.doublings.load(Ordering::Relaxed);
            // relaxed: see above.
            s.shrinks += t.shrinks.load(Ordering::Relaxed);
        }
        s
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

    /// Appends `seg`'s pairs to `out` until it holds `count`, from the
    /// first key `>= start.1` (sub-key `start.0`) or from the first bucket
    /// when `start` is `None`. Returns `true` once `count` is reached.
    fn walk_segment(
        &self,
        seg: &Segment,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        let (b, slot) = start.map_or((0, 0), |(sk, key)| {
            let b = self.bucket_of(seg, sk);
            (b, seg.buckets[b].lower_bound(key))
        });
        seg.walk_from(b, slot, count, out).is_some()
    }

    /// Runs Algorithm 1's in-place step ([`Segment::repair_in_place`]) on
    /// a segment whose bucket for `sk` is full, and counts what it did.
    /// Returns `false` when the fix is a split (preceded by directory
    /// doubling when `LD == GD`), which needs the directory write lock.
    fn try_repair(&self, table: &Table, seg: &mut Segment, sk: u64, dir: &Dir) -> bool {
        let p = &self.params;
        let k = seg.local_key(sk, self.m_total);
        let cap_buckets = p.segment_cap(seg.local_depth, dir.active_limit_mult);
        match seg.repair_in_place(k, dir.global_depth, self.m_total, cap_buckets, p) {
            Repair::NeedsSplit => return false,
            Repair::Expanded => {
                // relaxed: monotonic stats counter; every increment happens
                // under a directory lock and the limit decision reads it under
                // the directory write lock (see `split_install`).
                table.expansions.fetch_add(1, Ordering::Relaxed);
                obs::counter!("cdytis.expand").inc();
            }
            Repair::Remapped => {
                // relaxed: see the expansion counter above.
                table.remaps.fetch_add(1, Ordering::Relaxed);
                obs::counter!("cdytis.remap").inc();
            }
        }
        true
    }

    /// Slow path: performs one structural step under the directory write
    /// lock, then returns so the fast path can retry.
    fn maintain(&self, table: &Table, sk: u64) {
        let mut dir = table.dir.write();
        let victim = Arc::clone(&dir.entries[dir_index(dir.global_depth, sk, self.m_total)]);
        // Every segment-lock holder also holds the directory lock, so this
        // acquisition never blocks.
        let seg = victim.write();
        if seg.bucket_len(self.bucket_of(&seg, sk)) < self.params.bucket_entries {
            return; // Another thread already fixed it.
        }
        // The fast path already ran Algorithm 1 on this segment and found
        // no in-place repair.
        self.split_install(table, &mut dir, &seg, sk);
    }

    /// Doubles the directory if `victim` is at global depth, splits it and
    /// installs the halves. Caller holds the directory write lock (`dir`)
    /// and `victim`'s write lock.
    fn split_install(&self, table: &Table, dir: &mut Dir, victim: &Segment, sk: u64) {
        let p = &self.params;
        let ld = victim.local_depth;
        if ld == dir.global_depth {
            // Adaptive limit decision at doubling time (GD only grows here).
            if !dir.limit_decided && dir.global_depth + 1 >= p.l_start + 2 {
                dir.limit_decided = true;
                // relaxed: every increment happened under a directory
                // lock, so holding the write lock here orders all of them
                // before these loads; the counters need no own ordering.
                let expansions = table.expansions.load(Ordering::Relaxed);
                // relaxed: same reasoning as the load above.
                let splits = table.splits.load(Ordering::Relaxed);
                // relaxed: same reasoning as the load above.
                let remaps = table.remaps.load(Ordering::Relaxed);
                dir.active_limit_mult = adaptive_limit_mult(splits, expansions, remaps, p);
            }
            dir.entries = dir
                .entries
                .iter()
                .flat_map(|e| [Arc::clone(e), Arc::clone(e)])
                .collect();
            dir.global_depth += 1;
            // relaxed: monotonic stats counter, bumped under the directory
            // write lock.
            table.doublings.fetch_add(1, Ordering::Relaxed);
            obs::counter!("cdytis.double").inc();
        }
        // Split the segment (now LD < GD) into two fresh segments.
        let (left, right) = victim.split(self.m_total, p);
        let span = 1usize << (dir.global_depth - (ld + 1));
        let base = dir_index(dir.global_depth, sk, self.m_total) & !(span * 2 - 1);
        dir.entries[base..base + span].fill(Arc::new(RwLock::new(left)));
        dir.entries[base + span..base + 2 * span].fill(Arc::new(RwLock::new(right)));
        // relaxed: monotonic stats counter, bumped under the directory
        // write lock (see the limit decision above).
        table.splits.fetch_add(1, Ordering::Relaxed);
        obs::counter!("cdytis.split").inc();
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
        let gd = dir.global_depth;
        let mut idx = start.map_or(0, |(sk, _)| dir_index(gd, sk, self.m_total));
        let mut first = start;
        while idx < dir.entries.len() {
            let seg = dir.entries[idx].read();
            if self.walk_segment(&seg, first.take(), count, out) {
                return true;
            }
            // Align to the segment's first directory entry so each segment
            // is visited once.
            let span = 1usize << (gd - seg.local_depth);
            idx = (idx & !(span - 1)) + span;
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
            let mut seg = dir.entries[dir_index(dir.global_depth, sk, self.m_total)].write();
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
        let mut attempts = 0u32;
        loop {
            let repaired = {
                let dir = table.dir.read();
                let mut seg = dir.entries[dir_index(dir.global_depth, sk, self.m_total)].write();
                let b = self.bucket_of(&seg, sk);
                match seg.upsert_in_bucket(b, key, value, self.params.bucket_entries) {
                    BucketUpsert::Updated => return,
                    BucketUpsert::Inserted => {
                        table.key_added();
                        return;
                    }
                    // Segment-local fixes (remapping, expansion) only change
                    // this segment object's contents, so they are legal under
                    // the directory read lock + segment write lock held here;
                    // splits and doubling need the directory write lock.
                    BucketUpsert::Full => self.try_repair(table, &mut seg, sk, &dir),
                }
            };
            if repaired {
                continue; // Repairs strictly grow the bucket's capacity share.
            }
            attempts += 1;
            assert!(attempts < 10_000, "concurrent insert failed to converge");
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
        let seg = dir.entries[dir_index(dir.global_depth, sk, self.m_total)].read();
        seg.get(sk, key, self.m_total, &self.params)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        let table = &self.tables[self.table_of(key)];
        let sk = self.sub_key(key);
        let dir = table.dir.read();
        let mut seg = dir.entries[dir_index(dir.global_depth, sk, self.m_total)].write();
        let b = self.bucket_of(&seg, sk);
        let v = seg.remove_from_bucket(b, key)?;
        table.key_removed();
        // Deletion merge (§3.3): a shrink only changes the segment object's
        // contents, so the segment write lock suffices (§3.4).
        if seg.total_buckets() > 1
            && seg.utilization(&self.params) < self.params.shrink_threshold
            && seg.shrink(self.m_total, &self.params)
        {
            // relaxed: monotonic stats counter, read after quiescence.
            table.shrinks.fetch_add(1, Ordering::Relaxed);
            obs::counter!("cdytis.shrink").inc();
        }
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
            let gd = dir.global_depth;
            report.check(dir.entries.len() == 1usize << gd, "dir-size", || {
                (
                    format!("table {t}"),
                    format!("directory has {} entries at GD {gd}", dir.entries.len()),
                )
            });
            let mut total = 0usize;
            let mut last_key: Option<Key> = None;
            let mut idx = 0usize;
            while idx < dir.entries.len() {
                let entry = &dir.entries[idx];
                let seg = entry.read();
                let ld = seg.local_depth;
                if !report.check(ld <= gd, "local-depth", || {
                    (
                        format!("table {t} / dir[{idx}]"),
                        format!("local_depth {ld} exceeds global_depth {gd}"),
                    )
                }) {
                    idx += 1;
                    continue;
                }
                let span = 1usize << (gd - ld);
                report.check(idx.is_multiple_of(span), "dir-alignment", || {
                    (
                        format!("table {t} / dir[{idx}]"),
                        format!("segment (span {span}) starts unaligned"),
                    )
                });
                let end = (idx + span).min(dir.entries.len());
                report.check(
                    dir.entries[idx..end].iter().all(|e| Arc::ptr_eq(e, entry)),
                    "dir-coverage",
                    || {
                        (
                            format!("table {t} / dir[{idx}..{end}]"),
                            "span mixes directory targets".into(),
                        )
                    },
                );
                let loc = format!("table {t} / dir[{idx}]");
                crate::audit::audit_segment(&seg, self.m_total, &self.params, &loc, &mut report);
                if let Some((first, last)) = crate::audit::segment_key_bounds(&seg) {
                    let prefix = (idx / span) as u64;
                    let shift = self.m_total - ld;
                    for key in [first, last] {
                        let sk = key & mask64(self.m_total);
                        report.check(ld == 0 || sk >> shift == prefix, "key-range", || {
                            (
                                loc.clone(),
                                format!("key {key:#x} outside directory prefix {prefix:#x}"),
                            )
                        });
                    }
                    report.check(
                        last_key.is_none_or(|p| p < first),
                        "table-key-order",
                        || {
                            (
                                loc.clone(),
                                format!(
                                    "first key {first:#x} not above previous segment's {last_key:?}"
                                ),
                            )
                        },
                    );
                    last_key = Some(last);
                }
                total += seg.num_keys;
                idx += span;
            }
            let claimed = table.keys();
            report.check(total == claimed, TABLE_KEY_COUNT, || {
                (
                    format!("table {t}"),
                    format!("segments hold {total} keys, table claims {claimed}"),
                )
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            dir.entries[0].write().num_keys += 1;
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

    /// `DyTis` and `ConcurrentDyTis` share Algorithm 1
    /// (`Segment::repair_in_place`) and the §3.3 limit rule
    /// (`adaptive_limit_mult`) but keep their own insert loops and their
    /// own shrink rule: the same stream, then the removal of seven keys in
    /// eight, must make the same maintenance decisions through both.
    /// (Removing every other key leaves segments near half full, above
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
            let limit = |t: &Table| t.dir.read().active_limit_mult;
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
