//! DyTIS: a Dynamic dataset Targeted Index Structure (EuroSys '23).
//!
//! DyTIS is an index that is simultaneously efficient for search, insert, and
//! scan, built on the skeleton of Extendible hashing but using *remapped*
//! keys — an incrementally learned, piecewise-linear approximation of the key
//! distribution's CDF — instead of hash keys, so the natural key order is
//! preserved and ordered scans work inside a hash index.
//!
//! The structure is two-level (§3.2): the first level statically divides the
//! 64-bit key space into `2^R` sub-ranges, each handled by one Extendible
//! Hashing (EH) table; each EH table is itself the three-level
//! directory → segment → bucket structure of CCEH, with variable-size
//! segments, per-segment remapping functions, and sorted fixed-size buckets.
//!
//! Unlike learned indexes, DyTIS needs no bulk loading: the remapping
//! functions are adjusted locally, one segment at a time, as keys arrive
//! (split / remapping / expansion / directory doubling, Algorithm 1).
//!
//! The two uses of §3.4 are one index type, [`Index`], in two latch modes
//! (`table.rs`): [`DyTis`] owns its tables outright, and
//! [`ConcurrentDyTis`] (`concurrent.rs`) reaches them through a
//! reader/writer latch per table and per segment, taken by readers and
//! writers alike. Both run one extendible-hash directory (`directory.rs`)
//! and one Algorithm 1 (`Segment::repair_in_place`), and a [`DyTis`]
//! becomes a [`ConcurrentDyTis`] by moving its tables into latches
//! (`From`).
//!
//! # Examples
//!
//! ```
//! use dytis::DyTis;
//! use index_traits::KvIndex;
//!
//! let mut idx = DyTis::new();
//! for k in 0..10_000u64 {
//!     idx.insert(k * 12_345, k);
//! }
//! assert_eq!(idx.get(12_345), Some(1));
//!
//! let mut out = Vec::new();
//! idx.scan(0, 100, &mut out);
//! assert_eq!(out.len(), 100);
//! assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
//! ```

pub mod audit;
pub mod bucket;
pub mod concurrent;
mod directory;
pub mod params;
pub mod persist;
pub mod remap;
pub mod segment;
pub mod simd;
pub mod stats;
pub mod sync;
pub mod table;

pub use concurrent::ConcurrentDyTis;
pub use params::Params;
pub use stats::{DytisStats, OpTimes};
pub use table::{Exclusive, Latched, Mode};

use index_traits::{BulkLoad, Key, KvIndex, Value};
use segment::MAX_INSERT_STEPS;
use sync::atomic::{AtomicU64, Ordering};
use table::{insert_step, remove_step, Step, Table};

/// The DyTIS index in latch mode `M`: the first level's `2^R` tables, each
/// in one `M` cell. The two modes are [`DyTis`] and [`ConcurrentDyTis`].
pub struct Index<M: Mode> {
    params: Params,
    /// First level: `2^R` tables, indexed by the `R` key MSBs.
    tables: Vec<M::Cell<Table<M>>>,
    /// Times an insert found no in-place repair for its full bucket and
    /// took the split step; in the latched mode that includes the times the
    /// recheck under the table write latch found the work already done.
    insert_retries: AtomicU64,
}

/// The single-threaded DyTIS index: [`Index`] in the [`Exclusive`] mode.
///
/// Multi-threaded systems should use [`ConcurrentDyTis`]; systems with
/// multiple single-threaded engines (H-Store, Redis Cluster) can use this
/// lock-free-by-construction version directly (§3.4).
pub type DyTis = Index<Exclusive>;

impl<M: Mode> Default for Index<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Mode> std::fmt::Debug for Index<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(M::NAME)
            .field("params", &self.params)
            .field("len", &self.key_count())
            .finish_non_exhaustive()
    }
}

impl Clone for DyTis {
    fn clone(&self) -> Self {
        DyTis {
            params: self.params,
            tables: self.tables.clone(),
            insert_retries: AtomicU64::new(self.insert_retries()),
        }
    }
}

impl<M: Mode> Index<M> {
    /// Creates an index with the paper's default parameters (§4.1).
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
        assert!((1..=16).contains(&r), "first_level_bits must be in 1..=16");
        let tables = (0..(1usize << r))
            .map(|_| M::cell(Table::new(64 - r, &params)))
            .collect();
        Index {
            params,
            tables,
            insert_retries: AtomicU64::new(0),
        }
    }

    /// The active parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    #[inline]
    fn table_of(&self, key: Key) -> usize {
        (key >> (64 - self.params.first_level_bits)) as usize
    }

    #[inline]
    fn sub_key(&self, key: Key) -> u64 {
        key & remap::mask64(64 - self.params.first_level_bits)
    }

    /// The maintenance record summed over all first-level tables —
    /// operation counts, keys moved and per-operation time. In the latched
    /// mode it is exact once writers have quiesced.
    pub fn stats(&self) -> DytisStats {
        let mut acc = DytisStats::default();
        for t in &self.tables {
            acc.merge(&M::read(t).dir.record.snapshot());
        }
        acc
    }

    /// Totals of the structural maintenance operations performed so far
    /// (splits, segment expansions, remaps, directory doublings, shrinks,
    /// keys moved): [`Index::stats`] without the times.
    pub fn maintenance_stats(&self) -> index_traits::MaintenanceStats {
        self.stats().ops
    }

    /// Times an insert took the split step (see the field doc).
    pub fn insert_retries(&self) -> u64 {
        // relaxed: monotonic advisory counter.
        self.insert_retries.load(Ordering::Relaxed)
    }

    /// Total number of linear models (remapping-function pieces) across
    /// the whole index. The paper compares this against ALEX's model count
    /// in §4.3 ("to query a key, DyTIS always uses a linear model once")
    /// and §4.4 (node growth under skew).
    pub fn model_count(&self) -> usize {
        let pieces = |s: &M::Cell<segment::Segment>| M::read(s).remap.num_pieces();
        let models = |t: &M::Cell<Table<M>>| M::read(t).segs.iter().map(pieces).sum::<usize>();
        self.tables.iter().map(models).sum()
    }

    /// Total number of segments across the whole index.
    pub fn segment_count(&self) -> usize {
        self.tables.iter().map(|t| M::read(t).segs.len()).sum()
    }

    /// Maximum directory depth over the first-level EH tables.
    pub fn max_global_depth(&self) -> u32 {
        let gd = self.tables.iter().map(|t| M::read(t).global_depth());
        gd.max().unwrap_or(0)
    }

    /// Number of EH tables whose adaptive segment-size limit was raised.
    pub fn raised_limit_tables(&self) -> usize {
        let raised = self.params.limit_mult_raised;
        let limits = self.tables.iter().map(|t| M::read(t).active_limit_mult());
        limits.filter(|&l| l == raised).count()
    }

    /// Structural memory in bytes: the index, its tables' cells, and each
    /// table's directory, segment cells and buckets. The two modes differ
    /// by the latches in the cells alone.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.tables.capacity() * std::mem::size_of::<M::Cell<Table<M>>>()
            + self
                .tables
                .iter()
                .map(|t| M::read(t).memory_bytes())
                .sum::<usize>()
    }

    /// Validates structural invariants of every EH table (test helper).
    ///
    /// Equivalent to `self.audit().assert_clean()`; use
    /// [`index_traits::Auditable::audit`] directly to inspect violations
    /// without panicking.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self) {
        index_traits::Auditable::audit(self).assert_clean();
    }

    /// Keys stored: the tables' counts, summed. In the latched mode each
    /// is exact at some instant, the sum at no single one.
    fn key_count(&self) -> usize {
        self.tables.iter().map(|t| M::read(t).len()).sum()
    }

    /// Looks up `key`: its table, then its segment (each under a read latch
    /// in the latched mode).
    #[inline]
    fn lookup(&self, key: Key) -> Option<Value> {
        let (table, sk) = (M::read(&self.tables[self.table_of(key)]), self.sub_key(key));
        let seg = M::read(&table.segs[table.dir.entry(sk) as usize]);
        seg.get(sk, key, table.dir.m_total(), &self.params)
    }

    /// Appends pairs in key order from the smallest key `>= start` until
    /// `out` holds `count`: one [`Table::walk`] per table, from the start
    /// key's position in its table on, until a walk fills the count; empty
    /// tables are skipped. The latched mode holds each table's read latch
    /// across its walk.
    fn scan_into(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        let first = self.table_of(start);
        let (sk, m_total) = (self.sub_key(start), 64 - self.params.first_level_bits);
        for (t, cell) in self.tables.iter().enumerate().skip(first) {
            let table = M::read(cell);
            let filled = if table.is_empty() {
                false
            } else if t == first {
                let seek = |seg: &segment::Segment| seg.seek(sk, start, m_total);
                table.walk(table.dir.index(sk), seek, count, out)
            } else {
                table.walk(0, |_| (0, 0), count, out)
            };
            if filled {
                return;
            }
        }
    }

    /// Returns all pairs with keys in `[start, end)`, in ascending order
    /// (the scan primitive of §3.3 takes a count; SQL-style range queries
    /// take an upper bound).
    ///
    /// Pulls batches of doubling size through the one scan walk, each
    /// re-entered just past the last key of the one before, so a range of
    /// `n` keys is positioned `O(log n)` times. In the latched mode each
    /// batch is one latched scan, with the served SCAN's contract
    /// (DESIGN.md §14): the range as a whole is not atomic, so a write
    /// between two batches is seen exactly when its key lies after the
    /// earlier batch's last key.
    pub fn range(&self, start: Key, end: Key) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        let (mut from, mut batch) = (start, 256usize);
        while from < end {
            let before = out.len();
            self.scan_into(from, before + batch, &mut out);
            // Keys arrive in ascending order, so pairs at or past the
            // exclusive upper bound form a suffix.
            let cut = before + out[before..].partition_point(|&(k, _)| k < end);
            if cut < out.len() || out.len() < before + batch {
                out.truncate(cut);
                break;
            }
            // Every pair is below `end`, so the last key + 1 cannot wrap.
            from = out[out.len() - 1].0 + 1;
            batch *= 2;
        }
        out
    }

    /// Smallest stored key, or `None` when empty.
    pub fn first_key(&self) -> Option<Key> {
        let mut out = Vec::with_capacity(1);
        self.scan_into(0, 1, &mut out);
        out.first().map(|&(k, _)| k)
    }
}

impl DyTis {
    /// Read-only access to the first-level EH tables (introspection and
    /// structure analysis).
    pub fn tables(&self) -> impl Iterator<Item = &Table<Exclusive>> {
        self.tables.iter().map(|t| &t.0)
    }
}

impl KvIndex for DyTis {
    // The obs timers/counters below compile to no-ops unless the `metrics`
    // feature is on (see crates/obs): `Timer` is then zero-sized and the
    // handle lookups fold away, so the default hot path is unchanged.
    fn insert(&mut self, key: Key, value: Value) {
        let _t = obs::Timer::start(obs::histogram!("dytis.insert_ns"));
        obs::counter!("dytis.insert").inc();
        let (t, sk) = (self.table_of(key), self.sub_key(key));
        let table = &mut self.tables[t].0;
        let mut steps = 0u32;
        loop {
            steps += 1;
            assert!(steps < MAX_INSERT_STEPS, "insert failed to converge");
            let seg = &mut table.segs[table.dir.entry(sk) as usize].0;
            match insert_step(&table.dir, seg, sk, key, value, &self.params) {
                Step::Updated => break,
                Step::Inserted => {
                    *table.num_keys.get_mut() += 1;
                    break;
                }
                Step::Repaired => {}
                Step::NeedsSplit => {
                    *self.insert_retries.get_mut() += 1;
                    table.split_step(sk, &self.params);
                }
            }
        }
    }

    fn get(&self, key: Key) -> Option<Value> {
        let _t = obs::Timer::start(obs::histogram!("dytis.get_ns"));
        obs::counter!("dytis.get").inc();
        self.lookup(key)
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let _t = obs::Timer::start(obs::histogram!("dytis.remove_ns"));
        obs::counter!("dytis.remove").inc();
        let (t, sk) = (self.table_of(key), self.sub_key(key));
        let table = &mut self.tables[t].0;
        let seg = &mut table.segs[table.dir.entry(sk) as usize].0;
        let v = remove_step(&table.dir, seg, sk, key, &self.params)?;
        *table.num_keys.get_mut() -= 1;
        Some(v)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        let _t = obs::Timer::start(obs::histogram!("dytis.scan_ns"));
        obs::counter!("dytis.scan").inc();
        self.scan_into(start, count, out);
    }

    fn len(&self) -> usize {
        self.key_count()
    }

    fn name(&self) -> &'static str {
        Exclusive::NAME
    }

    fn memory_bytes(&self) -> usize {
        Index::memory_bytes(self)
    }
}

impl DyTis {
    /// Builds an index from strictly-sorted, duplicate-free `pairs` with
    /// explicit parameters, constructing directories, segments, and buckets
    /// directly from sorted runs (mirroring ALEX's bulk load) instead of
    /// running the insert path — no splits, remaps, expansions, or
    /// directory doublings happen at all. A served index is built the same
    /// way, then converted (`ConcurrentDyTis::from`).
    pub fn bulk_load_with_params(pairs: &[(Key, Value)], params: Params) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires strictly sorted unique keys"
        );
        let mut idx = DyTis::with_params(params);
        let m_total = 64 - idx.params.first_level_bits;
        let mut lo = 0usize;
        while lo < pairs.len() {
            let t = idx.table_of(pairs[lo].0);
            let hi = lo + pairs[lo..].partition_point(|&(k, _)| idx.table_of(k) == t);
            let table = Table::build_sorted(m_total, &pairs[lo..hi], &idx.params);
            idx.tables[t] = Exclusive::cell(table);
            lo = hi;
        }
        idx
    }
}

impl BulkLoad for DyTis {
    /// Builds the structure directly from the sorted input (see
    /// [`DyTis::bulk_load_with_params`]). DyTIS does not *need* bulk
    /// loading — incremental inserts reach the same steady state — but the
    /// direct build skips all insert-path maintenance.
    fn bulk_load(pairs: &[(Key, Value)]) -> Self {
        Self::bulk_load_with_params(pairs, Params::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DyTis {
        DyTis::with_params(Params::small())
    }

    #[test]
    fn empty_index_behaves() {
        let idx = small();
        assert_eq!(idx.len(), 0);
        assert!(idx.is_empty());
        assert_eq!(idx.get(42), None);
        let mut out = Vec::new();
        idx.scan(0, 10, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn insert_lookup_roundtrip_uniform() {
        let mut idx = small();
        let keys: Vec<u64> = (0..20_000u64)
            .map(|k| k.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            idx.insert(k, i as u64);
        }
        idx.check_invariants();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.get(k), Some(i as u64));
        }
    }

    #[test]
    fn insert_lookup_sequential_keys() {
        let mut idx = small();
        for k in 0..10_000u64 {
            idx.insert(k, k + 1);
        }
        idx.check_invariants();
        assert_eq!(idx.len(), 10_000);
        for k in (0..10_000u64).step_by(111) {
            assert_eq!(idx.get(k), Some(k + 1));
        }
    }

    #[test]
    fn insert_high_msb_keys_hits_last_tables() {
        let mut idx = small();
        for k in 0..5_000u64 {
            idx.insert(u64::MAX - k, k);
        }
        idx.check_invariants();
        assert_eq!(idx.get(u64::MAX), Some(0));
        assert_eq!(idx.get(u64::MAX - 4_999), Some(4_999));
    }

    #[test]
    fn scan_crosses_first_level_tables() {
        let mut idx = small();
        // Keys spread across all 4 first-level tables (R = 2).
        let step = 1u64 << 55;
        let keys: Vec<u64> = (0..500u64).map(|i| i * step).collect();
        for &k in &keys {
            idx.insert(k, k);
        }
        let mut out = Vec::new();
        idx.scan(0, 500, &mut out);
        assert_eq!(out.len(), 500);
        let got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn scan_start_in_middle() {
        let mut idx = small();
        for k in 0..4_000u64 {
            idx.insert(k * 3, k);
        }
        let mut out = Vec::new();
        idx.scan(301, 100, &mut out);
        assert_eq!(out[0].0, 303);
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn remove_roundtrip() {
        let mut idx = small();
        for k in 0..6_000u64 {
            idx.insert(k * 11, k);
        }
        for k in 0..3_000u64 {
            assert_eq!(idx.remove(k * 11), Some(k));
        }
        idx.check_invariants();
        assert_eq!(idx.len(), 3_000);
        assert_eq!(idx.get(11), None);
        assert_eq!(idx.get(3_000 * 11), Some(3_000));
    }

    #[test]
    fn update_in_place() {
        let mut idx = small();
        idx.insert(5, 1);
        idx.insert(5, 2);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(5), Some(2));
        assert!(idx.update(5, 3));
        assert!(!idx.update(6, 3));
    }

    #[test]
    fn bulk_load_equals_inserts() {
        let pairs: Vec<(u64, u64)> = (0..5_000u64).map(|k| (k * 7, k)).collect();
        let idx = DyTis::bulk_load(&pairs);
        idx.check_invariants();
        assert_eq!(idx.len(), 5_000);
        assert_eq!(idx.get(7), Some(1));
        let mut built = DyTis::new();
        for &(k, v) in &pairs {
            built.insert(k, v);
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        idx.scan(0, 5_000, &mut a);
        built.scan(0, 5_000, &mut b);
        assert_eq!(a, b);
        assert_eq!(a, pairs);
    }

    #[test]
    fn bulk_load_small_params_spread_keys() {
        // Keys spread across every first-level table, including extremes.
        let mut keys: Vec<u64> = (0..4_000u64)
            .map(|k| k.wrapping_mul(0x61C8864680B583EB))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 1)).collect();
        let idx = DyTis::bulk_load_with_params(&pairs, Params::small());
        idx.check_invariants();
        assert_eq!(idx.len(), pairs.len());
        for &(k, v) in pairs.iter().step_by(37) {
            assert_eq!(idx.get(k), Some(v), "key {k:#x}");
        }
        let mut out = Vec::new();
        idx.scan(0, pairs.len(), &mut out);
        assert_eq!(out, pairs);
        // Bulk-built indexes accept further inserts and removes.
        let mut idx = idx;
        idx.insert(12_345, 99);
        assert_eq!(idx.get(12_345), Some(99));
        idx.check_invariants();
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let idx = DyTis::bulk_load(&[]);
        idx.check_invariants();
        assert!(idx.is_empty());
        let idx = DyTis::bulk_load(&[(u64::MAX, 1)]);
        idx.check_invariants();
        assert_eq!(idx.get(u64::MAX), Some(1));
        assert_eq!(idx.first_key(), Some(u64::MAX));
    }

    /// The §3.3 limit is decided when a doubling brings `GD` to
    /// `L_start + 2`. A bulk build that starts at that depth has no history
    /// to decide from and keeps the default `limit_mult`, however
    /// expansion-heavy the inserts after it are; the same inserts into an
    /// empty index raise the limit.
    #[test]
    fn bulk_built_table_keeps_the_default_limit() {
        let p = Params::small();
        // An evenly spaced bulk build trains every segment flat, so the
        // scrambled inserts after it overflow buckets of segments above
        // `U_t`: expansions, as in a table grown by those inserts alone.
        let base: Vec<(u64, u64)> = (0..4_096u64).map(|i| (i << 52, i)).collect();
        let stream = (1..40_000u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15));
        let mut built = DyTis::bulk_load_with_params(&base, p);
        assert!(built.tables().all(|t| t.global_depth() >= p.l_start + 2));
        let mut grown = small();
        for k in stream {
            built.insert(k, k);
            grown.insert(k, k);
        }
        // Non-vacuity: the built tables doubled, and their history would
        // raise the limit had the bulk build not counted as decided.
        let s = built.stats().ops;
        assert!(s.doublings > 0);
        let history = segment::adaptive_limit_mult(s.splits, s.expansions, s.remaps, &p);
        assert_eq!(history, p.limit_mult_raised);
        assert_eq!(built.raised_limit_tables(), 0);
        assert!(grown.raised_limit_tables() > 0);
    }

    #[test]
    fn bulk_load_dense_sequential_run() {
        // One dense run hammers a single first-level table; the plan must
        // deepen until the depth-scaled budget fits, not per-key.
        let pairs: Vec<(u64, u64)> = (0..30_000u64).map(|k| (k, k)).collect();
        let idx = DyTis::bulk_load_with_params(&pairs, Params::small());
        idx.check_invariants();
        assert_eq!(idx.len(), 30_000);
        assert_eq!(idx.range(10_000, 10_100).len(), 100);
    }

    #[test]
    fn default_params_roundtrip() {
        let mut idx = DyTis::new();
        for k in 0..50_000u64 {
            idx.insert(k.wrapping_mul(0x100000001B3), k);
        }
        for k in (0..50_000u64).step_by(503) {
            assert_eq!(idx.get(k.wrapping_mul(0x100000001B3)), Some(k));
        }
    }

    /// `range` in mode `M` over `small()` holding `k * 4 -> k` for
    /// `k < 5_000`, plus `Key::MAX - 1 -> 1` and `Key::MAX -> 2`.
    fn check_range<M: Mode>(idx: &Index<M>) {
        let got = idx.range(100, 200);
        let want: Vec<(u64, u64)> = (25..50).map(|k| (k * 4, k)).collect();
        assert_eq!(got, want);
        assert!(idx.range(10_000_000, 10_000_001).is_empty());
        assert!(idx.range(200, 200).is_empty());
        assert!(idx.range(200, 100).is_empty());
        // Exactly one first batch: the range ends on its last key.
        assert_eq!(idx.range(0, 1_024).len(), 256);
        // A range over several doubling batches.
        let wide = idx.range(0, 20_000);
        assert_eq!(wide.len(), 5_000);
        assert!(wide.windows(2).all(|w| w[0].0 < w[1].0));
        // The end is exclusive, so `Key::MAX` itself is out of every range.
        assert_eq!(idx.range(Key::MAX - 1, Key::MAX), vec![(Key::MAX - 1, 1)]);
        let all = idx.range(0, Key::MAX);
        assert_eq!(all.len(), 5_001);
        assert_eq!(all.last(), Some(&(Key::MAX - 1, 1)));
    }

    #[test]
    fn range_query_matches_scan_semantics() {
        assert!(small().range(0, Key::MAX).is_empty());
        assert!(ConcurrentDyTis::with_params(Params::small())
            .range(0, Key::MAX)
            .is_empty());
        let mut idx = small();
        for k in 0..5_000u64 {
            idx.insert(k * 4, k);
        }
        idx.insert(Key::MAX - 1, 1);
        idx.insert(Key::MAX, 2);
        check_range(&idx);
        check_range(&ConcurrentDyTis::from(idx));
    }

    #[test]
    fn first_key_tracks_minimum() {
        let both = |idx: &DyTis| {
            [
                idx.first_key(),
                ConcurrentDyTis::from(idx.clone()).first_key(),
            ]
        };
        let mut idx = small();
        assert_eq!(both(&idx), [None; 2]);
        idx.insert(500, 1);
        idx.insert(100, 2);
        assert_eq!(both(&idx), [Some(100); 2]);
        idx.remove(100);
        assert_eq!(both(&idx), [Some(500); 2]);
        // The only key in the last first-level table.
        idx.remove(500);
        idx.insert(Key::MAX, 3);
        assert_eq!(both(&idx), [Some(Key::MAX); 2]);
    }

    #[test]
    fn memory_accounting_grows() {
        let mut idx = small();
        let m0 = idx.memory_bytes();
        for k in 0..6_000u64 {
            idx.insert(k, k);
        }
        assert!(idx.memory_bytes() > m0);
    }

    #[test]
    fn model_count_tracks_structure() {
        let mut idx = small();
        assert!(idx.model_count() >= idx.segment_count());
        for k in 0..6_000u64 {
            idx.insert(k * 3, k);
        }
        assert!(idx.segment_count() > 4);
        assert!(idx.model_count() >= idx.segment_count());
        assert!(idx.max_global_depth() > 0);
    }

    #[test]
    fn stats_report_maintenance_work() {
        let mut idx = small();
        for k in 0..8_000u64 {
            idx.insert(k, k);
        }
        let s = idx.stats();
        assert!(s.ops.total_ops() > 0);
        assert!(s.ops.keys_moved > 0);
    }
}
