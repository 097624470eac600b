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
//! The concurrent index (§3.4) is [`ConcurrentDyTis`] (`concurrent.rs`):
//! one latch protocol, a per-table directory lock over per-segment
//! reader/writer locks, taken by readers and writers alike. It and
//! [`DyTis`] share one Algorithm 1 ([`segment::Segment::repair_in_place`])
//! and one §3.3 segment-size rule ([`segment::adaptive_limit_mult`]).
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
pub mod cursor;
pub mod eh;
pub mod params;
pub mod persist;
pub mod remap;
pub mod segment;
pub mod simd;
pub mod stats;
pub mod sync;

pub use concurrent::ConcurrentDyTis;
pub use cursor::{CursorInvalidated, ScanCursor};
pub use params::Params;
pub use stats::{DytisStats, OpTimes};

use eh::EhTable;
use index_traits::{Auditable, BulkLoad, Key, KvIndex, Value};

/// The single-threaded DyTIS index.
///
/// Multi-threaded systems should use [`ConcurrentDyTis`]; systems with
/// multiple single-threaded engines (H-Store, Redis Cluster) can use this
/// lock-free-by-construction version directly (§3.4).
#[derive(Debug, Clone)]
pub struct DyTis {
    params: Params,
    /// First level: `2^R` EH tables, indexed by the `R` key MSBs.
    tables: Vec<EhTable>,
    num_keys: usize,
    /// Mutation generation, bumped by every `insert`/`remove`. Outstanding
    /// [`ScanCursor`]s record the generation they were created under so a
    /// resume after *any* mutation — including the structural ones (split,
    /// remapping, expansion, directory doubling) that can recycle a `SegId`
    /// — is detected instead of walking stale structure (see
    /// [`DyTis::scan_next`]).
    generation: u64,
}

impl Default for DyTis {
    fn default() -> Self {
        Self::new()
    }
}

impl DyTis {
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
        let m_total = 64 - r;
        let tables = (0..(1usize << r))
            .map(|_| EhTable::new(m_total, &params))
            .collect();
        DyTis {
            params,
            tables,
            num_keys: 0,
            generation: 0,
        }
    }

    /// The current mutation generation (see [`DyTis::scan_next`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
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

    /// Aggregated maintenance statistics over all first-level tables.
    pub fn stats(&self) -> DytisStats {
        let mut acc = DytisStats::default();
        for t in &self.tables {
            acc.merge(t.stats());
        }
        acc
    }

    /// Total number of linear models (remapping-function pieces) across
    /// the whole index. The paper compares this against ALEX's model count
    /// in §4.3 ("to query a key, DyTIS always uses a linear model once")
    /// and §4.4 (node growth under skew).
    pub fn model_count(&self) -> usize {
        self.tables.iter().map(EhTable::model_count).sum()
    }

    /// Total number of segments across the whole index.
    pub fn segment_count(&self) -> usize {
        self.tables.iter().map(EhTable::segment_count).sum()
    }

    /// Read-only access to the first-level EH tables (introspection and
    /// structure analysis).
    pub fn tables(&self) -> impl Iterator<Item = &EhTable> {
        self.tables.iter()
    }

    /// Maximum directory depth over the first-level EH tables.
    pub fn max_global_depth(&self) -> u32 {
        self.tables
            .iter()
            .map(EhTable::global_depth)
            .max()
            .unwrap_or(0)
    }

    /// Number of EH tables whose adaptive segment-size limit was raised.
    pub fn raised_limit_tables(&self) -> usize {
        let raised = self.params.limit_mult_raised;
        self.tables
            .iter()
            .filter(|t| t.active_limit_mult() == raised)
            .count()
    }

    /// Returns all pairs with keys in `[start, end)`, in ascending order.
    ///
    /// Pulls batches from a single [`ScanCursor`], so the positioning work
    /// (first-level table, directory lookup, remapping prediction, bucket
    /// lower bound) happens once for the whole range instead of once per
    /// batch (the scan primitive of §3.3 takes a count; SQL-style range
    /// queries take an upper bound).
    pub fn range(&self, start: Key, end: Key) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        const BATCH: usize = 256;
        let mut cur = self.scan_cursor(start);
        loop {
            let more = self
                .scan_next(&mut cur, out.len() + BATCH, &mut out)
                // invariant: the cursor lives entirely under this `&self`
                // borrow, so no mutation can invalidate it.
                .expect("cursor created under the same borrow");
            // Keys arrive in ascending order, so pairs at or past the
            // exclusive upper bound form a suffix.
            let cut = out.partition_point(|&(k, _)| k < end);
            if cut < out.len() || !more {
                out.truncate(cut);
                return out;
            }
        }
    }

    /// Smallest stored key, or `None` when empty.
    pub fn first_key(&self) -> Option<Key> {
        let mut out = Vec::with_capacity(1);
        self.scan(0, 1, &mut out);
        out.first().map(|&(k, _)| k)
    }

    /// Validates structural invariants of every EH table (test helper).
    ///
    /// Equivalent to `self.audit().assert_clean()`; use
    /// [`Auditable::audit`] directly to inspect violations without
    /// panicking.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self) {
        self.audit().assert_clean();
    }
}

impl KvIndex for DyTis {
    // The obs timers/counters below compile to no-ops unless the `metrics`
    // feature is on (see crates/obs): `Timer` is then zero-sized and the
    // handle lookups fold away, so the default hot path is unchanged.
    fn insert(&mut self, key: Key, value: Value) {
        let _t = obs::Timer::start(obs::histogram!("dytis.insert_ns"));
        obs::counter!("dytis.insert").inc();
        let t = self.table_of(key);
        let sk = self.sub_key(key);
        let before = self.tables[t].len();
        self.tables[t].insert(sk, key, value, &self.params);
        self.num_keys += self.tables[t].len() - before;
        self.generation = self.generation.wrapping_add(1);
    }

    fn get(&self, key: Key) -> Option<Value> {
        let _t = obs::Timer::start(obs::histogram!("dytis.get_ns"));
        obs::counter!("dytis.get").inc();
        let t = self.table_of(key);
        self.tables[t].get(self.sub_key(key), key, &self.params)
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let _t = obs::Timer::start(obs::histogram!("dytis.remove_ns"));
        obs::counter!("dytis.remove").inc();
        let t = self.table_of(key);
        let sk = self.sub_key(key);
        let v = self.tables[t].remove(sk, key, &self.params)?;
        self.num_keys -= 1;
        self.generation = self.generation.wrapping_add(1);
        Some(v)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        let _t = obs::Timer::start(obs::histogram!("dytis.scan_ns"));
        obs::counter!("dytis.scan").inc();
        let mut cur = self.scan_cursor(start);
        self.scan_next(&mut cur, count, out)
            // invariant: the cursor lives entirely under this `&self`
            // borrow, so no mutation can invalidate it.
            .expect("cursor created under the same borrow");
    }

    fn len(&self) -> usize {
        self.num_keys
    }

    fn name(&self) -> &'static str {
        "DyTIS"
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.tables.iter().map(EhTable::memory_bytes).sum::<usize>()
            + self.tables.capacity() * std::mem::size_of::<EhTable>()
    }
}

impl DyTis {
    /// Builds an index from strictly-sorted, duplicate-free `pairs` with
    /// explicit parameters, constructing directories, segments, and buckets
    /// directly from sorted runs (mirroring ALEX's bulk load) instead of
    /// running the insert path — no splits, remaps, expansions, or
    /// directory doublings happen at all.
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
            idx.tables[t] = EhTable::build_sorted(m_total, &pairs[lo..hi], &idx.params);
            idx.num_keys += hi - lo;
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

    #[test]
    fn range_query_matches_scan_semantics() {
        let mut idx = small();
        for k in 0..5_000u64 {
            idx.insert(k * 4, k);
        }
        let got = idx.range(100, 200);
        let want: Vec<(u64, u64)> = (25..50).map(|k| (k * 4, k)).collect();
        assert_eq!(got, want);
        assert!(idx.range(10_000_000, 10_000_001).is_empty());
        // A range wider than one scan batch.
        let wide = idx.range(0, 20_000);
        assert_eq!(wide.len(), 5_000);
        assert!(wide.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn first_key_tracks_minimum() {
        let mut idx = small();
        assert_eq!(idx.first_key(), None);
        idx.insert(500, 1);
        idx.insert(100, 2);
        assert_eq!(idx.first_key(), Some(100));
        idx.remove(100);
        assert_eq!(idx.first_key(), Some(500));
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
