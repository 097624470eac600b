//! Second-level Extendible Hashing tables (§3.1–§3.3).
//!
//! Each EH table owns a [`Directory`] (indexed by the `GD`
//! most-significant bits of the EH sub-key) over an arena of segments.
//! Insertion follows Algorithm 1 of the paper: below `L_start` the table
//! behaves as plain Extendible hashing; from `L_start` on, the utilization
//! threshold `U_t` arbitrates between split, remapping, expansion and
//! directory doubling.

use crate::directory::Directory;
use crate::params::Params;
use crate::remap::{mask64, RemapFn};
use crate::segment::{BucketUpsert, Repair, Segment, MAX_INSERT_STEPS};
use crate::stats::{DytisStats, Maint};
use index_traits::{Key, Value};
use std::time::Instant;

/// Index of a segment in the table's arena.
pub type SegId = u32;

/// One Extendible Hashing table of DyTIS's second level.
#[derive(Debug, Clone)]
pub struct EhTable {
    /// Directory over the arena: entries, `GD`, the §3.3 limit state and
    /// the maintenance record.
    dir: Directory<SegId>,
    /// Segment arena. Segments are only ever split, never freed, so every
    /// slot is live.
    segs: Vec<Segment>,
    /// Total keys stored in this table.
    num_keys: usize,
}

impl EhTable {
    /// Creates an empty table indexing `m_total`-bit sub-keys.
    pub fn new(m_total: u32, params: &Params) -> Self {
        EhTable {
            dir: Directory::new(m_total, 0, params),
            segs: vec![Segment::new(0)],
            num_keys: 0,
        }
    }

    /// Number of keys stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.num_keys
    }

    /// Returns `true` if no keys are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_keys == 0
    }

    /// Global depth of the directory.
    #[inline]
    pub fn global_depth(&self) -> u32 {
        self.dir.global_depth()
    }

    /// Maintenance statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> DytisStats {
        self.dir.record.snapshot()
    }

    /// The active segment-size limit multiplier (2 by default; 128 once the
    /// adaptive policy classifies the dataset as expansion-heavy).
    #[inline]
    pub fn active_limit_mult(&self) -> u32 {
        self.dir.active_limit_mult()
    }

    #[inline]
    fn seg(&self, id: SegId) -> &Segment {
        &self.segs[id as usize]
    }

    /// Looks up `key` (with sub-key `sk`).
    pub fn get(&self, sk: u64, key: Key, params: &Params) -> Option<Value> {
        let id = *self.dir.entry(sk);
        self.seg(id).get(sk, key, self.dir.m_total(), params)
    }

    /// Removes `key`, shrinking the segment if it becomes under-utilized.
    pub fn remove(&mut self, sk: u64, key: Key, params: &Params) -> Option<Value> {
        let id = *self.dir.entry(sk);
        let m_total = self.dir.m_total();
        let seg = &mut self.segs[id as usize];
        let b = seg.bucket_of(seg.local_key(sk, m_total), m_total);
        let removed = seg.remove_from_bucket(b, key)?;
        self.num_keys -= 1;
        if seg.shrink_if_sparse(m_total, params, &self.dir.record) {
            #[cfg(debug_assertions)]
            self.debug_audit_segment(id, params);
        }
        Some(removed)
    }

    /// Inserts (or updates in place) `key` with sub-key `sk`.
    pub fn insert(&mut self, sk: u64, key: Key, value: Value, params: &Params) {
        let mut steps = 0u32;
        loop {
            steps += 1;
            assert!(steps < MAX_INSERT_STEPS, "insert failed to converge");
            let idx = self.dir.index(sk);
            let id = self.dir.entries()[idx];
            let (m_total, gd) = (self.dir.m_total(), self.dir.global_depth());
            let seg = &mut self.segs[id as usize];
            let k = seg.local_key(sk, m_total);
            let b = seg.bucket_of(k, m_total);
            match seg.upsert_in_bucket(b, key, value, params.bucket_entries) {
                BucketUpsert::Updated => return,
                BucketUpsert::Inserted => {
                    self.num_keys += 1;
                    return;
                }
                BucketUpsert::Full => {}
            }
            // Bucket is full: Algorithm 1 (`Segment::repair_in_place`).
            let ld = seg.local_depth;
            let cap_buckets = self.dir.segment_cap(ld, params);
            match seg.repair_in_place(k, gd, m_total, cap_buckets, params, &self.dir.record) {
                // The next iteration sees LD < GD and splits (or remaps) as
                // Algorithm 1 prescribes.
                Repair::NeedsSplit if ld == gd => {
                    self.dir.double(params);
                    #[cfg(debug_assertions)]
                    self.debug_audit_directory();
                }
                Repair::NeedsSplit => self.split(id, idx, params),
                Repair::Remapped | Repair::Expanded => {
                    #[cfg(debug_assertions)]
                    self.debug_audit_segment(id, params);
                }
            }
        }
    }

    /// Splits segment `id` into two (requires `LD < GD`). `idx` is any
    /// directory index pointing at `id`.
    fn split(&mut self, id: SegId, idx: usize, params: &Params) {
        let t0 = Instant::now();
        let (left, right) = self.seg(id).split(self.dir.m_total(), params);
        // Reuse `id` for the left half, so the directory entries below the
        // split point stay valid.
        let old = std::mem::replace(&mut self.segs[id as usize], left);
        let right_id = self.segs.len() as SegId;
        self.segs.push(right);
        self.dir.install_split(idx, old.local_depth, id, right_id);
        self.dir.record.note(Maint::Split, old.num_keys as u64, t0);
        #[cfg(debug_assertions)]
        {
            self.debug_audit_directory();
            self.debug_audit_segment(id, params);
            self.debug_audit_segment(right_id, params);
        }
    }

    /// Structural position (directory index, bucket, slot) of the first
    /// pair with key `>= start_key` (sub-key `start_sk`): one directory
    /// lookup, then [`Segment::seek`]. Every pair at or after this position
    /// has a key `>= start_key`, so a scan resumed from such a position
    /// never needs to re-predict.
    pub(crate) fn cursor_position(&self, start_sk: u64, start_key: Key) -> (usize, usize, usize) {
        let idx = self.dir.index(start_sk);
        let seg = self.seg(self.dir.entries()[idx]);
        let (b, slot) = seg.seek(start_sk, start_key, self.dir.m_total());
        (idx, b, slot)
    }

    /// Cache hint for a resume position: pulls the bucket the next
    /// [`EhTable::cursor_walk`] will start from into cache ahead of the
    /// walk's directory work (see `ScanCursor::scan_next`).
    pub(crate) fn prefetch_position(&self, idx: usize, b: usize) {
        let seg = self.dir.entries().get(idx).map(|&id| self.seg(id));
        if let Some(bucket) = seg.and_then(|s| s.buckets.get(b)) {
            crate::simd::prefetch_slice(bucket.keys());
            crate::simd::prefetch_slice(bucket.vals());
        }
    }

    /// Walks key order structurally from `pos`, one directory span at a
    /// time, bulk-appending pairs until `out` holds `count` entries.
    /// Returns the position to resume from, or `None` once the table is
    /// exhausted.
    pub(crate) fn cursor_walk(
        &self,
        pos: (usize, usize, usize),
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> Option<(usize, usize, usize)> {
        let (mut idx, mut b, mut slot) = pos;
        let entries = self.dir.entries();
        while idx < entries.len() {
            let seg = self.seg(entries[idx]);
            let next = self.dir.next_index(idx, seg.local_depth);
            // Hint the next span's segment in while this one is walked, so
            // crossing a segment boundary does not stall on its first
            // bucket (the cursor's dominant cache miss on long scans).
            if let Some(first) = entries.get(next).and_then(|&n| self.seg(n).buckets.first()) {
                crate::simd::prefetch_slice(first.keys());
            }
            if let Some((nb, ns)) = seg.walk_from(b, slot, count, out) {
                return Some((idx, nb, ns));
            }
            (idx, b, slot) = (next, 0, 0);
        }
        None
    }

    /// Builds a table directly from strictly-sorted unique `pairs` (whose
    /// keys must fit `m_total` bits), mirroring ALEX's bulk load: the key
    /// range is halved recursively until each block fits one segment at the
    /// target utilization `U_t`, then every block trains a remapping
    /// function from its key histogram and fills buckets with sorted
    /// appends. No per-insert maintenance (split / remap / expand / double)
    /// runs at all.
    pub fn build_sorted(m_total: u32, pairs: &[(Key, Value)], params: &Params) -> Self {
        let mut table = EhTable::new(m_total, params);
        if pairs.is_empty() {
            return table;
        }
        debug_assert!(
            pairs
                .windows(2)
                .all(|w| (w[0].0 & mask64(m_total)) < (w[1].0 & mask64(m_total))),
            "bulk build requires strictly sorted unique sub-keys"
        );
        // Partition plan: (local_depth, pair range) blocks in key order.
        // Halving an aligned block yields two aligned blocks, so the plan
        // tiles the directory correctly by construction.
        let mut plan: Vec<(u32, usize, usize)> = Vec::new();
        plan_blocks(pairs, 0, pairs.len(), 0, 0, m_total, params, &mut plan);
        let gd = plan.iter().map(|&(ld, _, _)| ld).max().unwrap_or(0);

        let mut entries = Vec::with_capacity(1usize << gd);
        table.segs.clear();
        for (i, &(ld, lo, hi)) in plan.iter().enumerate() {
            let block = &pairs[lo..hi];
            // Hint the next block's input in while this one trains+fills.
            if let Some(&(_, nlo, _)) = plan.get(i + 1) {
                crate::simd::prefetch_slice(&pairs[nlo..]);
            }
            let remap = trained_remap(block, ld, m_total, params);
            let seg = Segment::build(ld, remap, block, m_total, params);
            entries.extend(std::iter::repeat_n(i as SegId, 1usize << (gd - ld)));
            table.segs.push(seg);
        }
        table.dir = Directory::built(m_total, gd, entries, params);
        table.num_keys = pairs.len();
        #[cfg(debug_assertions)]
        table.check_invariants(params);
        table
    }

    /// Iterates over all live segments (for tests and introspection).
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.segs.iter()
    }

    /// Total linear models (remapping-function pieces) across segments —
    /// the structural quantity the paper's §4.3/§4.4 analysis compares
    /// against ALEX's node counts.
    pub fn model_count(&self) -> usize {
        self.segments().map(|s| s.remap.num_pieces()).sum()
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.segments().count()
    }

    /// Structural memory in bytes: directory + segment metadata + buckets.
    pub fn memory_bytes(&self) -> usize {
        self.dir.heap_bytes()
            + self.segs.capacity() * std::mem::size_of::<Segment>()
            + self.segs.iter().map(Segment::heap_bytes).sum::<usize>()
    }

    /// Validates structural invariants; used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self, params: &Params) {
        let mut report = index_traits::AuditReport::new("EhTable");
        self.audit_into(Some(params), 0, &mut report);
        report.assert_clean();
    }

    /// Audits the table as table `table_idx`: [`Directory::audit`] over the
    /// arena (deep when `params` is given), plus the arena's own
    /// invariant — every segment is named by the directory.
    pub(crate) fn audit_into(
        &self,
        params: Option<&Params>,
        table_idx: usize,
        report: &mut index_traits::AuditReport,
    ) {
        let keys = params.map(|p| (p, self.num_keys));
        let seg = |&id: &SegId| self.segs.get(id as usize);
        self.dir.audit(table_idx, keys, report, |a, b| a == b, seg);
        let mut named = vec![false; self.segs.len()];
        for &id in self.dir.entries() {
            if let Some(n) = named.get_mut(id as usize) {
                *n = true;
            }
        }
        for (i, named) in named.into_iter().enumerate() {
            report.check(named, "seg-unreferenced", || {
                (
                    format!("table {table_idx} / seg {i}"),
                    "segment not referenced by the directory".into(),
                )
            });
        }
    }

    /// Debug-build hook: audits one segment after a contents-changing
    /// maintenance operation (remapping, expansion, shrink).
    ///
    /// # Panics
    ///
    /// Panics if the segment violates an invariant.
    #[cfg(debug_assertions)]
    fn debug_audit_segment(&self, id: SegId, params: &Params) {
        let mut report = index_traits::AuditReport::new("EhTable segment");
        crate::audit::audit_segment(
            self.seg(id),
            self.dir.m_total(),
            params,
            &format!("seg {id}"),
            &mut report,
        );
        report.assert_clean();
    }

    /// Debug-build hook: audits the directory structure (no key walk) after
    /// a split or doubling.
    ///
    /// # Panics
    ///
    /// Panics if the directory violates an invariant.
    #[cfg(debug_assertions)]
    fn debug_audit_directory(&self) {
        let mut report = index_traits::AuditReport::new("EhTable directory");
        self.audit_into(None, 0, &mut report);
        report.assert_clean();
    }
}

/// Recursively halves the key block starting at `start` with width
/// `2^(m_total - ld)` (holding `pairs[lo..hi]`) until its keys fit a single
/// segment at utilization `U_t` under the segment-size cap `Limit_seg(LD)`,
/// appending the surviving `(local_depth, lo, hi)` blocks in key order.
/// The per-block budget grows exponentially with `LD`, so dense clusters
/// stop splitting as soon as the cap catches up with them.
#[allow(clippy::too_many_arguments)]
fn plan_blocks(
    pairs: &[(Key, Value)],
    lo: usize,
    hi: usize,
    ld: u32,
    start: u64,
    m_total: u32,
    params: &Params,
    out: &mut Vec<(u32, usize, usize)>,
) {
    let n = hi - lo;
    let cap_keys = params.segment_cap(ld, params.limit_mult) * params.bucket_entries;
    let budget = ((cap_keys as f64) * params.utilization_threshold).floor() as usize;
    if n > budget.max(1) && ld < m_total {
        let half = start + (1u64 << (m_total - ld - 1));
        let mid = lo + pairs[lo..hi].partition_point(|&(k, _)| (k & mask64(m_total)) < half);
        plan_blocks(pairs, lo, mid, ld + 1, start, m_total, params, out);
        plan_blocks(pairs, mid, hi, ld + 1, half, m_total, params, out);
    } else {
        out.push((ld, lo, hi));
    }
}

/// Trains a remapping function for a freshly bulk-built segment from the
/// sorted keys it will hold: an equal-width histogram over up to 64 pieces,
/// each granted the buckets its keys need at utilization `U_t` — a direct
/// piecewise approximation of the block's CDF (§3.2). Skew the histogram
/// cannot express is absorbed by [`Segment::build`]'s overflow refinement.
fn trained_remap(pairs: &[(Key, Value)], ld: u32, m_total: u32, params: &Params) -> RemapFn {
    let m = m_total - ld;
    let per_bucket = params.bucket_entries as f64 * params.utilization_threshold;
    let total = ((pairs.len() as f64) / per_bucket).ceil() as u32;
    if pairs.is_empty() || total <= 1 || m == 0 {
        return RemapFn::identity();
    }
    // Roughly one piece per target bucket, capped at 2^6 pieces and at the
    // key width.
    let piece_bits = m.min(6).min(32 - total.leading_zeros());
    let pieces = 1usize << piece_bits;
    let w = m - piece_bits;
    let maskm = mask64(m);
    let mut counts = vec![0u32; pieces];
    let mut lo = 0usize;
    for (i, c) in counts.iter_mut().enumerate() {
        let end = ((i as u64) + 1) << w;
        let hi = lo + pairs[lo..].partition_point(|&(k, _)| (k & maskm) < end);
        *c = (((hi - lo) as f64) / per_bucket).ceil() as u32;
        lo = hi;
    }
    if counts.iter().all(|&c| c == 0) {
        counts[0] = 1; // from_counts needs at least one bucket.
    }
    RemapFn::from_counts(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params {
            bucket_entries: 8,
            l_start: 2,
            ..Params::default()
        }
    }

    const M: u32 = 16;

    #[test]
    fn insert_get_small() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..100u64 {
            t.insert(k * 7 % (1 << M), k * 7 % (1 << M), k, &p);
        }
        t.check_invariants(&p);
        for k in 0..100u64 {
            let key = k * 7 % (1 << M);
            assert_eq!(t.get(key, key, &p), Some(k), "key {key}");
        }
        assert_eq!(t.get(3, 3, &p), None);
    }

    #[test]
    fn insert_many_sequential_and_lookup() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..4000u64 {
            t.insert(k, k, k + 1, &p);
        }
        t.check_invariants(&p);
        assert_eq!(t.len(), 4000);
        for k in (0..4000u64).step_by(37) {
            assert_eq!(t.get(k, k, &p), Some(k + 1));
        }
    }

    #[test]
    fn insert_skewed_cluster_triggers_remap() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        // Dense cluster in a narrow range plus disjoint sparse outliers.
        for k in 0..2000u64 {
            t.insert(1000 + k, 1000 + k, k, &p);
        }
        for k in 0..50u64 {
            let key = 50_000 + k * 300;
            t.insert(key, key, k, &p);
        }
        t.check_invariants(&p);
        assert!(t.stats().ops.total_ops() > 0);
        for k in 0..2000u64 {
            assert_eq!(t.get(1000 + k, 1000 + k, &p), Some(k));
        }
    }

    #[test]
    fn update_in_place_does_not_grow() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..500u64 {
            t.insert(k, k, 0, &p);
        }
        let len = t.len();
        for k in 0..500u64 {
            t.insert(k, k, 9, &p);
        }
        assert_eq!(t.len(), len);
        assert_eq!(t.get(123, 123, &p), Some(9));
    }

    #[test]
    fn remove_and_shrink() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..2000u64 {
            t.insert(k, k, k, &p);
        }
        for k in 0..1900u64 {
            assert_eq!(t.remove(k, k, &p), Some(k), "key {k}");
        }
        t.check_invariants(&p);
        assert_eq!(t.len(), 100);
        for k in 1900..2000u64 {
            assert_eq!(t.get(k, k, &p), Some(k));
        }
        assert_eq!(t.remove(5, 5, &p), None);
        assert!(
            t.stats().ops.shrinks > 0,
            "delete-heavy run must count at least one shrink"
        );
    }

    #[test]
    fn stats_accumulate() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..5000u64 {
            t.insert(k, k, k, &p);
        }
        let s = t.stats();
        assert!(s.ops.splits > 0);
        assert!(s.ops.doublings > 0);
        assert!(s.ops.keys_moved > 0);
    }

    #[test]
    fn audit_detects_corrupted_table_key_count() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..500u64 {
            t.insert(k, k, k, &p);
        }
        t.check_invariants(&p);
        t.num_keys += 1;
        let mut report = index_traits::AuditReport::new("EhTable");
        t.audit_into(Some(&p), 0, &mut report);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "table-key-count"));
    }

    #[test]
    fn audit_detects_dangling_directory_entry() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..4000u64 {
            t.insert(k, k, k, &p);
        }
        // Drop the newest segment: the directory still names it.
        t.segs.pop();
        let mut report = index_traits::AuditReport::new("EhTable");
        t.audit_into(None, 0, &mut report);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "dir-dangling"));
    }

    #[test]
    fn audit_detects_misplaced_key() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..4000u64 {
            t.insert(k, k, k, &p);
        }
        // Plant a key in the last bucket of a multi-bucket segment that the
        // remapping function maps to an earlier bucket; fix the key count so
        // only ordering/placement trips.
        let id = t
            .segments()
            .position(|s| s.total_buckets() > 1)
            .expect("grown table has a multi-bucket segment");
        let seg = &mut t.segs[id];
        let last = seg.buckets.len() - 1;
        let _ = seg.buckets[last].insert(0, 0);
        seg.num_keys += 1;
        t.num_keys += 1;
        let mut report = index_traits::AuditReport::new("EhTable");
        t.audit_into(Some(&p), 0, &mut report);
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "key-placement" || v.invariant == "key-order"));
    }

    #[test]
    fn build_sorted_equals_insert_loop() {
        let p = params();
        let pairs: Vec<(u64, u64)> = (0..5000u64).map(|k| (k * 3 + 1, k)).collect();
        let t = EhTable::build_sorted(M, &pairs, &p);
        t.check_invariants(&p);
        assert_eq!(t.len(), pairs.len());
        for &(k, v) in pairs.iter().step_by(17) {
            assert_eq!(t.get(k, k, &p), Some(v), "key {k}");
        }
        let mut out = Vec::new();
        t.cursor_walk((0, 0, 0), pairs.len(), &mut out);
        assert_eq!(out, pairs);
    }

    #[test]
    fn build_sorted_clustered_keys() {
        let p = params();
        // Two dense clusters at opposite ends of the key space: the plan
        // must stop halving once the depth-scaled budget covers a cluster.
        let mut pairs: Vec<(u64, u64)> = (0..2000u64).map(|k| (k, k)).collect();
        pairs.extend((0..2000u64).map(|k| ((1 << M) - 2000 + k, k)));
        let t = EhTable::build_sorted(M, &pairs, &p);
        t.check_invariants(&p);
        assert_eq!(t.len(), pairs.len());
        let mut out = Vec::new();
        t.cursor_walk((0, 0, 0), pairs.len(), &mut out);
        assert_eq!(out, pairs);
    }

    #[test]
    fn build_sorted_empty_and_single() {
        let p = params();
        let t = EhTable::build_sorted(M, &[], &p);
        t.check_invariants(&p);
        assert!(t.is_empty());
        let t = EhTable::build_sorted(M, &[(42, 7)], &p);
        t.check_invariants(&p);
        assert_eq!(t.get(42, 42, &p), Some(7));
    }

    #[test]
    fn cursor_walk_resumes_across_segments() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..5000u64 {
            t.insert(k, k, k, &p);
        }
        assert!(t.segment_count() > 1, "need several segments");
        // Stepped resume must concatenate to exactly one full pass.
        let mut stepped = Vec::new();
        let mut pos = Some((0, 0, 0));
        while let Some(pp) = pos {
            let target = stepped.len() + 97;
            pos = t.cursor_walk(pp, target, &mut stepped);
        }
        let mut whole = Vec::new();
        t.cursor_walk((0, 0, 0), 5000, &mut whole);
        assert_eq!(stepped, whole);
        assert_eq!(stepped.len(), 5000);
    }

    #[test]
    fn directory_dense_uniform_uses_expansion() {
        // Uniform keys at LD == GD should trigger expansions once past
        // L_start, and the adaptive limit may rise.
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..(1u64 << 13) {
            t.insert(k << 3, k << 3, k, &p);
        }
        t.check_invariants(&p);
        assert!(t.stats().ops.expansions > 0);
    }
}
