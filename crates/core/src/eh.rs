//! Second-level Extendible Hashing tables (§3.1–§3.3).
//!
//! Each EH table owns a directory (indexed by the `GD` most-significant bits
//! of the EH sub-key), an arena of segments, and per-segment sibling links
//! used to accelerate scans. Insertion follows Algorithm 1 of the paper:
//! below `L_start` the table behaves as plain Extendible hashing; from
//! `L_start` on, the utilization threshold `U_t` arbitrates between split,
//! remapping, expansion and directory doubling.

use crate::params::Params;
use crate::remap::{mask64, RemapFn};
use crate::segment::{adaptive_limit_mult, BucketUpsert, Repair, Segment};
use crate::stats::DytisStats;
use index_traits::{Key, Value};
use std::time::Instant;

/// Index of a segment in the table's arena.
pub type SegId = u32;

/// One Extendible Hashing table of DyTIS's second level.
#[derive(Debug, Clone)]
pub struct EhTable {
    /// Number of key bits this table indexes (`n − R`).
    m_total: u32,
    /// Global depth `GD`; the directory has `2^GD` entries.
    global_depth: u32,
    /// Directory: entry `i` points at the segment holding keys whose top
    /// `GD` bits equal `i`.
    dir: Vec<SegId>,
    /// Segment arena; `None` slots are free.
    segs: Vec<Option<Segment>>,
    /// Sibling pointer per arena slot: the next segment in key order.
    next: Vec<Option<SegId>>,
    /// Free arena slots for reuse.
    free: Vec<SegId>,
    /// Total keys stored in this table.
    num_keys: usize,
    /// Maintenance statistics.
    stats: DytisStats,
    /// Currently active segment-size limit multiplier (`Limit_seg`).
    active_limit_mult: u32,
    /// Whether the adaptive limit decision (§3.3 "Selecting a segment size")
    /// has been made.
    limit_decided: bool,
}

impl EhTable {
    /// Creates an empty table indexing `m_total`-bit sub-keys.
    pub fn new(m_total: u32, params: &Params) -> Self {
        assert!((1..=63).contains(&m_total));
        EhTable {
            m_total,
            global_depth: 0,
            dir: vec![0],
            segs: vec![Some(Segment::new(0))],
            next: vec![None],
            free: Vec::new(),
            num_keys: 0,
            stats: DytisStats::default(),
            active_limit_mult: params.limit_mult,
            limit_decided: false,
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
        self.global_depth
    }

    /// Maintenance statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> &DytisStats {
        &self.stats
    }

    /// The active segment-size limit multiplier (2 by default; 128 once the
    /// adaptive policy classifies the dataset as expansion-heavy).
    #[inline]
    pub fn active_limit_mult(&self) -> u32 {
        self.active_limit_mult
    }

    /// Directory index of sub-key `sk`.
    #[inline]
    fn dir_index(&self, sk: u64) -> usize {
        (sk >> (self.m_total - self.global_depth)) as usize
    }

    #[inline]
    fn seg(&self, id: SegId) -> &Segment {
        self.segs[id as usize]
            .as_ref()
            // invariant: directory entries only hold live arena slots.
            .expect("dangling segment id")
    }

    #[inline]
    fn seg_mut(&mut self, id: SegId) -> &mut Segment {
        self.segs[id as usize]
            .as_mut()
            // invariant: directory entries only hold live arena slots.
            .expect("dangling segment id")
    }

    fn alloc(&mut self, seg: Segment) -> SegId {
        if let Some(id) = self.free.pop() {
            self.segs[id as usize] = Some(seg);
            self.next[id as usize] = None;
            id
        } else {
            self.segs.push(Some(seg));
            self.next.push(None);
            (self.segs.len() - 1) as SegId
        }
    }

    /// Looks up `key` (with sub-key `sk`).
    pub fn get(&self, sk: u64, key: Key, params: &Params) -> Option<Value> {
        let id = self.dir[self.dir_index(sk)];
        self.seg(id).get(sk, key, self.m_total, params)
    }

    /// Removes `key`, shrinking the segment if it becomes under-utilized.
    pub fn remove(&mut self, sk: u64, key: Key, params: &Params) -> Option<Value> {
        let id = self.dir[self.dir_index(sk)];
        let m_total = self.m_total;
        let seg = self.seg_mut(id);
        let m = seg.key_bits(m_total);
        let k = sk & mask64(m);
        let b = seg.bucket_of(k, m_total);
        let removed = seg.remove_from_bucket(b, key)?;
        self.num_keys -= 1;
        let seg = self.seg(id);
        if seg.total_buckets() > 1 && seg.utilization(params) < params.shrink_threshold {
            let t0 = Instant::now();
            let n = self.seg(id).num_keys as u64;
            if self.seg_mut(id).shrink(m_total, params) {
                self.stats.ops.shrinks += 1;
                self.stats.ops.keys_moved += n;
                let dt = t0.elapsed().as_nanos() as u64;
                self.stats.times.shrink_ns += dt;
                obs::counter!("dytis.shrink").inc();
                obs::histogram!("dytis.shrink_ns").record(dt);
            }
            #[cfg(debug_assertions)]
            self.debug_audit_segment(id, params);
        }
        Some(removed)
    }

    /// Inserts (or updates in place) `key` with sub-key `sk`.
    pub fn insert(&mut self, sk: u64, key: Key, value: Value, params: &Params) {
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 10_000, "insert failed to converge");
            let id = self.dir[self.dir_index(sk)];
            let m_total = self.m_total;
            let ld = self.seg(id).local_depth;
            let m = m_total - ld;
            let k = sk & mask64(m);
            {
                let cap = params.bucket_entries;
                let seg = self.seg_mut(id);
                let b = seg.bucket_of(k, m_total);
                match seg.upsert_in_bucket(b, key, value, cap) {
                    BucketUpsert::Updated => return,
                    BucketUpsert::Inserted => {
                        self.num_keys += 1;
                        return;
                    }
                    BucketUpsert::Full => {}
                }
            }
            // Bucket is full: Algorithm 1 (`Segment::repair_in_place`).
            self.maybe_decide_limit(params);
            let gd = self.global_depth;
            let cap_buckets = params.segment_cap(ld, self.active_limit_mult);
            let t0 = Instant::now();
            let n = self.seg(id).num_keys as u64;
            let repair = self
                .seg_mut(id)
                .repair_in_place(k, gd, m_total, cap_buckets, params);
            match repair {
                Repair::Remapped => {
                    self.stats.ops.remaps += 1;
                    self.stats.ops.keys_moved += n;
                    let dt = t0.elapsed().as_nanos() as u64;
                    self.stats.times.remap_ns += dt;
                    obs::counter!("dytis.remap").inc();
                    obs::histogram!("dytis.remap_ns").record(dt);
                    #[cfg(debug_assertions)]
                    self.debug_audit_segment(id, params);
                }
                Repair::Expanded => {
                    self.stats.ops.expansions += 1;
                    self.stats.ops.keys_moved += n;
                    let dt = t0.elapsed().as_nanos() as u64;
                    self.stats.times.expansion_ns += dt;
                    obs::counter!("dytis.expand").inc();
                    obs::histogram!("dytis.expand_ns").record(dt);
                    #[cfg(debug_assertions)]
                    self.debug_audit_segment(id, params);
                }
                // The next iteration sees LD < GD and splits (or remaps) as
                // Algorithm 1 prescribes.
                Repair::NeedsSplit if ld == gd => self.double_directory(),
                Repair::NeedsSplit => self.split(id, self.dir_index(sk), params),
            }
        }
    }

    /// Decides the adaptive segment-size limit once the table has gathered
    /// enough maintenance history (observed at `L' = L_start + 2`, §3.3).
    fn maybe_decide_limit(&mut self, params: &Params) {
        if self.limit_decided || self.global_depth < params.l_start + 2 {
            return;
        }
        self.limit_decided = true;
        let s = &self.stats.ops;
        self.active_limit_mult = adaptive_limit_mult(s.splits, s.expansions, s.remaps, params);
    }

    /// Splits segment `id` into two (requires `LD < GD`). `hint_idx` is any
    /// directory index pointing at `id`.
    fn split(&mut self, id: SegId, hint_idx: usize, params: &Params) {
        let t0 = Instant::now();
        let m_total = self.m_total;
        // invariant: directory entries only hold live arena slots.
        let old = self.segs[id as usize].take().expect("dangling segment id");
        debug_assert!(old.local_depth < self.global_depth);
        let n = old.num_keys as u64;
        let (left, right) = old.split(m_total, params);
        let new_ld = left.local_depth;

        // Reuse `id` for the left half so predecessors' sibling pointers and
        // directory entries below the split point stay valid.
        self.segs[id as usize] = Some(left);
        let right_id = self.alloc(right);
        self.next[right_id as usize] = self.next[id as usize];
        self.next[id as usize] = Some(right_id);

        // Redirect the upper half of the directory range that pointed at the
        // old segment.
        let span = 1usize << (self.global_depth - new_ld);
        // First directory entry of the *old* segment's range: clear the low
        // `GD - (LD_new - 1)` bits of the hint index.
        debug_assert_eq!(self.dir[hint_idx], id);
        let base = hint_idx & !(span * 2 - 1);
        for e in &mut self.dir[base + span..base + 2 * span] {
            *e = right_id;
        }
        self.stats.ops.splits += 1;
        self.stats.ops.keys_moved += n;
        let dt = t0.elapsed().as_nanos() as u64;
        self.stats.times.split_ns += dt;
        obs::counter!("dytis.split").inc();
        obs::histogram!("dytis.split_ns").record(dt);
        #[cfg(debug_assertions)]
        {
            self.debug_audit_directory();
            self.debug_audit_segment(id, params);
            self.debug_audit_segment(right_id, params);
        }
    }

    /// Doubles the directory (`GD += 1`), duplicating every entry.
    fn double_directory(&mut self) {
        let t0 = Instant::now();
        let mut dir = Vec::with_capacity(self.dir.len() * 2);
        for &e in &self.dir {
            dir.push(e);
            dir.push(e);
        }
        self.dir = dir;
        self.global_depth += 1;
        self.stats.ops.doublings += 1;
        let dt = t0.elapsed().as_nanos() as u64;
        self.stats.times.doubling_ns += dt;
        obs::counter!("dytis.double").inc();
        obs::histogram!("dytis.double_ns").record(dt);
        #[cfg(debug_assertions)]
        self.debug_audit_directory();
    }

    /// Structural position (segment id, bucket, slot) of the first pair
    /// with key `>= start_key` (sub-key `start_sk`): one directory lookup,
    /// one remap prediction, one branchless lower bound. Because bucket
    /// indices are monotone in the key (§3.2), every pair at or after this
    /// position has a key `>= start_key`, so a scan resumed from such a
    /// position never needs to re-predict.
    pub(crate) fn cursor_position(&self, start_sk: u64, start_key: Key) -> (SegId, usize, usize) {
        let seg_id = self.dir[self.dir_index(start_sk)];
        let seg = self.seg(seg_id);
        let m = seg.key_bits(self.m_total);
        let k = start_sk & mask64(m);
        let b = seg.bucket_of(k, self.m_total);
        (seg_id, b, seg.buckets[b].lower_bound(start_key))
    }

    /// Structural position of the table's very first pair slot.
    pub(crate) fn start_position(&self) -> (SegId, usize, usize) {
        (self.dir[0], 0, 0)
    }

    /// Cache hint for a resume position: pulls the bucket the next
    /// [`EhTable::cursor_walk`] will start from into cache ahead of the
    /// walk's directory work (see `ScanCursor::scan_next`).
    pub(crate) fn prefetch_position(&self, seg_id: SegId, b: usize) {
        if let Some(Some(seg)) = self.segs.get(seg_id as usize) {
            if let Some(bucket) = seg.buckets.get(b) {
                crate::simd::prefetch_slice(bucket.keys());
                crate::simd::prefetch_slice(bucket.vals());
            }
        }
    }

    /// Walks key order structurally from `pos`, bulk-appending pairs until
    /// `out` holds `count` entries. Returns the position to resume from, or
    /// `None` once the table is exhausted.
    pub(crate) fn cursor_walk(
        &self,
        pos: (SegId, usize, usize),
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> Option<(SegId, usize, usize)> {
        let (mut seg_id, mut b, mut slot) = pos;
        loop {
            // Hint the next sibling segment in while this one is walked, so
            // crossing a segment boundary does not stall on its first
            // bucket (the cursor's dominant cache miss on long scans).
            if let Some(n) = self.next[seg_id as usize] {
                if let Some(ns) = self.segs[n as usize].as_ref() {
                    if let Some(first) = ns.buckets.first() {
                        crate::simd::prefetch_slice(first.keys());
                    }
                }
            }
            if let Some((nb, ns)) = self.seg(seg_id).walk_from(b, slot, count, out) {
                return Some((seg_id, nb, ns));
            }
            match self.next[seg_id as usize] {
                Some(n) => (seg_id, b, slot) = (n, 0, 0),
                None => return None,
            }
        }
    }

    /// Scans from the smallest key `>= start_key` (sub-key `start_sk`),
    /// appending up to `count - out.len()` pairs. Returns `true` when the
    /// scan is satisfied (no further tables need visiting).
    pub fn scan(
        &self,
        start_sk: u64,
        start_key: Key,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        if self.num_keys == 0 {
            return out.len() >= count;
        }
        let pos = self.cursor_position(start_sk, start_key);
        let _ = self.cursor_walk(pos, count, out);
        out.len() >= count
    }

    /// Scans the whole table from its first segment (used when a scan spills
    /// over from a previous first-level entry).
    pub fn scan_from_start(&self, count: usize, out: &mut Vec<(Key, Value)>) -> bool {
        if self.num_keys == 0 {
            return out.len() >= count;
        }
        let _ = self.cursor_walk(self.start_position(), count, out);
        out.len() >= count
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

        table.global_depth = gd;
        table.dir = Vec::with_capacity(1usize << gd);
        table.segs.clear();
        table.next.clear();
        for (i, &(ld, lo, hi)) in plan.iter().enumerate() {
            let block = &pairs[lo..hi];
            // Hint the next block's input in while this one trains+fills.
            if let Some(&(_, nlo, _)) = plan.get(i + 1) {
                crate::simd::prefetch_slice(&pairs[nlo..]);
            }
            let remap = trained_remap(block, ld, m_total, params);
            let seg = Segment::build(ld, remap, block, m_total, params);
            let id = i as SegId;
            let span = 1usize << (gd - ld);
            table.dir.extend(std::iter::repeat_n(id, span));
            table.segs.push(Some(seg));
            table.next.push((i + 1 < plan.len()).then_some(id + 1));
        }
        table.num_keys = pairs.len();
        #[cfg(debug_assertions)]
        table.check_invariants(params);
        table
    }

    /// Iterates over all live segments (for tests and introspection).
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.segs.iter().filter_map(|s| s.as_ref())
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
        self.dir.capacity() * std::mem::size_of::<SegId>()
            + self.next.capacity() * std::mem::size_of::<Option<SegId>>()
            + self.segs.capacity() * std::mem::size_of::<Option<Segment>>()
            + self
                .segs
                .iter()
                .flatten()
                .map(Segment::heap_bytes)
                .sum::<usize>()
    }

    /// Validates structural invariants; used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self, params: &Params) {
        let mut report = index_traits::AuditReport::new("EhTable");
        self.audit_into(params, 0, &mut report);
        report.assert_clean();
    }

    /// Structure-only directory audit: entry validity, alignment, span
    /// coverage, sibling links, and free-list consistency. Does not walk
    /// keys, so it is cheap enough for the debug-build hooks fired after
    /// every split and doubling. Returns the segment ids in directory order
    /// when the directory itself is sound enough to walk.
    pub(crate) fn audit_directory_into(
        &self,
        table_idx: usize,
        report: &mut index_traits::AuditReport,
    ) -> Vec<SegId> {
        let gd = self.global_depth;
        report.check(self.dir.len() == 1usize << gd, "dir-size", || {
            (
                format!("table {table_idx}"),
                format!("directory has {} entries at GD {gd}", self.dir.len()),
            )
        });
        let mut chain = Vec::new();
        let mut idx = 0usize;
        while idx < self.dir.len() {
            let id = self.dir[idx];
            let Some(seg) = self.segs.get(id as usize).and_then(Option::as_ref) else {
                report.fail(
                    "dir-dangling",
                    format!("table {table_idx} / dir[{idx}]"),
                    format!("entry points at missing segment {id}"),
                );
                idx += 1;
                continue;
            };
            let ld = seg.local_depth;
            if !report.check(ld <= gd, "local-depth", || {
                (
                    format!("table {table_idx} / seg {id}"),
                    format!("local_depth {ld} exceeds global_depth {gd}"),
                )
            }) {
                idx += 1;
                continue;
            }
            let span = 1usize << (gd - ld);
            report.check(idx.is_multiple_of(span), "dir-alignment", || {
                (
                    format!("table {table_idx} / dir[{idx}]"),
                    format!("segment {id} (span {span}) starts unaligned"),
                )
            });
            let end = (idx + span).min(self.dir.len());
            report.check(
                self.dir[idx..end].iter().all(|&e| e == id),
                "dir-coverage",
                || {
                    (
                        format!("table {table_idx} / dir[{idx}..{end}]"),
                        format!("span of segment {id} mixes directory targets"),
                    )
                },
            );
            chain.push(id);
            idx += span;
        }
        // The sibling chain visits the segments in directory order, then
        // terminates.
        let mut cur = chain.first().copied();
        for &expected in &chain {
            if !report.check(cur == Some(expected), "sibling-chain", || {
                (
                    format!("table {table_idx}"),
                    format!("chain reached {cur:?}, directory order expects segment {expected}"),
                )
            }) {
                break;
            }
            cur = self.next.get(expected as usize).copied().flatten();
        }
        report.check(cur.is_none(), "sibling-chain", || {
            (
                format!("table {table_idx}"),
                format!("chain has trailing segment {cur:?} past the directory"),
            )
        });
        for &f in &self.free {
            report.check(
                self.segs.get(f as usize).is_some_and(Option::is_none),
                "free-list",
                || {
                    (
                        format!("table {table_idx}"),
                        format!("free slot {f} still holds a live segment"),
                    )
                },
            );
        }
        // Every live arena slot must be reachable from the directory.
        for (i, s) in self.segs.iter().enumerate() {
            if s.is_some() {
                report.check(chain.contains(&(i as SegId)), "seg-unreferenced", || {
                    (
                        format!("table {table_idx} / seg {i}"),
                        "live segment not referenced by the directory".into(),
                    )
                });
            }
        }
        chain
    }

    /// Deep audit: the directory checks of [`Self::audit_directory_into`]
    /// plus per-segment remap/bucket invariants, cross-segment key ordering,
    /// per-segment key ranges, and table-level key accounting.
    pub(crate) fn audit_into(
        &self,
        params: &Params,
        table_idx: usize,
        report: &mut index_traits::AuditReport,
    ) {
        let chain = self.audit_directory_into(table_idx, report);
        let mut total = 0usize;
        let mut last_key: Option<Key> = None;
        let mut dir_idx = 0usize;
        for &id in &chain {
            let seg = self.seg(id);
            let loc = format!("table {table_idx} / seg {id}");
            crate::audit::audit_segment(seg, self.m_total, params, &loc, report);
            let ld = seg.local_depth.min(self.global_depth);
            let span = 1usize << (self.global_depth - ld);
            if let Some((first, last)) = crate::audit::segment_key_bounds(seg) {
                // Keys are strictly sorted within a segment (checked above),
                // so range membership of the extremes covers every key.
                let prefix = (dir_idx / span) as u64;
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
            dir_idx += span;
        }
        report.check(total == self.num_keys, "table-key-count", || {
            (
                format!("table {table_idx}"),
                format!("segments hold {total} keys, table claims {}", self.num_keys),
            )
        });
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
            self.m_total,
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
        self.audit_directory_into(0, &mut report);
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
    fn scan_returns_sorted_run() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        let keys: Vec<u64> = (0..3000u64).map(|k| (k * 2654435761) % (1 << M)).collect();
        let mut sorted: Vec<u64> = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for &k in &keys {
            t.insert(k, k, k, &p);
        }
        let mut out = Vec::new();
        t.scan(100, 100, 64, &mut out);
        let expect: Vec<u64> = sorted
            .iter()
            .copied()
            .filter(|&k| k >= 100)
            .take(64)
            .collect();
        let got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn scan_spills_across_segments() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..5000u64 {
            t.insert(k, k, k, &p);
        }
        let mut out = Vec::new();
        assert!(t.scan(4000, 4000, 500, &mut out));
        assert_eq!(out.len(), 500);
        assert_eq!(out[0].0, 4000);
        assert_eq!(out[499].0, 4499);
    }

    #[test]
    fn scan_past_end_is_unsatisfied() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..100u64 {
            t.insert(k, k, k, &p);
        }
        let mut out = Vec::new();
        assert!(!t.scan(50, 50, 200, &mut out));
        assert_eq!(out.len(), 50);
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
        t.audit_into(&p, 0, &mut report);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "table-key-count"));
    }

    #[test]
    fn audit_detects_broken_sibling_chain() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..4000u64 {
            t.insert(k, k, k, &p);
        }
        assert!(t.segment_count() > 1, "need several segments");
        let first = t.dir[0];
        t.next[first as usize] = None;
        let mut report = index_traits::AuditReport::new("EhTable");
        t.audit_directory_into(0, &mut report);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "sibling-chain"));
    }

    #[test]
    fn audit_detects_dangling_directory_entry() {
        let p = params();
        let mut t = EhTable::new(M, &p);
        for k in 0..4000u64 {
            t.insert(k, k, k, &p);
        }
        let victim = t.dir[0];
        t.segs[victim as usize] = None;
        let mut report = index_traits::AuditReport::new("EhTable");
        t.audit_directory_into(0, &mut report);
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
        let seg = t.segs.iter_mut().flatten().nth(id).expect("segment exists");
        let last = seg.buckets.len() - 1;
        let _ = seg.buckets[last].insert(0, 0);
        seg.num_keys += 1;
        t.num_keys += 1;
        let mut report = index_traits::AuditReport::new("EhTable");
        t.audit_into(&p, 0, &mut report);
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
        t.scan_from_start(pairs.len(), &mut out);
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
        t.scan_from_start(pairs.len(), &mut out);
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
        let mut pos = Some(t.start_position());
        while let Some(pp) = pos {
            let target = stepped.len() + 97;
            pos = t.cursor_walk(pp, target, &mut stepped);
        }
        let mut whole = Vec::new();
        t.scan_from_start(5000, &mut whole);
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
