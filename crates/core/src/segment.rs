//! Variable-size segments (§3.2–§3.3).
//!
//! A segment owns a run of buckets plus the remapping function that spreads
//! its key sub-range over those buckets. All keys in a segment share the same
//! `LD` most-significant bits of the EH sub-key, so the segment's own key
//! space is `[0, 2^m)` with `m = n − R − LD` bits. Segments are the unit of
//! model retraining: remapping, expansion and splitting each rebuild exactly
//! one segment, which is the paper's "local model re-training" design point
//! (§2.2).

use crate::bucket::Bucket;
use crate::params::Params;
use crate::remap::{mask64, RemapFn};
use crate::stats::{Maint, MaintRecord};
use index_traits::{Key, Value};
use std::time::Instant;

/// Bound on the iterations of one insert's loop, in both indexes: fast-path
/// attempts, in-place repairs and split / doubling steps alike. A converging
/// insert needs a handful; hitting the bound is a bug, and panics.
pub(crate) const MAX_INSERT_STEPS: u32 = 10_000;

/// Outcome of attempting a remapping (§3.3, Algorithm 1 lines 8/15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapOutcome {
    /// The function was adjusted by stealing buckets; segment size unchanged.
    Stole,
    /// Stealing failed; the segment grew so the target sub-range doubled.
    Grew,
    /// Growth would exceed the segment-size cap: remapping failed.
    Failed,
}

/// Outcome of [`Segment::repair_in_place`], Algorithm 1's decision for a
/// full bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// The remapping function was adjusted ([`Segment::remap_adjust`]).
    Remapped,
    /// The segment doubled ([`Segment::expand`]).
    Expanded,
    /// No in-place fix applies; the segment is untouched and must be split
    /// (after a directory doubling when `LD == GD`).
    NeedsSplit,
}

/// Outcome of [`Segment::upsert_in_bucket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketUpsert {
    /// The key existed; its value was replaced in place.
    Updated,
    /// The pair was inserted; the segment's key count grew by one.
    Inserted,
    /// The bucket is at capacity; the caller must run maintenance.
    Full,
}

/// A segment: local depth, remapping function, and bucket array.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Local depth `LD`: all keys share the top `LD` bits of the EH sub-key.
    pub local_depth: u32,
    /// The piecewise-linear remapping function (approximated CDF).
    pub remap: RemapFn,
    /// Buckets; length is always `remap.total_buckets()`.
    pub buckets: Vec<Bucket>,
    /// Per-bucket lengths, parallel to `buckets` (`occupancy[b]` always
    /// equals `buckets[b].len()`). Probes and scans consult this 2-byte-per-
    /// bucket array to skip empty buckets, touching one cache line per 32
    /// buckets instead of one 48-byte `Bucket` header each.
    pub occupancy: Vec<u16>,
    /// Number of keys stored across all buckets.
    pub num_keys: usize,
    /// Consecutive remappings since the last split/expansion. Each remap in
    /// a streak doubles the granted bucket count, so a key distribution
    /// that keeps outgrowing its sub-range (e.g. an advancing timestamp
    /// band) costs O(log) remaps per segment instead of O(segment/bucket):
    /// the O(segment) rebuild per remap stays, but the rebuild count is
    /// amortized geometrically.
    pub remap_streak: u32,
}

impl Segment {
    /// A fresh one-bucket segment with the identity remapping function.
    pub fn new(local_depth: u32) -> Self {
        Segment {
            local_depth,
            remap: RemapFn::identity(),
            buckets: vec![Bucket::default()],
            occupancy: vec![0],
            num_keys: 0,
            remap_streak: 0,
        }
    }

    /// Number of key bits of this segment: `m = m_total − LD`.
    #[inline]
    pub fn key_bits(&self, m_total: u32) -> u32 {
        m_total - self.local_depth
    }

    /// Within-segment key of EH sub-key `sk`.
    #[inline]
    pub fn local_key(&self, sk: u64, m_total: u32) -> u64 {
        sk & mask64(self.key_bits(m_total))
    }

    /// Total bucket count.
    #[inline]
    pub fn total_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Segment capacity in keys.
    #[inline]
    pub fn capacity(&self, params: &Params) -> usize {
        self.buckets.len() * params.bucket_entries
    }

    /// Key utilization `U_s` of the whole segment.
    #[inline]
    pub fn utilization(&self, params: &Params) -> f64 {
        self.num_keys as f64 / self.capacity(params) as f64
    }

    /// Bucket index for within-segment key `k`.
    #[inline]
    pub fn bucket_of(&self, k: u64, m_total: u32) -> usize {
        self.remap.bucket_index(k, self.key_bits(m_total))
    }

    /// Structural position `(bucket, slot)` of the first pair with key
    /// `>= key` (EH sub-key `sk`): one remap prediction, one lower bound.
    /// Bucket indices are monotone in the key (§3.2), so every pair at or
    /// after it qualifies.
    #[inline]
    pub fn seek(&self, sk: u64, key: Key, m_total: u32) -> (usize, usize) {
        let b = self.bucket_of(self.local_key(sk, m_total), m_total);
        (b, self.buckets[b].lower_bound(key))
    }

    /// Length of bucket `b` read from the occupancy array (no bucket deref).
    #[inline]
    pub fn bucket_len(&self, b: usize) -> usize {
        self.occupancy[b] as usize
    }

    /// Inserts or updates `(key, value)` in bucket `b`, keeping the
    /// occupancy array and the segment key count in sync. `cap` is the
    /// per-bucket slot capacity.
    pub fn upsert_in_bucket(
        &mut self,
        b: usize,
        key: Key,
        value: Value,
        cap: usize,
    ) -> BucketUpsert {
        let bucket = &mut self.buckets[b];
        if bucket.update(key, value) {
            return BucketUpsert::Updated;
        }
        if bucket.len() >= cap {
            return BucketUpsert::Full;
        }
        bucket.insert(key, value);
        self.occupancy[b] += 1;
        self.num_keys += 1;
        BucketUpsert::Inserted
    }

    /// Removes `key` from bucket `b`, keeping the occupancy array and the
    /// segment key count in sync.
    pub fn remove_from_bucket(&mut self, b: usize, key: Key) -> Option<Value> {
        if self.occupancy[b] == 0 {
            return None;
        }
        let v = self.buckets[b].remove(key)?;
        self.occupancy[b] -= 1;
        self.num_keys -= 1;
        Some(v)
    }

    /// Searches for full key `key` (with EH sub-key `sk`).
    pub fn get(&self, sk: u64, key: Key, m_total: u32, params: &Params) -> Option<Value> {
        let m = self.key_bits(m_total);
        let k = sk & mask64(m);
        let b = self.remap.bucket_index(k, m);
        if self.occupancy[b] == 0 {
            return None; // Empty bucket: skip the probe entirely.
        }
        let bucket = &self.buckets[b];
        let hint = self.remap.slot_hint(k, m, params.bucket_entries);
        match bucket.search_from_hint(key, hint) {
            Ok(i) => Some(bucket.vals()[i]),
            Err(_) => None,
        }
    }

    /// Walks buckets from `(b, slot)` on, bulk-appending pairs until `out`
    /// reaches `count` entries or the segment is exhausted. Returns `true`
    /// when the count was hit, `false` when the segment ran out. The
    /// occupancy array lets the walk skip empty buckets without
    /// dereferencing them.
    pub fn walk_from(
        &self,
        mut b: usize,
        mut slot: usize,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        let nb = self.buckets.len();
        while b < nb {
            if out.len() >= count {
                return true;
            }
            // Hint the next bucket's arrays in while this one is copied:
            // split key/value vectors mean the walk touches two unrelated
            // cachelines per bucket, which the hardware stride prefetcher
            // does not pick up across the Vec indirection.
            if b + 1 < nb {
                crate::simd::prefetch_slice(self.buckets[b + 1].keys());
                crate::simd::prefetch_slice(self.buckets[b + 1].vals());
            }
            let blen = self.bucket_len(b);
            if slot < blen {
                slot += self.buckets[b].append_range(slot, count - out.len(), out);
                if slot < blen {
                    return true; // Count hit mid-bucket.
                }
            }
            b += 1;
            slot = 0;
        }
        false
    }

    /// All key-value pairs in ascending key order.
    ///
    /// Bucket order equals remapped-key order, and the remapping function is
    /// monotone in the raw key, so concatenating buckets yields sorted pairs.
    pub fn sorted_pairs(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::with_capacity(self.num_keys);
        for b in &self.buckets {
            out.extend(b.keys().iter().copied().zip(b.vals().iter().copied()));
        }
        out
    }

    /// Rebuilds a segment from sorted `pairs` using `remap`, adjusting the
    /// function until every key fits its bucket.
    ///
    /// When a bucket overflows the fix is decisive: the function is refined
    /// along the overflowing key group's common prefix in one step (no
    /// intermediate rebuilds), so the retry count is linear in the number of
    /// over-full groups rather than the refinement depth.
    pub fn build(
        local_depth: u32,
        mut remap: RemapFn,
        pairs: &[(Key, Value)],
        m_total: u32,
        params: &Params,
    ) -> Self {
        let m = m_total - local_depth;
        let maskm = mask64(m);
        let cap = params.bucket_entries;
        'retry: loop {
            let total = remap.total_buckets();
            // Buckets are fixed-size (2 KiB by default): reserve the full
            // slot capacity up front, as the paper's memory analysis
            // assumes ("each key must be stored in a particular bucket",
            // §4.3).
            let mut buckets: Vec<Bucket> = (0..total).map(|_| Bucket::with_capacity(cap)).collect();
            // `pairs` is sorted and the function is monotone, so every
            // bucket owns a contiguous slice. Walk the leaves in key order
            // and cut each bucket's slice arithmetically instead of paying a
            // tree descent per key. `cum` mirrors the stored per-leaf cums:
            // `leaves` yields key order and the cums are the prefix sums of
            // the counts in that order.
            let mut i = 0usize;
            let mut cum = 0u32;
            for leaf in remap.leaves(m) {
                let w = m - leaf.depth;
                let leaf_end = if w >= m || leaf.start + (1u64 << w) > maskm {
                    pairs.len()
                } else {
                    let end = leaf.start + (1u64 << w);
                    i + pairs[i..].partition_point(|&(key, _)| (key & maskm) < end)
                };
                if leaf.count == 0 {
                    // Zero-count piece: its keys clamp into the next piece's
                    // first bucket (the last bucket at the tail), exactly as
                    // `bucket_index` resolves them.
                    let b = cum.min(total - 1) as usize;
                    // Hint the next run's input in while this one copies.
                    crate::simd::prefetch_slice(&pairs[leaf_end..]);
                    match fill_bucket(&mut buckets[b], &pairs[i..leaf_end], cap, maskm) {
                        Ok(()) => i = leaf_end,
                        Err((k_first, k_last)) => {
                            fix_overflow(&mut remap, k_first, k_last, m);
                            continue 'retry;
                        }
                    }
                    continue;
                }
                for j in 0..leaf.count {
                    let hi = if j + 1 == leaf.count {
                        leaf_end
                    } else {
                        // First offset past bucket `j` of this piece:
                        // ceil((j + 1) · 2^w / count), the inverse of
                        // bucket = floor(off · count / 2^w).
                        let c = leaf.count as u128;
                        let off_end = (((j + 1) as u128) << w).div_ceil(c);
                        let key_end = leaf.start + off_end as u64;
                        i + pairs[i..leaf_end].partition_point(|&(key, _)| (key & maskm) < key_end)
                    };
                    let b = (cum + j) as usize;
                    // Hint the next run's input in while this one copies.
                    crate::simd::prefetch_slice(&pairs[hi..]);
                    match fill_bucket(&mut buckets[b], &pairs[i..hi], cap, maskm) {
                        Ok(()) => i = hi,
                        Err((k_first, k_last)) => {
                            fix_overflow(&mut remap, k_first, k_last, m);
                            continue 'retry;
                        }
                    }
                }
                cum += leaf.count;
            }
            debug_assert_eq!(i, pairs.len());
            let occupancy = buckets.iter().map(|b| b.len() as u16).collect();
            return Segment {
                local_depth,
                remap,
                buckets,
                occupancy,
                num_keys: pairs.len(),
                remap_streak: 0,
            };
        }
    }

    /// Number of keys stored in each piece (leaf) of the remapping function,
    /// in key order.
    pub fn keys_per_piece(&self, m_total: u32) -> Vec<usize> {
        let m = self.key_bits(m_total);
        let pairs = self.sorted_pairs();
        let maskm = mask64(m);
        self.remap
            .leaves(m)
            .iter()
            .map(|leaf| {
                let w = m - leaf.depth;
                let lo = pairs.partition_point(|&(key, _)| (key & maskm) < leaf.start);
                let hi = if w >= m || leaf.start + (1u64 << w) > maskm {
                    pairs.len()
                } else {
                    let end = leaf.start + (1u64 << w);
                    pairs.partition_point(|&(key, _)| (key & maskm) < end)
                };
                hi - lo
            })
            .collect()
    }

    /// The paper's remapping operation (§3.3). `k` is the within-segment key
    /// whose bucket overflowed. On success the segment is rebuilt in place.
    ///
    /// `max_buckets` is the segment-size cap `Limit_seg(LD)`; growth beyond
    /// it makes the remapping fail (Algorithm 1 then falls back to split or
    /// directory doubling).
    pub fn remap_adjust(
        &mut self,
        k: u64,
        m_total: u32,
        max_buckets: usize,
        params: &Params,
    ) -> RemapOutcome {
        let m = self.key_bits(m_total);
        let cap = params.bucket_entries as f64;
        let ut = params.utilization_threshold;
        let mut remap = self.remap.clone();
        let pairs = self.sorted_pairs();
        let maskm = mask64(m);

        let keys_in = |start: u64, depth: u32| -> usize {
            let w = m - depth;
            let lo = pairs.partition_point(|&(key, _)| (key & maskm) < start);
            let hi = if w >= m || start + (1u64 << w) > maskm {
                pairs.len()
            } else {
                let end = start + (1u64 << w);
                pairs.partition_point(|&(key, _)| (key & maskm) < end)
            };
            hi - lo
        };

        // Step 1 (Figure 7): refine sub-ranges until the target sub-range's
        // own utilization exceeds U_t — i.e., until the function is
        // fine-grained enough to expose where the density actually is.
        // (A zero-bucket target counts as fully utilized.)
        loop {
            let leaf = remap.locate(k, m);
            let keys_t = keys_in(leaf.start, leaf.depth);
            let util = if leaf.count == 0 {
                f64::INFINITY
            } else {
                keys_t as f64 / (leaf.count as f64 * cap)
            };
            if util > ut || leaf.depth >= m {
                break;
            }
            remap.refine_at(k, m);
        }

        // Step 2: try to steal buckets from low-utilization sub-ranges;
        // each donor keeps enough buckets to stay above U_t (empty donors
        // may give everything away). The paper's grant is a doubling of the
        // target sub-range (`base`); consecutive remaps escalate the grant
        // geometrically (see `remap_streak`) up to the segment's own size,
        // so repeatedly-remapping segments converge in O(log) remaps.
        let boost = 1u32 << self.remap_streak.min(10);
        let target = remap.locate(k, m);
        let base = target.count.max(1);
        let desired = base
            .saturating_mul(boost)
            .min(remap.total_buckets().max(base));
        let mut donors: Vec<(crate::remap::NodeId, u32, u32)> = Vec::new();
        let mut available = 0u32;
        for leaf in remap.leaves(m) {
            if leaf.id == target.id || leaf.count == 0 {
                continue;
            }
            let keys_r = keys_in(leaf.start, leaf.depth) as f64;
            let util_r = keys_r / (leaf.count as f64 * cap);
            if util_r < ut {
                let min_keep = (keys_r / (ut * cap)).ceil() as u32;
                if leaf.count > min_keep {
                    donors.push((leaf.id, leaf.count - min_keep, leaf.count));
                    available += leaf.count - min_keep;
                }
            }
        }

        let outcome = if available >= base {
            // Steal, preferring the emptiest donors first (largest
            // surplus). Stealing moves capacity without growing the
            // segment, so the escalated amount is taken when available.
            let take_total = desired.min(available);
            donors.sort_by_key(|d| std::cmp::Reverse(d.1));
            let mut remaining = take_total;
            for (id, surplus, count) in donors {
                if remaining == 0 {
                    break;
                }
                let take = surplus.min(remaining);
                remap.set_leaf_count(id, count - take);
                remaining -= take;
            }
            remap.set_leaf_count(target.id, target.count + take_total);
            RemapOutcome::Stole
        } else {
            // Growth path: grant at least the paper's doubling, more under
            // a streak, but never push the segment's utilization below 1/4
            // (growth is real memory; steals are not).
            let total = remap.total_buckets();
            let max_by_util = ((self.num_keys * 4 / params.bucket_entries) as u32)
                .max(total.saturating_add(base));
            let grant = desired.min(max_by_util.saturating_sub(total)).max(base);
            if total as usize + base as usize > max_buckets {
                return RemapOutcome::Failed;
            }
            let grant = grant.min((max_buckets - total as usize) as u32);
            remap.set_leaf_count(target.id, target.count + grant);
            RemapOutcome::Grew
        };
        remap.recompute_cums();
        let streak = self.remap_streak + 1;
        *self = Segment::build(self.local_depth, remap, &pairs, m_total, params);
        self.remap_streak = streak;
        outcome
    }

    /// The paper's expansion operation: double the segment size, doubling the
    /// slopes. Fails (returns `false`) if the cap would be exceeded.
    pub fn expand(&mut self, m_total: u32, max_buckets: usize, params: &Params) -> bool {
        if self.total_buckets() * 2 > max_buckets {
            return false;
        }
        let mut remap = self.remap.clone();
        remap.expand();
        let pairs = self.sorted_pairs();
        *self = Segment::build(self.local_depth, remap, &pairs, m_total, params);
        true
    }

    /// Algorithm 1's in-place step for a segment whose bucket for
    /// within-segment key `k` is full: the one place that chooses between
    /// remapping, expansion and split. Below `L_start` the table is plain
    /// Extendible hashing (always split); from there on the utilization
    /// threshold `U_t` arbitrates — a well-utilized segment expands if it
    /// owns its whole directory range (`LD == GD`) and otherwise splits, a
    /// poorly utilized one remaps. An expansion or remapping that would
    /// exceed `max_buckets` (`Limit_seg(LD)`) falls back to a split. A
    /// remap or expansion is noted in the table's `record`.
    pub(crate) fn repair_in_place(
        &mut self,
        k: u64,
        global_depth: u32,
        m_total: u32,
        max_buckets: usize,
        params: &Params,
        record: &MaintRecord,
    ) -> Repair {
        let ld = self.local_depth;
        if ld < params.l_start {
            return Repair::NeedsSplit;
        }
        let (t0, moved) = (Instant::now(), self.num_keys as u64);
        if self.utilization(params) > params.utilization_threshold {
            if ld == global_depth && self.expand(m_total, max_buckets, params) {
                record.note(Maint::Expand, moved, t0);
                return Repair::Expanded;
            }
        } else if self.remap_adjust(k, m_total, max_buckets, params) != RemapOutcome::Failed {
            record.note(Maint::Remap, moved, t0);
            return Repair::Remapped;
        }
        Repair::NeedsSplit
    }

    /// The deletion-merge rule (§3.3): a multi-bucket segment whose
    /// utilization fell below `shrink_threshold` shrinks
    /// ([`Segment::shrink`]), noted in the table's `record`. Returns
    /// whether it shrank.
    pub(crate) fn shrink_if_sparse(
        &mut self,
        m_total: u32,
        params: &Params,
        record: &MaintRecord,
    ) -> bool {
        if self.total_buckets() <= 1 || self.utilization(params) >= params.shrink_threshold {
            return false;
        }
        let (t0, moved) = (Instant::now(), self.num_keys as u64);
        let shrank = self.shrink(m_total, params);
        if shrank {
            record.note(Maint::Shrink, moved, t0);
        }
        shrank
    }

    /// Splits the segment into two halves of its key range (§3.3). Each new
    /// segment gets twice the buckets its half's keys need, keeping the
    /// sub-range slopes of that half.
    pub fn split(&self, m_total: u32, params: &Params) -> (Segment, Segment) {
        let m = self.key_bits(m_total);
        debug_assert!(m >= 1, "cannot split a single-key segment");
        let pairs = self.sorted_pairs();
        let half = 1u64 << (m - 1);
        let maskm = mask64(m);
        let mid = pairs.partition_point(|&(key, _)| (key & maskm) < half);
        let (left_pairs, right_pairs) = pairs.split_at(mid);

        let (lf, rf) = self.remap.split_halves();
        let new_ld = self.local_depth + 1;
        let left = Self::split_half(new_ld, lf, left_pairs, m_total, params);
        let right = Self::split_half(new_ld, rf, right_pairs, m_total, params);
        (left, right)
    }

    /// Builds one half of a split: size = 2 × the buckets needed for the
    /// half's keys, distributed proportionally to the half's old slopes.
    fn split_half(
        new_ld: u32,
        mut remap: RemapFn,
        pairs: &[(Key, Value)],
        m_total: u32,
        params: &Params,
    ) -> Segment {
        let needed = (pairs.len() as u32).div_ceil(params.bucket_entries as u32);
        let target = (2 * needed).max(1);
        remap.scale_to(target);
        Segment::build(new_ld, remap, pairs, m_total, params)
    }

    /// Shrinks an under-utilized segment (deletion merge, §3.3 — "similar to
    /// remapping but in the opposite direction"): resizes every sub-range to
    /// what its remaining keys need at utilization `U_t` and rebuilds.
    /// Returns `false` without rebuilding when that would not actually
    /// reduce the segment, so deletion storms cannot trigger repeated O(n)
    /// rebuilds.
    pub fn shrink(&mut self, m_total: u32, params: &Params) -> bool {
        if self.total_buckets() <= 1 {
            return false;
        }
        let m = self.key_bits(m_total);
        let pairs = self.sorted_pairs();
        let maskm = mask64(m);
        let cap = params.bucket_entries as f64;
        let ut = params.utilization_threshold;
        let mut remap = self.remap.clone();
        let leaves = remap.leaves(m);
        let mut new_total = 0u64;
        let mut plan: Vec<(crate::remap::NodeId, u32)> = Vec::with_capacity(leaves.len());
        for leaf in &leaves {
            let w = m - leaf.depth;
            let lo = pairs.partition_point(|&(key, _)| (key & maskm) < leaf.start);
            let hi = if w >= m || leaf.start + (1u64 << w) > maskm {
                pairs.len()
            } else {
                let end = leaf.start + (1u64 << w);
                pairs.partition_point(|&(key, _)| (key & maskm) < end)
            };
            let count = (((hi - lo) as f64) / (ut * cap)).ceil() as u32;
            new_total += count as u64;
            plan.push((leaf.id, count));
        }
        if new_total == 0 {
            // Keep one bucket on the first leaf.
            plan[0].1 = 1;
            new_total = 1;
        }
        if new_total as usize >= self.total_buckets() {
            return false;
        }
        for (id, count) in plan {
            remap.set_leaf_count(id, count);
        }
        remap.recompute_cums();
        *self = Segment::build(self.local_depth, remap, &pairs, m_total, params);
        true
    }

    /// Heap bytes held by the segment.
    pub fn heap_bytes(&self) -> usize {
        self.remap.heap_bytes()
            + self.buckets.capacity() * std::mem::size_of::<Bucket>()
            + self.occupancy.capacity() * std::mem::size_of::<u16>()
            + self.buckets.iter().map(Bucket::heap_bytes).sum::<usize>()
    }
}

/// The §3.3 adaptive segment-size rule ("Selecting a segment size"): the
/// limit multiplier a table adopts once it has gathered maintenance
/// history — `limit_mult_raised` when expansions make up at least
/// `expansion_heavy_fraction` of the splits, expansions and remaps so far
/// (a uniform-ish dataset), the default `limit_mult` otherwise.
pub fn adaptive_limit_mult(splits: u64, expansions: u64, remaps: u64, params: &Params) -> u32 {
    let total = splits + expansions + remaps;
    if total > 0 && expansions as f64 / total as f64 >= params.expansion_heavy_fraction {
        params.limit_mult_raised
    } else {
        params.limit_mult
    }
}

/// Appends a sorted run into `bucket`, or reports the overflowing key group
/// (`Err((k_first, k_last))`, within-segment keys) when it would exceed
/// `cap`. The group is the bucket's existing first key (or the run's, if the
/// bucket is empty) through the first key that does not fit — the same pair
/// a per-key fill would have handed to [`fix_overflow`].
fn fill_bucket(
    bucket: &mut Bucket,
    run: &[(Key, Value)],
    cap: usize,
    maskm: u64,
) -> Result<(), (u64, u64)> {
    if bucket.len() + run.len() > cap {
        let k_first = if bucket.is_empty() {
            run[0].0 & maskm
        } else {
            bucket.keys()[0] & maskm
        };
        let k_last = run[cap - bucket.len()].0 & maskm;
        debug_assert!(k_first < k_last);
        return Err((k_first, k_last));
    }
    bucket.extend_sorted(run);
    Ok(())
}

/// Adjusts `remap` so the over-full key group `[k_first, k_last]` no longer
/// shares one bucket: refine along the group's common prefix until the two
/// ends fall into different pieces (one descent, no intermediate rebuilds),
/// keeping at least one bucket on each end's piece. When the ends already
/// sit in different pieces, the spilling (zero-count) pieces get buckets.
fn fix_overflow(remap: &mut RemapFn, k_first: u64, k_last: u64, m: u32) {
    let mut guard = 0;
    while remap.locate(k_first, m).id == remap.locate(k_last, m).id {
        let leaf = remap.locate(k_first, m);
        if leaf.depth >= m || !remap.refine_at(k_first, m) {
            break;
        }
        guard += 1;
        debug_assert!(guard <= 64);
    }
    // Make sure both ends own buckets, and give the first end twice its
    // current share so the group's keys gain room even when the refinement
    // lands all of them on one side.
    let a = remap.locate(k_first, m);
    remap.set_leaf_count(a.id, (a.count * 2).max(1));
    let b = remap.locate(k_last, m);
    if b.count == 0 {
        remap.set_leaf_count(b.id, 1);
    }
    remap.recompute_cums();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> Params {
        Params {
            bucket_entries: 4,
            ..Params::default()
        }
    }

    #[test]
    fn adaptive_limit_needs_an_expansion_share() {
        let p = Params::default();
        assert_eq!(adaptive_limit_mult(0, 0, 0, &p), p.limit_mult);
        assert_eq!(adaptive_limit_mult(3, 2, 0, &p), p.limit_mult);
        // Exactly at `expansion_heavy_fraction` (0.5) counts as heavy.
        assert_eq!(adaptive_limit_mult(1, 2, 1, &p), p.limit_mult_raised);
        assert_eq!(adaptive_limit_mult(0, 5, 0, &p), p.limit_mult_raised);
    }

    /// Builds a segment at `ld` containing `keys` (within-segment keys used
    /// directly as full keys; fine for `m_total`-bit tests).
    fn seg_with(ld: u32, keys: &[u64], m_total: u32, p: &Params) -> Segment {
        let mut pairs: Vec<(Key, Value)> = keys.iter().map(|&k| (k, k + 1)).collect();
        pairs.sort_unstable();
        Segment::build(ld, RemapFn::identity(), &pairs, m_total, p)
    }

    #[test]
    fn build_places_all_keys_and_stays_sorted() {
        let p = small_params();
        let keys: Vec<u64> = (0..64).map(|i| i * 3 % 256).collect();
        let mut uniq: Vec<u64> = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let seg = seg_with(0, &uniq, 8, &p);
        assert_eq!(seg.num_keys, uniq.len());
        let pairs = seg.sorted_pairs();
        let got: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, uniq);
        for &k in &uniq {
            assert_eq!(seg.get(k, k, 8, &p), Some(k + 1));
        }
    }

    #[test]
    fn build_grows_on_dense_cluster() {
        let p = small_params();
        // 16 consecutive keys force overflow of a single 4-entry bucket.
        let keys: Vec<u64> = (100..116).collect();
        let seg = seg_with(0, &keys, 8, &p);
        assert!(seg.total_buckets() >= 4);
        for &k in &keys {
            assert_eq!(seg.get(k, k, 8, &p), Some(k + 1));
        }
    }

    #[test]
    fn build_handles_deep_cluster_in_wide_range() {
        // The pathological case that motivates adaptive refinement: a tight
        // cluster at the bottom of a 48-bit key range. The build must
        // converge quickly and keep the bucket count linear in the keys.
        let p = small_params();
        let keys: Vec<u64> = (0..512u64).map(|i| i * 3).collect();
        let seg = seg_with(0, &keys, 48, &p);
        assert_eq!(seg.num_keys, 512);
        assert!(
            seg.total_buckets() <= 8 * (512 / p.bucket_entries) + 64,
            "bucket explosion: {}",
            seg.total_buckets()
        );
        for &k in keys.iter().step_by(17) {
            assert_eq!(seg.get(k, k, 48, &p), Some(k + 1));
        }
    }

    #[test]
    fn expand_doubles_buckets_and_keeps_keys() {
        let p = small_params();
        let keys: Vec<u64> = (0..16).map(|i| i * 16).collect();
        let mut seg = seg_with(0, &keys, 8, &p);
        let before = seg.total_buckets();
        assert!(seg.expand(8, 1024, &p));
        assert!(seg.total_buckets() >= before * 2);
        for &k in &keys {
            assert_eq!(seg.get(k, k, 8, &p), Some(k + 1));
        }
    }

    #[test]
    fn expand_respects_cap() {
        let p = small_params();
        let mut seg = seg_with(0, &[1, 2], 8, &p);
        assert!(!seg.expand(8, 1, &p));
        assert_eq!(seg.total_buckets(), 1);
    }

    #[test]
    fn split_partitions_by_top_bit() {
        let p = small_params();
        let keys: Vec<u64> = (0..32).map(|i| i * 8).collect(); // Spread over [0, 256).
        let seg = seg_with(0, &keys, 8, &p);
        let (l, r) = seg.split(8, &p);
        assert_eq!(l.local_depth, 1);
        assert_eq!(r.local_depth, 1);
        assert_eq!(l.num_keys + r.num_keys, keys.len());
        for pair in l.sorted_pairs() {
            assert!(pair.0 < 128);
        }
        for pair in r.sorted_pairs() {
            assert!(pair.0 >= 128);
        }
        for &k in &keys {
            let half = if k < 128 { &l } else { &r };
            assert_eq!(half.get(k, k, 8, &p), Some(k + 1));
        }
    }

    #[test]
    fn split_sizes_track_skew() {
        let p = small_params();
        // All 16 keys in the right half: right segment gets more buckets.
        let keys: Vec<u64> = (0..16).map(|i| 128 + i * 8).collect();
        let seg = seg_with(0, &keys, 8, &p);
        let (l, r) = seg.split(8, &p);
        assert!(r.total_buckets() >= l.total_buckets());
        assert_eq!(l.num_keys, 0);
        assert_eq!(r.num_keys, 16);
    }

    #[test]
    fn remap_steals_from_sparse_subranges() {
        let p = small_params();
        // Build a segment with 4 sub-ranges x 2 buckets (m = 8). Cluster all
        // keys in sub-range 1 ([64, 128)).
        let remap = RemapFn::from_counts(vec![2, 2, 2, 2]);
        let pairs: Vec<(Key, Value)> = (64..72).map(|k| (k, k)).collect();
        let mut seg = Segment::build(0, remap, &pairs, 8, &p);
        let outcome = seg.remap_adjust(65, 8, 1024, &p);
        assert_ne!(outcome, RemapOutcome::Failed);
        for k in 64..72u64 {
            assert_eq!(seg.get(k, k, 8, &p), Some(k));
        }
    }

    #[test]
    fn remap_fails_when_cap_blocks_growth() {
        let p = small_params();
        // Every sub-range nearly full: no donors, growth capped.
        let remap = RemapFn::from_counts(vec![1, 1]);
        let pairs: Vec<(Key, Value)> = (0..8).map(|k| (k * 32, k)).collect();
        let mut seg = Segment::build(0, remap, &pairs, 8, &p);
        let cap = seg.total_buckets(); // No room to grow.
        let outcome = seg.remap_adjust(0, 8, cap, &p);
        assert_eq!(outcome, RemapOutcome::Failed);
    }

    #[test]
    fn remap_converges_on_deep_cluster() {
        let p = small_params();
        // Tight cluster at the bottom of a 40-bit range; remap_adjust must
        // refine adaptively rather than inflating the segment.
        let pairs: Vec<(Key, Value)> = (0..64u64).map(|k| (k * 2, k)).collect();
        let mut seg = Segment::build(0, RemapFn::identity(), &pairs, 40, &p);
        let before = seg.total_buckets();
        let outcome = seg.remap_adjust(10, 40, 1 << 20, &p);
        assert_ne!(outcome, RemapOutcome::Failed);
        assert!(
            seg.total_buckets() < before * 16 + 64,
            "unbounded growth: {} -> {}",
            before,
            seg.total_buckets()
        );
        for &(k, v) in &pairs {
            assert_eq!(seg.get(k, k, 40, &p), Some(v));
        }
    }

    #[test]
    fn shrink_compacts_sparse_segment() {
        let p = small_params();
        let remap = RemapFn::from_counts(vec![4, 4]);
        let pairs: Vec<(Key, Value)> = vec![(10, 1), (200, 2)];
        let mut seg = Segment::build(0, remap, &pairs, 8, &p);
        let before = seg.total_buckets();
        assert!(seg.shrink(8, &p));
        assert!(seg.total_buckets() < before);
        assert_eq!(seg.get(10, 10, 8, &p), Some(1));
        assert_eq!(seg.get(200, 200, 8, &p), Some(2));
    }

    #[test]
    fn shrink_refuses_when_not_profitable() {
        let p = small_params();
        // A nearly full segment must not shrink.
        let keys: Vec<u64> = (0..8).map(|i| i * 32).collect();
        let mut seg = seg_with(0, &keys, 8, &p);
        let before = seg.total_buckets();
        let _ = seg.shrink(8, &p);
        // Either it declined, or it genuinely reduced while keeping keys.
        assert!(seg.total_buckets() <= before);
        assert_eq!(seg.num_keys, 8);
    }

    #[test]
    fn keys_per_piece_counts_match() {
        let p = small_params();
        let remap = RemapFn::from_counts(vec![1, 1, 1, 1]);
        let pairs: Vec<(Key, Value)> = vec![(0, 0), (65, 0), (66, 0), (200, 0)];
        let seg = Segment::build(0, remap, &pairs, 8, &p);
        assert_eq!(seg.keys_per_piece(8), vec![1, 2, 0, 1]);
    }

    #[test]
    fn occupancy_tracks_bucket_lengths() {
        let p = small_params();
        let keys: Vec<u64> = (0..32).map(|i| i * 7).collect();
        let mut seg = seg_with(0, &keys, 8, &p);
        for (b, bucket) in seg.buckets.iter().enumerate() {
            assert_eq!(seg.occupancy[b] as usize, bucket.len());
        }
        let b = seg.bucket_of(seg.local_key(7, 8), 8);
        assert_eq!(seg.remove_from_bucket(b, 7), Some(8));
        assert_eq!(seg.bucket_len(b), seg.buckets[b].len());
        assert_eq!(seg.remove_from_bucket(b, 7), None);
        assert_eq!(
            seg.upsert_in_bucket(b, 7, 9, p.bucket_entries),
            BucketUpsert::Inserted
        );
        assert_eq!(
            seg.upsert_in_bucket(b, 7, 10, p.bucket_entries),
            BucketUpsert::Updated
        );
        assert_eq!(seg.bucket_len(b), seg.buckets[b].len());
        assert_eq!(seg.num_keys, keys.len());
    }

    #[test]
    fn upsert_reports_full_without_changing_state() {
        let p = small_params();
        let keys: Vec<u64> = (0..4).collect(); // Fills one 4-slot bucket.
        let mut seg = seg_with(0, &keys, 8, &p);
        let b = seg.bucket_of(0, 8);
        assert_eq!(seg.bucket_len(b), 4);
        assert_eq!(
            seg.upsert_in_bucket(b, 100, 1, p.bucket_entries),
            BucketUpsert::Full
        );
        assert_eq!(seg.num_keys, 4);
        assert_eq!(seg.bucket_len(b), 4);
    }

    #[test]
    fn walk_from_streams_and_stops_at_count() {
        let p = small_params();
        let keys: Vec<u64> = (0..40).map(|i| i * 5).collect();
        let seg = seg_with(0, &keys, 8, &p);
        let mut all = Vec::new();
        assert!(!seg.walk_from(0, 0, usize::MAX, &mut all));
        assert_eq!(all, seg.sorted_pairs());

        // A count hit (mid-bucket or on a bucket edge) reports `true` and
        // leaves exactly the prefix of one pass.
        for count in [1, 7, 39] {
            let mut some = Vec::new();
            assert!(seg.walk_from(0, 0, count, &mut some));
            assert_eq!(some, all[..count]);
        }
        // Entered at `seek`'s position, the walk streams the tail.
        let (b, slot) = seg.seek(101, 101, 8);
        let mut tail = Vec::new();
        assert!(!seg.walk_from(b, slot, usize::MAX, &mut tail));
        assert_eq!(tail, all[all.partition_point(|&(k, _)| k < 101)..]);
    }

    #[test]
    fn utilization_reflects_fill() {
        let p = small_params();
        let pairs: Vec<(Key, Value)> = vec![(1, 1), (2, 2)];
        let seg = Segment::build(0, RemapFn::identity(), &pairs, 8, &p);
        assert!((seg.utilization(&p) - 0.5).abs() < 1e-9);
    }
}
