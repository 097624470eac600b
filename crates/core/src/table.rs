//! The second-level table (§3.1–§3.3) and its two latch modes (§3.4).
//!
//! A [`Table`] is an extendible-hash [`Directory`] over an arena of
//! segments, plus its key count. The paper uses that one structure two
//! ways: owned by one engine (H-Store, Redis Cluster), and shared under
//! two levels of reader/writer latches. The latch mode `M` says which:
//!
//! * [`Exclusive`] wraps each table and segment in [`Owned`], whose read
//!   is a plain borrow — [`crate::DyTis`];
//! * [`Latched`] wraps each in a reader/writer latch —
//!   [`crate::ConcurrentDyTis`], whose protocol is DESIGN.md §14.
//!
//! Lookup, the scan walk, the split step, the audit walk, the bulk build
//! and the memory and structure counts are written once, over `M`.
//! Algorithm 1's step for one insert is [`insert_step`] and the remove
//! step is [`remove_step`], both over a `(&Directory, &mut Segment)` pair.
//! The modes differ only in how their insert and remove loops borrow that
//! pair — `get_mut` in the exclusive mode; the table read latch, then one
//! segment write latch in the latched mode — and in the latched mode's
//! recheck under the table write latch before a split step.

use crate::directory::{Directory, SegId};
use crate::params::Params;
use crate::remap::{mask64, RemapFn};
use crate::segment::{BucketUpsert, Repair, Segment};
use crate::stats::Maint;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{RwLock, RwLockReadGuard};
use index_traits::{AuditReport, Key, Value};
use std::ops::Deref;
use std::time::Instant;

/// How an index reaches its tables and segments: see the module docs.
pub trait Mode: Sized + 'static {
    /// The cell around each first-level table and each segment.
    type Cell<T>;
    /// What [`Mode::read`] hands out: a borrow, or a read guard.
    type Read<'a, T: 'a>: Deref<Target = T>;
    /// Index name, as `name()` and the audit report give it.
    const NAME: &'static str;
    /// Wraps `value` in a cell.
    fn cell<T>(value: T) -> Self::Cell<T>;
    /// Shared access: a plain borrow, or a read latch.
    fn read<'a, T: 'a>(cell: &'a Self::Cell<T>) -> Self::Read<'a, T>;
    /// Access through `&mut`, which takes no latch in either mode.
    fn get_mut<T>(cell: &mut Self::Cell<T>) -> &mut T;
    /// Shared access where the mode needs no latch for it. The prefetch
    /// hints use it, and skip in the latched mode rather than take a latch
    /// for a hint.
    fn peek<T>(cell: &Self::Cell<T>) -> Option<&T>;
}

/// The exclusive mode: one owner, no latches ([`crate::DyTis`]).
#[derive(Debug, Clone, Copy)]
pub struct Exclusive;

/// The exclusive mode's cell: the value itself, reached as a plain `&T`.
#[repr(transparent)]
#[derive(Debug, Clone)]
pub struct Owned<T>(pub(crate) T);

impl Mode for Exclusive {
    type Cell<T> = Owned<T>;
    type Read<'a, T: 'a> = &'a T;
    const NAME: &'static str = "DyTIS";

    fn cell<T>(value: T) -> Owned<T> {
        Owned(value)
    }

    fn read<'a, T: 'a>(cell: &'a Owned<T>) -> &'a T {
        &cell.0
    }

    fn get_mut<T>(cell: &mut Owned<T>) -> &mut T {
        &mut cell.0
    }

    fn peek<T>(cell: &Owned<T>) -> Option<&T> {
        Some(&cell.0)
    }
}

/// The latched mode: a reader/writer latch on every table and every
/// segment ([`crate::ConcurrentDyTis`]).
#[derive(Debug, Clone, Copy)]
pub struct Latched;

impl Mode for Latched {
    type Cell<T> = RwLock<T>;
    type Read<'a, T: 'a> = RwLockReadGuard<'a, T>;
    const NAME: &'static str = "DyTIS (concurrent)";

    fn cell<T>(value: T) -> RwLock<T> {
        RwLock::new(value)
    }

    fn read<'a, T: 'a>(cell: &'a RwLock<T>) -> RwLockReadGuard<'a, T> {
        cell.read()
    }

    fn get_mut<T>(cell: &mut RwLock<T>) -> &mut T {
        cell.get_mut()
    }

    fn peek<T>(_: &RwLock<T>) -> Option<&T> {
        None
    }
}

/// One second-level table of DyTIS: its directory over an arena of
/// segments, and its key count.
pub struct Table<M: Mode> {
    /// Entries, `GD`, the §3.3 limit state and the maintenance record.
    pub(crate) dir: Directory,
    /// Segment arena, indexed by [`SegId`]. Segments are only ever split,
    /// never freed, so every slot is live. The arena grows only through
    /// `&mut Table` — under the table write latch in the latched mode, so
    /// no segment latch is held across a push.
    pub(crate) segs: Vec<M::Cell<Segment>>,
    /// Keys stored. Atomic because latched inserts into different segments
    /// of one table count under the shared table latch; the exclusive
    /// mode counts through `get_mut`. A latched update happens while the
    /// segment latch that covered the bucket change is held, so an audit
    /// (which holds that latch) never sees a key without its count.
    pub(crate) num_keys: AtomicUsize,
}

/// Outcome of [`insert_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The key existed; its value was replaced.
    Updated,
    /// The key was added; the caller counts it.
    Inserted,
    /// The bucket was full and an in-place repair (remap or expansion)
    /// made room; the insert retries.
    Repaired,
    /// No in-place repair applies: the caller takes the split step, then
    /// retries.
    NeedsSplit,
}

/// Algorithm 1's step for one insert of `key` (sub-key `sk`) into `seg`,
/// the segment `dir` names for it: upsert into its bucket, or, when the
/// bucket is full, the in-place repair ([`Segment::repair_in_place`]). A
/// repair changes only this segment's contents, so a shared borrow of the
/// directory and an exclusive one of the segment suffice.
pub(crate) fn insert_step(
    dir: &Directory,
    seg: &mut Segment,
    sk: u64,
    key: Key,
    value: Value,
    params: &Params,
) -> Step {
    let m_total = dir.m_total();
    let k = seg.local_key(sk, m_total);
    let b = seg.bucket_of(k, m_total);
    match seg.upsert_in_bucket(b, key, value, params.bucket_entries) {
        BucketUpsert::Updated => return Step::Updated,
        BucketUpsert::Inserted => return Step::Inserted,
        BucketUpsert::Full => {}
    }
    let cap = dir.segment_cap(seg.local_depth, params);
    match seg.repair_in_place(k, dir.global_depth(), m_total, cap, params, &dir.record) {
        Repair::NeedsSplit => Step::NeedsSplit,
        Repair::Remapped | Repair::Expanded => {
            #[cfg(debug_assertions)]
            debug_audit_segment(seg, m_total, params);
            Step::Repaired
        }
    }
}

/// Removes `key` (sub-key `sk`) from `seg`, the segment `dir` names for
/// it, and applies the deletion merge (§3.3): a shrink, like a repair,
/// changes only this segment's contents. The caller uncounts the key.
pub(crate) fn remove_step(
    dir: &Directory,
    seg: &mut Segment,
    sk: u64,
    key: Key,
    params: &Params,
) -> Option<Value> {
    let m_total = dir.m_total();
    let b = seg.bucket_of(seg.local_key(sk, m_total), m_total);
    let removed = seg.remove_from_bucket(b, key)?;
    if seg.shrink_if_sparse(m_total, params, &dir.record) {
        #[cfg(debug_assertions)]
        debug_audit_segment(seg, m_total, params);
    }
    Some(removed)
}

impl<M: Mode> Table<M> {
    /// An empty table indexing `m_total`-bit sub-keys.
    pub(crate) fn new(m_total: u32, params: &Params) -> Self {
        Table {
            dir: Directory::new(m_total, params),
            segs: vec![M::cell(Segment::new(0))],
            num_keys: AtomicUsize::new(0),
        }
    }

    /// Number of keys stored.
    #[inline]
    pub fn len(&self) -> usize {
        // Acquire pairs with the latched mode's Release count updates, so a
        // table observed non-empty has its inserts visible to the caller.
        self.num_keys.load(Ordering::Acquire)
    }

    /// Returns `true` if no keys are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global depth of the directory.
    #[inline]
    pub fn global_depth(&self) -> u32 {
        self.dir.global_depth()
    }

    /// The active segment-size limit multiplier (2 by default; 128 once the
    /// adaptive policy classifies the dataset as expansion-heavy).
    #[inline]
    pub fn active_limit_mult(&self) -> u32 {
        self.dir.active_limit_mult()
    }

    /// Structural memory in bytes: directory, the arena's cells (latches
    /// included) and the segments' buckets.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.dir.heap_bytes()
            + self.segs.capacity() * std::mem::size_of::<M::Cell<Segment>>()
            + self
                .segs
                .iter()
                .map(|s| M::read(s).heap_bytes())
                .sum::<usize>()
    }

    /// Walks key order from directory index `idx`, one span at a time,
    /// bulk-appending pairs until `out` holds `count` entries. The first
    /// segment is entered at the (bucket, slot) `first` picks in it, every
    /// later one at its start; in the latched mode each segment is walked
    /// under its own read latch, one at a time. Returns whether the count
    /// was filled; `false` means the table ran out first.
    pub(crate) fn walk(
        &self,
        mut idx: usize,
        first: impl FnOnce(&Segment) -> (usize, usize),
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        let entries = self.dir.entries();
        let mut first = Some(first);
        while idx < entries.len() {
            let seg = M::read(&self.segs[entries[idx] as usize]);
            let next = self.dir.next_index(idx, seg.local_depth);
            // Hint the next span's segment in while this one is walked, so
            // crossing a segment boundary does not stall on its first
            // bucket (the dominant cache miss on long scans).
            let after = entries
                .get(next)
                .and_then(|&n| M::peek(&self.segs[n as usize]));
            if let Some(bucket) = after.and_then(|s| s.buckets.first()) {
                crate::simd::prefetch_slice(bucket.keys());
            }
            let (b, slot) = first.take().map_or((0, 0), |f| f(&seg));
            if seg.walk_from(b, slot, count, out) {
                return true;
            }
            idx = next;
        }
        false
    }

    /// The split step for sub-key `sk`'s segment, under `&mut self` — the
    /// table write latch in the latched mode, so no segment latch is
    /// needed. A segment at global depth doubles the directory (the
    /// insert's retry then re-runs Algorithm 1 against the new `GD`, which
    /// may remap instead of splitting); any other splits: the left half
    /// keeps the segment's id, the right half is pushed onto the arena,
    /// and the directory span is pointed at both.
    pub(crate) fn split_step(&mut self, sk: u64, params: &Params) {
        let idx = self.dir.index(sk);
        let id = self.dir.entries()[idx];
        let m_total = self.dir.m_total();
        let seg = M::get_mut(&mut self.segs[id as usize]);
        if seg.local_depth == self.dir.global_depth() {
            self.dir.double(params);
            #[cfg(debug_assertions)]
            self.debug_audit(&[], params);
            return;
        }
        let t0 = Instant::now();
        let (left, right) = seg.split(m_total, params);
        let old = std::mem::replace(seg, left);
        let right_id = self.segs.len() as SegId;
        self.segs.push(M::cell(right));
        self.dir.install_split(idx, old.local_depth, id, right_id);
        self.dir.record.note(Maint::Split, old.num_keys as u64, t0);
        #[cfg(debug_assertions)]
        self.debug_audit(&[id, right_id], params);
    }

    /// Debug-build hook: audits the directory structure (no key walk)
    /// after a split or doubling, and the segments the step `rebuilt`.
    ///
    /// # Panics
    ///
    /// Panics if the table violates an invariant.
    #[cfg(debug_assertions)]
    fn debug_audit(&self, rebuilt: &[SegId], params: &Params) {
        let mut report = AuditReport::new(M::NAME);
        self.audit_into(None, 0, &mut report);
        for &id in rebuilt {
            let seg = M::read(&self.segs[id as usize]);
            let loc = format!("seg {id}");
            crate::audit::audit_segment(&seg, self.dir.m_total(), params, &loc, &mut report);
        }
        report.assert_clean();
    }

    /// Builds a table directly from strictly-sorted unique `pairs` (whose
    /// keys must fit `m_total` bits), mirroring ALEX's bulk load: the key
    /// range is halved recursively until each block fits one segment at the
    /// target utilization `U_t`, then every block trains a remapping
    /// function from its key histogram and fills buckets with sorted
    /// appends. No per-insert maintenance (split / remap / expand / double)
    /// runs at all.
    pub(crate) fn build_sorted(m_total: u32, pairs: &[(Key, Value)], params: &Params) -> Self {
        let mut table = Table::new(m_total, params);
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
            table.segs.push(M::cell(seg));
        }
        table.dir = Directory::built(m_total, gd, entries, params);
        *table.num_keys.get_mut() = pairs.len();
        #[cfg(debug_assertions)]
        {
            let mut report = AuditReport::new(M::NAME);
            table.audit_into(Some(params), 0, &mut report);
            report.assert_clean();
        }
        table
    }

    /// Audits the table as table `table_idx`: [`Directory::audit`] over the
    /// arena (deep when `params` is given), plus the arena's own
    /// invariant — every segment is named by the directory. The latched
    /// mode takes each segment's read latch in directory order, one at a
    /// time, under the caller's table latch.
    pub(crate) fn audit_into(
        &self,
        params: Option<&Params>,
        table_idx: usize,
        report: &mut AuditReport,
    ) {
        let keys = params.map(|p| (p, self.len()));
        let seg = |id: SegId| self.segs.get(id as usize).map(|s| M::read(s));
        self.dir.audit(table_idx, keys, report, seg);
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
}

impl Table<Exclusive> {
    /// Iterates over all live segments (for tests and introspection).
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.segs.iter().map(|s| &s.0)
    }
}

impl Clone for Table<Exclusive> {
    fn clone(&self) -> Self {
        Table {
            dir: self.dir.clone(),
            segs: self.segs.clone(),
            num_keys: AtomicUsize::new(self.len()),
        }
    }
}

/// Debug-build hook: audits one segment after a contents-changing
/// maintenance operation (remap, expansion, shrink, split).
///
/// # Panics
///
/// Panics if the segment violates an invariant.
#[cfg(debug_assertions)]
fn debug_audit_segment(seg: &Segment, m_total: u32, params: &Params) {
    let mut report = AuditReport::new("DyTIS segment");
    crate::audit::audit_segment(seg, m_total, params, "segment", &mut report);
    report.assert_clean();
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
    use crate::directory::TABLE_KEY_COUNT;
    use crate::{ConcurrentDyTis, DyTis, Index};
    use index_traits::{Auditable, KvIndex};

    /// `Params::small()` with 4,000 scrambled keys, all in table 0, audited
    /// clean — in both modes.
    fn grown() -> (DyTis, ConcurrentDyTis) {
        let mut idx = DyTis::with_params(Params::small());
        for k in 0..4_000u64 {
            idx.insert(k.wrapping_mul(0x9E3779B97F4A7C15) >> 2, k);
        }
        idx.check_invariants();
        (idx.clone(), idx.into())
    }

    /// Applies `corrupt` to table 0 of `idx` and asserts that the audit
    /// then reports one of `invariants`.
    fn trips<M: Mode>(mut idx: Index<M>, corrupt: fn(&mut Table<M>), invariants: &[&str]) {
        corrupt(M::get_mut(&mut idx.tables[0]));
        let report = idx.audit();
        let hit = report
            .violations
            .iter()
            .any(|v| invariants.contains(&v.invariant));
        assert!(hit, "{}: {:?}", M::NAME, report.violations);
    }

    /// Runs one seeded corruption against both modes.
    fn in_both_modes(
        exclusive: fn(&mut Table<Exclusive>),
        latched: fn(&mut Table<Latched>),
        invariants: &[&str],
    ) {
        let (e, l) = grown();
        trips(e, exclusive, invariants);
        trips(l, latched, invariants);
    }

    #[test]
    fn audit_detects_corrupted_table_key_count() {
        fn corrupt<M: Mode>(t: &mut Table<M>) {
            *t.num_keys.get_mut() += 1;
        }
        in_both_modes(corrupt, corrupt, &[TABLE_KEY_COUNT]);
    }

    #[test]
    fn audit_detects_dangling_directory_entry() {
        // Drop the newest segment: the directory still names it.
        fn corrupt<M: Mode>(t: &mut Table<M>) {
            t.segs.pop();
        }
        in_both_modes(corrupt, corrupt, &["dir-dangling"]);
    }

    #[test]
    fn audit_detects_unreferenced_segment() {
        fn corrupt<M: Mode>(t: &mut Table<M>) {
            t.segs.push(M::cell(Segment::new(0)));
        }
        in_both_modes(corrupt, corrupt, &["seg-unreferenced"]);
    }

    #[test]
    fn audit_detects_misplaced_key() {
        // Plant a key in the last bucket of a multi-bucket segment that the
        // remapping function maps to an earlier bucket; fix the key counts
        // so only ordering/placement trips.
        fn corrupt<M: Mode>(t: &mut Table<M>) {
            let seg = t
                .segs
                .iter_mut()
                .map(|s| M::get_mut(s))
                .find(|s| s.total_buckets() > 1)
                .expect("grown table has a multi-bucket segment");
            let last = seg.buckets.len() - 1;
            let _ = seg.buckets[last].insert(0, 0);
            seg.num_keys += 1;
            *t.num_keys.get_mut() += 1;
        }
        in_both_modes(corrupt, corrupt, &["key-placement", "key-order"]);
    }
}
