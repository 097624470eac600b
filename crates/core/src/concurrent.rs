//! Concurrent DyTIS (§3.4): one latch protocol, lock granularity as a
//! policy (DESIGN.md §14).
//!
//! [`Concurrent<G>`] is the shell. It owns everything the paper's scheme
//! and the optimistic read path need regardless of granularity: the
//! per-table directory lock, the [`Slot`] wrapper around every segment
//! (version / retired flag / segment lock), the epoch-published directory
//! snapshot, the bounded read ladder with its locked fallback, the insert
//! retry loop, Algorithm 1's decision step, split / doubling installation,
//! the counters and the audit. A [`Granularity`] supplies only what sits
//! behind the slot lock and how it is probed, walked, updated and staged
//! for repair: [`SegmentLocks`] is the paper's scheme
//! ([`ConcurrentDyTis`]), [`BucketLocks`] the per-bucket variant the paper
//! rejected ([`ConcurrentDyTisFine`]).
//!
//! **Writers** keep the two-level locking per EH table: a high-level lock
//! on the directory array and a low-level reader/writer lock per segment.
//! Operations that stay inside one segment run under the directory *read*
//! lock (so the directory cannot move underneath them); split and
//! directory doubling take the directory *write* lock, hand-over-hand:
//! directory first, then the victim segment.
//!
//! **Readers** take no directory lock at all. A `get`/`scan` pins an epoch
//! guard, loads the table's immutable `Snapshot`, and probes the target
//! slot seqlock-style: check the slot version is even (no writer
//! mid-mutation), `try_read` the segment (never blocks), check it was not
//! retired, probe, and re-check the version. Retries are bounded; on
//! exhaustion (or when the epoch collector has no free slot) the reader
//! falls back to the locked path, so the optimistic path is an
//! optimization, never a liveness requirement. Retired snapshots are freed
//! through [`crate::epoch`] only after every reader that could hold them
//! has unpinned.
//!
//! Optimistic readers hold segment *read* locks without the directory
//! lock, so a directory write-lock holder can block briefly behind them
//! when it write-locks a victim. That is safe — readers never wait on
//! anything while holding a segment guard, so no cycle can form — but it
//! is why structural surgery keeps the victim locked until after the new
//! snapshot is published: any reader that acquires the segment after the
//! release observes `retired` and reloads.
//!
//! Sibling navigation for scans walks the snapshot (equivalent order to
//! the single-threaded sibling pointers) without any directory lock.

use crate::epoch::{Collector, EpochPtr, EpochStats, Guard};
use crate::params::Params;
use crate::remap::mask64;
use crate::segment::{RemapOutcome, Segment};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, RwLock, RwLockWriteGuard};
use index_traits::{AuditReport, Auditable, ConcurrentKvIndex, Key, Value};
use std::borrow::Cow;
use std::convert::Infallible;

mod bucket_locks;
mod segment_locks;

pub use bucket_locks::BucketLocks;
pub use segment_locks::SegmentLocks;

/// The multi-threaded DyTIS index of §3.4 (used by the Figure 12
/// evaluation): one reader/writer lock per segment.
pub type ConcurrentDyTis = Concurrent<SegmentLocks>;

/// Concurrent DyTIS with per-bucket locks (ablation variant; prefer
/// [`ConcurrentDyTis`], which the paper found faster).
pub type ConcurrentDyTisFine = Concurrent<BucketLocks>;

/// Optimistic probe attempts per `get` before falling back to locks.
const READ_RETRIES: usize = 8;
/// Optimistic restarts per table in `scan` before falling back to locks.
const SCAN_RESTARTS: usize = 4;

/// Audit invariant IDs of the optimistic-read machinery and the key
/// accounting, named once so the seeded-corruption tests cannot drift from
/// the audit.
const SEG_VERSION_EVEN: &str = "seg-version-even";
const SEG_LIVE: &str = "seg-live";
const TABLE_KEY_COUNT: &str = "table-key-count";
const DIR_SNAPSHOT_COHERENT: &str = "dir-snapshot-coherent";
const EPOCH_QUIESCENT: &str = "epoch-quiescent";

/// Marker error: a writer's mutation window overlapped an optimistic read.
pub struct Contended;

/// A shared segment plus the metadata the optimistic read protocol needs.
pub struct Slot<S> {
    /// Seqlock-style version: odd while a [`SlotWrite`] is live (bumped
    /// right after the write lock is acquired and right before it is
    /// released), even and strictly monotone otherwise. Readers validate
    /// it around probes. Which mutations take a `SlotWrite` is the
    /// granularity's choice.
    version: AtomicU64,
    /// Set (under the directory write lock, before the replacement
    /// snapshot is published) when a split removes this segment from the
    /// directory. Readers holding a stale snapshot bail out and reload.
    retired: AtomicBool,
    data: RwLock<S>,
}

impl<S> Slot<S> {
    fn new(payload: S) -> Arc<Self> {
        Arc::new(Slot {
            version: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            data: RwLock::new(payload),
        })
    }

    /// Write-locks the segment and marks the mutation window open (odd
    /// version). The guard closes the window (even again) on drop, before
    /// the lock itself is released.
    fn write(&self) -> SlotWrite<'_, S> {
        let guard = self.data.write();
        self.version.fetch_add(1, Ordering::SeqCst);
        SlotWrite { slot: self, guard }
    }
}

/// Write guard that brackets the segment mutation with version bumps.
struct SlotWrite<'a, S> {
    slot: &'a Slot<S>,
    guard: RwLockWriteGuard<'a, S>,
}

impl<S> std::ops::Deref for SlotWrite<'_, S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.guard
    }
}

impl<S> std::ops::DerefMut for SlotWrite<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.guard
    }
}

impl<S> Drop for SlotWrite<'_, S> {
    fn drop(&mut self) {
        // Runs before the `guard` field drops, so the version returns to
        // even while the write lock is still held: a reader that sees an
        // even version and then wins a `try_read` sees finished data.
        self.slot.version.fetch_add(1, Ordering::SeqCst);
    }
}

/// Directory index of sub-key `sk` at `global_depth`.
#[inline]
fn dir_index(global_depth: u32, sk: u64, m_total: u32) -> usize {
    (sk >> (m_total - global_depth)) as usize
}

/// Immutable directory snapshot published to readers. The `Arc` clones
/// keep every referenced segment alive independent of the live directory,
/// so the epoch collector only ever has to reclaim snapshot boxes.
struct Snapshot<S> {
    generation: u64,
    global_depth: u32,
    entries: Vec<Arc<Slot<S>>>,
}

/// Directory of one concurrent EH table.
struct Dir<S> {
    global_depth: u32,
    /// Bumped by every structural change (split installation, doubling);
    /// the published snapshot must always carry the current value.
    generation: u64,
    entries: Vec<Arc<Slot<S>>>,
    /// Active segment-size limit multiplier (adaptive, §3.3).
    active_limit_mult: u32,
    limit_decided: bool,
}

/// One concurrent EH table: directory lock + per-segment slots + the
/// reader-facing snapshot + its maintenance counters.
pub struct Table<S: Send + Sync + 'static> {
    dir: RwLock<Dir<S>>,
    snap: EpochPtr<Snapshot<S>>,
    num_keys: AtomicUsize,
    splits: AtomicU64,
    expansions: AtomicU64,
    remaps: AtomicU64,
    doublings: AtomicU64,
    shrinks: AtomicU64,
}

impl<S: Send + Sync + 'static> Table<S> {
    fn new(first: S, limit_mult: u32) -> Self {
        let entries = vec![Slot::new(first)];
        Table {
            snap: EpochPtr::new(Box::new(Snapshot {
                generation: 0,
                global_depth: 0,
                entries: entries.clone(),
            })),
            dir: RwLock::new(Dir {
                global_depth: 0,
                generation: 0,
                entries,
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

    /// Re-publishes the directory as a fresh snapshot, retiring the old
    /// one through `epoch`. Caller must hold the directory write lock and
    /// have bumped `dir.generation` for the structural change.
    fn publish(&self, dir: &Dir<S>, epoch: &Collector) {
        self.snap.swap(
            Box::new(Snapshot {
                generation: dir.generation,
                global_depth: dir.global_depth,
                entries: dir.entries.clone(),
            }),
            epoch,
        );
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

/// Outcome of a granularity's fast-path upsert.
pub enum Upsert {
    /// Inserted or updated in place.
    Done,
    /// The bucket was full and a segment-local repair ran under the locks
    /// already held; retry the fast path.
    Repaired,
    /// The bucket is full and the fix needs the directory write lock.
    Full,
}

/// What differs between lock granularities: the payload behind a
/// [`Slot`]'s lock and the operations that touch it. The shell calls every
/// method with the directory lock it documents already held; methods take
/// only slot-level and finer locks, in that order.
pub trait Granularity: Sized + 'static {
    /// What sits behind the slot lock.
    type Payload: Send + Sync + 'static;
    /// Index and audit-report name.
    const NAME: &'static str;

    /// Wraps a plain segment (initial segment, split halves).
    fn wrap(seg: Segment, params: &Params) -> Self::Payload;

    fn local_depth(seg: &Self::Payload) -> u32;

    /// Plain-segment view for the audit (slot read lock held).
    fn plain(seg: &Self::Payload) -> Cow<'_, Segment>;

    /// Point probe under a held slot read guard, locked flavour: blocks
    /// on finer locks if the granularity has any.
    fn probe(idx: &Concurrent<Self>, seg: &Self::Payload, sk: u64, key: Key) -> Option<Value>;

    /// Optimistic flavour of [`Granularity::probe`]: takes no lock below
    /// the slot and may report [`Contended`] instead.
    fn probe_optimistic(
        idx: &Concurrent<Self>,
        seg: &Self::Payload,
        sk: u64,
        key: Key,
    ) -> Result<Option<Value>, Contended> {
        Ok(Self::probe(idx, seg, sk, key))
    }

    /// Appends the segment's pairs to `out` until it holds `count`, from
    /// the first key `>= start.1` (sub-key `start.0`) or from the first
    /// bucket when `start` is `None`. Returns `true` once `count` is
    /// reached. Locked flavour, as for [`Granularity::probe`].
    fn walk(
        idx: &Concurrent<Self>,
        seg: &Self::Payload,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool;

    /// Optimistic flavour of [`Granularity::walk`]. On [`Contended`] the
    /// caller rolls `out` back.
    fn walk_optimistic(
        idx: &Concurrent<Self>,
        seg: &Self::Payload,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> Result<bool, Contended> {
        Ok(Self::walk(idx, seg, start, count, out))
    }

    /// Fast-path insert-or-update under the directory read lock. `repair`
    /// is Algorithm 1's in-place step (the shell's `repair_in_place`),
    /// for granularities whose fast path may mutate the whole segment.
    fn upsert(
        idx: &Concurrent<Self>,
        table: &Table<Self::Payload>,
        slot: &Slot<Self::Payload>,
        sk: u64,
        key: Key,
        value: Value,
        repair: impl FnOnce(&mut Segment) -> bool,
    ) -> Upsert;

    /// Remove under the directory read lock.
    fn remove(
        idx: &Concurrent<Self>,
        table: &Table<Self::Payload>,
        slot: &Slot<Self::Payload>,
        sk: u64,
        key: Key,
    ) -> Option<Value>;

    /// Slow path under the directory write lock: re-checks that `sk`'s
    /// bucket is still full, runs `repair` (as for [`Granularity::upsert`])
    /// if the fast path did not, and calls `split` with the victim's
    /// contents if a split (preceded by doubling) is still needed. The
    /// locks the granularity holds on the victim stay held until `split`
    /// returns.
    fn restructure(
        idx: &Concurrent<Self>,
        slot: &Slot<Self::Payload>,
        sk: u64,
        repair: impl FnOnce(&mut Segment) -> bool,
        split: impl FnOnce(&Segment),
    );

    /// Seeded corruption for the audit tests: one key too many counted.
    #[cfg(test)]
    fn bump_key_count(seg: &mut Self::Payload);
}

/// Read-path statistics (always on, like [`Concurrent::insert_retries`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Optimistic probe attempts that had to be repeated (version moved,
    /// `try_read` lost to a writer, or the segment was retired mid-probe).
    pub retries: u64,
    /// Reads that exhausted their retry budget (or found no epoch slot)
    /// and completed on the locked path instead.
    pub fallbacks: u64,
    /// Reads (point or per-table scan legs) that executed under locks —
    /// fallbacks plus everything served while `set_locked_reads(true)`.
    /// Zero here proves the optimistic hit path took no lock at all.
    pub locked: u64,
}

/// The concurrent DyTIS shell; see the module docs and the two
/// instantiations [`ConcurrentDyTis`] and [`ConcurrentDyTisFine`].
pub struct Concurrent<G: Granularity> {
    params: Params,
    tables: Vec<Table<G::Payload>>,
    m_total: u32,
    /// Epoch collector for retired directory snapshots; shared by every
    /// table so one pin covers any snapshot the operation may load.
    epoch: Collector,
    /// When set, `get`/`scan` skip the optimistic path entirely — the
    /// lock-based baseline bar of the read-scaling sweep.
    locked_reads: AtomicBool,
    /// Times an insert lost its fast path to contention or a pending
    /// structural fix and had to retry through `maintain`.
    insert_retries: AtomicU64,
    read_retries: AtomicU64,
    read_fallbacks: AtomicU64,
    read_locked: AtomicU64,
}

impl<G: Granularity> Concurrent<G> {
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
            .map(|_| Table::new(G::wrap(Segment::new(0), &params), params.limit_mult))
            .collect();
        Concurrent {
            params,
            tables,
            m_total: 64 - r,
            epoch: Collector::new(),
            locked_reads: AtomicBool::new(false),
            insert_retries: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            read_fallbacks: AtomicU64::new(0),
            read_locked: AtomicU64::new(0),
        }
    }

    /// Totals of the structural maintenance operations performed so far
    /// (splits, segment expansions, remaps, directory doublings, shrinks),
    /// summed over all first-level tables.  Exact once writers have
    /// quiesced.  `keys_moved` is not tracked by the concurrent variants
    /// and reads 0; `shrinks` reads 0 under [`BucketLocks`], whose remove
    /// path only takes a bucket latch and never merges.
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

    /// Optimistic-read retry/fallback counters (see [`ReadStats`]).
    pub fn read_stats(&self) -> ReadStats {
        ReadStats {
            // relaxed: monotonic advisory counters.
            retries: self.read_retries.load(Ordering::Relaxed),
            // relaxed: see above.
            fallbacks: self.read_fallbacks.load(Ordering::Relaxed),
            // relaxed: see above.
            locked: self.read_locked.load(Ordering::Relaxed),
        }
    }

    /// Deferred-reclamation counters of the snapshot collector.
    pub fn epoch_stats(&self) -> EpochStats {
        self.epoch.stats()
    }

    /// Forces `get`/`scan` onto the §3.4 locked path (`true`) or back to
    /// optimistic reads (`false`, the default). Used as the baseline bar
    /// in the read-scaling sweep.
    pub fn set_locked_reads(&self, locked: bool) {
        // relaxed: a mode toggle; it guards no data, and either path is
        // correct at any moment.
        self.locked_reads.store(locked, Ordering::Relaxed);
    }

    #[inline]
    fn table_of(&self, key: Key) -> usize {
        (key >> (64 - self.params.first_level_bits)) as usize
    }

    #[inline]
    fn sub_key(&self, key: Key) -> u64 {
        key & mask64(self.m_total)
    }

    /// Whether reads should try the optimistic path first.
    #[inline]
    fn optimistic_enabled(&self) -> bool {
        // relaxed: mode toggle, see `set_locked_reads`.
        !self.locked_reads.load(Ordering::Relaxed)
    }

    fn note_read_retries(&self, retries: u64) {
        if retries > 0 {
            // relaxed: monotonic advisory counter.
            self.read_retries.fetch_add(retries, Ordering::Relaxed);
            obs::counter!("read.retries").add(retries);
        }
    }

    fn note_read_fallback(&self) {
        // relaxed: monotonic advisory counter.
        self.read_fallbacks.fetch_add(1, Ordering::Relaxed);
        obs::counter!("read.fallbacks").inc();
    }

    fn note_locked_read(&self) {
        // relaxed: monotonic advisory counter.
        self.read_locked.fetch_add(1, Ordering::Relaxed);
    }

    /// One seqlock-validated visit of `slot`: version precheck →
    /// `try_read` → retired check → `probe` → revalidate. Never blocks.
    fn read_slot<R>(
        slot: &Slot<G::Payload>,
        probe: impl FnOnce(&G::Payload) -> Result<R, Contended>,
    ) -> Result<R, Contended> {
        let v0 = slot.version.load(Ordering::SeqCst);
        if v0 & 1 == 1 {
            return Err(Contended); // Writer mid-mutation: don't even try the lock.
        }
        let Some(seg) = slot.data.try_read() else {
            return Err(Contended); // Writer holds the segment.
        };
        if slot.retired.load(Ordering::SeqCst) {
            return Err(Contended); // Stale snapshot: reload and re-route.
        }
        let r = probe(&seg)?;
        drop(seg);
        if slot.version.load(Ordering::SeqCst) == v0 {
            Ok(r)
        } else {
            Err(Contended) // Segment mutated while we probed.
        }
    }

    /// Optimistic `get`: snapshot → seqlock-validated segment probe.
    /// `None` means "retry budget exhausted — take the locked path".
    fn get_optimistic(
        &self,
        table: &Table<G::Payload>,
        sk: u64,
        key: Key,
    ) -> Option<Option<Value>> {
        let guard = self.epoch.pin()?;
        let mut retries = 0u64;
        let mut result = None;
        // justified: bounded by READ_RETRIES, with a locked fallback in
        // the caller when the budget is exhausted.
        for _ in 0..READ_RETRIES {
            let snap = table.snap.load(&guard);
            let slot = &snap.entries[dir_index(snap.global_depth, sk, self.m_total)];
            match Self::read_slot(slot, |seg| G::probe_optimistic(self, seg, sk, key)) {
                Ok(v) => {
                    result = Some(v);
                    break;
                }
                Err(Contended) => retries += 1,
            }
        }
        self.note_read_retries(retries);
        result
    }

    /// Locked `get`: the original §3.4 two-lock path, kept as the
    /// fallback and as the read-scaling baseline.
    fn get_locked(&self, table: &Table<G::Payload>, sk: u64, key: Key) -> Option<Value> {
        self.note_locked_read();
        let dir = table.dir.read();
        let seg = dir.entries[dir_index(dir.global_depth, sk, self.m_total)]
            .data
            .read();
        G::probe(self, &seg, sk, key)
    }

    /// Algorithm 1's decision for a full bucket, on a segment the caller
    /// may mutate: remap or expand in place when the paper allows it.
    /// Returns `false` when the fix is a split (preceded by directory
    /// doubling when `LD == GD`), which needs the directory write lock.
    fn repair_in_place(
        &self,
        table: &Table<G::Payload>,
        seg: &mut Segment,
        sk: u64,
        gd: u32,
        limit_mult: u32,
    ) -> bool {
        let p = &self.params;
        let ld = seg.local_depth;
        if ld < p.l_start {
            return false; // Warm-up: plain Extendible-hashing split/doubling.
        }
        let cap_buckets = p.segment_cap(ld, limit_mult);
        if seg.utilization(p) > p.utilization_threshold {
            if ld < gd || !seg.expand(self.m_total, cap_buckets, p) {
                return false;
            }
            // relaxed: monotonic stats counter; every increment happens
            // under a directory lock and the limit decision reads it under
            // the directory write lock (see `split_install`).
            table.expansions.fetch_add(1, Ordering::Relaxed);
            obs::counter!("cdytis.expand").inc();
        } else {
            let k = seg.local_key(sk, self.m_total);
            if seg.remap_adjust(k, self.m_total, cap_buckets, p) == RemapOutcome::Failed {
                return false;
            }
            // relaxed: see the expansion counter above.
            table.remaps.fetch_add(1, Ordering::Relaxed);
            obs::counter!("cdytis.remap").inc();
        }
        true
    }

    /// Slow path: performs one structural step under the directory write
    /// lock, then returns so the fast path can retry.
    fn maintain(&self, table: &Table<G::Payload>, sk: u64) {
        let mut dir = table.dir.write();
        let slot = Arc::clone(&dir.entries[dir_index(dir.global_depth, sk, self.m_total)]);
        let (gd, limit_mult) = (dir.global_depth, dir.active_limit_mult);
        G::restructure(
            self,
            &slot,
            sk,
            |seg| self.repair_in_place(table, seg, sk, gd, limit_mult),
            |victim| self.split_install(table, &mut dir, &slot, victim, sk),
        );
    }

    /// Doubles the directory if `victim` is at global depth, splits it,
    /// installs the halves, retires `slot` and publishes the new snapshot.
    /// Caller holds the directory write lock (`dir`) and whatever lock
    /// keeps `victim` stable, and releases the latter only afterwards.
    fn split_install(
        &self,
        table: &Table<G::Payload>,
        dir: &mut Dir<G::Payload>,
        slot: &Slot<G::Payload>,
        victim: &Segment,
        sk: u64,
    ) {
        let p = &self.params;
        let ld = victim.local_depth;
        if ld == dir.global_depth {
            // Adaptive limit decision at doubling time (GD only grows here).
            if !dir.limit_decided && dir.global_depth + 1 >= p.l_start + 2 {
                dir.limit_decided = true;
                // relaxed: every increment happened under a directory
                // lock, so holding the write lock here orders all of them
                // before these loads; the counters need no own ordering.
                let e = table.expansions.load(Ordering::Relaxed);
                // relaxed: same reasoning as the load above.
                let tot =
                    e + table.splits.load(Ordering::Relaxed) + table.remaps.load(Ordering::Relaxed);
                if tot > 0 && e as f64 / tot as f64 >= p.expansion_heavy_fraction {
                    dir.active_limit_mult = p.limit_mult_raised;
                }
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
        // Split the segment (now LD < GD). The split copies into two fresh
        // segments and leaves the old one intact, so a reader still probing
        // it under a stale snapshot sees complete pre-split data.
        let (left, right) = victim.split(self.m_total, p);
        let span = 1usize << (dir.global_depth - (ld + 1));
        let base = dir_index(dir.global_depth, sk, self.m_total) & !(span * 2 - 1);
        let left = Slot::new(G::wrap(left, p));
        let right = Slot::new(G::wrap(right, p));
        dir.entries[base..base + span].fill(left);
        dir.entries[base + span..base + 2 * span].fill(right);
        dir.generation += 1;
        // Publication order matters: mark the victim retired, publish the
        // new snapshot (retiring the old one through the collector), and
        // only then let the caller release the victim. A reader that wins
        // `try_read` on the old segment after that release is guaranteed
        // to observe `retired` and reload a snapshot that routes around it.
        slot.retired.store(true, Ordering::SeqCst);
        table.publish(dir, &self.epoch);
        // relaxed: monotonic stats counter, bumped under the directory
        // write lock (see the limit decision above).
        table.splits.fetch_add(1, Ordering::Relaxed);
        obs::counter!("cdytis.split").inc();
    }

    /// Walks `entries` (a snapshot's or the locked directory's) in key
    /// order from `start`, visiting each segment once through `visit`,
    /// which reports `(done, local_depth)`.
    fn walk_entries<E>(
        &self,
        entries: &[Arc<Slot<G::Payload>>],
        global_depth: u32,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
        mut visit: impl FnMut(
            &Slot<G::Payload>,
            Option<(u64, Key)>,
            &mut Vec<(Key, Value)>,
        ) -> Result<(bool, u32), E>,
    ) -> Result<bool, E> {
        let mut idx = start.map_or(0, |(sk, _)| dir_index(global_depth, sk, self.m_total));
        let mut first = start;
        while idx < entries.len() {
            let (done, ld) = visit(&entries[idx], first.take(), out)?;
            if done {
                return Ok(true);
            }
            // Align to the segment's first directory entry so each segment
            // is visited once.
            let span = 1usize << (global_depth - ld);
            idx = (idx & !(span - 1)) + span;
        }
        Ok(out.len() >= count)
    }

    /// One optimistic attempt at scanning `table` from `start`.
    /// `Some(done)` on success; `None` when any segment probe failed
    /// validation (the table's contribution has been rolled back).
    fn scan_table_optimistic(
        &self,
        table: &Table<G::Payload>,
        guard: &Guard<'_>,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> Option<bool> {
        if table.keys() == 0 {
            return Some(out.len() >= count);
        }
        let base_len = out.len();
        let snap = table.snap.load(guard);
        let walked = self.walk_entries(
            &snap.entries,
            snap.global_depth,
            start,
            count,
            out,
            |slot, first, out| {
                Self::read_slot(slot, |seg| {
                    let done = G::walk_optimistic(self, seg, first, count, out)?;
                    Ok((done, G::local_depth(seg)))
                })
            },
        );
        if walked.is_err() {
            out.truncate(base_len);
        }
        walked.ok()
    }

    /// Locked scan of one table from `start`; returns `true` when `count`
    /// pairs have been collected. Fallback path and read-scaling baseline.
    fn scan_table_locked(
        &self,
        table: &Table<G::Payload>,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        self.note_locked_read();
        let dir = table.dir.read();
        if table.keys() == 0 {
            return out.len() >= count;
        }
        let walked = self.walk_entries(
            &dir.entries,
            dir.global_depth,
            start,
            count,
            out,
            |slot, first, out| {
                let seg = slot.data.read();
                let done = G::walk(self, &seg, first, count, out);
                Ok::<_, Infallible>((done, G::local_depth(&seg)))
            },
        );
        let Ok(done) = walked;
        done
    }

    /// Scans one table, optimistic-first with a bounded restart budget and
    /// a locked fallback.
    fn scan_table(
        &self,
        table: &Table<G::Payload>,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        if self.optimistic_enabled() {
            if let Some(guard) = self.epoch.pin() {
                let mut restarts = 0u64;
                let mut done = None;
                // justified: bounded by SCAN_RESTARTS, with the locked
                // fallback below when the budget is exhausted.
                for _ in 0..SCAN_RESTARTS {
                    done = self.scan_table_optimistic(table, &guard, start, count, out);
                    if done.is_some() {
                        break;
                    }
                    restarts += 1;
                }
                self.note_read_retries(restarts);
                if let Some(done) = done {
                    return done;
                }
            }
            self.note_read_fallback();
        }
        self.scan_table_locked(table, start, count, out)
    }
}

impl<G: Granularity> Default for Concurrent<G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<G: Granularity> ConcurrentKvIndex for Concurrent<G> {
    fn insert(&self, key: Key, value: Value) {
        let table = &self.tables[self.table_of(key)];
        let sk = self.sub_key(key);
        let mut attempts = 0u32;
        loop {
            let step = {
                let dir = table.dir.read();
                let slot = &dir.entries[dir_index(dir.global_depth, sk, self.m_total)];
                G::upsert(self, table, slot, sk, key, value, |seg| {
                    self.repair_in_place(table, seg, sk, dir.global_depth, dir.active_limit_mult)
                })
            };
            match step {
                Upsert::Done => return,
                // Repairs strictly grow the bucket's capacity share.
                Upsert::Repaired => continue,
                Upsert::Full => {}
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
        if self.optimistic_enabled() {
            if let Some(v) = self.get_optimistic(table, sk, key) {
                return v;
            }
            self.note_read_fallback();
        }
        self.get_locked(table, sk, key)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        let table = &self.tables[self.table_of(key)];
        let sk = self.sub_key(key);
        let dir = table.dir.read();
        let slot = &dir.entries[dir_index(dir.global_depth, sk, self.m_total)];
        G::remove(self, table, slot, sk, key)
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
        G::NAME
    }
}

impl<G: Granularity> Auditable for Concurrent<G> {
    /// Deep audit under the documented lock order: per table, the directory
    /// read lock is taken first, then each segment's read lock in directory
    /// order (one at a time), then whatever finer locks the granularity's
    /// plain-segment view needs. Must not be called by a thread already
    /// holding one of this index's locks.
    ///
    /// On top of the structural invariants, the audit checks the
    /// optimistic-read machinery: segment versions must be even while the
    /// auditor holds the segment read lock (`seg-version-even`), reachable
    /// segments must not be marked retired (`seg-live`), the published
    /// snapshot must mirror the live directory (`dir-snapshot-coherent`),
    /// and with no readers pinned a collect must leave no garbage behind
    /// (`epoch-quiescent`).
    fn audit(&self) -> AuditReport {
        let mut report = AuditReport::new(G::NAME);
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
                let slot = &dir.entries[idx];
                let payload = slot.data.read();
                // Holding the segment read lock excludes `SlotWrite`
                // holders, whose mutation window is exactly the
                // odd-version window.
                let v = slot.version.load(Ordering::SeqCst);
                report.check(v & 1 == 0, SEG_VERSION_EVEN, || {
                    (
                        format!("table {t} / dir[{idx}]"),
                        format!("version {v} is odd with no writer able to hold the lock"),
                    )
                });
                report.check(!slot.retired.load(Ordering::SeqCst), SEG_LIVE, || {
                    (
                        format!("table {t} / dir[{idx}]"),
                        "directory-reachable segment is marked retired".into(),
                    )
                });
                let ld = G::local_depth(&payload);
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
                    dir.entries[idx..end].iter().all(|e| Arc::ptr_eq(e, slot)),
                    "dir-coverage",
                    || {
                        (
                            format!("table {t} / dir[{idx}..{end}]"),
                            "span mixes directory targets".into(),
                        )
                    },
                );
                let loc = format!("table {t} / dir[{idx}]");
                let seg = G::plain(&payload);
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
            // Snapshot coherence: publishes happen under the directory
            // write lock, which our read lock excludes, so the published
            // snapshot must mirror the live directory exactly. Skipped only
            // if every epoch slot is busy (pure reader traffic).
            if let Some(guard) = self.epoch.pin() {
                let snap = table.snap.load(&guard);
                let coherent = snap.generation == dir.generation
                    && snap.global_depth == dir.global_depth
                    && snap.entries.len() == dir.entries.len()
                    && snap
                        .entries
                        .iter()
                        .zip(&dir.entries)
                        .all(|(a, b)| Arc::ptr_eq(a, b));
                report.check(coherent, DIR_SNAPSHOT_COHERENT, || {
                    (
                        format!("table {t}"),
                        format!(
                            "snapshot gen {} / GD {} / {} entries vs directory gen {} / GD {} / {} entries",
                            snap.generation,
                            snap.global_depth,
                            snap.entries.len(),
                            dir.generation,
                            dir.global_depth,
                            dir.entries.len()
                        ),
                    )
                });
            }
        }
        // Epoch quiescence: with no reader pinned, collecting must drain
        // the garbage list. Readers pinning concurrently legitimately defer
        // frees, so the check self-skips unless quiescence holds across the
        // collect (bounded re-tries absorb the transient races).
        // justified: bounded to 4 rounds, then the check is skipped.
        for _ in 0..4 {
            if !self.epoch.quiescent() {
                break;
            }
            self.epoch.collect();
            let pending = self.epoch.stats().pending;
            if !self.epoch.quiescent() {
                // A reader pinned mid-collect: the pending count is not
                // evidence of a leak. Retry the round.
                continue;
            }
            report.check(pending == 0, EPOCH_QUIESCENT, || {
                (
                    "epoch collector".into(),
                    format!("{pending} garbage item(s) survive a quiescent collect"),
                )
            });
            break;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    const SCRAMBLE: u64 = 0x9E3779B97F4A7C15;

    fn small<G: Granularity>() -> Concurrent<G> {
        Concurrent::with_params(Params::small())
    }

    /// `small()` preloaded with keys `0..2_000` and audited clean — the
    /// starting point of every seeded-corruption test.
    fn audited<G: Granularity>() -> Concurrent<G> {
        let idx = small();
        for k in 0..2_000u64 {
            idx.insert(k, k);
        }
        idx.audit().assert_clean();
        idx
    }

    fn violates<G: Granularity>(idx: &Concurrent<G>, invariants: &[&str]) -> bool {
        idx.audit()
            .violations
            .iter()
            .any(|v| invariants.contains(&v.invariant))
    }

    fn single_thread_roundtrip<G: Granularity>() {
        let idx = small::<G>();
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

    fn locked_read_mode_matches_optimistic<G: Granularity>() {
        let idx = small::<G>();
        for k in 0..6_000u64 {
            idx.insert(k.wrapping_mul(SCRAMBLE), k);
        }
        idx.set_locked_reads(true);
        for k in (0..6_000u64).step_by(31) {
            assert_eq!(idx.get(k.wrapping_mul(SCRAMBLE)), Some(k));
        }
        let mut locked = Vec::new();
        idx.scan(0, 500, &mut locked);
        idx.set_locked_reads(false);
        for k in (0..6_000u64).step_by(31) {
            assert_eq!(idx.get(k.wrapping_mul(SCRAMBLE)), Some(k));
        }
        let mut optimistic = Vec::new();
        idx.scan(0, 500, &mut optimistic);
        assert_eq!(locked, optimistic);
    }

    fn maintenance_retires_snapshots_through_the_collector<G: Granularity>() {
        let idx = small::<G>();
        for k in 0..6_000u64 {
            idx.insert(k * 3, k);
        }
        let st = idx.epoch_stats();
        assert!(
            st.deferred > 0,
            "splits/doublings must retire old snapshots"
        );
        assert_eq!(
            st.freed, st.deferred,
            "no reader pinned: everything must be freed"
        );
        assert_eq!(st.pending, 0);
    }

    fn concurrent_disjoint_inserts<G: Granularity>() {
        let idx = StdArc::new(small::<G>());
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

    fn concurrent_overlapping_upserts<G: Granularity>() {
        let idx = StdArc::new(small::<G>());
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

    fn concurrent_readers_and_writers<G: Granularity>() {
        let idx = StdArc::new(small::<G>());
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

    fn audit_clean_after_concurrent_growth<G: Granularity>() {
        let idx = StdArc::new(small::<G>());
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

    fn audit_detects_corrupted_segment_key_count<G: Granularity>() {
        let idx = audited::<G>();
        {
            let dir = idx.tables[0].dir.read();
            G::bump_key_count(&mut dir.entries[0].data.write());
        }
        assert!(violates(&idx, &["segment-key-count", TABLE_KEY_COUNT]));
    }

    fn audit_detects_torn_segment_version<G: Granularity>() {
        let idx = audited::<G>();
        // SEEDED CORRUPTION: leave a version odd with no writer present, as
        // if a mutation window never closed.
        {
            let dir = idx.tables[0].dir.read();
            dir.entries[0].version.fetch_add(1, Ordering::SeqCst);
        }
        assert!(violates(&idx, &[SEG_VERSION_EVEN]));
    }

    fn audit_detects_retired_live_segment<G: Granularity>() {
        let idx = audited::<G>();
        // SEEDED CORRUPTION: a reachable segment must never be retired.
        {
            let dir = idx.tables[0].dir.read();
            dir.entries[0].retired.store(true, Ordering::SeqCst);
        }
        assert!(violates(&idx, &[SEG_LIVE]));
    }

    fn audit_detects_stale_snapshot<G: Granularity>() {
        let idx = audited::<G>();
        // SEEDED CORRUPTION: publish a snapshot that does not mirror the
        // live directory (wrong generation).
        {
            let dir = idx.tables[0].dir.read();
            idx.tables[0].snap.swap(
                Box::new(Snapshot {
                    generation: dir.generation + 999,
                    global_depth: dir.global_depth,
                    entries: dir.entries.clone(),
                }),
                &idx.epoch,
            );
        }
        assert!(violates(&idx, &[DIR_SNAPSHOT_COHERENT]));
    }

    fn audit_detects_unreclaimed_epoch_garbage<G: Granularity>() {
        let idx = audited::<G>();
        // SEEDED CORRUPTION: garbage stamped so no collect can free it —
        // the audit's quiescent collect must notice the leak.
        idx.epoch.retire_uncollectable(Box::new(0u64));
        assert!(violates(&idx, &[EPOCH_QUIESCENT]));
    }

    fn read_hammer_fires_retries_and_deferred_frees<G: Granularity>() {
        // Writer splits/doubles under tiny geometry while readers spin:
        // the optimistic machinery must demonstrably fire, not idle.
        let idx = StdArc::new(small::<G>());
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
        for i in 2_000..30_000u64 {
            idx.insert(i * 4 + 1, i);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let st = idx.epoch_stats();
        assert!(st.deferred > 0, "maintenance must retire snapshots");
        idx.audit().assert_clean();
    }

    fn remove_concurrent_smoke<G: Granularity>() {
        let idx = small::<G>();
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

    /// Runs every generic case above once per granularity.
    macro_rules! for_each_granularity {
        ($($case:ident),* $(,)?) => {
            mod segment_locks {
                $(#[test] fn $case() { super::$case::<super::SegmentLocks>() })*
            }
            mod bucket_locks {
                $(#[test] fn $case() { super::$case::<super::BucketLocks>() })*
            }
        };
    }

    for_each_granularity!(
        single_thread_roundtrip,
        locked_read_mode_matches_optimistic,
        maintenance_retires_snapshots_through_the_collector,
        concurrent_disjoint_inserts,
        concurrent_overlapping_upserts,
        concurrent_readers_and_writers,
        audit_clean_after_concurrent_growth,
        audit_detects_corrupted_segment_key_count,
        audit_detects_torn_segment_version,
        audit_detects_retired_live_segment,
        audit_detects_stale_snapshot,
        audit_detects_unreclaimed_epoch_garbage,
        read_hammer_fires_retries_and_deferred_frees,
        remove_concurrent_smoke,
    );

    /// Lock granularity must not change Algorithm 1: the same
    /// single-threaded insert-only stream makes the same maintenance
    /// decisions — including the §3.3 adaptive segment-size limit, which
    /// the stream is long enough to raise — under either policy.
    #[test]
    fn granularities_agree_on_maintenance_decisions() {
        let coarse = small::<SegmentLocks>();
        let fine = small::<BucketLocks>();
        for i in 0..40_000u64 {
            let k = i.wrapping_mul(SCRAMBLE);
            coarse.insert(k, i);
            fine.insert(k, i);
        }
        fn limits<G: Granularity>(idx: &Concurrent<G>) -> Vec<u32> {
            let active = |t: &Table<G::Payload>| t.dir.read().active_limit_mult;
            idx.tables.iter().map(active).collect()
        }
        assert!(
            limits(&coarse).contains(&Params::small().limit_mult_raised),
            "stream never raised the adaptive limit"
        );
        assert_eq!(limits(&coarse), limits(&fine));
        assert_eq!(coarse.maintenance_stats(), fine.maintenance_stats());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        coarse.scan(0, usize::MAX, &mut a);
        fine.scan(0, usize::MAX, &mut b);
        assert_eq!(a.len(), 40_000);
        assert_eq!(a, b);
        coarse.audit().assert_clean();
        fine.audit().assert_clean();
    }
}
