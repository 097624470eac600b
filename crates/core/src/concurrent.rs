//! Concurrent DyTIS (§3.4): one latch protocol — a directory lock over
//! per-segment reader/writer locks (DESIGN.md §14).
//!
//! [`ConcurrentDyTis`] owns the per-table directory lock, the `Slot`
//! wrapper around every segment (version / retired flag / segment lock),
//! the epoch-published directory snapshot, the bounded read ladder with its
//! locked fallback, the insert retry loop, split / doubling installation,
//! the counters and the audit. Algorithm 1's remap / expand / split
//! decision is [`Segment::repair_in_place`], shared with the
//! single-threaded [`crate::DyTis`]; this module only adds its bookkeeping.
//!
//! The slot lock is the only lock below the directory: every mutation of a
//! segment (insert, remove/shrink, remapping, expansion) takes it in write
//! mode, so the slot version brackets *every* change and a reader's
//! revalidation alone proves its probe saw a stable segment.
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
use crate::segment::{adaptive_limit_mult, BucketUpsert, Repair, Segment};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, RwLock, RwLockWriteGuard};
use index_traits::{AuditReport, Auditable, ConcurrentKvIndex, Key, Value};

/// Index and audit-report name.
const NAME: &str = "DyTIS (concurrent)";

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
struct Contended;

/// A shared segment plus the metadata the optimistic read protocol needs.
struct Slot {
    /// Seqlock-style version: odd while a [`SlotWrite`] is live (bumped
    /// right after the write lock is acquired and right before it is
    /// released), even and strictly monotone otherwise. Readers validate
    /// it around probes.
    version: AtomicU64,
    /// Set (under the directory write lock, before the replacement
    /// snapshot is published) when a split removes this segment from the
    /// directory. Readers holding a stale snapshot bail out and reload.
    retired: AtomicBool,
    data: RwLock<Segment>,
}

impl Slot {
    fn new(seg: Segment) -> Arc<Self> {
        Arc::new(Slot {
            version: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            data: RwLock::new(seg),
        })
    }

    /// Write-locks the segment and marks the mutation window open (odd
    /// version). The guard closes the window (even again) on drop, before
    /// the lock itself is released.
    fn write(&self) -> SlotWrite<'_> {
        let guard = self.data.write();
        self.version.fetch_add(1, Ordering::SeqCst);
        SlotWrite { slot: self, guard }
    }
}

/// Write guard that brackets the segment mutation with version bumps.
struct SlotWrite<'a> {
    slot: &'a Slot,
    guard: RwLockWriteGuard<'a, Segment>,
}

impl std::ops::Deref for SlotWrite<'_> {
    type Target = Segment;
    fn deref(&self) -> &Segment {
        &self.guard
    }
}

impl std::ops::DerefMut for SlotWrite<'_> {
    fn deref_mut(&mut self) -> &mut Segment {
        &mut self.guard
    }
}

impl Drop for SlotWrite<'_> {
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
struct Snapshot {
    generation: u64,
    global_depth: u32,
    entries: Vec<Arc<Slot>>,
}

/// Directory of one concurrent EH table.
struct Dir {
    global_depth: u32,
    /// Bumped by every structural change (split installation, doubling);
    /// the published snapshot must always carry the current value.
    generation: u64,
    entries: Vec<Arc<Slot>>,
    /// Active segment-size limit multiplier (adaptive, §3.3).
    active_limit_mult: u32,
    limit_decided: bool,
}

/// One concurrent EH table: directory lock + per-segment slots + the
/// reader-facing snapshot + its maintenance counters.
struct Table {
    dir: RwLock<Dir>,
    snap: EpochPtr<Snapshot>,
    num_keys: AtomicUsize,
    splits: AtomicU64,
    expansions: AtomicU64,
    remaps: AtomicU64,
    doublings: AtomicU64,
    shrinks: AtomicU64,
}

impl Table {
    fn new(limit_mult: u32) -> Self {
        let entries = vec![Slot::new(Segment::new(0))];
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
    fn publish(&self, dir: &Dir, epoch: &Collector) {
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

/// Read-path statistics (always on, like [`ConcurrentDyTis::insert_retries`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Optimistic probe attempts that had to be repeated (version moved,
    /// `try_read` lost to a writer, or the segment was retired mid-probe).
    pub retries: u64,
    /// Reads that exhausted their retry budget (or found no epoch slot)
    /// and completed on the locked path instead.
    pub fallbacks: u64,
    /// Reads (point or per-table scan legs) that executed under locks —
    /// fallbacks plus everything served while the locked-reads test hook
    /// is on. Zero here proves the optimistic hit path took no lock at all.
    pub locked: u64,
}

/// The multi-threaded DyTIS index of §3.4 (used by the Figure 12
/// evaluation): one reader/writer lock per segment under a per-table
/// directory lock; see the module docs.
pub struct ConcurrentDyTis {
    params: Params,
    tables: Vec<Table>,
    m_total: u32,
    /// Epoch collector for retired directory snapshots; shared by every
    /// table so one pin covers any snapshot the operation may load.
    epoch: Collector,
    /// When set, `get`/`scan` skip the optimistic path entirely (test
    /// hook, see `set_locked_reads`).
    locked_reads: AtomicBool,
    /// Times an insert lost its fast path to contention or a pending
    /// structural fix and had to retry through `maintain`.
    insert_retries: AtomicU64,
    read_retries: AtomicU64,
    read_fallbacks: AtomicU64,
    read_locked: AtomicU64,
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

    /// Test hook: forces the locked fallback for every `get`/`scan`.
    #[doc(hidden)]
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

    /// One seqlock-validated visit of `slot`: version precheck →
    /// `try_read` → retired check → `probe` → revalidate. Never blocks.
    fn read_slot<R>(slot: &Slot, probe: impl FnOnce(&Segment) -> R) -> Result<R, Contended> {
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
        let r = probe(&seg);
        drop(seg);
        if slot.version.load(Ordering::SeqCst) == v0 {
            Ok(r)
        } else {
            Err(Contended) // Segment mutated while we probed.
        }
    }

    /// Optimistic `get`: snapshot → seqlock-validated segment probe.
    /// `None` means "retry budget exhausted — take the locked path".
    fn get_optimistic(&self, table: &Table, sk: u64, key: Key) -> Option<Option<Value>> {
        let guard = self.epoch.pin()?;
        let mut retries = 0u64;
        let mut result = None;
        // justified: bounded by READ_RETRIES, with a locked fallback in
        // the caller when the budget is exhausted.
        for _ in 0..READ_RETRIES {
            let snap = table.snap.load(&guard);
            let slot = &snap.entries[dir_index(snap.global_depth, sk, self.m_total)];
            match Self::read_slot(slot, |seg| seg.get(sk, key, self.m_total, &self.params)) {
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
    /// liveness fallback.
    fn get_locked(&self, table: &Table, sk: u64, key: Key) -> Option<Value> {
        self.note_locked_read();
        let dir = table.dir.read();
        let seg = dir.entries[dir_index(dir.global_depth, sk, self.m_total)]
            .data
            .read();
        seg.get(sk, key, self.m_total, &self.params)
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
        let slot = Arc::clone(&dir.entries[dir_index(dir.global_depth, sk, self.m_total)]);
        // Writers all hold the directory read lock while holding a segment
        // lock, so none can contend here; optimistic readers, however, may
        // hold this segment's read lock without any directory lock, so this
        // acquisition can block briefly. Readers never wait while holding a
        // segment guard, so no deadlock cycle can form.
        let seg = slot.write();
        if seg.bucket_len(self.bucket_of(&seg, sk)) < self.params.bucket_entries {
            return; // Another thread already fixed it.
        }
        // The fast path already ran Algorithm 1 on this segment and found
        // no in-place repair. The victim's write lock is released last,
        // when `seg` drops after `split_install` has published the new
        // snapshot.
        self.split_install(table, &mut dir, &slot, &seg, sk);
    }

    /// Doubles the directory if `victim` is at global depth, splits it,
    /// installs the halves, retires `slot` and publishes the new snapshot.
    /// Caller holds the directory write lock (`dir`) and `slot`'s write
    /// lock (`victim`), and releases the latter only afterwards.
    fn split_install(&self, table: &Table, dir: &mut Dir, slot: &Slot, victim: &Segment, sk: u64) {
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
        // Split the segment (now LD < GD). The split copies into two fresh
        // segments and leaves the old one intact, so a reader still probing
        // it under a stale snapshot sees complete pre-split data.
        let (left, right) = victim.split(self.m_total, p);
        let span = 1usize << (dir.global_depth - (ld + 1));
        let base = dir_index(dir.global_depth, sk, self.m_total) & !(span * 2 - 1);
        let left = Slot::new(left);
        let right = Slot::new(right);
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
    fn walk_entries(
        &self,
        entries: &[Arc<Slot>],
        global_depth: u32,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
        mut visit: impl FnMut(&Slot, Option<(u64, Key)>, &mut Vec<(Key, Value)>) -> (bool, u32),
    ) -> bool {
        let mut idx = start.map_or(0, |(sk, _)| dir_index(global_depth, sk, self.m_total));
        let mut first = start;
        while idx < entries.len() {
            let (done, ld) = visit(&entries[idx], first.take(), out);
            if done {
                return true;
            }
            // Align to the segment's first directory entry so each segment
            // is visited once.
            let span = 1usize << (global_depth - ld);
            idx = (idx & !(span - 1)) + span;
        }
        out.len() >= count
    }

    /// One optimistic attempt at scanning `table` from `start`.
    /// `Some(done)` on success; `None` when any segment probe failed
    /// validation (the table's contribution has been rolled back).
    fn scan_table_optimistic(
        &self,
        table: &Table,
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
        let mut contended = false;
        let done = self.walk_entries(
            &snap.entries,
            snap.global_depth,
            start,
            count,
            out,
            |slot, first, out| {
                let walk = |seg: &Segment| {
                    let done = self.walk_segment(seg, first, count, out);
                    (done, seg.local_depth)
                };
                Self::read_slot(slot, walk).unwrap_or_else(|Contended| {
                    contended = true;
                    (true, 0) // Stops the walk; the rollback is below.
                })
            },
        );
        if contended {
            out.truncate(base_len);
            return None;
        }
        Some(done)
    }

    /// Locked scan of one table from `start`; returns `true` when `count`
    /// pairs have been collected. The liveness fallback of `scan_table`.
    fn scan_table_locked(
        &self,
        table: &Table,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        self.note_locked_read();
        let dir = table.dir.read();
        if table.keys() == 0 {
            return out.len() >= count;
        }
        self.walk_entries(
            &dir.entries,
            dir.global_depth,
            start,
            count,
            out,
            |slot, first, out| {
                let seg = slot.data.read();
                let done = self.walk_segment(&seg, first, count, out);
                (done, seg.local_depth)
            },
        )
    }

    /// Scans one table, optimistic-first with a bounded restart budget and
    /// a locked fallback.
    fn scan_table(
        &self,
        table: &Table,
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
            let slot = &dir.entries[dir_index(dir.global_depth, sk, self.m_total)];
            let mut seg = slot.write();
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
                let slot = &dir.entries[dir_index(dir.global_depth, sk, self.m_total)];
                let mut seg = slot.write();
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
        let mut seg = slot.write();
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
    ///
    /// On top of the structural invariants, the audit checks the
    /// optimistic-read machinery: segment versions must be even while the
    /// auditor holds the segment read lock (`seg-version-even`), reachable
    /// segments must not be marked retired (`seg-live`), the published
    /// snapshot must mirror the live directory (`dir-snapshot-coherent`),
    /// and with no readers pinned a collect must leave no garbage behind
    /// (`epoch-quiescent`).
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
                let slot = &dir.entries[idx];
                let seg = slot.data.read();
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
    fn locked_read_mode_matches_optimistic() {
        let idx = small();
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

    #[test]
    fn maintenance_retires_snapshots_through_the_collector() {
        let idx = small();
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
            dir.entries[0].data.write().num_keys += 1;
        }
        assert!(violates(&idx, &["segment-key-count", TABLE_KEY_COUNT]));
    }

    #[test]
    fn audit_detects_torn_segment_version() {
        let idx = audited();
        // SEEDED CORRUPTION: leave a version odd with no writer present, as
        // if a mutation window never closed.
        {
            let dir = idx.tables[0].dir.read();
            dir.entries[0].version.fetch_add(1, Ordering::SeqCst);
        }
        assert!(violates(&idx, &[SEG_VERSION_EVEN]));
    }

    #[test]
    fn audit_detects_retired_live_segment() {
        let idx = audited();
        // SEEDED CORRUPTION: a reachable segment must never be retired.
        {
            let dir = idx.tables[0].dir.read();
            dir.entries[0].retired.store(true, Ordering::SeqCst);
        }
        assert!(violates(&idx, &[SEG_LIVE]));
    }

    #[test]
    fn audit_detects_stale_snapshot() {
        let idx = audited();
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

    #[test]
    fn audit_detects_unreclaimed_epoch_garbage() {
        let idx = audited();
        // SEEDED CORRUPTION: garbage stamped so no collect can free it —
        // the audit's quiescent collect must notice the leak.
        idx.epoch.retire_uncollectable(Box::new(0u64));
        assert!(violates(&idx, &[EPOCH_QUIESCENT]));
    }

    #[test]
    fn read_hammer_fires_retries_and_deferred_frees() {
        // Writer splits/doubles under tiny geometry while readers spin:
        // the optimistic machinery must demonstrably fire, not idle.
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
    /// (`adaptive_limit_mult`) but keep their own insert loops: the same
    /// stream must make the same maintenance decisions through both.
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
