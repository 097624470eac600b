//! Bucket-lock granularity — the design the paper *rejected*.
//!
//! §3.4: "CCEH leverages concurrency at finer grains of buckets within
//! segments. We also explored this, but found that performance of DyTIS
//! generally degrades. Our analysis shows that this is due to the overhead
//! of additional memory for the fine-grained locks and the handling of
//! segments with variable sizes."
//!
//! This policy reproduces that exploration so the trade-off can be measured
//! (see the `lock_granularity` Criterion bench): every bucket carries its
//! own lock, point operations take the slot lock in *read* mode plus one
//! bucket lock, and only structure-changing operations (remapping,
//! expansion, split, doubling) take write locks — all of them under the
//! directory write lock, on a plain-segment copy that is swapped back in.
//! The extra per-bucket locks and the rebuild cost of converting between
//! locked and plain bucket arrays are exactly the overheads the paper
//! calls out.
//!
//! Bucket contents mutate under the slot *read* lock, so the slot version
//! is bumped only around the *structural* swaps that hold the slot write
//! lock; a slot revalidation therefore says nothing about bucket contents.
//! Bucket-level consistency comes from a second, per-bucket seqlock
//! ([`FineBucket`]): writers serialize on the bucket lock and bracket
//! mutations with a per-bucket version bump, while optimistic readers
//! probe the bucket's atomic arrays with no lock at all, discarding any
//! probe whose version moved. The bucket lock is taken by readers only on
//! the locked fallback/baseline path.

use super::{Concurrent, Contended, Granularity, Slot, Table, Upsert};
use crate::bucket::Bucket;
use crate::params::Params;
use crate::remap::{mask64, RemapFn};
use crate::segment::Segment;
use crate::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Mutex, MutexGuard};
use index_traits::{Key, Value};
use std::borrow::Cow;
use std::convert::Infallible;

/// Seqlock read attempts per bucket before the surrounding operation
/// reports contention (retrying at its own level or falling back).
const BUCKET_RETRIES: usize = 4;

/// A fixed-capacity sorted bucket readable without its lock.
///
/// Storage is a pair of atomic arrays, so *every* shared access is atomic
/// and racing reads are defined behavior: a reader can observe a stale or
/// mid-shift pair, but never a torn word, and seqlock validation discards
/// the whole probe in that case. Writers serialize on `lock` and bracket
/// each mutation with `version` bumps (odd while mutating, via
/// [`FineBucket::write`]); optimistic readers snapshot the version, read
/// the arrays with `Relaxed` loads, and revalidate. The extra word per
/// slot-array plus lock plus version is exactly the fine-grained memory
/// overhead the paper's §3.4 analysis charges this design with.
struct FineBucket {
    /// Per-bucket seqlock version: odd while a writer mutates
    /// `len`/`keys`/`vals`, even and monotone otherwise.
    version: AtomicU64,
    /// Live pairs (a prefix of `keys`/`vals`); never exceeds capacity.
    len: AtomicUsize,
    keys: Box<[AtomicU64]>,
    vals: Box<[AtomicU64]>,
    /// Writer mutual exclusion. Optimistic readers never touch it; the
    /// locked read path takes it to make reads stable without validation.
    lock: Mutex<()>,
}

impl FineBucket {
    /// Builds from a plain bucket, reserving `cap` slots up front (the
    /// paper's fixed bucket byte budget).
    fn from_bucket(b: &Bucket, cap: usize) -> Self {
        let cap = cap.max(b.len());
        FineBucket {
            version: AtomicU64::new(0),
            len: AtomicUsize::new(b.len()),
            keys: (0..cap)
                .map(|i| AtomicU64::new(b.keys().get(i).copied().unwrap_or(0)))
                .collect(),
            vals: (0..cap)
                .map(|i| AtomicU64::new(b.vals().get(i).copied().unwrap_or(0)))
                .collect(),
            lock: Mutex::new(()),
        }
    }

    /// Consistent copy back to a plain bucket (takes the writer lock).
    fn to_bucket(&self) -> Bucket {
        let _g = self.lock.lock();
        // relaxed: the writer lock excludes mutators, so the arrays and
        // length are stable for the duration of the copy.
        let n = self.len.load(Ordering::Relaxed);
        let mut b = Bucket::with_capacity(self.keys.len());
        for i in 0..n {
            // relaxed: see above.
            b.push_sorted(
                self.keys[i].load(Ordering::Relaxed),
                self.vals[i].load(Ordering::Relaxed),
            );
        }
        b
    }

    /// Advisory live-pair count (no lock; pairs with the `Release` store
    /// closing each mutation).
    fn live_len(&self) -> usize {
        self.len.load(Ordering::Acquire).min(self.keys.len())
    }

    /// Opens a mutation window: writer lock + odd version. The guard
    /// closes the window (even again) before the lock is released.
    fn write(&self) -> FineBucketWrite<'_> {
        let guard = self.lock.lock();
        // The SeqCst RMW keeps the mutation's Relaxed data stores from
        // being ordered above the odd-version publication.
        self.version.fetch_add(1, Ordering::SeqCst);
        FineBucketWrite {
            b: self,
            _guard: guard,
        }
    }

    /// Runs `read` once as a seqlock reader: `Err(Contended)` when a
    /// writer's mutation window was open at the start or overlapped the
    /// reads (whatever `read` produced must then be discarded).
    fn read_optimistic<R>(&self, read: impl FnOnce(usize) -> R) -> Result<R, Contended> {
        let v0 = self.version.load(Ordering::SeqCst);
        if v0 & 1 == 1 {
            return Err(Contended);
        }
        // relaxed: bounded by capacity here; validated before use.
        let r = read(self.len.load(Ordering::Relaxed).min(self.keys.len()));
        // The data loads made since `v0` was read are ordered before the
        // re-load, and the read only counts if no writer opened a window
        // in between.
        fence(Ordering::Acquire);
        if self.version.load(Ordering::SeqCst) == v0 {
            Ok(r)
        } else {
            Err(Contended)
        }
    }

    /// Runs `read` with the writer lock held (locked read path /
    /// fallback): data is stable, no validation needed.
    fn read_locked<R>(&self, read: impl FnOnce(usize) -> R) -> R {
        let _g = self.lock.lock();
        // relaxed: the writer lock excludes mutators.
        read(self.len.load(Ordering::Relaxed))
    }

    /// Branchless halving lower bound over the first `n` slots via
    /// `Relaxed` loads. Callers either hold `lock` (stable data) or
    /// validate a version around the call (torn results discarded).
    fn lower_bound_relaxed(&self, key: Key, n: usize) -> usize {
        let mut base = 0usize;
        let mut len = n;
        if len == 0 {
            return 0;
        }
        while len > 1 {
            let half = len / 2;
            // relaxed: see fn doc — stability comes from the caller's
            // lock or seqlock validation, not from this load.
            base += usize::from(self.keys[base + half - 1].load(Ordering::Relaxed) < key) * half;
            len -= half;
        }
        // relaxed: see above.
        base + usize::from(self.keys[base].load(Ordering::Relaxed) < key)
    }

    /// Hint-first lookup of `key` among the first `n` slots (same
    /// stability contract as [`FineBucket::lower_bound_relaxed`]).
    fn find_relaxed(&self, key: Key, hint: usize, n: usize) -> Option<Value> {
        if n == 0 {
            return None;
        }
        let pos = hint.min(n - 1);
        // relaxed: see lower_bound_relaxed.
        let i = if self.keys[pos].load(Ordering::Relaxed) == key {
            pos
        } else {
            self.lower_bound_relaxed(key, n)
        };
        // relaxed: see lower_bound_relaxed.
        (i < n && self.keys[i].load(Ordering::Relaxed) == key)
            // relaxed: see lower_bound_relaxed.
            .then(|| self.vals[i].load(Ordering::Relaxed))
    }

    /// Appends up to `max` of the first `n` pairs (from the first key
    /// `>= start`, or slot 0 when `start` is `None`) to `out` (same
    /// stability contract as [`FineBucket::lower_bound_relaxed`]).
    fn copy_range_relaxed(
        &self,
        start: Option<Key>,
        n: usize,
        max: usize,
        out: &mut Vec<(Key, Value)>,
    ) {
        let i0 = start.map_or(0, |k| self.lower_bound_relaxed(k, n));
        for i in i0..n.min(i0 + max) {
            // relaxed: see lower_bound_relaxed; a torn pair is truncated
            // away by the optimistic caller.
            out.push((
                self.keys[i].load(Ordering::Relaxed),
                self.vals[i].load(Ordering::Relaxed),
            ));
        }
    }
}

/// Write guard over one [`FineBucket`]: holds the bucket lock with the
/// version odd; all mutation primitives live here so no path can mutate
/// outside a version window.
struct FineBucketWrite<'a> {
    b: &'a FineBucket,
    _guard: MutexGuard<'a, ()>,
}

impl Drop for FineBucketWrite<'_> {
    fn drop(&mut self) {
        // Back to even while the lock is still held; the SeqCst RMW keeps
        // the mutation's stores from sinking below the window close.
        self.b.version.fetch_add(1, Ordering::SeqCst);
    }
}

impl FineBucketWrite<'_> {
    fn len(&self) -> usize {
        // relaxed: this guard's lock excludes other mutators.
        self.b.len.load(Ordering::Relaxed)
    }

    /// Updates `key` in place; `false` if absent.
    fn update(&mut self, key: Key, value: Value) -> bool {
        let n = self.len();
        let i = self.b.lower_bound_relaxed(key, n);
        // relaxed: lock held, data stable.
        if i < n && self.b.keys[i].load(Ordering::Relaxed) == key {
            // relaxed: racing readers validate their version around loads.
            self.b.vals[i].store(value, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Inserts `(key, value)` preserving sorted order. The caller must
    /// have checked the key is absent and the bucket is not full.
    fn insert(&mut self, key: Key, value: Value) {
        let n = self.len();
        debug_assert!(n < self.b.keys.len(), "insert into full FineBucket");
        let i = self.b.lower_bound_relaxed(key, n);
        for j in (i..n).rev() {
            // relaxed: the shift is invisible to optimistic readers — any
            // probe overlapping it fails its version validation.
            self.b.keys[j + 1].store(self.b.keys[j].load(Ordering::Relaxed), Ordering::Relaxed);
            // relaxed: see above.
            self.b.vals[j + 1].store(self.b.vals[j].load(Ordering::Relaxed), Ordering::Relaxed);
        }
        // relaxed: see above.
        self.b.keys[i].store(key, Ordering::Relaxed);
        // relaxed: see above.
        self.b.vals[i].store(value, Ordering::Relaxed);
        // Release pairs with the Acquire in `live_len` (advisory reads);
        // probes order it via the seqlock instead.
        self.b.len.store(n + 1, Ordering::Release);
    }

    /// Removes `key`, shifting larger pairs left; `None` if absent.
    fn remove(&mut self, key: Key) -> Option<Value> {
        let n = self.len();
        let i = self.b.lower_bound_relaxed(key, n);
        // relaxed: lock held, data stable.
        if i >= n || self.b.keys[i].load(Ordering::Relaxed) != key {
            return None;
        }
        // relaxed: see above.
        let v = self.b.vals[i].load(Ordering::Relaxed);
        for j in i..n - 1 {
            // relaxed: shifts are covered by the seqlock window.
            self.b.keys[j].store(
                self.b.keys[j + 1].load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
            // relaxed: see above.
            self.b.vals[j].store(
                self.b.vals[j + 1].load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
        // Release pairs with the Acquire in `live_len`.
        self.b.len.store(n - 1, Ordering::Release);
        Some(v)
    }
}

/// A segment whose buckets are individually seqlocked.
pub struct FineSegment {
    local_depth: u32,
    remap: RemapFn,
    buckets: Vec<FineBucket>,
    num_keys: AtomicUsize,
    remap_streak: u32,
}

impl FineSegment {
    /// Converts a plain segment, reserving `cap` slots per bucket.
    fn from_segment(seg: Segment, cap: usize) -> Self {
        FineSegment {
            local_depth: seg.local_depth,
            remap_streak: seg.remap_streak,
            num_keys: AtomicUsize::new(seg.num_keys),
            buckets: seg
                .buckets
                .iter()
                .map(|b| FineBucket::from_bucket(b, cap))
                .collect(),
            remap: seg.remap,
        }
    }

    /// Converts back to a plain segment for structure operations (this copy
    /// is part of the overhead the paper measured).
    fn to_segment(&self) -> Segment {
        let buckets: Vec<Bucket> = self.buckets.iter().map(|b| b.to_bucket()).collect();
        let occupancy = buckets.iter().map(|b| b.len() as u16).collect();
        Segment {
            local_depth: self.local_depth,
            remap: self.remap.clone(),
            buckets,
            occupancy,
            // Acquire pairs with the Release key-count updates so the copy's
            // count matches the bucket contents just cloned.
            num_keys: self.num_keys.load(Ordering::Acquire),
            remap_streak: self.remap_streak,
        }
    }

    /// Bucket index of sub-key `sk`.
    #[inline]
    fn bucket_of(&self, sk: u64, m_total: u32) -> usize {
        let m = m_total - self.local_depth;
        self.remap.bucket_index(sk & mask64(m), m)
    }

    /// Routes a read of `sk`: target bucket plus the remap's in-bucket
    /// slot hint.
    #[inline]
    fn route(&self, idx: &Concurrent<BucketLocks>, sk: u64) -> (&FineBucket, usize) {
        let m = idx.m_total - self.local_depth;
        let k = sk & mask64(m);
        let hint = self.remap.slot_hint(k, m, idx.params.bucket_entries);
        (&self.buckets[self.remap.bucket_index(k, m)], hint)
    }

    /// Walks the buckets in order through `read`, appending pairs
    /// `>= start` until `out` holds `count`; `Ok(true)` once it does.
    fn walk_buckets<E>(
        &self,
        m_total: u32,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
        read: impl Fn(&FineBucket, Option<Key>, usize, &mut Vec<(Key, Value)>) -> Result<(), E>,
    ) -> Result<bool, E> {
        // Bucket indices are monotone in the key, so only the very first
        // bucket of the first segment can hold keys `< start`.
        let mut b = start.map_or(0, |(sk, _)| self.bucket_of(sk, m_total));
        let mut start_key = start.map(|(_, key)| key);
        let nb = self.buckets.len();
        while b < nb {
            if out.len() >= count {
                return Ok(true);
            }
            // Hint the next bucket's key array in while this one copies
            // (same rationale as `Segment::walk_from`).
            if b + 1 < nb {
                crate::simd::prefetch_slice(&self.buckets[b + 1].keys);
            }
            read(&self.buckets[b], start_key.take(), count - out.len(), out)?;
            b += 1;
        }
        Ok(out.len() >= count)
    }
}

/// One seqlocked latch per bucket under a read-mostly slot lock (see the
/// module docs).
pub struct BucketLocks;

impl Granularity for BucketLocks {
    type Payload = FineSegment;
    const NAME: &'static str = "DyTIS (bucket-locked)";

    fn wrap(seg: Segment, params: &Params) -> FineSegment {
        FineSegment::from_segment(seg, params.bucket_entries)
    }

    fn local_depth(seg: &FineSegment) -> u32 {
        seg.local_depth
    }

    /// Takes each bucket lock in turn (via the plain-segment conversion).
    fn plain(seg: &FineSegment) -> Cow<'_, Segment> {
        Cow::Owned(seg.to_segment())
    }

    fn probe(idx: &Concurrent<Self>, seg: &FineSegment, sk: u64, key: Key) -> Option<Value> {
        let (bucket, hint) = seg.route(idx, sk);
        bucket.read_locked(|n| bucket.find_relaxed(key, hint, n))
    }

    /// Lock-free bucket probe under the per-bucket seqlock — the hit path
    /// of a `get` acquires no lock at all.
    fn probe_optimistic(
        idx: &Concurrent<Self>,
        seg: &FineSegment,
        sk: u64,
        key: Key,
    ) -> Result<Option<Value>, Contended> {
        let (bucket, hint) = seg.route(idx, sk);
        // justified: bounded by BUCKET_RETRIES; a persistently contended
        // bucket charges the shell's retry ladder instead.
        for _ in 0..BUCKET_RETRIES {
            if let Ok(v) = bucket.read_optimistic(|n| bucket.find_relaxed(key, hint, n)) {
                return Ok(v);
            }
        }
        Err(Contended)
    }

    fn walk(
        idx: &Concurrent<Self>,
        seg: &FineSegment,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        let walked = seg.walk_buckets(idx.m_total, start, count, out, |bucket, from, max, out| {
            bucket.read_locked(|n| bucket.copy_range_relaxed(from, n, max, out));
            Ok::<(), Infallible>(())
        });
        let Ok(done) = walked;
        done
    }

    fn walk_optimistic(
        idx: &Concurrent<Self>,
        seg: &FineSegment,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> Result<bool, Contended> {
        seg.walk_buckets(idx.m_total, start, count, out, |bucket, from, max, out| {
            let base = out.len();
            // justified: bounded by BUCKET_RETRIES; the shell restarts or
            // falls back to the locked walk.
            for _ in 0..BUCKET_RETRIES {
                if bucket
                    .read_optimistic(|n| bucket.copy_range_relaxed(from, n, max, out))
                    .is_ok()
                {
                    return Ok(());
                }
                out.truncate(base);
            }
            Err(Contended)
        })
    }

    /// Directory read lock (held by the shell), slot read lock, ONE bucket
    /// write window.
    fn upsert(
        idx: &Concurrent<Self>,
        table: &Table<FineSegment>,
        slot: &Slot<FineSegment>,
        sk: u64,
        key: Key,
        value: Value,
        _repair: impl FnOnce(&mut Segment) -> bool,
    ) -> Upsert {
        let seg = slot.data.read();
        let mut bucket = seg.buckets[seg.bucket_of(sk, idx.m_total)].write();
        if bucket.update(key, value) {
            return Upsert::Done;
        }
        if bucket.len() >= idx.params.bucket_entries {
            return Upsert::Full;
        }
        bucket.insert(key, value);
        drop(bucket);
        // Release pairs with the Acquire load in `to_segment`.
        seg.num_keys.fetch_add(1, Ordering::Release);
        table.key_added();
        Upsert::Done
    }

    fn remove(
        idx: &Concurrent<Self>,
        table: &Table<FineSegment>,
        slot: &Slot<FineSegment>,
        sk: u64,
        key: Key,
    ) -> Option<Value> {
        let seg = slot.data.read();
        let v = seg.buckets[seg.bucket_of(sk, idx.m_total)]
            .write()
            .remove(key)?;
        // Release pairs with the Acquire load in `to_segment`.
        seg.num_keys.fetch_sub(1, Ordering::Release);
        table.key_removed();
        Some(v)
    }

    /// Runs Algorithm 1 once on a plain-segment copy; a local repair is
    /// swapped back in, a split reads from the copy.
    fn restructure(
        idx: &Concurrent<Self>,
        slot: &Slot<FineSegment>,
        sk: u64,
        repair: impl FnOnce(&mut Segment) -> bool,
        split: impl FnOnce(&Segment),
    ) {
        let fine = slot.data.read();
        if fine.buckets[fine.bucket_of(sk, idx.m_total)].live_len() < idx.params.bucket_entries {
            return; // Another thread already fixed it.
        }
        let mut seg = fine.to_segment();
        drop(fine);
        if repair(&mut seg) {
            // In-place swap under the slot's write lock, version-bracketed:
            // optimistic readers either lose the try_read or see the
            // version move and retry. Same slot Arc, so the published
            // snapshot stays valid.
            *slot.write() = Self::wrap(seg, &idx.params);
        } else {
            // The victim slot is never mutated (the split copies out of
            // `seg`), so a reader still probing it under a stale snapshot
            // sees complete pre-split data. No bucket writer can slip in
            // between the copy and the split: they all hold the directory
            // read lock, which the caller's write lock excludes.
            split(&seg);
        }
    }

    #[cfg(test)]
    fn bump_key_count(seg: &mut FineSegment) {
        seg.num_keys.fetch_add(1, Ordering::Release);
    }
}
