//! Segment-lock granularity — the scheme of the paper's §3.4.
//!
//! The slot lock is the only lock below the directory: every mutation of a
//! segment (insert, remove/shrink, remapping, expansion) takes it in write
//! mode, so the slot version brackets *every* change and a reader's
//! revalidation alone proves its probe saw a stable segment. Segment-local
//! repairs run in place under the directory read lock; only split and
//! doubling go through the directory write lock.

use super::{Concurrent, Granularity, Slot, Table, Upsert};
use crate::params::Params;
use crate::segment::{BucketUpsert, Segment};
use crate::sync::atomic::Ordering;
use index_traits::{Key, Value};
use std::borrow::Cow;

/// One reader/writer lock per segment (see the module docs).
pub struct SegmentLocks;

/// Bucket index of sub-key `sk` within `seg`.
fn bucket_of(idx: &Concurrent<SegmentLocks>, seg: &Segment, sk: u64) -> usize {
    seg.bucket_of(seg.local_key(sk, idx.m_total), idx.m_total)
}

impl Granularity for SegmentLocks {
    type Payload = Segment;
    const NAME: &'static str = "DyTIS (concurrent)";

    fn wrap(seg: Segment, _params: &Params) -> Segment {
        seg
    }

    fn local_depth(seg: &Segment) -> u32 {
        seg.local_depth
    }

    fn plain(seg: &Segment) -> Cow<'_, Segment> {
        Cow::Borrowed(seg)
    }

    fn probe(idx: &Concurrent<Self>, seg: &Segment, sk: u64, key: Key) -> Option<Value> {
        seg.get(sk, key, idx.m_total, &idx.params)
    }

    fn walk(
        idx: &Concurrent<Self>,
        seg: &Segment,
        start: Option<(u64, Key)>,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> bool {
        let (b, slot) = start.map_or((0, 0), |(sk, key)| {
            let b = bucket_of(idx, seg, sk);
            (b, seg.buckets[b].lower_bound(key))
        });
        seg.walk_from(b, slot, count, out).is_some()
    }

    fn upsert(
        idx: &Concurrent<Self>,
        table: &Table<Segment>,
        slot: &Slot<Segment>,
        sk: u64,
        key: Key,
        value: Value,
        repair: impl FnOnce(&mut Segment) -> bool,
    ) -> Upsert {
        let mut seg = slot.write();
        let b = bucket_of(idx, &seg, sk);
        match seg.upsert_in_bucket(b, key, value, idx.params.bucket_entries) {
            BucketUpsert::Updated => Upsert::Done,
            BucketUpsert::Inserted => {
                table.key_added();
                Upsert::Done
            }
            // Segment-local fixes (remapping, expansion) only change this
            // segment object's contents, so they are legal under the
            // directory read lock + segment write lock held here; splits
            // and doubling need the directory write lock.
            BucketUpsert::Full => {
                if repair(&mut seg) {
                    Upsert::Repaired
                } else {
                    Upsert::Full
                }
            }
        }
    }

    fn remove(
        idx: &Concurrent<Self>,
        table: &Table<Segment>,
        slot: &Slot<Segment>,
        sk: u64,
        key: Key,
    ) -> Option<Value> {
        let mut seg = slot.write();
        let b = bucket_of(idx, &seg, sk);
        let v = seg.remove_from_bucket(b, key)?;
        table.key_removed();
        // Deletion merge (§3.3): a shrink only changes the segment object's
        // contents, so the segment write lock suffices (§3.4).
        if seg.total_buckets() > 1
            && seg.utilization(&idx.params) < idx.params.shrink_threshold
            && seg.shrink(idx.m_total, &idx.params)
        {
            // relaxed: monotonic stats counter, read after quiescence.
            table.shrinks.fetch_add(1, Ordering::Relaxed);
            obs::counter!("cdytis.shrink").inc();
        }
        Some(v)
    }

    fn restructure(
        idx: &Concurrent<Self>,
        slot: &Slot<Segment>,
        sk: u64,
        _repair: impl FnOnce(&mut Segment) -> bool,
        split: impl FnOnce(&Segment),
    ) {
        // Writers all hold the directory read lock while holding a segment
        // lock, so none can contend here; optimistic readers, however, may
        // hold this segment's read lock without any directory lock, so this
        // acquisition can block briefly. Readers never wait while holding a
        // segment guard, so no deadlock cycle can form.
        let seg = slot.write();
        let b = bucket_of(idx, &seg, sk);
        if seg.bucket_len(b) < idx.params.bucket_entries {
            return; // Another thread already fixed it.
        }
        // The fast path already ran Algorithm 1 on this segment and found
        // no in-place repair. The victim's write lock is released last,
        // when `seg` drops after `split` has published the new snapshot.
        split(&seg);
    }

    #[cfg(test)]
    fn bump_key_count(seg: &mut Segment) {
        seg.num_keys += 1;
    }
}

impl Concurrent<SegmentLocks> {
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
            let slot = &dir.entries[super::dir_index(dir.global_depth, sk, self.m_total)];
            let mut seg = slot.write();
            let b = bucket_of(self, &seg, sk);
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
