//! Concurrent DyTIS (§3.4): [`Index`] in the [`Latched`] mode — a
//! reader/writer latch per first-level table over one per segment
//! (DESIGN.md §14).
//!
//! The table, its directory, Algorithm 1's step, the split step, the scan
//! walk and the audit are `table.rs`'s, shared with [`crate::DyTis`]. This
//! module holds the latched insert and remove loops, and the conversion
//! from the exclusive mode.
//!
//! Every operation takes the two levels in the same order: a table latch,
//! then one segment latch. `get` and `scan` take both in read mode.
//! Operations that stay inside one segment (insert, remove/shrink,
//! remapping, expansion) hold the table *read* latch, so neither the
//! directory nor the arena can move underneath them, and the segment
//! *write* latch. The split step (a split or a directory doubling) takes
//! the table *write* latch alone: every segment-latch holder also holds
//! its table's latch, so under the write latch no other thread holds a
//! segment latch, and the step reaches the segment through `get_mut`. No
//! latch cycle can form. Scans walk the directory in key order, span by
//! span, under the table read latch, one segment read latch at a time.

use crate::segment::MAX_INSERT_STEPS;
use crate::sync::atomic::Ordering;
use crate::sync::RwLock;
use crate::table::{insert_step, remove_step, Latched, Mode, Owned, Step, Table};
use crate::{DyTis, Index};
use index_traits::{ConcurrentKvIndex, Key, Value};

/// The multi-threaded DyTIS index of §3.4 (used by the Figure 12
/// evaluation, and served by `kvstore::TpcServer`): [`Index`] in the
/// [`Latched`] mode; see the module docs.
pub type ConcurrentDyTis = Index<Latched>;

impl From<DyTis> for ConcurrentDyTis {
    /// Moves every table and segment of `idx` into a latch. No key is
    /// copied and no decision is re-made: the directories, the §3.3 limit
    /// state and the maintenance records move as they are, so a restored
    /// checkpoint or a bulk load is served without a second build path.
    /// Arenas keep their capacity, so the two modes' `memory_bytes` differ
    /// by the latches alone.
    fn from(idx: DyTis) -> Self {
        let mut tables = Vec::with_capacity(idx.tables.capacity());
        for Owned(t) in idx.tables {
            let mut segs = Vec::with_capacity(t.segs.capacity());
            segs.extend(t.segs.into_iter().map(|Owned(s)| RwLock::new(s)));
            tables.push(RwLock::new(Table {
                dir: t.dir,
                segs,
                num_keys: t.num_keys,
            }));
        }
        Index {
            params: idx.params,
            tables,
            insert_retries: idx.insert_retries,
        }
    }
}

impl ConcurrentDyTis {
    /// Intentionally broken insert, compiled only for model checking:
    /// proves the loom models are non-vacuous.
    ///
    /// Identical to [`index_traits::ConcurrentKvIndex::insert`] except the
    /// table key count is bumped *after* the segment latch is dropped, and
    /// with a torn `load`+`store` instead of `fetch_add` — the "it's just a
    /// counter" shortcut the §3.4 protocol forbids. The loom model in
    /// `tests/loom_models.rs` must find the two-thread schedule where one
    /// increment is lost (`len()` under-counts, the `table-key-count`
    /// audit trips). Callers must pick keys that fit the existing buckets;
    /// the split step is deliberately not reproduced here.
    #[cfg(loom)]
    pub fn insert_seeded_torn_counter(&self, key: Key, value: Value) {
        let (table, sk) = (&self.tables[self.table_of(key)], self.sub_key(key));
        let t = table.read();
        let inserted = {
            let mut seg = t.segs[t.dir.entry(sk) as usize].write();
            match insert_step(&t.dir, &mut seg, sk, key, value, &self.params) {
                Step::Inserted => true,
                Step::Updated => false,
                _ => panic!("seeded-bug insert requires a key that fits"),
            }
        };
        if inserted {
            // BUG (seeded): torn read-modify-write outside the segment
            // latch — a concurrent insert between the load and the store
            // loses an increment.
            let n = t.num_keys.load(Ordering::Acquire);
            t.num_keys.store(n + 1, Ordering::Release);
        }
    }
}

impl ConcurrentKvIndex for ConcurrentDyTis {
    fn insert(&self, key: Key, value: Value) {
        let (table, sk) = (&self.tables[self.table_of(key)], self.sub_key(key));
        let mut steps = 0u32;
        loop {
            steps += 1;
            assert!(
                steps < MAX_INSERT_STEPS,
                "concurrent insert failed to converge"
            );
            {
                let t = table.read();
                let mut seg = t.segs[t.dir.entry(sk) as usize].write();
                match insert_step(&t.dir, &mut seg, sk, key, value, &self.params) {
                    Step::Updated => return,
                    Step::Inserted => {
                        // Counted under the segment latch (see
                        // `Table::num_keys`); Release pairs with the
                        // Acquire in `Table::len`.
                        t.num_keys.fetch_add(1, Ordering::Release);
                        return;
                    }
                    // Repairs strictly grow the bucket's capacity share.
                    Step::Repaired => continue,
                    Step::NeedsSplit => {}
                }
            }
            // relaxed: monotonic advisory counter (split-step trips).
            self.insert_retries.fetch_add(1, Ordering::Relaxed);
            obs::counter!("cdytis.insert_retries").inc();
            let mut t = table.write();
            let t = &mut *t;
            // Recheck: another thread may have fixed the bucket between
            // the two latches.
            let m_total = t.dir.m_total();
            let seg = t.segs[t.dir.entry(sk) as usize].get_mut();
            let b = seg.bucket_of(seg.local_key(sk, m_total), m_total);
            if seg.bucket_len(b) >= self.params.bucket_entries {
                t.split_step(sk, &self.params);
            }
        }
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.lookup(key)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        let (table, sk) = (&self.tables[self.table_of(key)], self.sub_key(key));
        let t = table.read();
        let mut seg = t.segs[t.dir.entry(sk) as usize].write();
        let v = remove_step(&t.dir, &mut seg, sk, key, &self.params)?;
        // Uncounted under the segment latch, as `insert` counts; Release
        // pairs with the Acquire in `Table::len`.
        t.num_keys.fetch_sub(1, Ordering::Release);
        Some(v)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        self.scan_into(start, count, out);
    }

    fn len(&self) -> usize {
        self.key_count()
    }

    fn name(&self) -> &'static str {
        Latched::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::TABLE_KEY_COUNT;
    use crate::{Exclusive, Params};
    use index_traits::Auditable;
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
        let mut idx = audited();
        idx.tables[0].get_mut().segs[0].get_mut().num_keys += 1;
        assert!(violates(&idx, &["segment-key-count", TABLE_KEY_COUNT]));
    }

    #[test]
    fn read_hammer_during_splits() {
        // Writer splits/doubles under tiny geometry while readers spin on
        // stable keys and scans.
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
        let before = idx.maintenance_stats();
        for i in 2_000..30_000u64 {
            idx.insert(i * 4 + 1, i);
        }
        let fired = idx.maintenance_stats().delta_since(&before);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // Non-vacuity: the readers raced real structural surgery.
        assert!(
            fired.splits > 0 && fired.doublings > 0,
            "readers never raced a split and a doubling: {fired:?}"
        );
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

    /// The §3.3 limit multiplier of every table.
    fn limits<M: Mode>(idx: &Index<M>) -> Vec<u32> {
        let limit = |t: &M::Cell<crate::table::Table<M>>| M::read(t).active_limit_mult();
        idx.tables.iter().map(limit).collect()
    }

    /// Asserts that each latched index in `others` made the exclusive
    /// `single`'s maintenance decisions and holds its pairs, and that all
    /// of them audit clean.
    fn agree(name: &str, single: &crate::DyTis, others: [&ConcurrentDyTis; 2]) {
        use index_traits::KvIndex;
        let mut want = Vec::new();
        single.scan(0, usize::MAX, &mut want);
        single.audit().assert_clean();
        for (arm, idx) in ["latched", "converted"].into_iter().zip(others) {
            assert_eq!(limits(single), limits(idx), "{name}/{arm}");
            let (a, b) = (single.maintenance_stats(), idx.maintenance_stats());
            assert_eq!(a, b, "{name}/{arm}");
            let mut got = Vec::new();
            idx.scan(0, usize::MAX, &mut got);
            assert_eq!(want, got, "{name}/{arm}");
            idx.audit().assert_clean();
        }
    }

    /// `DyTis` and `ConcurrentDyTis` share Algorithm 1's step, the split
    /// step and the shrink rule but run them from their own loops: the
    /// same stream, then the removal of seven keys in eight, must make the
    /// same maintenance decisions, and record the same keys moved, through
    /// the exclusive mode, the latched mode, and an index that took the
    /// first half in the exclusive mode and the rest, with the removals,
    /// after conversion (`From`). (Removing every other key leaves
    /// segments near half full, above `shrink_threshold`, and shrinks
    /// nothing.)
    #[test]
    fn dytis_and_concurrent_agree_on_maintenance_decisions() {
        use index_traits::KvIndex;
        for (name, keys) in streams() {
            let mut single = crate::DyTis::with_params(Params::small());
            let (shell, mut half) = (small(), crate::DyTis::with_params(Params::small()));
            let mid = keys.len() / 2;
            for (i, &k) in keys.iter().enumerate() {
                single.insert(k, i as u64);
                shell.insert(k, i as u64);
                if i < mid {
                    half.insert(k, i as u64);
                }
            }
            let converted = ConcurrentDyTis::from(half);
            for (i, &k) in keys.iter().enumerate().skip(mid) {
                converted.insert(k, i as u64);
            }
            if name == "scrambled" {
                assert!(
                    limits(&shell).contains(&Params::small().limit_mult_raised),
                    "stream never raised the adaptive limit"
                );
            }
            assert!(
                shell.maintenance_stats().keys_moved > 0,
                "{name}: no keys moved"
            );
            let times = shell.stats().times;
            assert!(
                times.split_ns > 0 && times.doubling_ns > 0,
                "{name}: {times:?}"
            );
            if name == "scrambled" {
                assert!(times.expansion_ns > 0, "{name}: {times:?}");
            } else {
                assert!(times.remap_ns > 0, "{name}: {times:?}");
            }
            assert_eq!(single.len(), keys.len(), "{name}");
            agree(name, &single, [&shell, &converted]);
            for (i, &k) in keys.iter().enumerate().filter(|(i, _)| i % 8 != 0) {
                assert_eq!(single.remove(k), Some(i as u64), "{name}");
                assert_eq!(shell.remove(k), Some(i as u64), "{name}");
                assert_eq!(converted.remove(k), Some(i as u64), "{name}");
            }
            let shrinks = single.stats().ops.shrinks;
            assert!(shrinks > 0, "{name}: removals never shrank a segment");
            assert!(shell.stats().times.shrink_ns > 0, "{name}");
            assert_eq!(single.len(), keys.len() / 8, "{name}");
            agree(name, &single, [&shell, &converted]);
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

    /// A checkpoint written from the served index, recovered, then
    /// converted, serves the same pairs.
    #[test]
    fn served_checkpoint_recovers_through_conversion() {
        let idx = small();
        for k in 0..6_000u64 {
            idx.insert(k.wrapping_mul(SCRAMBLE), k);
        }
        for k in 0..1_000u64 {
            idx.remove(k.wrapping_mul(SCRAMBLE));
        }
        let dir = std::env::temp_dir().join(format!("dytis-served-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let (ckpt, log) = (dir.join("idx.ckpt"), dir.join("idx.wal"));
        crate::persist::write_checkpoint(&idx, &ckpt).expect("checkpoint");
        let (restored, rec) =
            crate::persist::recover(&ckpt, &log, Params::small()).expect("recover");
        assert_eq!(rec.replayed, 0);
        let restored = ConcurrentDyTis::from(restored);
        assert_eq!(restored.len(), idx.len());
        let (mut want, mut got) = (Vec::new(), Vec::new());
        idx.scan(0, usize::MAX, &mut want);
        restored.scan(0, usize::MAX, &mut got);
        assert_eq!(want.len(), 5_000);
        assert_eq!(got, want);
        restored.audit().assert_clean();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bulk-built index, converted, answers every key and keeps taking
    /// inserts through the latched path.
    #[test]
    fn bulk_load_then_conversion_answers_every_key() {
        let mut keys: Vec<u64> = (0..20_000u64).map(|k| k.wrapping_mul(SCRAMBLE)).collect();
        keys.sort_unstable();
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 7)).collect();
        let idx =
            ConcurrentDyTis::from(crate::DyTis::bulk_load_with_params(&pairs, Params::small()));
        assert_eq!(idx.len(), pairs.len());
        for &(k, v) in &pairs {
            assert_eq!(idx.get(k), Some(v), "key {k:#x}");
        }
        for k in 0..2_000u64 {
            idx.insert(k * 3 + 1, k);
        }
        assert_eq!(idx.len(), pairs.len() + 2_000);
        idx.audit().assert_clean();
    }

    /// Converting moves the cells and copies nothing else: the served
    /// face's `memory_bytes` exceeds the exclusive face's by exactly the
    /// latches around every table and every arena slot.
    #[test]
    fn memory_bytes_differ_by_the_latches_alone() {
        use crate::segment::Segment;
        use crate::table::Table;
        use index_traits::KvIndex;
        use std::mem::size_of;
        let mut single = crate::DyTis::with_params(Params::small());
        for k in 0..6_000u64 {
            single.insert(k.wrapping_mul(SCRAMBLE), k);
        }
        let tables = single.tables.capacity();
        let slots: usize = single.tables().map(|t| t.segs.capacity()).sum();
        let before = single.memory_bytes();
        let served = ConcurrentDyTis::from(single);
        let table_latch = size_of::<RwLock<Table<Latched>>>() - size_of::<Table<Exclusive>>();
        let seg_latch = size_of::<RwLock<Segment>>() - size_of::<Segment>();
        assert!(table_latch > 0 && seg_latch > 0);
        let want = before + tables * table_latch + slots * seg_latch;
        assert_eq!(served.memory_bytes(), want);
    }
}
