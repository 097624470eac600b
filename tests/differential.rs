//! Differential testing: every `KvIndex` implementation is driven through a
//! long randomized trace of mixed operations in lockstep with a
//! `BTreeMap<u64, u64>` oracle, asserting identical observable behaviour
//! after every operation and re-checking aggregate state at every batch
//! boundary. At the end of each trace the structure's invariant audit must
//! come back clean.
//!
//! Unlike `tests/conformance.rs` (phased: all inserts, then all lookups,
//! ...), these traces interleave insert/update/get/scan/delete in a seeded
//! pseudo-random order, so maintenance operations (splits, remaps,
//! expansions, doublings) fire while deletions and scans are in flight.
//!
//! The harness itself is tested for non-vacuity: a deliberately corrupted
//! index (drops every Nth insert) must make `run_trace` report a
//! divergence.

use dytis_repro::alex_index::Alex;
use dytis_repro::dytis::{ConcurrentDyTis, DyTis, Params};
use dytis_repro::exhash::{Cceh, ExtendibleHash};
use dytis_repro::index_traits::{AuditReport, Auditable, ConcurrentKvIndex, Key, KvIndex, Value};
use dytis_repro::kvstore::{DurabilityOptions, DurableShardedStore};
use dytis_repro::lipp::Lipp;
use dytis_repro::stx_btree::BPlusTree;
use dytis_repro::xindex::XIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Trace length: long enough in release to force DyTIS segment splits,
/// expansions, and remaps under `Params::small()`; trimmed in debug so
/// `cargo test` stays responsive.
const OPS: usize = if cfg!(debug_assertions) {
    12_000
} else {
    100_000
};

/// Lockstep aggregate checks (len + sampled point lookups) run every batch.
const BATCH: usize = 2_000;

/// Key universe kept tight relative to `OPS` so updates, deletes, and
/// lookup hits actually land on live keys.
const KEY_SPACE: u64 = 1 << 16;

/// Golden-ratio scrambler: spreads the compact key ids across the u64
/// domain (learned indexes see a realistic spread, hash tables see
/// well-mixed bits) while staying deterministic.
fn scramble(id: u64) -> u64 {
    id.wrapping_mul(0x9E3779B97F4A7C15)
}

#[derive(Debug, Clone, Copy)]
enum TraceOp {
    Insert(Key, Value),
    Update(Key, Value),
    Get(Key),
    Scan(Key, usize),
    Delete(Key),
}

/// Generates a seeded mixed trace: 40% inserts (fresh or overwriting), 15%
/// updates of likely-live keys, 25% point lookups (hits and misses), 10%
/// scans, 10% deletes.
fn generate_trace(seed: u64, ops: usize) -> Vec<TraceOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Vec::with_capacity(ops);
    for i in 0..ops {
        let key = scramble(rng.gen_range(0..KEY_SPACE));
        let roll = rng.gen_range(0u32..100);
        trace.push(match roll {
            0..=39 => TraceOp::Insert(key, i as Value),
            40..=54 => TraceOp::Update(key, i as Value),
            55..=79 => TraceOp::Get(key),
            80..=89 => TraceOp::Scan(key, rng.gen_range(1usize..64)),
            _ => TraceOp::Delete(key),
        });
    }
    trace
}

/// Drives `idx` and the oracle through `trace` in lockstep, returning a
/// description of the first divergence instead of panicking so the
/// corruption-detection test below can assert the harness actually catches
/// mismatches.
fn run_trace<I: KvIndex>(idx: &mut I, trace: &[TraceOp], scans: bool) -> Result<(), String> {
    let mut oracle: BTreeMap<Key, Value> = BTreeMap::new();
    let mut got = Vec::with_capacity(64);
    for (i, &op) in trace.iter().enumerate() {
        match op {
            TraceOp::Insert(k, v) => {
                idx.insert(k, v);
                oracle.insert(k, v);
            }
            TraceOp::Update(k, v) => {
                let did = idx.update(k, v);
                let expected = oracle.contains_key(&k);
                if did != expected {
                    return Err(format!(
                        "{} op {i}: update({k}) returned {did}, oracle says {expected}",
                        idx.name()
                    ));
                }
                if expected {
                    oracle.insert(k, v);
                }
            }
            TraceOp::Get(k) => {
                let a = idx.get(k);
                let b = oracle.get(&k).copied();
                if a != b {
                    return Err(format!(
                        "{} op {i}: get({k}) = {a:?}, oracle {b:?}",
                        idx.name()
                    ));
                }
            }
            TraceOp::Scan(start, count) => {
                if scans {
                    got.clear();
                    idx.scan(start, count, &mut got);
                    let want: Vec<(Key, Value)> = oracle
                        .range(start..)
                        .take(count)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    if got != want {
                        return Err(format!(
                            "{} op {i}: scan({start}, {count}) diverged: got {} pairs, want {}",
                            idx.name(),
                            got.len(),
                            want.len()
                        ));
                    }
                }
            }
            TraceOp::Delete(k) => {
                let a = idx.remove(k);
                let b = oracle.remove(&k);
                if a != b {
                    return Err(format!(
                        "{} op {i}: remove({k}) = {a:?}, oracle {b:?}",
                        idx.name()
                    ));
                }
            }
        }
        // Batch boundary: aggregate state must still agree.
        if (i + 1) % BATCH == 0 {
            if idx.len() != oracle.len() {
                return Err(format!(
                    "{} op {i}: len {} != oracle len {}",
                    idx.name(),
                    idx.len(),
                    oracle.len()
                ));
            }
            // Sampled re-verification of live keys (every 97th).
            for (&k, &v) in oracle.iter().step_by(97) {
                if idx.get(k) != Some(v) {
                    return Err(format!("{} op {i}: batch check lost key {k}", idx.name()));
                }
            }
        }
    }
    if idx.len() != oracle.len() {
        return Err(format!(
            "{} final len {} != oracle {}",
            idx.name(),
            idx.len(),
            oracle.len()
        ));
    }
    Ok(())
}

/// Runs a fresh index through each seeded trace (panicking on divergence)
/// and then requires a clean, non-trivial invariant audit.
fn differential<I: KvIndex + Auditable>(build: impl Fn() -> I, scans: bool) {
    for seed in [0xD1FF_0001u64, 0xD1FF_0002] {
        let mut idx = build();
        let trace = generate_trace(seed, OPS);
        if let Err(e) = run_trace(&mut idx, &trace, scans) {
            panic!("seed {seed:#x}: {e}");
        }
        let report = idx.audit();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.checks > 100, "audit too shallow: {}", report.checks);
    }
}

#[test]
fn differential_dytis_small_params() {
    // Small params force splits/expansions/remaps/doublings inside the trace.
    differential(|| DyTis::with_params(Params::small()), true);
}

/// `ConcurrentDyTis` driven from one thread through the same seeded
/// traces: the `&self` index behind a `&mut self` facade.
struct SingleThreaded(ConcurrentDyTis);

impl KvIndex for SingleThreaded {
    fn insert(&mut self, key: Key, value: Value) {
        ConcurrentKvIndex::insert(&self.0, key, value);
    }
    fn get(&self, key: Key) -> Option<Value> {
        ConcurrentKvIndex::get(&self.0, key)
    }
    fn remove(&mut self, key: Key) -> Option<Value> {
        ConcurrentKvIndex::remove(&self.0, key)
    }
    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        ConcurrentKvIndex::scan(&self.0, start, count, out);
    }
    fn len(&self) -> usize {
        ConcurrentKvIndex::len(&self.0)
    }
    fn name(&self) -> &'static str {
        ConcurrentKvIndex::name(&self.0)
    }
    fn memory_bytes(&self) -> usize {
        0 // The concurrent index keeps no footprint accounting.
    }
}

impl Auditable for SingleThreaded {
    fn audit(&self) -> AuditReport {
        self.0.audit()
    }
}

#[test]
fn differential_concurrent_dytis_small_params() {
    differential(
        || SingleThreaded(ConcurrentDyTis::with_params(Params::small())),
        true,
    );
}

#[test]
fn differential_dytis_default_params() {
    differential(DyTis::new, true);
}

#[test]
fn differential_btree() {
    differential(BPlusTree::new, true);
}

#[test]
fn differential_alex() {
    differential(Alex::new, true);
}

#[test]
fn differential_xindex() {
    differential(XIndex::new, true);
}

#[test]
fn differential_lipp() {
    differential(Lipp::new, true);
}

// The hash baselines implement `scan` as a no-op (unordered layout, paper
// §4.1), so the trace skips scan comparison for them.
#[test]
fn differential_extendible_hash() {
    differential(ExtendibleHash::new, false);
}

#[test]
fn differential_cceh() {
    differential(Cceh::new, false);
}

/// Kill-and-recover lockstep: the durable sharded store runs the same style
/// of mixed trace against the oracle, but is killed (WAL committers abort,
/// nothing flushes gracefully) and recovered from disk at every batch
/// boundary. Since every mutation here is acknowledged before the trace
/// advances, recovery must reproduce the oracle *exactly* after each kill —
/// and alternating kills follow a checkpoint, so both the replay-everything
/// and the checkpoint-plus-short-tail paths are exercised.
#[test]
fn differential_durable_store_kill_and_recover() {
    const DURABLE_OPS: usize = if cfg!(debug_assertions) {
        4_000
    } else {
        16_000
    };
    const KILL_EVERY: usize = 1_000;
    let dir = std::env::temp_dir().join(format!(
        "dytis-durable-diff-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurabilityOptions {
        shard_bits: 2,
        ops_per_checkpoint: 0,
        max_batch_records: 256,
        ..DurabilityOptions::default()
    };
    let mut store = Some(DurableShardedStore::open(&dir, opts).expect("open"));
    let mut oracle: BTreeMap<Key, Value> = BTreeMap::new();
    let trace = generate_trace(0xD1FF_0003, DURABLE_OPS);
    let mut kills = 0usize;
    for (i, &op) in trace.iter().enumerate() {
        // invariant: `store` is only taken during the kill/reopen block
        // below, which always puts a reopened store back.
        let s = store.as_ref().expect("store open");
        match op {
            TraceOp::Insert(k, v) | TraceOp::Update(k, v) => {
                s.set(k, v).expect("durable set");
                oracle.insert(k, v);
            }
            TraceOp::Get(k) => {
                assert_eq!(s.get(k), oracle.get(&k).copied(), "op {i}: get({k})");
            }
            TraceOp::Scan(start, count) => {
                let got = s.scan(start, count);
                let want: Vec<(Key, Value)> = oracle
                    .range(start..)
                    .take(count)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(got, want, "op {i}: scan({start}, {count})");
            }
            TraceOp::Delete(k) => {
                assert_eq!(
                    s.del(k).expect("durable del"),
                    oracle.remove(&k),
                    "op {i}: del({k})"
                );
            }
        }
        if (i + 1).is_multiple_of(KILL_EVERY) {
            kills += 1;
            // invariant: populated above and between iterations.
            let s = store.take().expect("store open");
            if kills.is_multiple_of(2) {
                s.checkpoint_now().expect("checkpoint before kill");
            }
            s.crash();
            let s = DurableShardedStore::open(&dir, opts).expect("recover");
            assert_eq!(s.len(), oracle.len(), "kill {kills}: len diverged");
            let got = s.scan(0, oracle.len() + 16);
            let want: Vec<(Key, Value)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "kill {kills}: recovered state diverged");
            store = Some(s);
        }
    }
    assert!(kills >= 4, "trace too short to exercise recovery");
    // invariant: the loop always reinstalls the store.
    store
        .take()
        .expect("store open")
        .shutdown()
        .expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `range` must agree with `BTreeMap::range` in both latch modes over a
/// mixed-trace-built index (so splits, remaps, expansions, doublings, and
/// deletions have all reshaped the structure), from many start points and
/// widths, and over the whole key space.
#[test]
fn differential_dytis_range_both_modes() {
    let mut idx = DyTis::with_params(Params::small());
    let served = ConcurrentDyTis::with_params(Params::small());
    let mut oracle: BTreeMap<Key, Value> = BTreeMap::new();
    for &op in &generate_trace(0xD1FF_0004, OPS.min(30_000)) {
        match op {
            TraceOp::Insert(k, v) | TraceOp::Update(k, v) => {
                idx.insert(k, v);
                ConcurrentKvIndex::insert(&served, k, v);
                oracle.insert(k, v);
            }
            TraceOp::Delete(k) => {
                idx.remove(k);
                ConcurrentKvIndex::remove(&served, k);
                oracle.remove(&k);
            }
            _ => {}
        }
    }

    let want: Vec<(Key, Value)> = oracle.range(..Key::MAX).map(|(&k, &v)| (k, v)).collect();
    assert_eq!(idx.range(0, Key::MAX), want, "DyTis full range diverged");
    assert_eq!(
        served.range(0, Key::MAX),
        want,
        "ConcurrentDyTis full range diverged"
    );

    let mut rng = StdRng::seed_from_u64(0xD1FF_0005);
    // Range queries of assorted positions and widths vs BTreeMap::range.
    for _ in 0..200 {
        let a = scramble(rng.gen_range(0..KEY_SPACE));
        let b = a.saturating_add(rng.gen_range(1u64..1 << 48));
        let want: Vec<(Key, Value)> = oracle.range(a..b).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(
            idx.range(a, b),
            want,
            "DyTis range({a:#x}, {b:#x}) diverged"
        );
        assert_eq!(
            served.range(a, b),
            want,
            "ConcurrentDyTis range({a:#x}, {b:#x}) diverged"
        );
    }
}

/// A bulk-loaded DyTIS must be observationally identical to an insert-built
/// one: same audit-clean structure-level invariants, same lookups, same
/// scans — and it must keep absorbing mutations afterwards.
#[test]
fn differential_dytis_bulk_load() {
    let mut oracle: BTreeMap<Key, Value> = BTreeMap::new();
    for &op in &generate_trace(0xD1FF_0006, OPS.min(30_000)) {
        match op {
            TraceOp::Insert(k, v) | TraceOp::Update(k, v) => {
                oracle.insert(k, v);
            }
            TraceOp::Delete(k) => {
                oracle.remove(&k);
            }
            _ => {}
        }
    }
    let pairs: Vec<(Key, Value)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    for params in [Params::default(), Params::small()] {
        let mut idx = DyTis::bulk_load_with_params(&pairs, params);
        let report = idx.audit();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(idx.len(), oracle.len());
        for (&k, &v) in oracle.iter().step_by(13) {
            assert_eq!(idx.get(k), Some(v), "bulk-loaded index lost key {k:#x}");
        }
        let mut got = Vec::new();
        idx.scan(0, pairs.len(), &mut got);
        assert_eq!(got, pairs, "bulk-loaded scan diverged");
        // The bulk-built structure keeps absorbing the insert path.
        let mut shadow = oracle.clone();
        for i in 0..2_000u64 {
            let k = scramble(i) | 1;
            idx.insert(k, i);
            shadow.insert(k, i);
        }
        assert_eq!(idx.len(), shadow.len());
        idx.audit().assert_clean();
    }
}

/// Read-hammer differential: reader threads race the §3.4 read path
/// (DESIGN.md §14) against a `BTreeMap` oracle of *stable* keys while a
/// writer drives splits/doublings/remaps at `Params::small()` geometry.
/// Stable keys are odd, writer keys even, so reader lookups have exact
/// expected answers mid-churn. Readers also scan and check sortedness,
/// value fidelity of every stable pair returned, and completeness of the
/// stable population over the covered range. Non-vacuity: the writer
/// starts only once every reader runs, and the maintenance it fired
/// before the readers stopped must include a split and a doubling.
#[test]
fn differential_concurrent_read_hammer() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    const READERS: usize = 3;
    const STABLE: u64 = 4_000;
    const WRITER_OPS: u64 = 40_000;
    const SCAN_LEN: usize = 32;

    let idx = Arc::new(ConcurrentDyTis::with_params(Params::small()));
    let mut stable: BTreeMap<Key, Value> = BTreeMap::new();
    for i in 0..STABLE {
        let k = scramble(i) | 1;
        idx.insert(k, i);
        stable.insert(k, i);
    }
    let stable = Arc::new(stable);
    let done = Arc::new(AtomicBool::new(false));
    let started = Arc::new(Barrier::new(READERS + 1));
    let writer = {
        let idx = Arc::clone(&idx);
        let done = Arc::clone(&done);
        let started = Arc::clone(&started);
        std::thread::spawn(move || {
            started.wait();
            let before = idx.maintenance_stats();
            // Even keys only: disjoint from the stable population. Packed
            // into the lowest 1/64 of the key space so segments there split
            // past the global depth; a uniform stream mostly expands.
            for i in 0..WRITER_OPS {
                idx.insert((scramble(i ^ 0xABCD_0000) >> 6) & !1, i);
            }
            let fired = idx.maintenance_stats().delta_since(&before);
            done.store(true, Ordering::SeqCst);
            fired
        })
    };
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let idx = Arc::clone(&idx);
            let stable = Arc::clone(&stable);
            let done = Arc::clone(&done);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let keys: Vec<Key> = stable.keys().copied().collect();
                let mut got = Vec::with_capacity(SCAN_LEN);
                let mut i = r * 1_013; // stagger the walk per reader
                started.wait();
                while !done.load(Ordering::SeqCst) {
                    let k = keys[i % keys.len()];
                    assert_eq!(
                        idx.get(k),
                        stable.get(&k).copied(),
                        "reader {r}: stable key {k:#x} flickered"
                    );
                    if i % 64 == 0 {
                        got.clear();
                        idx.scan(k, SCAN_LEN, &mut got);
                        assert!(
                            got.windows(2).all(|w| w[0].0 < w[1].0),
                            "reader {r}: scan from {k:#x} unsorted: {got:?}"
                        );
                        for &(sk, sv) in &got {
                            if sk & 1 == 1 {
                                assert_eq!(
                                    stable.get(&sk).copied(),
                                    Some(sv),
                                    "reader {r}: scan returned corrupt stable pair"
                                );
                            }
                        }
                        // Every stable key the scan's range covered must be
                        // present (writer keys may interleave, stable ones
                        // may not vanish).
                        let upper = if got.len() == SCAN_LEN {
                            got.last().expect("non-empty").0
                        } else {
                            u64::MAX
                        };
                        for (&sk, _) in stable.range(k..=upper) {
                            assert!(
                                got.binary_search_by_key(&sk, |p| p.0).is_ok(),
                                "reader {r}: scan from {k:#x} dropped stable key {sk:#x}"
                            );
                        }
                    }
                    i += 1;
                }
            })
        })
        .collect();
    let fired = writer.join().expect("writer");
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        fired.splits > 0 && fired.doublings > 0,
        "readers never raced a split and a doubling: {fired:?}"
    );
    // Quiescent sweep: the full stable population, then deep audit.
    for (&k, &v) in stable.iter() {
        assert_eq!(idx.get(k), Some(v), "stable key {k:#x} lost after hammer");
    }
    idx.audit().assert_clean();
}

/// A deliberately buggy index: silently drops every Nth insert. Used to
/// prove the differential harness is not vacuous — it must detect the
/// divergence, not pass everything.
struct Corrupted<I> {
    inner: I,
    calls: u64,
    drop_every: u64,
}

impl<I: KvIndex> KvIndex for Corrupted<I> {
    fn insert(&mut self, key: Key, value: Value) {
        self.calls += 1;
        if self.calls.is_multiple_of(self.drop_every) {
            return; // the injected bug: lose this write
        }
        self.inner.insert(key, value);
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.inner.get(key)
    }
    fn remove(&mut self, key: Key) -> Option<Value> {
        self.inner.remove(key)
    }
    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        self.inner.scan(start, count, out);
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn name(&self) -> &'static str {
        "corrupted"
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

#[test]
fn harness_detects_corrupted_index() {
    let mut idx = Corrupted {
        inner: BPlusTree::new(),
        calls: 0,
        drop_every: 50,
    };
    let trace = generate_trace(0xD1FF_0001, OPS.min(20_000));
    let result = run_trace(&mut idx, &trace, true);
    assert!(
        result.is_err(),
        "differential harness failed to detect a dropped-insert bug"
    );
}

/// The sibling check: a corruption in the *scan* path alone (values
/// perturbed during range reads) is also caught, showing batch len/get
/// checks are not the only teeth.
struct ScanCorrupted<I> {
    inner: I,
}

impl<I: KvIndex> KvIndex for ScanCorrupted<I> {
    fn insert(&mut self, key: Key, value: Value) {
        self.inner.insert(key, value);
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.inner.get(key)
    }
    fn remove(&mut self, key: Key) -> Option<Value> {
        self.inner.remove(key)
    }
    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        self.inner.scan(start, count, out);
        if let Some(last) = out.last_mut() {
            last.1 ^= 1; // the injected bug: flip a bit of the last value
        }
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn name(&self) -> &'static str {
        "scan-corrupted"
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

#[test]
fn harness_detects_scan_corruption() {
    let mut idx = ScanCorrupted {
        inner: BPlusTree::new(),
    };
    let trace = generate_trace(0xD1FF_0002, OPS.min(20_000));
    let result = run_trace(&mut idx, &trace, true);
    assert!(
        result.is_err(),
        "differential harness failed to detect scan corruption"
    );
}
