//! Recovery tests for [`DurableStore`]: graceful reopen, simulated kill,
//! checkpoint rotation, torn log tails, and writers, readers and
//! checkpoints racing on one store.

use kvstore::{DurabilityOptions, DurableStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kv-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(ops_per_checkpoint: u64) -> DurabilityOptions {
    DurabilityOptions {
        ops_per_checkpoint,
        ..DurabilityOptions::default()
    }
}

/// Spread keys over the whole key space: mix the counter into the top bits.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Tears the log mid-record, as a crash during an append would.
fn tear_last_record(wal_path: &Path) {
    let len = std::fs::metadata(wal_path).expect("wal").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(wal_path)
        .expect("open wal");
    f.set_len(len - durability::RECORD_LEN as u64 / 2)
        .expect("tear");
}

fn assert_matches_oracle(store: &DurableStore, oracle: &BTreeMap<u64, u64>) {
    assert_eq!(store.len(), oracle.len());
    let got = store.scan(0, oracle.len() + 16);
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want);
}

#[test]
fn graceful_shutdown_and_reopen() {
    let dir = temp_dir("graceful");
    let mut oracle = BTreeMap::new();
    {
        let store = DurableStore::open(&dir, opts(0)).expect("open");
        for i in 0..2_000u64 {
            let k = key(i);
            store.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        for i in (0..500u64).step_by(3) {
            let k = key(i);
            assert_eq!(store.del(k).expect("del"), oracle.remove(&k));
        }
        store.shutdown().expect("shutdown");
    }
    let store = DurableStore::open(&dir, opts(0)).expect("reopen");
    assert_matches_oracle(&store, &oracle);
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_recover_preserves_acknowledged_writes() {
    let dir = temp_dir("kill");
    let mut oracle = BTreeMap::new();
    {
        let store = DurableStore::open(&dir, opts(0)).expect("open");
        for i in 0..3_000u64 {
            let k = key(i);
            store.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        store.crash(); // no graceful flush, no checkpoint
    }
    let store = DurableStore::open(&dir, opts(0)).expect("recover");
    // Every acknowledged write must survive; crash() keeps the already
    // written prefix, so recovery here is exact.
    assert_matches_oracle(&store, &oracle);
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn automatic_checkpoints_rotate_the_log() {
    let dir = temp_dir("rotate");
    let per_ckpt = 500u64;
    let store = DurableStore::open(&dir, opts(per_ckpt)).expect("open");
    for i in 0..2_100u64 {
        store.set(key(i), i).expect("set");
    }
    let stats = store.wal_stats();
    assert!(
        stats.rotations >= 3,
        "expected >=3 rotations after {} ops at {} per checkpoint, got {}",
        2_100,
        per_ckpt,
        stats.rotations
    );
    // The rotated log holds only records since the last checkpoint.
    let wal_len = std::fs::metadata(dir.join("index.wal")).expect("wal").len();
    let full_len = durability::HEADER_LEN as u64 + 2_100 * durability::RECORD_LEN as u64;
    assert!(
        wal_len < full_len / 2,
        "log not rotated: {wal_len} bytes vs {full_len} unrotated"
    );
    assert!(dir.join("index.ckpt").exists(), "checkpoint file missing");
    store.shutdown().expect("shutdown");
    // Recovery = checkpoint + replay of the short tail.
    let store = DurableStore::open(&dir, opts(per_ckpt)).expect("reopen");
    assert_eq!(store.len(), 2_100);
    assert_eq!(store.get(key(1_234)), Some(1_234));
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_checkpoint_then_more_writes_then_kill() {
    let dir = temp_dir("ckpt-tail");
    let mut oracle = BTreeMap::new();
    {
        let store = DurableStore::open(&dir, opts(0)).expect("open");
        for i in 0..1_000u64 {
            let k = key(i);
            store.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        store.checkpoint_now().expect("checkpoint");
        for i in 1_000..1_500u64 {
            let k = key(i);
            store.set(k, i).expect("set");
            oracle.insert(k, i);
        }
        for i in (0..200u64).step_by(2) {
            let k = key(i);
            assert_eq!(store.del(k).expect("del"), oracle.remove(&k));
        }
        store.crash();
    }
    let store = DurableStore::open(&dir, opts(0)).expect("recover");
    assert_matches_oracle(&store, &oracle);
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_recovers_prefix() {
    let dir = temp_dir("torn");
    {
        let store = DurableStore::open(&dir, opts(0)).expect("open");
        for i in 0..100u64 {
            store.set(i, i * 10).expect("set");
        }
        store.crash();
    }
    tear_last_record(&dir.join("index.wal"));
    let store = DurableStore::open(&dir, opts(0)).expect("recover");
    // The last record was torn away; everything before it survives.
    assert_eq!(store.len(), 99);
    assert_eq!(store.get(98), Some(980));
    assert_eq!(store.get(99), None);
    // The repaired log accepts new writes and recovers again cleanly.
    store.set(99, 990).expect("set after repair");
    store.shutdown().expect("shutdown");
    let store = DurableStore::open(&dir, opts(0)).expect("reopen");
    assert_eq!(store.len(), 100);
    assert_eq!(store.get(99), Some(990));
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_group_commit() {
    let dir = temp_dir("group");
    let store = std::sync::Arc::new(DurableStore::open(&dir, opts(0)).expect("open"));
    let threads = 8u64;
    let per_thread = 250u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = std::sync::Arc::clone(&store);
            s.spawn(move || {
                for i in 0..per_thread {
                    store.set(key(t * per_thread + i), t).expect("set");
                }
            });
        }
    });
    let stats = store.wal_stats();
    assert_eq!(stats.records, threads * per_thread);
    assert!(
        stats.batches < stats.records,
        "group commit never batched: {} batches / {} records",
        stats.batches,
        stats.records
    );
    assert_eq!(store.len(), (threads * per_thread) as usize);
    let store =
        std::sync::Arc::try_unwrap(store).unwrap_or_else(|_| panic!("sole owner after scope"));
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn maintenance_stats_and_audit_track_the_index() {
    let dir = temp_dir("stats-audit");
    // Small engine geometry so maintenance fires at test scale.
    let store = DurableStore::open(
        &dir,
        DurabilityOptions {
            params: dytis::Params::small(),
            ..opts(0)
        },
    )
    .expect("open");
    let before = store.maintenance_stats();
    // Enough keys to force splits.
    for i in 0..20_000u64 {
        store.set(key(i), i).expect("set");
    }
    let after = store.maintenance_stats();
    let delta = after.delta_since(&before);
    assert!(delta.total_ops() > 0, "no maintenance counted: {delta:?}");
    // Delete most keys so the shrink counter fires too.
    for i in 0..19_000u64 {
        store.del(key(i)).expect("del");
    }
    let shrunk = store.maintenance_stats().delta_since(&after);
    assert!(
        shrunk.shrinks > 0,
        "delete flood shrank nothing: {shrunk:?}"
    );
    let report = store.audit();
    assert!(report.is_clean(), "audit dirty: {report:?}");
    assert!(
        report.checks > 100,
        "vacuous audit: {} checks",
        report.checks
    );
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writers racing on the same keys: the log must hold each key's writes
/// in the order they were applied, or replay would end a key on another
/// writer's value than the one the store served before the crash. The
/// barrier sends all four writers at one key per round, so every round
/// races.
#[test]
fn same_key_writers_recover_in_apply_order() {
    const KEYS: u64 = 64;
    let dir = temp_dir("same-key");
    let store = DurableStore::open(&dir, opts(0)).expect("open");
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (store, barrier) = (&store, &barrier);
            s.spawn(move || {
                for round in 0..500u64 {
                    barrier.wait();
                    store
                        .set(key(round % KEYS), (t << 32) | round)
                        .expect("set");
                }
            });
        }
    });
    let served: Vec<Option<u64>> = (0..KEYS).map(|k| store.get(key(k))).collect();
    store.crash();
    let store = DurableStore::open(&dir, opts(0)).expect("recover");
    for (k, want) in (0..KEYS).zip(served) {
        assert_eq!(store.get(key(k)), want, "key {k} recovered another write");
    }
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoints taken while a writer and a reader run: each must succeed
/// (the scan it writes sees a key set no write is changing), readers see
/// only ordered scans and written values, and recovery equals the acked
/// writes.
#[test]
fn checkpoints_under_concurrent_writers_and_readers() {
    const KEYS: u64 = 512;
    // Value `(i << 16) | slot` is write `i`, to `key(slot)` with
    // `slot = i % KEYS`.
    let written_to = |k: u64, v: u64| {
        let slot = v & 0xFFFF;
        key(slot) == k && (v >> 16) % KEYS == slot
    };
    let dir = temp_dir("ckpt-live");
    let store = DurableStore::open(&dir, opts(0)).expect("open");
    let acked = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let oracle = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut oracle = BTreeMap::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let (k, v) = (key(i % KEYS), (i << 16) | (i % KEYS));
                store.set(k, v).expect("set");
                oracle.insert(k, v);
                i += 1;
                acked.store(i, Ordering::Release);
            }
            oracle
        });
        let reader = s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                let rows = store.scan(0, KEYS as usize + 16);
                assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "scan unordered");
                for slot in 0..KEYS {
                    if let Some(v) = store.get(key(slot)) {
                        assert!(written_to(key(slot), v), "get({slot}) = {v:#x}");
                    }
                }
            }
        });
        let checkpoints: Vec<_> = (0..20)
            .map(|_| {
                let seen = acked.load(Ordering::Acquire);
                while acked.load(Ordering::Acquire) < seen + 50 && !writer.is_finished() {
                    std::thread::yield_now();
                }
                store.checkpoint_now()
            })
            .collect();
        // Stop both threads before any assertion, so a failure cannot
        // leave the scope waiting on them.
        stop.store(true, Ordering::Release);
        let (read, written) = (reader.join(), writer.join());
        for (c, r) in checkpoints.into_iter().enumerate() {
            r.unwrap_or_else(|e| panic!("checkpoint {c} under live writes: {e}"));
        }
        read.expect("reader");
        written.expect("writer")
    });
    assert_eq!(store.wal_stats().rotations, 20);
    store.crash();
    let store = DurableStore::open(&dir, opts(0)).expect("recover");
    assert_matches_oracle(&store, &oracle);
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store's own counters: a torn-tail reopen and an automatic
/// checkpoint each raise theirs. The obs registry is process-global and
/// other tests run beside this one, so only deltas are compared.
#[cfg(feature = "metrics")]
#[test]
fn torn_reopen_and_automatic_checkpoint_raise_counters() {
    let truncated = obs::counter("kv.wal.truncated_recoveries");
    let written = obs::counter("kv.ckpt.written");
    let dir = temp_dir("counters");
    let store = DurableStore::open(&dir, opts(0)).expect("open");
    for i in 0..10u64 {
        store.set(key(i), i).expect("set");
    }
    store.crash();
    tear_last_record(&dir.join("index.wal"));
    let before = truncated.get();
    let store = DurableStore::open(&dir, opts(4)).expect("recover");
    assert!(truncated.get() > before, "torn tail not counted");
    let before = written.get();
    for i in 0..4u64 {
        store.set(key(i), i).expect("set");
    }
    assert!(written.get() > before, "automatic checkpoint not counted");
    store.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
