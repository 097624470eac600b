//! Multi-threaded integration tests for the concurrent indexes (§3.4,
//! §4.5): disjoint and overlapping writers, readers racing writers, and
//! scan consistency under churn.

use dytis_repro::datasets::{Dataset, DatasetSpec};
use dytis_repro::dytis::{ConcurrentDyTis, Params};
use dytis_repro::index_traits::ConcurrentKvIndex;
use dytis_repro::xindex::ConcurrentXIndex;
use std::sync::Arc;

const N: usize = if cfg!(debug_assertions) {
    12_000
} else {
    80_000
};

fn stress<I: ConcurrentKvIndex + 'static>(idx: Arc<I>, keys: Arc<Vec<u64>>, threads: usize) {
    let mut handles = Vec::new();
    for t in 0..threads {
        let idx = Arc::clone(&idx);
        let keys = Arc::clone(&keys);
        handles.push(std::thread::spawn(move || {
            for i in (t..keys.len()).step_by(threads) {
                idx.insert(keys[i], i as u64);
            }
        }));
    }
    // Reader thread interleaves lookups and scans while writers run.
    {
        let idx = Arc::clone(&idx);
        let keys = Arc::clone(&keys);
        handles.push(std::thread::spawn(move || {
            let mut buf = Vec::with_capacity(64);
            for round in 0..20 {
                for &k in keys.iter().step_by(503) {
                    let _ = idx.get(k);
                }
                buf.clear();
                idx.scan(keys[round * 7 % keys.len()], 64, &mut buf);
                assert!(
                    buf.windows(2).all(|w| w[0].0 < w[1].0),
                    "scan returned unsorted data during churn"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("thread panicked");
    }
    assert_eq!(idx.len(), keys.len());
    for (i, &k) in keys.iter().enumerate().step_by(97) {
        assert_eq!(idx.get(k), Some(i as u64), "key {k}");
    }
}

#[test]
fn concurrent_dytis_taxi_4_threads() {
    let keys = Arc::new(DatasetSpec::new(Dataset::Taxi, N).generate());
    stress(Arc::new(ConcurrentDyTis::new()), keys, 4);
}

#[test]
fn concurrent_dytis_review_8_threads() {
    let keys = Arc::new(DatasetSpec::new(Dataset::ReviewL, N).generate());
    stress(
        Arc::new(ConcurrentDyTis::with_params(Params::small())),
        keys,
        8,
    );
}

#[test]
fn concurrent_xindex_taxi_4_threads() {
    let keys = Arc::new(DatasetSpec::new(Dataset::Taxi, N).generate());
    stress(Arc::new(ConcurrentXIndex::new()), keys, 4);
}

#[test]
fn concurrent_dytis_overlapping_writers_last_value_wins() {
    let idx = Arc::new(ConcurrentDyTis::new());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let idx = Arc::clone(&idx);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    idx.insert(i * 3, i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer panicked");
    }
    // All writers wrote the same (key, value) mapping: it must hold exactly.
    assert_eq!(idx.len(), 20_000);
    for i in (0..20_000u64).step_by(331) {
        assert_eq!(idx.get(i * 3), Some(i));
    }
}

#[test]
fn concurrent_dytis_removes_race_inserts() {
    let idx = Arc::new(ConcurrentDyTis::new());
    for i in 0..30_000u64 {
        idx.insert(i, i);
    }
    let inserter = {
        let idx = Arc::clone(&idx);
        std::thread::spawn(move || {
            for i in 30_000..60_000u64 {
                idx.insert(i, i);
            }
        })
    };
    let remover = {
        let idx = Arc::clone(&idx);
        std::thread::spawn(move || {
            let mut removed = 0usize;
            for i in 0..30_000u64 {
                if idx.remove(i).is_some() {
                    removed += 1;
                }
            }
            removed
        })
    };
    inserter.join().expect("inserter");
    let removed = remover.join().expect("remover");
    assert_eq!(removed, 30_000);
    assert_eq!(idx.len(), 30_000);
    for i in (30_000..60_000u64).step_by(997) {
        assert_eq!(idx.get(i), Some(i));
    }
    for i in (0..30_000u64).step_by(997) {
        assert_eq!(idx.get(i), None);
    }
}

#[test]
fn concurrent_scan_sees_a_consistent_prefix_order() {
    // Scans under concurrent inserts need not be atomic snapshots, but each
    // returned batch must be sorted and contain only real keys.
    let keys = Arc::new(DatasetSpec::new(Dataset::Uniform, N).generate());
    let idx = Arc::new(ConcurrentDyTis::new());
    let writer = {
        let idx = Arc::clone(&idx);
        let keys = Arc::clone(&keys);
        std::thread::spawn(move || {
            for (i, &k) in keys.iter().enumerate() {
                idx.insert(k, i as u64);
            }
        })
    };
    let mut buf = Vec::with_capacity(128);
    let key_set: std::collections::HashSet<u64> = keys.iter().copied().collect();
    for start in (0..u64::MAX).step_by(u64::MAX as usize / 50).take(50) {
        buf.clear();
        idx.scan(start, 100, &mut buf);
        assert!(buf.windows(2).all(|w| w[0].0 < w[1].0));
        for (k, _) in &buf {
            assert!(key_set.contains(k), "scan invented key {k}");
        }
    }
    writer.join().expect("writer");
}
