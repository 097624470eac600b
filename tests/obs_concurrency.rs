//! Metrics-on concurrency smoke test: 8 threads churn a `ConcurrentDyTis`
//! while recording every operation through the obs layer, then the
//! registry's histogram totals must equal the op counts exactly — the
//! striped `Relaxed` counters lose nothing once the writers have joined.
//!
//! Run with `cargo test --features metrics --test obs_concurrency`.
#![cfg(feature = "metrics")]

use dytis_repro::dytis::{ConcurrentDyTis, Params};
use dytis_repro::index_traits::ConcurrentKvIndex;
use dytis_repro::obs;
use std::sync::Arc;

const THREADS: u64 = 8;
const OPS_PER_THREAD: u64 = 10_000;

/// The registry is process-global: tests that reset it or compare counter
/// deltas hold this for their whole body.
static REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Current value of the registered counter `name`.
fn counter(snap: &obs::Snapshot, name: &str) -> Option<u64> {
    let hit = snap.counters.iter().find(|(n, _)| n == name);
    hit.map(|&(_, v)| v)
}

/// Golden-ratio scrambler: deterministic, well-spread keys.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E3779B97F4A7C15)
}

#[test]
fn histogram_totals_match_op_counts_under_8_thread_churn() {
    let _serial = REGISTRY.lock().expect("a registry test panicked");
    obs::reset_all();

    let idx = Arc::new(ConcurrentDyTis::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let idx = Arc::clone(&idx);
            s.spawn(move || {
                let mut buf = Vec::with_capacity(16);
                for i in 0..OPS_PER_THREAD {
                    let k = key(t * OPS_PER_THREAD + i);
                    match i % 4 {
                        0 | 1 => {
                            let _t = obs::Timer::start(obs::histogram!("smoke.insert_ns"));
                            obs::counter!("smoke.insert").inc();
                            idx.insert(k, i);
                        }
                        2 => {
                            let _t = obs::Timer::start(obs::histogram!("smoke.get_ns"));
                            obs::counter!("smoke.get").inc();
                            let _ = idx.get(key(t * OPS_PER_THREAD + i / 2));
                        }
                        _ => {
                            let _t = obs::Timer::start(obs::histogram!("smoke.scan_ns"));
                            obs::counter!("smoke.scan").inc();
                            buf.clear();
                            idx.scan(k, 8, &mut buf);
                        }
                    }
                }
            });
        }
    });

    let snap = obs::snapshot();
    let counter = |name: &str| {
        counter(&snap, name).unwrap_or_else(|| panic!("counter {name} not registered"))
    };
    let hist = |name: &str| {
        snap.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_else(|| panic!("histogram {name} not registered"))
    };

    // Exactly half the ops are inserts, a quarter gets, a quarter scans.
    let total = THREADS * OPS_PER_THREAD;
    assert_eq!(counter("smoke.insert"), total / 2);
    assert_eq!(counter("smoke.get"), total / 4);
    assert_eq!(counter("smoke.scan"), total / 4);

    // Histogram totals equal the op counts: every timed op recorded exactly
    // one sample, none lost across stripes or threads.
    assert_eq!(hist("smoke.insert_ns").count, total / 2);
    assert_eq!(hist("smoke.get_ns").count, total / 4);
    assert_eq!(hist("smoke.scan_ns").count, total / 4);

    // Sanity on the latency shape: percentiles are ordered and bounded by
    // the exact recorded max.
    let h = hist("smoke.insert_ns");
    assert!(h.percentile(0.50) <= h.percentile(0.99));
    assert!(h.percentile(0.99) <= h.percentile(0.999));
    assert!(h.percentile(0.999) <= h.max);

    // The instrumented concurrent index registered its own counters too
    // (retry counter exists even when it never fired).
    assert_eq!(idx.len(), (total / 2) as usize);
}

/// Both indexes fill one maintenance record, which also bumps the
/// `dytis.*` obs counters: over one single-threaded stream through the
/// concurrent index the registry deltas must equal its
/// `maintenance_stats()` exactly.
#[test]
fn dytis_counters_match_concurrent_maintenance_stats() {
    let _serial = REGISTRY.lock().expect("a registry test panicked");
    let read = || {
        let snap = obs::snapshot();
        ["dytis.split", "dytis.expand", "dytis.remap", "dytis.double"]
            .map(|name| counter(&snap, name).unwrap_or(0))
    };
    let before = read();
    let idx = ConcurrentDyTis::with_params(Params::small());
    for i in 0..5_000u64 {
        idx.insert(key(i), i);
        idx.insert(i << 20, i);
    }
    let own = idx.maintenance_stats();
    assert!(own.splits > 0 && own.expansions > 0 && own.remaps > 0);
    let after = read();
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(
        delta,
        [own.splits, own.expansions, own.remaps, own.doublings],
        "dytis.* counters drifted from maintenance_stats()"
    );
}

#[test]
fn instrumented_index_paths_register_under_metrics() {
    let _serial = REGISTRY.lock().expect("a registry test panicked");
    // A single-threaded pass over the instrumented single-threaded DyTis
    // hot paths must register the dytis.* metrics.
    use dytis_repro::dytis::DyTis;
    use dytis_repro::index_traits::KvIndex;
    let mut idx = DyTis::new();
    let mut buf = Vec::new();
    for i in 0..1_000u64 {
        idx.insert(key(i), i);
    }
    let _ = idx.get(key(7));
    idx.scan(0, 10, &mut buf);
    assert_eq!(idx.remove(key(7)), Some(7));

    let snap = obs::snapshot();
    for name in ["dytis.insert", "dytis.get", "dytis.scan", "dytis.remove"] {
        let v = counter(&snap, name).unwrap_or_else(|| panic!("counter {name} not registered"));
        assert!(v > 0, "{name} never incremented");
    }
    for name in [
        "dytis.insert_ns",
        "dytis.get_ns",
        "dytis.scan_ns",
        "dytis.remove_ns",
    ] {
        let h = snap
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_else(|| panic!("histogram {name} not registered"));
        assert!(h.count > 0, "{name} recorded no samples");
    }
}
