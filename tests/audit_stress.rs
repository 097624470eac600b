//! Workspace-level invariant-audit stress tests: every `Auditable`
//! structure survives a 100k-op randomized workload with a clean report,
//! the concurrent variants stay clean under an 8-thread interleaved
//! insert/remove/scan workload that forces splits and directory doublings,
//! and a persist→recover round trip preserves every invariant.

use dytis_repro::alex_index::Alex;
use dytis_repro::durability::save_index;
use dytis_repro::dytis::persist::load_from;
use dytis_repro::dytis::{ConcurrentDyTis, DyTis, Params};
use dytis_repro::exhash::{Cceh, ExtendibleHash};
use dytis_repro::index_traits::{Auditable, ConcurrentKvIndex, KvIndex};
use dytis_repro::lipp::Lipp;
use dytis_repro::stx_btree::BPlusTree;
use dytis_repro::xindex::{ConcurrentXIndex, XIndex};
use std::sync::Arc;

const OPS: u64 = 100_000;

/// Golden-ratio scrambler: deterministic, well-spread keys.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E3779B97F4A7C15)
}

/// Runs a deterministic mixed workload — 60% fresh inserts, 20% updates,
/// 10% removes, 10% scans — then asserts the audit is clean and deep.
fn churn<I: KvIndex + Auditable>(idx: &mut I, ops: u64) {
    let mut buf = Vec::with_capacity(32);
    for i in 0..ops {
        match i % 10 {
            0..=5 => idx.insert(key(i), i),
            6 | 7 => idx.insert(key(i / 2), i),
            8 => {
                let _ = idx.remove(key(i / 3));
            }
            _ => {
                buf.clear();
                idx.scan(key(i), 16, &mut buf);
                // Ordered structures must scan in strictly ascending key
                // order; the hash tables return nothing, which also passes.
                assert!(buf.windows(2).all(|w| w[0].0 < w[1].0));
            }
        }
    }
    let report = idx.audit();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(
        report.checks > 1_000,
        "audit too shallow: {}",
        report.checks
    );
}

#[test]
fn audit_clean_100k_dytis() {
    churn(&mut DyTis::with_params(Params::small()), OPS);
}

#[test]
fn audit_clean_100k_extendible_hash() {
    churn(&mut ExtendibleHash::new(), OPS);
}

#[test]
fn audit_clean_100k_cceh() {
    churn(&mut Cceh::new(), OPS);
}

#[test]
fn audit_clean_100k_bplus_tree() {
    churn(&mut BPlusTree::new(), OPS);
}

#[test]
fn audit_clean_100k_alex() {
    churn(&mut Alex::new(), OPS);
}

#[test]
fn audit_clean_100k_xindex() {
    churn(&mut XIndex::new(), OPS);
}

#[test]
fn audit_clean_100k_lipp() {
    churn(&mut Lipp::new(), OPS);
}

/// Eight threads interleave inserts, updates, removes, and scans over
/// disjoint-but-overlapping key ranges, then the quiesced structure must
/// audit clean.
fn concurrent_stress<I: ConcurrentKvIndex + Auditable + Send + Sync + 'static>(idx: Arc<I>) {
    const THREADS: u64 = 8;
    const PER: u64 = OPS / THREADS;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let idx = Arc::clone(&idx);
            std::thread::spawn(move || {
                let mut buf = Vec::with_capacity(32);
                let base = t * PER;
                for i in 0..PER {
                    match i % 10 {
                        0..=5 => idx.insert(key(base + i), i),
                        6 | 7 => idx.insert(key(base + i / 2), i),
                        8 => {
                            let _ = idx.remove(key(base + i / 3));
                        }
                        _ => {
                            buf.clear();
                            idx.scan(key(base + i), 16, &mut buf);
                            assert!(buf.windows(2).all(|w| w[0].0 < w[1].0));
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    let report = idx.audit();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(
        report.checks > 1_000,
        "audit too shallow: {}",
        report.checks
    );
}

#[test]
fn audit_clean_8_thread_concurrent_dytis() {
    // Params::small() keeps segments tiny so the workload forces many
    // splits and several directory doublings.
    concurrent_stress(Arc::new(ConcurrentDyTis::with_params(Params::small())));
}

#[test]
fn audit_clean_8_thread_concurrent_xindex() {
    concurrent_stress(Arc::new(ConcurrentXIndex::new()));
}

#[test]
fn persist_recover_audit_clean() {
    let mut idx = DyTis::with_params(Params::small());
    for i in 0..40_000u64 {
        idx.insert(key(i), i);
    }
    for i in (0..40_000u64).step_by(5) {
        idx.remove(key(i));
    }
    let before = idx.audit();
    assert!(before.is_clean(), "violations: {:?}", before.violations);

    let mut bytes = Vec::new();
    save_index(&idx, &mut bytes).expect("save");
    let recovered = load_from(&mut bytes.as_slice(), Params::small()).expect("load");

    assert_eq!(recovered.len(), idx.len());
    let report = recovered.audit();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(
        report.checks > 1_000,
        "audit too shallow: {}",
        report.checks
    );
    // Spot-check the recovered contents match.
    for i in (1..40_000u64).step_by(97) {
        assert_eq!(recovered.get(key(i)), idx.get(key(i)));
    }
}
