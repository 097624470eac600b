//! Differential drift testing: every built-in scenario of the drift
//! battery (`scenario::builtin`) is compiled once and replayed through
//! every `KvIndex` implementation in lockstep with a `BTreeMap<u64, u64>`
//! oracle. Unlike `tests/differential.rs` (stationary random traces),
//! these streams *shift distribution mid-run* — MM→TX drift, hot-key
//! storms, delete-heavy shrink with a sorted bulk-reload splice — so the
//! maintenance machinery fires under the paper's dynamic-dataset premise
//! while correctness is checked op by op.
//!
//! At every phase boundary the structure's deep invariant audit must come
//! back clean and non-vacuous.

use dytis_repro::alex_index::Alex;
use dytis_repro::dytis::{DyTis, Params};
use dytis_repro::exhash::{Cceh, ExtendibleHash};
use dytis_repro::index_traits::{Auditable, Key, KvIndex, Value};
use dytis_repro::lipp::Lipp;
use dytis_repro::scenario::{builtin, compile, CompiledScenario, ScenarioOp, SCAN_COUNT};
use dytis_repro::stx_btree::BPlusTree;
use dytis_repro::xindex::XIndex;
use std::collections::BTreeMap;

/// Per-phase op count of each scenario. Release builds force real DyTIS
/// maintenance under `Params::small()`; debug stays responsive.
const SCALE: usize = if cfg!(debug_assertions) {
    3_000
} else {
    20_000
};

/// Replays `compiled` through `idx` in lockstep with the oracle. Scans are
/// compared only when `scans` is set (the hash baselines implement scan as
/// a no-op). At each phase boundary the audit must be clean.
fn replay<I: KvIndex + Auditable>(idx: &mut I, compiled: &CompiledScenario, scans: bool) {
    let name = idx.name();
    let mut oracle: BTreeMap<Key, Value> = BTreeMap::new();
    let mut got = Vec::with_capacity(SCAN_COUNT);
    let mut boundaries = compiled.phases.iter().peekable();
    for (i, &op) in compiled.ops.iter().enumerate() {
        match op {
            ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) => {
                idx.insert(k, v);
                oracle.insert(k, v);
            }
            ScenarioOp::Read(k) => {
                assert_eq!(
                    idx.get(k),
                    oracle.get(&k).copied(),
                    "{name}: {} op {i}: get({k}) diverged",
                    compiled.name
                );
            }
            ScenarioOp::Scan(start) => {
                if scans {
                    got.clear();
                    idx.scan(start, SCAN_COUNT, &mut got);
                    let want: Vec<(Key, Value)> = oracle
                        .range(start..)
                        .take(SCAN_COUNT)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    assert_eq!(
                        got, want,
                        "{name}: {} op {i}: scan({start}) diverged",
                        compiled.name
                    );
                }
            }
            ScenarioOp::Delete(k) => {
                assert_eq!(
                    idx.remove(k),
                    oracle.remove(&k),
                    "{name}: {} op {i}: remove({k}) diverged",
                    compiled.name
                );
            }
        }
        if boundaries.peek().is_some_and(|span| span.end == i + 1) {
            let span = boundaries.next().unwrap();
            assert_eq!(
                idx.len(),
                oracle.len(),
                "{name}: {} phase {:?}: len diverged",
                compiled.name,
                span.name
            );
            let report = idx.audit();
            assert!(
                report.is_clean(),
                "{name}: {} phase {:?}: audit violations {:?}",
                compiled.name,
                span.name,
                report.violations
            );
            // Non-vacuity scales with live keys: a drained structure
            // legitimately has little to check, a full one must not.
            let floor = oracle.len().min(100);
            assert!(
                report.checks > floor,
                "{name}: {} phase {:?}: vacuous audit ({} checks, {} live keys)",
                compiled.name,
                span.name,
                report.checks,
                oracle.len()
            );
        }
    }
    assert_eq!(
        idx.len(),
        oracle.len(),
        "{name}: {} final len",
        compiled.name
    );
}

fn battery<I: KvIndex + Auditable>(build: impl Fn() -> I, scans: bool) {
    for sc in builtin::all(SCALE) {
        let compiled = compile(&sc);
        replay(&mut build(), &compiled, scans);
    }
}

#[test]
fn drift_dytis_small_params() {
    battery(|| DyTis::with_params(Params::small()), true);
}

#[test]
fn drift_dytis_default_params() {
    battery(DyTis::new, true);
}

#[test]
fn drift_btree() {
    battery(BPlusTree::new, true);
}

#[test]
fn drift_alex() {
    battery(Alex::new, true);
}

#[test]
fn drift_xindex() {
    battery(XIndex::new, true);
}

#[test]
fn drift_lipp() {
    battery(Lipp::new, true);
}

// The hash baselines implement `scan` as a no-op (unordered layout), so
// the replay skips scan comparison for them.
#[test]
fn drift_extendible_hash() {
    battery(ExtendibleHash::new, false);
}

#[test]
fn drift_cceh() {
    battery(Cceh::new, false);
}

/// Drift read-hammer: the writer replays the MM→TX drift stream (keys
/// forced even) through `ConcurrentDyTis`, so maintenance fires under a
/// *shifting* distribution, while reader threads hammer a stable odd-key
/// population through the §3.4 read path and compare every lookup against
/// the oracle. Same non-vacuity bar as `tests/differential.rs`: the writer
/// starts once every reader runs, and the maintenance it fired meanwhile
/// must include a split and a doubling.
#[test]
fn drift_concurrent_read_hammer() {
    use dytis_repro::dytis::ConcurrentDyTis;
    use dytis_repro::index_traits::ConcurrentKvIndex;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    const READERS: usize = 3;
    const STABLE: u64 = 4_000;

    fn scramble(id: u64) -> u64 {
        id.wrapping_mul(0x9E3779B97F4A7C15)
    }

    // The release-build scale in every build: the debug `SCALE` stream
    // only remaps, and the non-vacuity bar below needs a split.
    let compiled = Arc::new(compile(&builtin::mm_to_tx_drift(20_000)));
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
        let compiled = Arc::clone(&compiled);
        std::thread::spawn(move || {
            started.wait();
            let before = idx.maintenance_stats();
            // Keys forced even: disjoint from the stable population. No
            // oracle on the writer side — the drift stream only exists to
            // drive maintenance while readers verify.
            for &op in &compiled.ops {
                match op {
                    ScenarioOp::Insert(k, v) | ScenarioOp::Update(k, v) => {
                        idx.insert(k & !1, v);
                    }
                    ScenarioOp::Delete(k) => {
                        idx.remove(k & !1);
                    }
                    ScenarioOp::Read(k) => {
                        idx.get(k & !1);
                    }
                    ScenarioOp::Scan(_) => {}
                }
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
                let mut got = Vec::with_capacity(SCAN_COUNT);
                let mut i = r * 1_013;
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
                        idx.scan(k, SCAN_COUNT, &mut got);
                        assert!(
                            got.windows(2).all(|w| w[0].0 < w[1].0),
                            "reader {r}: scan from {k:#x} unsorted"
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
    for (&k, &v) in stable.iter() {
        assert_eq!(idx.get(k), Some(v), "stable key {k:#x} lost after hammer");
    }
    idx.audit().assert_clean();
}

/// The drift acceptance bar, as a test: the MM→TX drift scenario must fire
/// strictly more serve-phase remap activity on DyTIS than its
/// shape-identical stationary control (same TX serve distribution, but the
/// warmup already trained the structure on it).
#[test]
fn drift_fires_more_serve_phase_maintenance_than_stationary_control() {
    use dytis_repro::scenario::{run, DytisTarget, RunOptions};

    let serve_activity = |sc: &dytis_repro::scenario::Scenario| -> u64 {
        let compiled = compile(sc);
        let mut idx = DyTis::with_params(Params::small());
        let mut target = DytisTarget { idx: &mut idx };
        let tl = run(&mut target, &compiled, &RunOptions::default());
        let p = tl
            .phases
            .iter()
            .find(|p| p.name == "serve")
            .expect("serve phase");
        p.delta.remaps + p.delta.splits + p.delta.expansions + p.delta.doublings
    };
    let drift = serve_activity(&builtin::mm_to_tx_drift(SCALE));
    let control = serve_activity(&builtin::stationary_control(SCALE));
    assert!(
        drift > control,
        "drift serve phase fired {drift} remap-activity ops, stationary control {control}"
    );
}
