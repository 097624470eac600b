//! Chaos recovery under drift: a `DurableStore` replays built-in
//! drift scenarios and is killed (`crash()`, the kill -9 simulation from
//! the durability layer) repeatedly mid-stream — while segment splits,
//! remaps, and shrinks are in flight. After every restart the recovered
//! state must match the acked-op oracle exactly and the index's deep
//! audit must come back clean.

use dytis_repro::dytis::Params;
use dytis_repro::kvstore::DurabilityOptions;
use dytis_repro::scenario::{builtin, chaos, compile};
use std::path::PathBuf;

const SCALE: usize = if cfg!(debug_assertions) { 1_500 } else { 6_000 };

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scenario-chaos-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(kill_every: usize) -> chaos::ChaosOptions {
    chaos::ChaosOptions {
        kill_every,
        durability: DurabilityOptions {
            ops_per_checkpoint: 0,
            // Small geometry: maintenance (including shrink) is in flight
            // when the kill lands.
            params: Params::small(),
        },
        checkpoint_alternate: true,
    }
}

#[test]
fn drift_scenario_survives_repeated_kills() {
    let dir = temp_dir("drift");
    let compiled = compile(&builtin::mm_to_tx_drift(SCALE));
    let report = chaos::run_chaos(&dir, &compiled, &opts(SCALE / 2)).expect("chaos run");
    // Warmup is insert-only and serve is ~70% mutations: at least 4
    // crash/recover cycles happen mid-drift, plus the final one.
    assert!(report.kills >= 4, "{report:?}");
    assert!(report.acked > SCALE, "{report:?}");
    assert!(report.final_len > 0, "{report:?}");
    assert!(report.audit_checks > 100, "vacuous audits: {report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_heavy_scenario_survives_kills_while_shrinking() {
    let dir = temp_dir("shrink");
    let compiled = compile(&builtin::delete_heavy_shrink(SCALE));
    let report = chaos::run_chaos(&dir, &compiled, &opts(SCALE / 2)).expect("chaos run");
    assert!(report.kills >= 3, "{report:?}");
    // The drain phase deletes ~80% of ops; recovery after each kill must
    // reproduce the (shrunken) oracle exactly, which run_chaos asserts
    // internally. Here we only require the run made it through.
    assert!(report.acked > SCALE, "{report:?}");
    assert!(report.audit_checks > 100, "vacuous audits: {report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
