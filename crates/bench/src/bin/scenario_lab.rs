//! The dynamic-dataset scenario lab: replays the built-in drift battery
//! (DESIGN.md §13) against a live index, sampling variance of skewness and
//! window-KL divergence next to the maintenance counters, and emits the
//! per-phase timeline as `BENCH_scenarios.json`.
//!
//! Legs:
//!
//! - default — every built-in scenario plus the stationary control against
//!   an in-process `DyTis` (small geometry so maintenance is visible at
//!   bench scale).
//! - `--net` — additionally replays the drift scenario through the real
//!   TCP server (`TpcServer` over one small-geometry `ConcurrentDyTis`)
//!   via the blocking `DYF1` client, reading the index's counters
//!   server-side.
//! - `--chaos` — additionally runs the chaos leg: a `DurableStore`
//!   is killed mid-drift every few thousand acked mutations, recovered,
//!   and checked against the acked-op oracle plus a deep audit.
//! - `--assert-drift` — pins the acceptance bar: the MM→TX drift scenario
//!   must fire strictly more remap activity than its shape-identical
//!   stationary control.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin scenario_lab [-- --smoke]
//!     [--net] [--chaos] [--assert-drift] [--out BENCH_scenarios.json]
//! ```

use dytis::{ConcurrentDyTis, DyTis, Params};
use index_traits::{Key, MaintenanceStats, Value};
use kvstore::{BinClient, DurabilityOptions, TpcOptions, TpcServer};
use scenario::{builtin, chaos, compile, run, DytisTarget, RunOptions, ScenarioTarget, Timeline};

/// Network adapter: ops go over the wire through the blocking client;
/// counters are read server-side from the served index.
struct NetTarget<'a> {
    client: BinClient,
    server: &'a TpcServer,
}

impl ScenarioTarget for NetTarget<'_> {
    fn set(&mut self, key: Key, value: Value) {
        self.client.set(key, value).expect("net set");
    }
    fn get(&mut self, key: Key) -> Option<Value> {
        self.client.get(key).expect("net get")
    }
    fn del(&mut self, key: Key) -> Option<Value> {
        self.client.del(key).expect("net del")
    }
    fn scan(&mut self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
        out.extend(self.client.scan(start, count).expect("net scan"));
    }
    fn maintenance_stats(&mut self) -> Option<MaintenanceStats> {
        Some(self.server.index().maintenance_stats())
    }
    fn target_name(&self) -> &'static str {
        "kvstore-net"
    }
}

fn run_inproc(sc: &scenario::Scenario, opts: &RunOptions) -> Timeline {
    let compiled = compile(sc);
    let mut idx = DyTis::with_params(Params::small());
    let mut target = DytisTarget { idx: &mut idx };
    let tl = run(&mut target, &compiled, opts);
    eprintln!(
        "[scenario_lab] {} ({} ops): splits={} expansions={} remaps={} shrinks={}",
        tl.scenario,
        tl.ops,
        tl.total.splits,
        tl.total.expansions,
        tl.total.remaps,
        tl.total.shrinks
    );
    tl
}

fn run_net(sc: &scenario::Scenario, opts: &RunOptions) -> Timeline {
    let compiled = compile(sc);
    let tpc = TpcOptions {
        workers: 2,
        ..TpcOptions::default()
    };
    let index = ConcurrentDyTis::with_params(Params::small());
    let server = TpcServer::with_index("127.0.0.1:0", tpc, index).expect("server start");
    let client = BinClient::connect(server.addr()).expect("client connect");
    let mut target = NetTarget {
        client,
        server: &server,
    };
    let tl = run(&mut target, &compiled, opts);
    eprintln!(
        "[scenario_lab] {} over tcp ({} ops): maintenance total={}",
        tl.scenario,
        tl.ops,
        tl.total.total_ops()
    );
    let report = server.shutdown();
    assert!(report.drained, "server failed to drain: {report:?}");
    tl
}

fn run_chaos_leg(scale: usize) -> String {
    let dir = std::env::temp_dir().join(format!("scenario-lab-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let compiled = compile(&builtin::mm_to_tx_drift(scale));
    let report = chaos::run_chaos(
        &dir,
        &compiled,
        &chaos::ChaosOptions {
            kill_every: (scale / 2).max(1),
            durability: DurabilityOptions {
                ops_per_checkpoint: 0,
                params: Params::small(),
            },
            checkpoint_alternate: true,
        },
    )
    .expect("chaos leg");
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "[scenario_lab] chaos: {} kills, {} acked, {} live keys, {} audit checks",
        report.kills, report.acked, report.final_len, report.audit_checks
    );
    format!(
        "{{\"kills\":{},\"acked\":{},\"final_len\":{},\"audit_checks\":{}}}",
        report.kills, report.acked, report.final_len, report.audit_checks
    )
}

/// Serve-phase remap activity: learned-model rebuilds plus the segment
/// reorganisations around them, counted only inside the phase the drift
/// scenario and its control share verbatim. (Run totals would also count
/// the deliberately-different warmups.)
fn serve_remap_activity(t: &Timeline) -> u64 {
    let p = t
        .phases
        .iter()
        .find(|p| p.name == "serve")
        .unwrap_or_else(|| panic!("{} has no serve phase", t.scenario));
    p.delta.remaps + p.delta.splits + p.delta.expansions + p.delta.doublings
}

fn main() {
    let mut smoke = false;
    let mut net = false;
    let mut chaos_leg = false;
    let mut assert_drift = false;
    let mut out_path = String::from("BENCH_scenarios.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--net" => net = true,
            "--chaos" => chaos_leg = true,
            "--assert-drift" => assert_drift = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown arg {other}; usage: scenario_lab [--smoke] [--net] \
                     [--chaos] [--assert-drift] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    let scale: usize = if smoke { 10_000 } else { 100_000 };
    let opts = RunOptions {
        sample_every: (scale / 10).max(1),
        window: (scale / 10).max(64),
        ..RunOptions::default()
    };
    eprintln!("[scenario_lab] smoke={smoke} scale={scale} net={net} chaos={chaos_leg}");

    let mut timelines: Vec<Timeline> = Vec::new();
    for sc in builtin::all(scale) {
        timelines.push(run_inproc(&sc, &opts));
    }
    let control = run_inproc(&builtin::stationary_control(scale), &opts);

    // invariant: builtin::all always leads with the drift scenario.
    let drift = &timelines[0];
    let drift_remaps = serve_remap_activity(drift);
    let control_remaps = serve_remap_activity(&control);
    eprintln!(
        "[scenario_lab] drift check: serve-phase remap activity {drift_remaps} \
         under drift vs {control_remaps} stationary"
    );
    if assert_drift {
        assert!(
            drift_remaps > control_remaps,
            "drift scenario fired no more serve-phase remap activity \
             ({drift_remaps}) than its stationary control ({control_remaps})"
        );
        eprintln!("[scenario_lab] drift assertion passed");
    }
    timelines.push(control);

    if net {
        timelines.push(run_net(&builtin::mm_to_tx_drift(scale / 10), &opts));
    }
    let chaos_json = if chaos_leg {
        Some(run_chaos_leg(scale / 10))
    } else {
        None
    };

    let mut json = String::with_capacity(1 << 16);
    json.push_str("{\"scenarios\":[");
    for (i, tl) in timelines.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&tl.to_json());
    }
    json.push_str(&format!(
        "],\"drift_check\":{{\"drift_remap_activity\":{drift_remaps},\
         \"control_remap_activity\":{control_remaps},\
         \"drift_exceeds_control\":{}}}",
        drift_remaps > control_remaps
    ));
    if let Some(c) = chaos_json {
        json.push_str(&format!(",\"chaos\":{c}"));
    }
    json.push('}');
    std::fs::write(&out_path, &json).expect("write json");
    eprintln!("[scenario_lab] wrote {out_path}");
}
