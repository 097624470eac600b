//! Multithreaded YCSB driver: workloads A–E at 1/2/4/8 threads against a
//! concurrent index, with machine-readable output.
//!
//! This is the repo's perf-trajectory anchor (paper §4.3/§4.5, Fig. 12):
//! every scaling PR reports through the `BENCH_ycsb.json` it emits —
//! throughput, exact pooled latency percentiles (p50/p90/p99/p99.9/p99.99),
//! and the structural maintenance counts (splits, expansions, remaps,
//! directory doublings, insert retries) of the measured phase.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin ycsb_mt [-- --smoke] [--index dytis|xindex]
//!     [--net] [--out BENCH_ycsb.json]
//! ```
//!
//! `--smoke` shrinks the run for CI (~seconds). With `--features metrics`
//! the obs registry snapshot is embedded under an `"obs"` key; without it
//! the instrumentation compiles to no-ops and only the always-on
//! maintenance counters appear.
//!
//! `--net` (dytis only) drives the real KV server over loopback
//! instead of calling the index in process: one `TpcServer` (one poll(2)
//! event loop per core over one shared `ConcurrentDyTis`) per cell, loaded
//! and driven over `DYF1` binary frames by one `BinClient` per client
//! thread, the threads spread round-robin over the server's workers, with
//! order-preserving run-length batching. Latencies include the full
//! parse/serve/serialize path, so this is the end-to-end number the
//! service can honestly quote; the maintenance and insert-retry counters
//! are the server's own (`TpcServer::maintenance_stats`,
//! `TpcServer::insert_retries`). The run also times 1000
//! single `set`s against one `set_batch(1000)` and asserts the pipelined
//! path wins, recording both under a `"net_batch"` key.

use bench::{base_keys, base_ops};
use dytis::ConcurrentDyTis;
use index_traits::{ConcurrentKvIndex, Key, MaintenanceStats, Value};
use kvstore::{BinClient, TpcServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use xindex::ConcurrentXIndex;
use ycsb::{
    generate_ops, run_ops_concurrent_latencies, summarize, Op, Summary, Workload, SCAN_LEN,
};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const WORKLOADS: [Workload; 5] = [
    Workload::A,
    Workload::B,
    Workload::C,
    Workload::Dp,
    Workload::E,
];

/// The benchmarked index, with access to its maintenance counters where the
/// implementation tracks them (XIndex does not — its group splits/merges are
/// internal; counts read 0).
enum MtIndex {
    Dytis(Arc<ConcurrentDyTis>),
    Xindex(Arc<ConcurrentXIndex>),
}

impl MtIndex {
    fn build(name: &str) -> MtIndex {
        match name {
            "dytis" => MtIndex::Dytis(Arc::new(ConcurrentDyTis::new())),
            "xindex" => MtIndex::Xindex(Arc::new(ConcurrentXIndex::new())),
            other => {
                eprintln!("unknown index {other:?}; expected dytis | xindex");
                std::process::exit(2);
            }
        }
    }

    fn as_dyn(&self) -> Arc<dyn ConcurrentKvIndex> {
        match self {
            MtIndex::Dytis(i) => Arc::clone(i) as _,
            MtIndex::Xindex(i) => Arc::clone(i) as _,
        }
    }

    fn maintenance_stats(&self) -> MaintenanceStats {
        match self {
            MtIndex::Dytis(i) => i.maintenance_stats(),
            MtIndex::Xindex(_) => MaintenanceStats::default(),
        }
    }

    fn insert_retries(&self) -> u64 {
        match self {
            MtIndex::Dytis(i) => i.insert_retries(),
            MtIndex::Xindex(_) => 0,
        }
    }
}

/// Round-robin partition of an op stream (the paper's request assignment).
fn shards(ops: &[Op], threads: usize) -> Vec<Vec<Op>> {
    let mut out = vec![Vec::with_capacity(ops.len() / threads + 1); threads];
    for (i, op) in ops.iter().enumerate() {
        out[i % threads].push(*op);
    }
    out
}

/// Joins the workers of one cell and pools every per-op latency, so the
/// aggregate percentiles are exact (not the worst-thread approximation).
fn pool(handles: Vec<JoinHandle<(Vec<u64>, u64)>>, n_ops: usize, wall: Instant) -> Summary {
    let mut pooled = Vec::with_capacity(n_ops);
    let mut slowest = 0u64;
    for h in handles {
        let (lat, elapsed) = h.join().expect("worker");
        pooled.extend(lat);
        slowest = slowest.max(elapsed);
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    // Throughput over the true parallel wall clock (>= slowest thread).
    summarize(&mut pooled, wall_ns.max(slowest))
}

/// Runs `ops` over `threads` in-process workers.
fn run_threads(idx: &Arc<dyn ConcurrentKvIndex>, ops: &[Op], threads: usize) -> Summary {
    let parts = shards(ops, threads);
    let wall = Instant::now();
    let handles = parts
        .into_iter()
        .map(|shard| {
            let idx = Arc::clone(idx);
            std::thread::spawn(move || run_ops_concurrent_latencies(&*idx, &shard))
        })
        .collect();
    pool(handles, ops.len(), wall)
}

/// Run length cap for the binary client: at most this many consecutive
/// same-kind ops are coalesced into one pipelined batch.
const NET_RUN_CAP: usize = 256;

/// Runs one shard of ops through a binary client.
///
/// Consecutive ops of the same kind are coalesced into one pipelined
/// `set_batch`/`get_batch` (run-length batching), which preserves program
/// order exactly — a read never crosses a write to the same key — while
/// letting read-heavy workloads amortize round trips across whole runs.
/// Each op in a run is charged the run's full round-trip latency (its
/// honest time-to-result); throughput comes from the wall clock.
fn run_net_ops(client: &mut BinClient, ops: &[Op]) -> (Vec<u64>, u64) {
    let mut lat = Vec::with_capacity(ops.len());
    let mut sink = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while i < ops.len() {
        let t = Instant::now();
        let run_len = match ops[i] {
            Op::Insert(..) | Op::Update(..) => {
                let mut pairs = Vec::new();
                while i + pairs.len() < ops.len() && pairs.len() < NET_RUN_CAP {
                    match ops[i + pairs.len()] {
                        Op::Insert(k, v) | Op::Update(k, v) => pairs.push((k, v)),
                        _ => break,
                    }
                }
                client.set_batch(&pairs).expect("net set_batch");
                pairs.len()
            }
            Op::Read(..) => {
                let mut keys = Vec::new();
                while i + keys.len() < ops.len() && keys.len() < NET_RUN_CAP {
                    match ops[i + keys.len()] {
                        Op::Read(k) => keys.push(k),
                        _ => break,
                    }
                }
                let got = client.get_batch(&keys).expect("net get_batch");
                sink ^= got.iter().flatten().fold(0, |a, b| a ^ b);
                keys.len()
            }
            Op::Scan(k) => {
                let pairs = client.scan(k, SCAN_LEN).expect("net scan");
                sink ^= pairs.last().map(|&(lk, _)| lk).unwrap_or(0);
                1
            }
            Op::ReadModifyWrite(k, v) => {
                let cur = client.get(k).expect("net rmw get").unwrap_or(0);
                client.set(k, cur.wrapping_add(v)).expect("net rmw set");
                1
            }
        };
        let run_ns = t.elapsed().as_nanos() as u64;
        lat.extend(std::iter::repeat_n(run_ns, run_len));
        i += run_len;
    }
    std::hint::black_box(sink);
    (lat, start.elapsed().as_nanos() as u64)
}

/// One `--net` cell: fresh server, pipelined load, one client per client
/// thread, thread `t` on worker `t % workers`. Maintenance and insert-retry
/// counters come from the server's index.
fn net_cell(
    workload: Workload,
    loaded: &[Key],
    fresh: &[Key],
    n_ops: usize,
    threads: usize,
) -> (Summary, MaintenanceStats, u64) {
    let ops = generate_ops(workload, loaded, fresh, n_ops, 0xBE7C + threads as u64);
    let pairs: Vec<(Key, Value)> = loaded.iter().map(|&k| (k, k)).collect();
    let server = TpcServer::start("127.0.0.1:0").expect("bind tpc");
    let addrs: Vec<SocketAddr> = server.worker_addrs().to_vec();

    let mut loader = BinClient::connect(addrs[0]).expect("loader connect");
    loader.set_batch(&pairs).expect("net load");
    loader.quit().expect("loader quit");

    let parts = shards(&ops, threads);
    let before = server.maintenance_stats();
    let retries_before = server.insert_retries();
    let wall = Instant::now();
    let handles = parts
        .into_iter()
        .enumerate()
        .map(|(t, shard)| {
            let addr = addrs[t % addrs.len()];
            std::thread::spawn(move || {
                let mut c = BinClient::connect(addr).expect("connect");
                let out = run_net_ops(&mut c, &shard);
                c.quit().expect("quit");
                out
            })
        })
        .collect();
    let summary = pool(handles, ops.len(), wall);
    let maintenance = server.maintenance_stats().delta_since(&before);
    let insert_retries = server.insert_retries() - retries_before;
    let report = server.shutdown();
    assert!(report.drained, "net cell server failed to drain");
    (summary, maintenance, insert_retries)
}

/// Times 1000 single `set` round trips against one pipelined
/// `set_batch(1000)` on the same connection and asserts the batch wins:
/// the acceptance bar for the pipelined client path.
fn net_batch_comparison(addr: SocketAddr) -> (u64, u64, f64) {
    let mut c = BinClient::connect(addr).expect("connect");
    let pairs: Vec<(Key, Value)> = (0..1_000u64).map(|i| (i * 2 + 1, i)).collect();
    // Warm the connection and the store's first-level tables.
    c.set(0, 0).expect("warm set");

    let t = Instant::now();
    for &(k, v) in &pairs {
        c.set(k, v).expect("single set");
    }
    let single_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    c.set_batch(&pairs).expect("set_batch");
    let batch_ns = t.elapsed().as_nanos() as u64;
    c.quit().expect("quit");

    let speedup = single_ns as f64 / batch_ns.max(1) as f64;
    eprintln!(
        "[ycsb_mt] net batch: 1000 singles {single_ns} ns, set_batch(1000) {batch_ns} ns, \
         speedup {speedup:.1}x"
    );
    assert!(
        speedup >= 2.0,
        "pipelined set_batch was only {speedup:.2}x over single sets \
         ({single_ns} ns vs {batch_ns} ns); expected >=2x"
    );
    (single_ns, batch_ns, speedup)
}

/// Uniform-random distinct keys, deterministic across runs.
fn make_keys(n: usize) -> Vec<Key> {
    let mut rng = StdRng::seed_from_u64(0xD715);
    let mut keys: Vec<Key> = (0..n).map(|_| rng.gen::<u64>()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

struct Cell {
    workload: &'static str,
    threads: usize,
    summary: Summary,
    maintenance: MaintenanceStats,
    insert_retries: u64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn cell_json(c: &Cell) -> String {
    let s = &c.summary;
    let m = &c.maintenance;
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"threads\":{},\"ops\":{},\"elapsed_ns\":{},",
            "\"mops\":{:.4},\"avg_ns\":{:.1},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},",
            "\"p999_ns\":{},\"p9999_ns\":{},\"maintenance\":{{\"splits\":{},",
            "\"expansions\":{},\"remaps\":{},\"doublings\":{},\"shrinks\":{},",
            "\"insert_retries\":{}}}}}"
        ),
        json_escape(c.workload),
        c.threads,
        s.ops,
        s.elapsed_ns,
        s.mops,
        s.avg_ns,
        s.p50_ns,
        s.p90_ns,
        s.p99_ns,
        s.p999_ns,
        s.p9999_ns,
        m.splits,
        m.expansions,
        m.remaps,
        m.doublings,
        m.shrinks,
        c.insert_retries,
    )
}

fn main() {
    let mut smoke = false;
    let mut net = false;
    let mut index_name = String::from("dytis");
    let mut out_path = String::from("BENCH_ycsb.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--net" => net = true,
            "--index" => {
                index_name = args.next().unwrap_or_else(|| {
                    eprintln!("--index needs a value");
                    std::process::exit(2);
                })
            }
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: ycsb_mt [--smoke] [--index dytis|xindex] [--net] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    if net && index_name != "dytis" {
        eprintln!("--net serves ConcurrentDyTis behind TpcServer; use --index dytis");
        std::process::exit(2);
    }

    let (n_keys, n_ops) = if smoke {
        (40_000, 20_000)
    } else {
        (base_keys(), base_ops())
    };
    let keys = make_keys(n_keys);
    eprintln!(
        "[ycsb_mt] index={index_name} keys={} ops={n_ops} smoke={smoke}",
        keys.len()
    );

    let mut cells = Vec::new();
    println!("| workload | threads | Mops/s | p50 ns | p99 ns | p99.9 ns | splits | remaps | doublings |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in WORKLOADS {
        // D'/E load 80% up front; the rest feeds the insert mix (§4.3).
        let split = if workload.inserts_new_keys() {
            keys.len() * 4 / 5
        } else {
            keys.len()
        };
        let (loaded, fresh) = keys.split_at(split);
        for threads in THREADS {
            let (summary, maintenance, insert_retries) = if net {
                net_cell(workload, loaded, fresh, n_ops, threads)
            } else {
                // Fresh index per cell so maintenance counts are
                // attributable.
                let idx = MtIndex::build(&index_name);
                let dyn_idx = idx.as_dyn();
                let load: Vec<Op> = loaded.iter().map(|&k| Op::Insert(k, k)).collect();
                run_threads(&dyn_idx, &load, threads);
                let ops = generate_ops(workload, loaded, fresh, n_ops, 0xBE7C + threads as u64);
                let before = idx.maintenance_stats();
                let retries_before = idx.insert_retries();
                let summary = run_threads(&dyn_idx, &ops, threads);
                let after = idx.maintenance_stats();
                let maintenance = after.delta_since(&before);
                let insert_retries = idx.insert_retries() - retries_before;
                (summary, maintenance, insert_retries)
            };
            println!(
                "| {} | {} | {:.2} | {} | {} | {} | {} | {} | {} |",
                workload.name(),
                threads,
                summary.mops,
                summary.p50_ns,
                summary.p99_ns,
                summary.p999_ns,
                maintenance.splits,
                maintenance.remaps,
                maintenance.doublings,
            );
            cells.push(Cell {
                workload: workload.name(),
                threads,
                summary,
                maintenance,
                insert_retries,
            });
        }
        eprintln!("[ycsb_mt] workload {} done", workload.name());
    }

    // In net mode, prove the pipelined client path pays for itself before
    // writing results: 1000 singles vs one set_batch(1000).
    let net_batch = net.then(|| {
        let server = TpcServer::start("127.0.0.1:0").expect("bind batch server");
        let stats = net_batch_comparison(server.addr());
        let report = server.shutdown();
        assert!(report.drained, "batch comparison server failed to drain");
        stats
    });

    let mut json = String::from("{");
    json.push_str(&format!(
        "\"bench\":\"ycsb_mt\",\"index\":\"{}\",\"mode\":\"{}\",\"keys\":{},\"ops\":{},\"smoke\":{},",
        json_escape(&index_name),
        if net { "net" } else { "local" },
        keys.len(),
        n_ops,
        smoke
    ));
    json.push_str("\"results\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&cell_json(c));
    }
    json.push(']');
    if let Some((single_ns, batch_ns, speedup)) = net_batch {
        json.push_str(&format!(
            ",\"net_batch\":{{\"single_ns\":{single_ns},\"batch_ns\":{batch_ns},\
             \"speedup\":{speedup:.2}}}"
        ));
    }
    if obs::ENABLED {
        json.push_str(&format!(",\"obs\":{}", obs::snapshot().to_json()));
    }
    json.push('}');
    std::fs::write(&out_path, &json).expect("write BENCH_ycsb.json");
    eprintln!("[ycsb_mt] wrote {out_path} ({} bytes)", json.len());
}
