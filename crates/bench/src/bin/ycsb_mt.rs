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
//!     [--out BENCH_ycsb.json]
//! ```
//!
//! `--smoke` shrinks the run for CI (~seconds). With `--features metrics`
//! the obs registry snapshot is embedded under an `"obs"` key; without it
//! the instrumentation compiles to no-ops and only the always-on
//! maintenance counters appear. The served index is measured over the
//! wire by `dybench`'s `net_*` workloads (`benchmark/`).

use bench::{base_keys, base_ops};
use dytis::ConcurrentDyTis;
use index_traits::{ConcurrentKvIndex, Key, MaintenanceStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use xindex::ConcurrentXIndex;
use ycsb::{generate_ops, run_ops_concurrent_latencies, summarize, Op, Summary, Workload};

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
    let mut index_name = String::from("dytis");
    let mut out_path = String::from("BENCH_ycsb.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
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
                eprintln!("usage: ycsb_mt [--smoke] [--index dytis|xindex] [--out FILE]");
                std::process::exit(2);
            }
        }
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
            // Fresh index per cell so maintenance counts are attributable.
            let idx = MtIndex::build(&index_name);
            let dyn_idx = idx.as_dyn();
            let load: Vec<Op> = loaded.iter().map(|&k| Op::Insert(k, k)).collect();
            run_threads(&dyn_idx, &load, threads);
            let ops = generate_ops(workload, loaded, fresh, n_ops, 0xBE7C + threads as u64);
            let before = idx.maintenance_stats();
            let retries_before = idx.insert_retries();
            let summary = run_threads(&dyn_idx, &ops, threads);
            let maintenance = idx.maintenance_stats().delta_since(&before);
            let insert_retries = idx.insert_retries() - retries_before;
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

    let mut json = String::from("{");
    json.push_str(&format!(
        "\"bench\":\"ycsb_mt\",\"index\":\"{}\",\"keys\":{},\"ops\":{},\"smoke\":{},",
        json_escape(&index_name),
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
    if obs::ENABLED {
        json.push_str(&format!(",\"obs\":{}", obs::snapshot().to_json()));
    }
    json.push('}');
    std::fs::write(&out_path, &json).expect("write BENCH_ycsb.json");
    eprintln!("[ycsb_mt] wrote {out_path} ({} bytes)", json.len());
}
