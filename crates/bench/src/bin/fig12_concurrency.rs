//! Figure 12: throughput of concurrent DyTIS vs concurrent XIndex over
//! 1/2/4/8 threads on the RL and TX datasets, for insertion, search, and
//! scan-100 — requests assigned to threads round-robin (§4.5).
//!
//! Each cell's throughput is its ops over the cell's wall clock, from the
//! first spawn to the last join, so threads that never overlap do not count
//! as parallel. Its latency percentiles are exact over every op of every
//! thread, and the DyTIS cells carry the maintenance (splits, expansions,
//! remaps, doublings, shrinks, keys moved, insert retries) done inside them.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin fig12_concurrency [-- --out FILE]
//! ```
//!
//! The scale is `DYTIS_KEYS` / `DYTIS_OPS`; every dataset has at least
//! 50,000 keys, so `DYTIS_KEYS=1 DYTIS_OPS=20000` is the smallest run.
//! `--out` also writes every cell as JSON, each with its dataset's key
//! count; with `--features metrics` the obs registry snapshot is embedded
//! under an `"obs"` key.

use bench::{base_ops, dataset_keys};
use datasets::Dataset;
use dytis::ConcurrentDyTis;
use index_traits::{ConcurrentKvIndex, MaintenanceStats};
use std::time::Instant;
use xindex::ConcurrentXIndex;
use ycsb::{generate_ops, run_ops_concurrent_latencies, summarize, Op, Summary, Workload};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const PHASES: [&str; 3] = ["insertion", "search", "scan-100"];

/// Maintenance counters and insert retries, where the index keeps them.
trait Counted: ConcurrentKvIndex {
    /// `None` for an index that does not count its maintenance (XIndex's
    /// group compactions are internal).
    fn counters(&self) -> Option<(MaintenanceStats, u64)>;
}

impl Counted for ConcurrentDyTis {
    fn counters(&self) -> Option<(MaintenanceStats, u64)> {
        Some((self.maintenance_stats(), self.insert_retries()))
    }
}

impl Counted for ConcurrentXIndex {
    fn counters(&self) -> Option<(MaintenanceStats, u64)> {
        None
    }
}

/// One measured (dataset, index, threads, phase) cell.
struct Cell {
    dataset: &'static str,
    keys: usize,
    index: &'static str,
    threads: usize,
    phase: &'static str,
    summary: Summary,
    /// Maintenance delta and insert retries inside the cell (DyTIS only).
    maintenance: Option<(MaintenanceStats, u64)>,
}

/// Round-robin partition of an op stream.
fn shards(ops: &[Op], threads: usize) -> Vec<Vec<Op>> {
    let mut out = vec![Vec::with_capacity(ops.len() / threads + 1); threads];
    for (i, op) in ops.iter().enumerate() {
        out[i % threads].push(*op);
    }
    out
}

/// Pools one cell's per-thread `(latencies, elapsed_ns)`: percentiles over
/// every op of every thread, throughput over `wall_ns`, the cell's wall
/// clock. No thread's own time can exceed that wall clock; it only floors it.
fn pool(parts: Vec<(Vec<u64>, u64)>, wall_ns: u64) -> Summary {
    let slowest = parts.iter().map(|p| p.1).max().unwrap_or(0);
    let mut pooled: Vec<u64> = parts.into_iter().flat_map(|p| p.0).collect();
    summarize(&mut pooled, wall_ns.max(slowest))
}

/// Runs `ops` over `threads` workers and returns the pooled summary and the
/// maintenance the index did meanwhile.
fn run_threads<I: Counted>(
    idx: &I,
    ops: &[Op],
    threads: usize,
) -> (Summary, Option<(MaintenanceStats, u64)>) {
    let parts = shards(ops, threads);
    let before = idx.counters();
    let wall = Instant::now();
    let joined = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .iter()
            .map(|shard| s.spawn(move || run_ops_concurrent_latencies(idx, shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fig12 worker panicked"))
            .collect()
    });
    let summary = pool(joined, wall.elapsed().as_nanos() as u64);
    let maintenance = before
        .zip(idx.counters())
        .map(|((m0, r0), (m1, r1))| (m1.delta_since(&m0), r1 - r0));
    (summary, maintenance)
}

/// The three phases of one index at one thread count: insertion of the
/// whole dataset into a fresh index, then search and scan-100 against it.
fn bench_index<I: Counted>(
    make: fn() -> I,
    keys: &[u64],
    n_ops: usize,
    threads: usize,
) -> [(Summary, Option<(MaintenanceStats, u64)>); 3] {
    let load: Vec<Op> = keys.iter().map(|&k| Op::Insert(k, k)).collect();
    let idx = make();
    let ins = run_threads(&idx, &load, threads);
    let search = generate_ops(Workload::C, keys, &[], n_ops, 9);
    let s = run_threads(&idx, &search, threads);
    let scan_ops: Vec<Op> = generate_ops(Workload::C, keys, &[], n_ops / 10, 10)
        .into_iter()
        .map(|op| match op {
            Op::Read(k) => Op::Scan(k),
            other => other,
        })
        .collect();
    let sc = run_threads(&idx, &scan_ops, threads);
    [ins, s, sc]
}

fn cell_json(c: &Cell) -> String {
    let s = &c.summary;
    let maintenance = match &c.maintenance {
        Some((m, retries)) => format!(
            concat!(
                "{{\"splits\":{},\"expansions\":{},\"remaps\":{},\"doublings\":{},",
                "\"shrinks\":{},\"keys_moved\":{},\"insert_retries\":{}}}"
            ),
            m.splits, m.expansions, m.remaps, m.doublings, m.shrinks, m.keys_moved, retries
        ),
        None => "null".into(),
    };
    format!(
        concat!(
            "{{\"dataset\":\"{}\",\"keys\":{},\"index\":\"{}\",\"threads\":{},\"op\":\"{}\",",
            "\"ops\":{},\"elapsed_ns\":{},\"mops\":{:.4},\"avg_ns\":{:.1},",
            "\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"p9999_ns\":{},",
            "\"maintenance\":{}}}"
        ),
        c.dataset,
        c.keys,
        c.index,
        c.threads,
        c.phase,
        s.ops,
        s.elapsed_ns,
        s.mops,
        s.avg_ns,
        s.p50_ns,
        s.p90_ns,
        s.p99_ns,
        s.p999_ns,
        s.p9999_ns,
        maintenance,
    )
}

fn main() {
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: fig12_concurrency [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    let n_ops = base_ops();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut cells = Vec::new();
    for ds in [Dataset::ReviewL, Dataset::Taxi] {
        let keys = dataset_keys(ds, false);
        let dataset = ds.short_name();
        println!(
            "\n## Figure 12 ({dataset}) M ops/s — {} keys, {n_ops} ops, nproc {nproc}",
            keys.len()
        );
        println!("| index | threads | insertion | search | scan-100 |");
        println!("|---|---|---|---|---|");
        for threads in THREADS {
            let dytis = bench_index(ConcurrentDyTis::new, &keys, n_ops, threads);
            let xindex = bench_index(ConcurrentXIndex::new, &keys, n_ops, threads);
            for (index, phases) in [("DyTIS", dytis), ("XIndex", xindex)] {
                let [i, s, sc] = phases.map(|p| p.0.mops);
                println!("| {index} | {threads} | {i:.2} | {s:.2} | {sc:.2} |");
                for (phase, (summary, maintenance)) in PHASES.into_iter().zip(phases) {
                    cells.push(Cell {
                        dataset,
                        keys: keys.len(),
                        index,
                        threads,
                        phase,
                        summary,
                        maintenance,
                    });
                }
            }
            eprintln!("[fig12] {dataset} {threads} threads done");
        }
    }

    if let Some(path) = out_path {
        let rows: Vec<String> = cells.iter().map(cell_json).collect();
        let mut json = format!(
            "{{\"bench\":\"fig12_concurrency\",\"ops\":{n_ops},\"nproc\":{nproc},\"results\":[{}]",
            rows.join(",")
        );
        if obs::ENABLED {
            json.push_str(&format!(",\"obs\":{}", obs::snapshot().to_json()));
        }
        json.push('}');
        std::fs::write(&path, &json).expect("write the --out JSON file");
        eprintln!("[fig12] wrote {path} ({} bytes)", json.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads that ran one after the other, 1 µs each, in a 2 µs cell.
    #[test]
    fn pool_divides_by_the_wall_clock_and_ranks_every_latency() {
        let a: Vec<u64> = (1..=100).collect();
        let b: Vec<u64> = (1..=300).map(|x| x * 7).collect();
        let s = pool(vec![(a.clone(), 1_000), (b.clone(), 1_000)], 2_000);

        assert_eq!(s.ops, 400);
        let mut all = [a, b].concat();
        all.sort_unstable();
        // Nearest rank over the sorted concatenation of both threads.
        let rank = |p: f64| all[(400.0 * p).ceil() as usize - 1];
        assert_eq!(s.p50_ns, rank(0.50));
        assert_eq!(s.p90_ns, rank(0.90));
        assert_eq!(s.p99_ns, rank(0.99));
        assert_eq!(s.p999_ns, rank(0.999));
        assert_eq!(s.p9999_ns, rank(0.9999));
        // 400 ops over the 2 µs wall clock, not over the slowest thread's 1 µs.
        assert_eq!(s.elapsed_ns, 2_000);
        assert!((s.mops - 200.0).abs() < 1e-9, "mops {}", s.mops);
    }
}
