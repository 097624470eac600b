//! YCSB-style workloads and the measurement harness (paper §4.3).
//!
//! The paper evaluates seven workloads "that roughly correspond to workloads
//! Load, A, B, C, D, E and F of YCSB":
//!
//! | Workload | Mix |
//! |---|---|
//! | Load | 100% insert |
//! | A | 50% read, 50% update |
//! | B | 95% read, 5% update |
//! | C | 100% read |
//! | D' | 95% read (existing keys), 5% insert |
//! | E | 95% scan (range 100), 5% insert |
//! | F | 50% read, 50% read-modify-write |
//!
//! Keys are selected with a scrambled Zipfian distribution (constant 0.99).
//! For A/B/C/F the whole dataset is loaded first; for D' and E, 80% is
//! loaded and the remaining 20% feeds the insert mix.

pub mod dist;
pub mod zipf;

pub use dist::{KeyDist, KeySampler};
pub use zipf::{fnv_hash, ScrambledZipfian, Zipfian, DEFAULT_THETA};

use index_traits::{ConcurrentKvIndex, Key, KvIndex, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The paper's scan range for workload E.
pub const SCAN_LEN: usize = 100;

/// One benchmark operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert a fresh key.
    Insert(Key, Value),
    /// Point lookup.
    Read(Key),
    /// In-place update.
    Update(Key, Value),
    /// Range scan of [`SCAN_LEN`] records.
    Scan(Key),
    /// Read, modify the value, write it back.
    ReadModifyWrite(Key, Value),
}

/// The seven workloads of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 100% inserts of the full dataset.
    Load,
    /// 50% reads / 50% updates.
    A,
    /// 95% reads / 5% updates.
    B,
    /// 100% reads.
    C,
    /// 95% reads of existing keys / 5% inserts (the paper's D').
    Dp,
    /// 95% scans (range 100) / 5% inserts.
    E,
    /// 50% reads / 50% read-modify-writes.
    F,
}

impl Workload {
    /// All workloads in the paper's presentation order.
    pub const ALL: [Workload; 7] = [
        Workload::Load,
        Workload::A,
        Workload::B,
        Workload::C,
        Workload::Dp,
        Workload::E,
        Workload::F,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Load => "Load",
            Workload::A => "A",
            Workload::B => "B",
            Workload::C => "C",
            Workload::Dp => "D'",
            Workload::E => "E",
            Workload::F => "F",
        }
    }

    /// Whether the workload inserts new keys during the measured phase
    /// (D' and E load only 80% up front, §4.3).
    pub fn inserts_new_keys(&self) -> bool {
        matches!(self, Workload::Dp | Workload::E)
    }
}

/// How operation keys are chosen from the loaded key set.
///
/// The paper's default is scrambled Zipfian with constant 0.99; §4.3 notes
/// "we also ran all the experiments with uniform distribution as well,
/// finding the results to be similar".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestDistribution {
    /// Scrambled Zipfian with the given constant (YCSB default, 0.99).
    Zipfian(f64),
    /// Uniform over the loaded keys.
    Uniform,
    /// Biased toward recently loaded keys (original YCSB workload D).
    Latest,
}

impl Default for RequestDistribution {
    fn default() -> Self {
        RequestDistribution::Zipfian(DEFAULT_THETA)
    }
}

enum Chooser {
    Zipf(ScrambledZipfian),
    Uniform,
    Latest(Zipfian),
}

impl Chooser {
    fn new(dist: RequestDistribution, n: usize) -> Self {
        match dist {
            RequestDistribution::Zipfian(theta) => Chooser::Zipf(ScrambledZipfian::new(n, theta)),
            RequestDistribution::Uniform => Chooser::Uniform,
            RequestDistribution::Latest => Chooser::Latest(Zipfian::new(n, DEFAULT_THETA)),
        }
    }

    fn pick(&self, rng: &mut StdRng, n: usize) -> usize {
        match self {
            Chooser::Zipf(z) => z.sample(rng).min(n - 1),
            Chooser::Uniform => rng.gen_range(0..n),
            // Latest: rank 0 = the most recently inserted key.
            Chooser::Latest(z) => n - 1 - z.sample(rng).min(n - 1),
        }
    }
}

/// Generates the operation stream for `workload`.
///
/// `loaded` are the keys present in the index when measurement starts;
/// `new_keys` feeds the insert fraction of D'/E (in dataset order). `n_ops`
/// caps the stream length; D'/E also stop when `new_keys` is exhausted
/// ("until all the keys in the dataset are inserted", §4.3).
pub fn generate_ops(
    workload: Workload,
    loaded: &[Key],
    new_keys: &[Key],
    n_ops: usize,
    seed: u64,
) -> Vec<Op> {
    generate_ops_with(
        workload,
        loaded,
        new_keys,
        n_ops,
        seed,
        RequestDistribution::default(),
    )
}

/// [`generate_ops`] with an explicit request distribution.
pub fn generate_ops_with(
    workload: Workload,
    loaded: &[Key],
    new_keys: &[Key],
    n_ops: usize,
    seed: u64,
    dist: RequestDistribution,
) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cap_hint = n_ops.min(loaded.len() + new_keys.len() + 1).min(1 << 24);
    let mut ops = Vec::with_capacity(cap_hint);
    if workload == Workload::Load {
        for (i, &k) in new_keys.iter().enumerate() {
            ops.push(Op::Insert(k, i as Value));
        }
        return ops;
    }
    let chooser = Chooser::new(dist, loaded.len());
    let mut inserts = new_keys.iter().copied();
    for i in 0..n_ops {
        let key = loaded[chooser.pick(&mut rng, loaded.len())];
        let op = match workload {
            Workload::Load => unreachable!("handled above"),
            Workload::A => {
                if rng.gen_bool(0.5) {
                    Op::Read(key)
                } else {
                    Op::Update(key, i as Value)
                }
            }
            Workload::B => {
                if rng.gen_bool(0.95) {
                    Op::Read(key)
                } else {
                    Op::Update(key, i as Value)
                }
            }
            Workload::C => Op::Read(key),
            Workload::Dp => {
                if rng.gen_bool(0.95) {
                    Op::Read(key)
                } else {
                    match inserts.next() {
                        Some(k) => Op::Insert(k, i as Value),
                        None => break,
                    }
                }
            }
            Workload::E => {
                if rng.gen_bool(0.95) {
                    Op::Scan(key)
                } else {
                    match inserts.next() {
                        Some(k) => Op::Insert(k, i as Value),
                        None => break,
                    }
                }
            }
            Workload::F => {
                if rng.gen_bool(0.5) {
                    Op::Read(key)
                } else {
                    Op::ReadModifyWrite(key, i as Value)
                }
            }
        };
        ops.push(op);
    }
    ops
}

/// Result of running a workload: throughput plus the latency profile the
/// paper reports in Table 2 (average / p99 / p99.99).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Operations executed.
    pub ops: usize,
    /// Wall-clock nanoseconds for the whole run.
    pub elapsed_ns: u64,
    /// Million operations per second.
    pub mops: f64,
    /// Average latency in nanoseconds.
    pub avg_ns: f64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile latency in nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile latency in nanoseconds.
    pub p999_ns: u64,
    /// 99.99th percentile latency in nanoseconds.
    pub p9999_ns: u64,
}

/// Builds a [`Summary`] from raw per-operation latencies (sorts in place).
///
/// Public so multi-threaded drivers can concatenate per-thread latency
/// vectors (see [`run_ops_concurrent_latencies`]) and extract *exact*
/// aggregate percentiles over the cell's wall clock.
pub fn summarize(latencies: &mut [u64], elapsed_ns: u64) -> Summary {
    let ops = latencies.len();
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if ops == 0 {
            return 0;
        }
        let idx = ((ops as f64 * p).ceil() as usize).clamp(1, ops) - 1;
        latencies[idx]
    };
    let sum: u64 = latencies.iter().sum();
    Summary {
        ops,
        elapsed_ns,
        mops: if elapsed_ns == 0 {
            0.0
        } else {
            ops as f64 * 1e3 / elapsed_ns as f64
        },
        avg_ns: if ops == 0 {
            0.0
        } else {
            sum as f64 / ops as f64
        },
        p50_ns: pct(0.50),
        p90_ns: pct(0.90),
        p99_ns: pct(0.99),
        p999_ns: pct(0.999),
        p9999_ns: pct(0.9999),
    }
}

/// Executes `ops` against `idx`, recording per-operation latency.
///
/// `consume` defends against dead-code elimination of read results.
pub fn run_ops<I: KvIndex + ?Sized>(idx: &mut I, ops: &[Op]) -> Summary {
    let mut latencies = Vec::with_capacity(ops.len());
    let mut scan_buf = Vec::with_capacity(SCAN_LEN);
    let mut sink = 0u64;
    let start = Instant::now();
    for op in ops {
        let t0 = Instant::now();
        match *op {
            Op::Insert(k, v) => idx.insert(k, v),
            Op::Read(k) => sink ^= idx.get(k).unwrap_or(0),
            Op::Update(k, v) => {
                idx.update(k, v);
            }
            Op::Scan(k) => {
                scan_buf.clear();
                idx.scan(k, SCAN_LEN, &mut scan_buf);
                sink ^= scan_buf.len() as u64;
            }
            Op::ReadModifyWrite(k, v) => {
                let old = idx.get(k).unwrap_or(0);
                idx.insert(k, old ^ v);
            }
        }
        latencies.push(t0.elapsed().as_nanos() as u64);
    }
    let elapsed = start.elapsed().as_nanos() as u64;
    std::hint::black_box(sink);
    summarize(&mut latencies, elapsed)
}

/// Executes `ops` against a concurrent index from one thread, returning the
/// raw per-op latency vector and the thread's wall-clock nanoseconds, so a
/// multi-threaded driver can pool latencies across threads and compute
/// exact aggregate percentiles.
pub fn run_ops_concurrent_latencies<I: ConcurrentKvIndex + ?Sized>(
    idx: &I,
    ops: &[Op],
) -> (Vec<u64>, u64) {
    let mut latencies = Vec::with_capacity(ops.len());
    let mut scan_buf = Vec::with_capacity(SCAN_LEN);
    let mut sink = 0u64;
    let start = Instant::now();
    for op in ops {
        let t0 = Instant::now();
        match *op {
            Op::Insert(k, v) | Op::Update(k, v) => idx.insert(k, v),
            Op::Read(k) => sink ^= idx.get(k).unwrap_or(0),
            Op::Scan(k) => {
                scan_buf.clear();
                idx.scan(k, SCAN_LEN, &mut scan_buf);
                sink ^= scan_buf.len() as u64;
            }
            Op::ReadModifyWrite(k, v) => {
                let old = idx.get(k).unwrap_or(0);
                idx.insert(k, old ^ v);
            }
        }
        latencies.push(t0.elapsed().as_nanos() as u64);
    }
    let elapsed = start.elapsed().as_nanos() as u64;
    std::hint::black_box(sink);
    (latencies, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct Oracle(BTreeMap<Key, Value>);

    impl KvIndex for Oracle {
        fn insert(&mut self, key: Key, value: Value) {
            self.0.insert(key, value);
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.0.get(&key).copied()
        }
        fn remove(&mut self, key: Key) -> Option<Value> {
            self.0.remove(&key)
        }
        fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
            out.extend(self.0.range(start..).take(count).map(|(k, v)| (*k, *v)));
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn name(&self) -> &'static str {
            "oracle"
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn load_workload_inserts_everything() {
        let keys: Vec<u64> = (0..1_000).collect();
        let ops = generate_ops(Workload::Load, &[], &keys, usize::MAX, 1);
        assert_eq!(ops.len(), 1_000);
        assert!(ops.iter().all(|o| matches!(o, Op::Insert(..))));
    }

    #[test]
    fn mixes_are_roughly_right() {
        let loaded: Vec<u64> = (0..10_000).collect();
        let ops = generate_ops(Workload::B, &loaded, &[], 20_000, 2);
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        let frac = reads as f64 / ops.len() as f64;
        assert!((frac - 0.95).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn workload_c_is_pure_reads() {
        let loaded: Vec<u64> = (0..100).collect();
        let ops = generate_ops(Workload::C, &loaded, &[], 1_000, 3);
        assert!(ops.iter().all(|o| matches!(o, Op::Read(_))));
    }

    #[test]
    fn e_contains_scans_and_inserts_until_exhausted() {
        let loaded: Vec<u64> = (0..1_000).collect();
        let fresh: Vec<u64> = (1_000..1_050).collect();
        let ops = generate_ops(Workload::E, &loaded, &fresh, 100_000, 4);
        let scans = ops.iter().filter(|o| matches!(o, Op::Scan(_))).count();
        let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(..))).count();
        assert_eq!(inserts, 50, "stream must stop when fresh keys run out");
        assert!(scans > 500);
    }

    #[test]
    fn run_ops_executes_correctly() {
        let mut idx = Oracle::default();
        let keys: Vec<u64> = (0..500).collect();
        let load = generate_ops(Workload::Load, &[], &keys, usize::MAX, 5);
        let s = run_ops(&mut idx, &load);
        assert_eq!(s.ops, 500);
        assert_eq!(idx.len(), 500);
        let a = generate_ops(Workload::A, &keys, &[], 1_000, 6);
        let s = run_ops(&mut idx, &a);
        assert_eq!(s.ops, 1_000);
        assert!(s.avg_ns > 0.0);
        assert!(s.p99_ns >= s.avg_ns as u64 / 2);
        assert!(s.p9999_ns >= s.p99_ns);
    }

    #[test]
    fn uniform_distribution_spreads_requests() {
        let loaded: Vec<u64> = (0..1_000).collect();
        let ops = generate_ops_with(
            Workload::C,
            &loaded,
            &[],
            50_000,
            7,
            RequestDistribution::Uniform,
        );
        let mut counts = vec![0usize; 1_000];
        for op in &ops {
            if let Op::Read(k) = op {
                counts[*k as usize] += 1;
            }
        }
        let max = counts.iter().max().copied().unwrap();
        assert!(max < 150, "uniform should not concentrate: max {max}");
    }

    #[test]
    fn latest_distribution_prefers_tail() {
        let loaded: Vec<u64> = (0..10_000).collect();
        let ops = generate_ops_with(
            Workload::C,
            &loaded,
            &[],
            20_000,
            8,
            RequestDistribution::Latest,
        );
        let tail_hits = ops
            .iter()
            .filter(|op| matches!(op, Op::Read(k) if *k >= 9_000))
            .count();
        assert!(
            tail_hits > ops.len() / 4,
            "latest should favour recent keys: {tail_hits}"
        );
    }

    #[test]
    fn summary_percentiles_ordered() {
        let mut lat: Vec<u64> = (1..=10_000).collect();
        let s = summarize(&mut lat, 1_000_000);
        assert_eq!(s.p50_ns, 5_000);
        assert_eq!(s.p90_ns, 9_000);
        assert_eq!(s.p99_ns, 9_900);
        assert_eq!(s.p999_ns, 9_990);
        assert_eq!(s.p9999_ns, 9_999);
        assert!((s.avg_ns - 5_000.5).abs() < 1.0);
    }
}
