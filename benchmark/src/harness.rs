//! The run loops every workload shares.
//!
//! Load shape, all workloads: closed loop, one generator thread, one
//! connection, one request in flight. A *pass* executes a fixed, seeded op stream from the same
//! starting state, so program-side counts repeat exactly; a *round* is one
//! untimed pass (throughput) plus one instrumented pass (latency or spans)
//! and rounds repeat until `--seconds` have elapsed. Latencies and per-layer
//! numbers are reported as the median over rounds; throughput as the 90th
//! percentile of the rounds, because on a small shared box interference only
//! ever slows a round down (when a neighbour hammers the host for minutes,
//! the median round loses 2x and the fast rounds a tenth; on a quiet host the
//! two spread alike). Not the single fastest round, which is one sample. The
//! whole process runs on one CPU (see `affinity`), so no wake-up crosses
//! vCPUs.

use crate::gen::GenTimes;
use crate::json::Json;
use crate::stats::{median, percentile, quantile, quartiles, tail_for, MIN_BEYOND};
use crate::trace::{write_jsonl, LatProbe, NoProbe, Probe, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

/// How much of the op stream a pass executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The whole stream (end-to-end runs).
    Full,
    /// The leading `1/trace_div` of it (traced runs, so spans fit in memory).
    Prefix,
}

/// What one pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassOut {
    /// Key-ops completed (a 64-key frame counts 64).
    pub ops: u64,
    /// Key-ops that errored, were refused, or returned a wrong result.
    pub failed: u64,
    /// Wall time of the op loop alone (state reset excluded).
    pub wall_ns: u64,
}

impl PassOut {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// Result of the checks made after the measured region.
#[derive(Debug, Clone, Default)]
pub struct Finish {
    pub attempted: u64,
    pub failed: u64,
    /// Space per key of the layer the workload exercises.
    pub bytes_per_key: f64,
}

/// Per-round samples of every metric, by name.
#[derive(Debug, Default)]
pub struct Rounds {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Metrics whose reported value is a high percentile of their samples,
    /// not the median.
    report_p90: Vec<&'static str>,
}

impl Rounds {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        let s = self.get(name);
        (!s.is_empty()).then(|| median(s))
    }

    /// Reports `name` as the 90th percentile of its samples from now on.
    pub fn report_p90(&mut self, name: &'static str) {
        self.report_p90.push(name);
    }

    /// The value reported for `name`: the median over rounds unless
    /// [`Rounds::report_p90`] said otherwise.
    pub fn value(&self, name: &str) -> Option<f64> {
        if self.report_p90.contains(&name) {
            quantile(self.get(name), 0.9)
        } else {
            self.median(name)
        }
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.samples.keys().copied()
    }

    /// `{value, q1, q3, n, rounds}` of one metric for the result file.
    pub fn summary(&self, name: &str) -> Option<Json> {
        let s = self.get(name);
        let value = self.value(name)?;
        let (q1, q3) = quartiles(s).unwrap_or((value, value));
        Some(Json::obj([
            ("value", Json::Num(value)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Num(s.len() as f64)),
            (
                "rounds",
                Json::Arr(s.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ]))
    }
}

/// One benchmark workload: set-up, a repeatable pass, and its checks.
pub trait Workload: Sized {
    type Cfg;

    /// Generates inputs from `seed`, builds expected results, preloads, and
    /// starts whatever the workload drives. All of it is `setup_s`.
    /// `traced` selects the span-capable driver where there are two.
    fn setup(cfg: &Self::Cfg, seed: u64, traced: bool, out_dir: &Path) -> Res<Self>;

    fn gen_times(&self) -> GenTimes;

    /// Hash of the generated op stream (same seed, same hash).
    fn stream_hash(&self) -> u64;

    /// The sizes this instance runs at, for the provenance block.
    fn sizes(&self) -> Json;

    /// Runs the op stream once from the workload's starting state,
    /// checking every reply.
    fn pass<P: Probe>(&mut self, probe: &mut P, scope: Scope) -> Res<PassOut>;

    /// Per-layer numbers of the traced pass that just ran.
    fn layer_metrics(&mut self, tracer: &Tracer, rounds: &mut Rounds);

    /// Per-layer numbers measured once, outside the rounds (kernel and
    /// codec replays, floors).
    fn extras(&mut self, seed: u64, rounds: &mut Rounds) -> Res<()>;

    /// Checks made outside the timed region, and tear-down.
    fn finish(self, rounds: &mut Rounds) -> Res<Finish>;
}

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub out_dir: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: String,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: Rounds,
    pub sizes: Json,
    pub stream_hash: u64,
    pub measured_s: f64,
    /// Which percentile `op_tail_ns` is, with its sample count.
    pub tail: String,
}

/// Samples one pass must have beyond the percentile `op_tail_ns` reports.
/// Ten (the rule for the per-layer tails) leaves the net and WAL workloads
/// at a p99 of 3-5 k samples, which moved 25-35 % between runs on the
/// reference box; a hundred puts them at p90 and keeps p99.99 on the index
/// workloads, where maintenance makes the tail.
pub const TAIL_MIN_BEYOND: usize = 100;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The end-to-end run: tracing off.
pub fn run_e2e<W: Workload>(cfg: &W::Cfg, run: &RunCfg) -> Res<Outcome> {
    let mut rounds = Rounds::default();
    rounds.report_p90("throughput_ops_s");
    let mut held: Option<W> = None;
    for _ in 0..SETUPS {
        // Tear the previous instance down before the clock starts.
        drop(held.take());
        let t = Instant::now();
        held = Some(W::setup(cfg, run.seed, false, &run.out_dir)?);
        rounds.push("setup_s", t.elapsed().as_secs_f64());
    }
    let mut w = held.expect("SETUPS is at least 1");
    let (sizes, stream_hash) = (w.sizes(), w.stream_hash());

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut lat = LatProbe::default();
    let started = Instant::now();
    let tail = loop {
        let untimed = w.pass(&mut NoProbe, Scope::Full)?;
        lat.ns.clear();
        let timed = w.pass(&mut lat, Scope::Full)?;
        attempted += untimed.ops + timed.ops;
        failed += untimed.failed + timed.failed;
        rounds.push("throughput_ops_s", untimed.ops_per_s());
        let t = tail_for(lat.ns.len(), TAIL_MIN_BEYOND);
        let tail = format!(
            "{} ({} of {} samples beyond, per round)",
            t.label,
            t.beyond,
            lat.ns.len()
        );
        rounds.push("op_p50_ns", f64::from(percentile(&mut lat.ns, 0.5)));
        rounds.push("op_tail_ns", f64::from(percentile(&mut lat.ns, t.q)));
        if started.elapsed() >= run.seconds {
            break tail;
        }
    };
    let measured_s = started.elapsed().as_secs_f64();

    let fin = w.finish(&mut rounds)?;
    rounds.push("bytes_per_key", fin.bytes_per_key);
    Ok(Outcome {
        workload: run.workload.clone(),
        traced: false,
        attempted: attempted + fin.attempted,
        failed: failed + fin.failed,
        rounds,
        sizes,
        stream_hash,
        measured_s,
        tail,
    })
}

/// The traced run: per-layer numbers, never end-to-end ones.
pub fn run_trace<W: Workload>(cfg: &W::Cfg, run: &RunCfg) -> Res<Outcome> {
    let mut rounds = Rounds::default();
    let mut w = W::setup(cfg, run.seed, true, &run.out_dir)?;
    let (sizes, stream_hash) = (w.sizes(), w.stream_hash());
    let g = w.gen_times();
    rounds.push("gen.keys_s", g.keys_s);
    rounds.push("gen.ops_s", g.ops_s);
    rounds.push("gen.oracle_s", g.oracle_s);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tracer = Tracer::default();
    let started = Instant::now();
    let mut first = true;
    loop {
        let plain = w.pass(&mut NoProbe, Scope::Prefix)?;
        tracer.clear();
        let traced = w.pass(&mut tracer, Scope::Prefix)?;
        attempted += plain.ops + traced.ops;
        failed += plain.failed + traced.failed;
        rounds.push("trace.spans", tracer.spans.len() as f64);
        rounds.push(
            "trace.overhead_share",
            1.0 - traced.ops_per_s() / plain.ops_per_s(),
        );
        w.layer_metrics(&tracer, &mut rounds);
        if first {
            first = false;
            let path = run.out_dir.join(format!("trace-{}.jsonl", run.workload));
            write_jsonl(&path, &tracer.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        if started.elapsed() >= run.seconds {
            break;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    w.extras(run.seed, &mut rounds)?;

    let fin = w.finish(&mut rounds)?;
    Ok(Outcome {
        workload: run.workload.clone(),
        traced: true,
        attempted: attempted + fin.attempted,
        failed: failed + fin.failed,
        rounds,
        sizes,
        stream_hash,
        measured_s,
        tail: String::new(),
    })
}

/// Pushes the p50 / p99 / supported-tail latencies of `samples` under the
/// given metric names (`tail` may be `None` where only two are defined).
pub fn push_latencies(
    rounds: &mut Rounds,
    samples: &mut [u32],
    p50: &'static str,
    p99: &'static str,
    tail: Option<&'static str>,
) {
    if samples.is_empty() {
        return;
    }
    rounds.push(p50, f64::from(percentile(samples, 0.5)));
    rounds.push(p99, f64::from(percentile(samples, 0.99)));
    if let Some(name) = tail {
        rounds.push(
            name,
            f64::from(percentile(samples, tail_for(samples.len(), MIN_BEYOND).q)),
        );
    }
}
