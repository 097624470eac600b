//! The in-process index workloads: `idx_get`, `idx_scan`,
//! `idx_insert_drift`, `idx_mixed`. Only `dytis` works here; codec, routing
//! and the WAL do nothing.

use crate::gen::{reply, rng_for, timed, value_of, GenTimes, StreamHash, MISS};
use crate::harness::{push_latencies, Finish, PassOut, Res, Rounds, Scope, Workload};
use crate::json::Json;
use crate::stats::median;
use crate::trace::{durations, totals, Name, Probe, Span, Tracer};
use datasets::{Dataset, DatasetSpec};
use dytis::{DyTis, DytisStats};
use index_traits::{Auditable, BulkLoad, KvIndex};
use rand::Rng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use ycsb::ScrambledZipfian;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Scan,
    InsertDrift,
    Mixed,
}

#[derive(Debug, Clone)]
pub struct IdxCfg {
    pub kind: Kind,
    /// Keys loaded during set-up (`InsertDrift`: the MapM keys the pass
    /// inserts first; nothing is preloaded).
    pub preload: usize,
    /// `InsertDrift`: the Taxi keys inserted after the MapM keys.
    /// `Mixed`: the held-out keys the insert share draws from.
    pub second: usize,
    /// Ops per pass (`InsertDrift`: `preload + second`).
    pub ops: usize,
    /// A traced pass runs the leading `ops / trace_div` ops.
    pub trace_div: usize,
}

/// The sizes the benchmark runs at. A pass takes 0.2-0.5 s on the 2-core
/// reference box, so a 12 s run holds about twenty rounds.
pub fn full(kind: Kind) -> IdxCfg {
    match kind {
        // ReviewL: high skew, deep remap tries; ~34 MB of index against
        // 4 MiB of L2 per core, so probes miss the program's own caches.
        // (At 3M keys the probes are DRAM-bound and, on a shared host,
        // follow the neighbours' memory traffic: round-to-round spread
        // doubles from ~3 % to ~6 %.)
        Kind::Get => IdxCfg {
            kind,
            preload: 1_000_000,
            second: 0,
            ops: 1_000_000,
            trace_div: 8,
        },
        Kind::Scan => IdxCfg {
            kind,
            preload: 1_000_000,
            second: 0,
            ops: 1_000_000,
            trace_div: 8,
        },
        // The whole stream is the drift, so the traced pass keeps all of it.
        Kind::InsertDrift => IdxCfg {
            kind,
            preload: 500_000,
            second: 1_000_000,
            ops: 1_500_000,
            trace_div: 1,
        },
        Kind::Mixed => IdxCfg {
            kind,
            preload: 1_500_000,
            second: 270_000,
            ops: 1_000_000,
            trace_div: 8,
        },
    }
}

/// Rows one scan asks for (the paper's YCSB-E range).
pub const SCAN_LEN: usize = ycsb::SCAN_LEN;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    Get,
    /// `DyTis::insert`: a new key, or an update of a present one.
    Insert,
    Remove,
    Scan,
}

/// `Op::rows` of a scan whose exact contents generation could not know
/// (the index changes under it); such replies are checked structurally.
pub const ANY_ROWS: u8 = u8::MAX;

/// One index op with its expected reply, fixed at generation time.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: OpKind,
    /// Scan: exact number of rows expected, or [`ANY_ROWS`].
    pub rows: u8,
    pub key: u64,
    /// Get/Remove: the value or [`MISS`]. Scan with exact rows: wrapping
    /// sum of the expected keys.
    pub expect: u64,
    /// Scan with exact rows: wrapping sum of the expected values.
    pub expect2: u64,
}

impl Op {
    pub fn point(kind: OpKind, key: u64, expect: u64) -> Op {
        Op {
            kind,
            rows: 0,
            key,
            expect,
            expect2: 0,
        }
    }

    /// A scan whose reply is checked structurally.
    pub fn scan_any(key: u64) -> Op {
        Op {
            rows: ANY_ROWS,
            ..Op::point(OpKind::Scan, key, 0)
        }
    }
}

/// Counts a pass keeps besides the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpsOut {
    pub failed: u64,
    pub gets: u64,
    pub hits: u64,
    pub rows: u64,
}

fn scan_ok(op: &Op, scan_len: usize, out: &[(u64, u64)]) -> bool {
    if op.rows == ANY_ROWS {
        out.len() <= scan_len
            && out.first().is_none_or(|r| r.0 >= op.key)
            && out.windows(2).all(|w| w[0].0 < w[1].0)
            && out.iter().all(|&(k, v)| v == value_of(k))
    } else {
        let (ks, vs) = out.iter().fold((0u64, 0u64), |(ks, vs), &(k, v)| {
            (ks.wrapping_add(k), vs.wrapping_add(v))
        });
        out.len() == op.rows as usize
            && out.first().map(|r| r.0) == Some(op.key)
            && ks == op.expect
            && vs == op.expect2
    }
}

/// Runs `ops` against `idx`, one span per call into `dytis`, checking every
/// reply outside the span.
pub fn run_ops<P: Probe>(
    idx: &mut DyTis,
    ops: &[Op],
    scan_len: usize,
    probe: &mut P,
    buf: &mut Vec<(u64, u64)>,
) -> OpsOut {
    let mut out = OpsOut::default();
    for (i, op) in ops.iter().enumerate() {
        let req = i as u32;
        match op.kind {
            OpKind::Get => {
                let t = probe.root(Name::Get, req);
                let r = black_box(idx.get(black_box(op.key)));
                probe.close(t);
                out.gets += 1;
                out.hits += u64::from(r.is_some());
                out.failed += u64::from(reply(r) != op.expect);
            }
            OpKind::Insert => {
                let t = probe.root(Name::Insert, req);
                idx.insert(black_box(op.key), value_of(op.key));
                probe.close(t);
            }
            OpKind::Remove => {
                let t = probe.root(Name::Remove, req);
                let r = black_box(idx.remove(black_box(op.key)));
                probe.close(t);
                out.failed += u64::from(reply(r) != op.expect);
            }
            OpKind::Scan => {
                buf.clear();
                let t = probe.root(Name::Scan, req);
                idx.scan(black_box(op.key), scan_len, buf);
                probe.close(t);
                out.rows += buf.len() as u64;
                out.failed += u64::from(!scan_ok(op, scan_len, buf));
            }
        }
    }
    out
}

/// Calls slower than this are the foreground stalls maintenance causes.
const SLOW_NS: u64 = 10_000;

/// `dytis.*` call metrics and per-op-type latencies from the spans of one
/// traced pass over an index (also used for the net workloads' local
/// replay). A kind the pass never issued pushes nothing.
pub fn push_dytis_calls(spans: &[Span], out: &OpsOut, rounds: &mut Rounds) {
    let t = totals(spans);
    let per = |busy: u64, n: u64| busy as f64 / n.max(1) as f64;
    let get = t[Name::Get as usize];
    if get.calls > 0 {
        rounds.push("dytis.get.calls", get.calls as f64);
        rounds.push("dytis.get.busy_ns", get.busy_ns as f64);
        rounds.push("dytis.get.ns_per_call", per(get.busy_ns, get.calls));
        rounds.push(
            "dytis.get.hit_share",
            out.hits as f64 / out.gets.max(1) as f64,
        );
        push_latencies(
            rounds,
            &mut durations(spans, Name::Get),
            "get_p50_ns",
            "get_p99_ns",
            None,
        );
    }
    let scan = t[Name::Scan as usize];
    if scan.calls > 0 {
        rounds.push("dytis.scan.calls", scan.calls as f64);
        rounds.push("dytis.scan.busy_ns", scan.busy_ns as f64);
        rounds.push("dytis.scan.rows", out.rows as f64);
        rounds.push("dytis.scan.ns_per_row", per(scan.busy_ns, out.rows));
        push_latencies(
            rounds,
            &mut durations(spans, Name::Scan),
            "scan_p50_ns",
            "scan_p99_ns",
            None,
        );
    }
    let ins = t[Name::Insert as usize];
    if ins.calls > 0 {
        let slow = spans
            .iter()
            .filter(|s| s.name == Name::Insert && s.dur() > SLOW_NS);
        let (slow_calls, slow_ns) = slow.fold((0u64, 0u64), |(n, ns), s| (n + 1, ns + s.dur()));
        rounds.push("dytis.insert.calls", ins.calls as f64);
        rounds.push("dytis.insert.busy_ns", ins.busy_ns as f64);
        rounds.push("dytis.insert.ns_per_call", per(ins.busy_ns, ins.calls));
        rounds.push("dytis.insert.slow_calls", slow_calls as f64);
        rounds.push("dytis.insert.slow_ns", slow_ns as f64);
        push_latencies(
            rounds,
            &mut durations(spans, Name::Insert),
            "insert_p50_ns",
            "insert_p99_ns",
            Some("insert_p9999_ns"),
        );
    }
    let rem = t[Name::Remove as usize];
    if rem.calls > 0 {
        rounds.push("dytis.remove.calls", rem.calls as f64);
        rounds.push("dytis.remove.busy_ns", rem.busy_ns as f64);
    }
}

/// `dytis.maint.*` from the `DyTis::stats()` delta over the traced pass
/// that produced `spans`, and the structure/space numbers of the index the
/// pass left behind.
pub fn push_dytis_state(before: &DytisStats, idx: &DyTis, spans: &[Span], rounds: &mut Rounds) {
    let ins = totals(spans)[Name::Insert as usize];
    let (inserts, insert_busy_ns) = (ins.calls, ins.busy_ns);
    let after = idx.stats();
    let ops = after.ops.delta_since(&before.ops);
    let ns = |a: u64, b: u64| a.saturating_sub(b) as f64;
    rounds.push("dytis.maint.splits", ops.splits as f64);
    rounds.push("dytis.maint.expansions", ops.expansions as f64);
    rounds.push("dytis.maint.remaps", ops.remaps as f64);
    rounds.push("dytis.maint.doublings", ops.doublings as f64);
    rounds.push("dytis.maint.shrinks", ops.shrinks as f64);
    rounds.push("dytis.maint.keys_moved", ops.keys_moved as f64);
    rounds.push(
        "dytis.maint.keys_moved_per_insert",
        ops.keys_moved as f64 / inserts.max(1) as f64,
    );
    rounds.push(
        "dytis.maint.split_ns",
        ns(after.times.split_ns, before.times.split_ns),
    );
    rounds.push(
        "dytis.maint.expansion_ns",
        ns(after.times.expansion_ns, before.times.expansion_ns),
    );
    rounds.push(
        "dytis.maint.remap_ns",
        ns(after.times.remap_ns, before.times.remap_ns),
    );
    rounds.push(
        "dytis.maint.doubling_ns",
        ns(after.times.doubling_ns, before.times.doubling_ns),
    );
    rounds.push(
        "dytis.maint.shrink_ns",
        ns(after.times.shrink_ns, before.times.shrink_ns),
    );
    rounds.push(
        "dytis.maint.busy_share",
        ns(after.times.total_ns(), before.times.total_ns()) / insert_busy_ns.max(1) as f64,
    );
    rounds.push("dytis.segments", idx.segment_count() as f64);
    rounds.push("dytis.models", idx.model_count() as f64);
    rounds.push("dytis.max_global_depth", f64::from(idx.max_global_depth()));
    rounds.push("dytis.memory_bytes", idx.memory_bytes() as f64);
}

/// An index workload after set-up.
pub struct Idx {
    cfg: IdxCfg,
    /// The starting state of every pass.
    base: DyTis,
    /// What the last mutating pass left behind.
    last: Option<DyTis>,
    ops: Vec<Op>,
    /// Sorted keys the index must hold after a full pass.
    final_keys: Vec<u64>,
    gen: GenTimes,
    hash: u64,
    buf: Vec<(u64, u64)>,
    last_out: OpsOut,
}

impl Idx {
    fn mutates(&self) -> bool {
        matches!(self.cfg.kind, Kind::InsertDrift | Kind::Mixed)
    }

    /// The index as the last pass left it.
    fn state(&self) -> &DyTis {
        self.last.as_ref().unwrap_or(&self.base)
    }

    /// Flips one expected value, so a test can show the checks are not vacuous.
    #[cfg(test)]
    pub fn corrupt_one_expectation(&mut self) {
        let op = self
            .ops
            .iter_mut()
            .find(|op| matches!(op.kind, OpKind::Get | OpKind::Scan) && op.rows != ANY_ROWS)
            .expect("stream has a checked read");
        op.expect ^= 1;
    }

    #[cfg(test)]
    pub fn corrupt_final_state(&mut self) {
        self.final_keys[0] ^= 1;
    }
}

fn load(keys: &[u64]) -> DyTis {
    let mut idx = DyTis::new();
    for &k in keys {
        idx.insert(k, value_of(k));
    }
    idx
}

fn sorted(keys: &[u64]) -> Vec<u64> {
    let mut s = keys.to_vec();
    s.sort_unstable();
    s
}

/// The first `n` keys of dataset family `ds`, in arrival order. Like the
/// paper's dataset files, a family's keys are fixed: the run's seed draws
/// the op stream, not the data. (The generators in `datasets` draw the
/// *shape* of a distribution from the same seed as its sample, and DyTIS's
/// structure is sensitive to both: re-seeding ReviewL moves bytes per key by
/// ~9 % and get throughput with it, which would drown any bound.)
fn dataset(ds: Dataset, n: usize) -> Vec<u64> {
    DatasetSpec::new(ds, n).generate()
}

/// `n` of `pool`'s keys, chosen by the run's seed and kept in arrival order
/// (Knuth's selection sampling): for the workload whose op stream *is* the
/// dataset.
fn sample(pool: &[u64], n: usize, seed: u64, purpose: &str) -> Vec<u64> {
    let mut rng = rng_for(seed, purpose);
    let mut need = n.min(pool.len());
    let mut keys = Vec::with_capacity(need);
    for (i, &k) in pool.iter().enumerate() {
        if rng.gen_range(0..pool.len() - i) < need {
            keys.push(k);
            need -= 1;
        }
    }
    keys
}

fn gen_get(cfg: &IdxCfg, seed: u64, g: &mut GenTimes) -> (DyTis, Vec<Op>, Vec<u64>) {
    let keys = timed(&mut g.keys_s, || dataset(Dataset::ReviewL, cfg.preload));
    let order = timed(&mut g.oracle_s, || sorted(&keys));
    let ops = timed(&mut g.ops_s, || {
        let mut rng = rng_for(seed, "idx_get.ops");
        (0..cfg.ops)
            .map(|_| {
                let k = keys[rng.gen_range(0..keys.len())];
                if rng.gen_bool(0.05) {
                    // A guaranteed miss right beside a loaded key, so the
                    // lookup walks the full path before it fails.
                    let mut miss = k.wrapping_add(1);
                    while order.binary_search(&miss).is_ok() {
                        miss = miss.wrapping_add(1);
                    }
                    Op::point(OpKind::Get, miss, MISS)
                } else {
                    Op::point(OpKind::Get, k, value_of(k))
                }
            })
            .collect()
    });
    (load(&keys), ops, order)
}

fn gen_scan(cfg: &IdxCfg, seed: u64, g: &mut GenTimes) -> (DyTis, Vec<Op>, Vec<u64>) {
    let keys = timed(&mut g.keys_s, || dataset(Dataset::ReviewL, cfg.preload));
    let (order, key_sums, val_sums) = timed(&mut g.oracle_s, || {
        let order = sorted(&keys);
        let prefix = |f: fn(u64) -> u64| {
            let mut acc = 0u64;
            let mut sums = Vec::with_capacity(order.len() + 1);
            sums.push(0);
            for &k in &order {
                acc = acc.wrapping_add(f(k));
                sums.push(acc);
            }
            sums
        };
        let (ks, vs) = (prefix(|k| k), prefix(value_of));
        (order, ks, vs)
    });
    let ops = timed(&mut g.ops_s, || {
        let mut rng = rng_for(seed, "idx_scan.ops");
        (0..cfg.ops)
            .map(|_| {
                let pos = rng.gen_range(0..order.len());
                let rows = SCAN_LEN.min(order.len() - pos);
                Op {
                    kind: OpKind::Scan,
                    rows: rows as u8,
                    key: order[pos],
                    expect: key_sums[pos + rows].wrapping_sub(key_sums[pos]),
                    expect2: val_sums[pos + rows].wrapping_sub(val_sums[pos]),
                }
            })
            .collect()
    });
    (load(&keys), ops, order)
}

fn gen_insert_drift(cfg: &IdxCfg, seed: u64, g: &mut GenTimes) -> (DyTis, Vec<Op>, Vec<u64>) {
    let keys = timed(&mut g.keys_s, || {
        let pool = |ds, n: usize| dataset(ds, n + n / 4);
        let mut keys = sample(
            &pool(Dataset::MapM, cfg.preload),
            cfg.preload,
            seed,
            "drift.mapm",
        );
        let first = sorted(&keys);
        let taxi = sample(
            &pool(Dataset::Taxi, cfg.second),
            cfg.second,
            seed,
            "drift.taxi",
        );
        // Every op must be an insert of a new key: drop the (rare) Taxi
        // key that MapM already produced.
        keys.extend(taxi.into_iter().filter(|k| first.binary_search(k).is_err()));
        keys
    });
    let order = timed(&mut g.oracle_s, || sorted(&keys));
    let ops = timed(&mut g.ops_s, || {
        keys.iter()
            .map(|&k| Op::point(OpKind::Insert, k, 0))
            .collect()
    });
    (DyTis::new(), ops, order)
}

fn gen_mixed(cfg: &IdxCfg, seed: u64, g: &mut GenTimes) -> (DyTis, Vec<Op>, Vec<u64>) {
    let all = timed(&mut g.keys_s, || {
        dataset(Dataset::MapL, cfg.preload + cfg.second)
    });
    // Arrival order: the head is loaded, the tail arrives during the run.
    let (loaded, held_out) = all.split_at(cfg.preload);
    let mut present = vec![true; loaded.len()];
    let mut arrived = 0usize;
    let ops: Vec<Op> = timed(&mut g.ops_s, || {
        let mut rng = rng_for(seed, "idx_mixed.ops");
        let zipf = ScrambledZipfian::new(loaded.len(), ycsb::DEFAULT_THETA);
        (0..cfg.ops)
            .map(|_| {
                let i = zipf.sample(&mut rng);
                let k = loaded[i];
                let held = if present[i] { value_of(k) } else { MISS };
                match rng.gen_range(0..100u32) {
                    0..=44 => Op::point(OpKind::Get, k, held),
                    45..=69 if arrived < held_out.len() => {
                        arrived += 1;
                        Op::point(OpKind::Insert, held_out[arrived - 1], 0)
                    }
                    // Update (and, should the held-out keys run dry, the
                    // insert share too): rewrite a hot key, re-adding it
                    // if it was removed.
                    45..=84 => {
                        present[i] = true;
                        Op::point(OpKind::Insert, k, 0)
                    }
                    85..=94 => {
                        present[i] = false;
                        Op::point(OpKind::Remove, k, held)
                    }
                    _ => Op::scan_any(k),
                }
            })
            .collect()
    });
    let order = timed(&mut g.oracle_s, || {
        let kept = loaded
            .iter()
            .zip(&present)
            .filter(|(_, &p)| p)
            .map(|(&k, _)| k);
        sorted(
            &kept
                .chain(held_out[..arrived].iter().copied())
                .collect::<Vec<_>>(),
        )
    });
    (load(loaded), ops, order)
}

/// `len()`, the structural audit, and a full ordered read-back against the
/// expected key set. Returns `(checks made, checks failed)`.
fn check_state(idx: &DyTis, want: &[u64]) -> (u64, u64) {
    let mut failed = u64::from(idx.len() != want.len());
    failed += u64::from(!idx.audit().is_clean());
    let mut rows = Vec::with_capacity(want.len() + 1);
    idx.scan(0, want.len() + 1, &mut rows);
    let same = rows.len() == want.len()
        && rows
            .iter()
            .zip(want)
            .all(|(&(k, v), &w)| k == w && v == value_of(k));
    failed += u64::from(!same);
    (3, failed)
}

/// ns per `dytis::simd::lower_bound` call on bucket-sized sorted arrays.
fn lower_bound_ns(seed: u64) -> f64 {
    const ARRAYS: usize = 1024;
    const CALLS: usize = 1_000_000;
    let width = dytis::Params::default().bucket_entries;
    let mut rng = rng_for(seed, "simd.lower_bound");
    let arrays: Vec<Vec<u64>> = (0..ARRAYS)
        .map(|_| sorted(&(0..width).map(|_| rng.gen()).collect::<Vec<u64>>()))
        .collect();
    let probes: Vec<(usize, u64)> = (0..CALLS)
        .map(|_| (rng.gen_range(0..ARRAYS), rng.gen()))
        .collect();
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0usize;
            for &(a, key) in &probes {
                acc += dytis::simd::lower_bound(black_box(&arrays[a]), black_box(key));
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&reps)
}

impl Workload for Idx {
    type Cfg = IdxCfg;

    fn setup(cfg: &IdxCfg, seed: u64, _traced: bool, _out_dir: &Path) -> Res<Idx> {
        let mut gen = GenTimes::default();
        let (base, ops, final_keys) = match cfg.kind {
            Kind::Get => gen_get(cfg, seed, &mut gen),
            Kind::Scan => gen_scan(cfg, seed, &mut gen),
            Kind::InsertDrift => gen_insert_drift(cfg, seed, &mut gen),
            Kind::Mixed => gen_mixed(cfg, seed, &mut gen),
        };
        let mut h = StreamHash::default();
        for op in &ops {
            h.word(op.kind as u64 | u64::from(op.rows) << 8);
            h.word(op.key);
            h.word(op.expect);
            h.word(op.expect2);
        }
        Ok(Idx {
            cfg: cfg.clone(),
            base,
            last: None,
            ops,
            final_keys,
            gen,
            hash: h.finish(),
            buf: Vec::with_capacity(SCAN_LEN),
            last_out: OpsOut::default(),
        })
    }

    fn gen_times(&self) -> GenTimes {
        self.gen
    }

    fn stream_hash(&self) -> u64 {
        self.hash
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("preload_keys", Json::Num(self.base.len() as f64)),
            ("ops_per_pass", Json::Num(self.ops.len() as f64)),
            ("held_out_or_second_keys", Json::Num(self.cfg.second as f64)),
            (
                "traced_ops_per_pass",
                Json::Num((self.ops.len() / self.cfg.trace_div) as f64),
            ),
            ("scan_len", Json::Num(SCAN_LEN as f64)),
        ])
    }

    fn pass<P: Probe>(&mut self, probe: &mut P, scope: Scope) -> Res<PassOut> {
        let n = match scope {
            Scope::Full => self.ops.len(),
            Scope::Prefix => self.ops.len() / self.cfg.trace_div,
        };
        // Mutating workloads restart from a copy of the loaded index (taken
        // before the clock starts), so every pass does identical work.
        let idx = if self.mutates() {
            self.last = None;
            self.last.insert(self.base.clone())
        } else {
            &mut self.base
        };
        let t = Instant::now();
        let out = run_ops(idx, &self.ops[..n], SCAN_LEN, probe, &mut self.buf);
        let wall_ns = t.elapsed().as_nanos() as u64;
        self.last_out = out;
        Ok(PassOut {
            ops: n as u64,
            failed: out.failed,
            wall_ns,
        })
    }

    fn layer_metrics(&mut self, tracer: &Tracer, rounds: &mut Rounds) {
        push_dytis_calls(&tracer.spans, &self.last_out, rounds);
        push_dytis_state(&self.base.stats(), self.state(), &tracer.spans, rounds);
    }

    fn extras(&mut self, seed: u64, rounds: &mut Rounds) -> Res<()> {
        rounds.push("dytis.simd.lower_bound_ns", lower_bound_ns(seed));
        let pairs: Vec<(u64, u64)> = self.final_keys.iter().map(|&k| (k, value_of(k))).collect();
        let t = Instant::now();
        let built = DyTis::bulk_load(&pairs);
        let ns = t.elapsed().as_nanos() as f64;
        if built.len() != pairs.len() {
            return Err("bulk_load lost keys".into());
        }
        rounds.push("dytis.bulk_load.ns_per_key", ns / pairs.len().max(1) as f64);
        Ok(())
    }

    fn finish(mut self, _rounds: &mut Rounds) -> Res<Finish> {
        let mut fin = Finish::default();
        if self.mutates() {
            // The checks below are against the state a *full* pass leaves.
            let out = self.pass(&mut crate::trace::NoProbe, Scope::Full)?;
            fin.attempted += out.ops;
            fin.failed += out.failed;
        }
        let idx = self.state();
        let (checks, bad) = check_state(idx, &self.final_keys);
        fin.attempted += checks;
        fin.failed += bad;
        fin.bytes_per_key = idx.memory_bytes() as f64 / idx.len().max(1) as f64;
        Ok(fin)
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::trace::NoProbe;

    pub fn tiny(kind: Kind) -> IdxCfg {
        match kind {
            Kind::Get | Kind::Scan => IdxCfg {
                kind,
                preload: 20_000,
                second: 0,
                ops: 4_000,
                trace_div: 8,
            },
            Kind::InsertDrift => IdxCfg {
                kind,
                preload: 10_000,
                second: 20_000,
                ops: 30_000,
                trace_div: 1,
            },
            Kind::Mixed => IdxCfg {
                kind,
                preload: 20_000,
                second: 3_000,
                ops: 8_000,
                trace_div: 8,
            },
        }
    }

    const KINDS: [Kind; 4] = [Kind::Get, Kind::Scan, Kind::InsertDrift, Kind::Mixed];

    fn setup(kind: Kind, seed: u64) -> Idx {
        Idx::setup(&tiny(kind), seed, false, Path::new(".")).unwrap()
    }

    #[test]
    fn every_kind_passes_its_own_checks_repeatably() {
        for kind in KINDS {
            let mut w = setup(kind, 1);
            let a = w.pass(&mut NoProbe, Scope::Full).unwrap();
            let b = w.pass(&mut NoProbe, Scope::Full).unwrap();
            assert_eq!((a.ops, a.failed), (b.ops, 0), "{kind:?}");
            let fin = w.finish(&mut Rounds::default()).unwrap();
            assert_eq!(fin.failed, 0, "{kind:?}");
            assert!(fin.bytes_per_key > 16.0, "{kind:?}");
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for kind in KINDS {
            assert_eq!(setup(kind, 7).stream_hash(), setup(kind, 7).stream_hash());
            assert_ne!(setup(kind, 7).stream_hash(), setup(kind, 8).stream_hash());
        }
    }

    #[test]
    fn a_flipped_expectation_is_counted_as_a_failure() {
        for kind in [Kind::Get, Kind::Scan] {
            let mut w = setup(kind, 1);
            w.corrupt_one_expectation();
            assert_eq!(
                w.pass(&mut NoProbe, Scope::Full).unwrap().failed,
                1,
                "{kind:?}"
            );
        }
        for kind in [Kind::InsertDrift, Kind::Mixed] {
            let mut w = setup(kind, 1);
            w.corrupt_final_state();
            assert!(
                w.finish(&mut Rounds::default()).unwrap().failed > 0,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn mixed_stream_has_the_stated_shares() {
        let w = setup(Kind::Mixed, 3);
        let share =
            |k: OpKind| w.ops.iter().filter(|o| o.kind == k).count() as f64 / w.ops.len() as f64;
        assert!((share(OpKind::Get) - 0.45).abs() < 0.03);
        assert!((share(OpKind::Insert) - 0.40).abs() < 0.03);
        assert!((share(OpKind::Remove) - 0.10).abs() < 0.02);
        assert!((share(OpKind::Scan) - 0.05).abs() < 0.02);
    }

    #[test]
    fn traced_pass_yields_call_counts_and_maintenance_counters() {
        let mut w = setup(Kind::InsertDrift, 1);
        let mut tracer = Tracer::default();
        let out = w.pass(&mut tracer, Scope::Prefix).unwrap();
        let mut rounds = Rounds::default();
        w.layer_metrics(&tracer, &mut rounds);
        assert_eq!(rounds.median("dytis.insert.calls"), Some(out.ops as f64));
        assert!(rounds.median("dytis.maint.keys_moved").unwrap() > 0.0);
        assert!(rounds.median("dytis.get.calls").is_none());
    }
}
