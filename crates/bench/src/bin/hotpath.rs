//! Hot-path microbench: what do the sorted bulk build and the SIMD probe
//! kernel buy over the insert-loop / branchless baselines?
//!
//! Two experiments:
//!
//! 1. **bulk**: building a single-threaded `DyTis` from `N` sorted unique
//!    pairs via the insert loop (the old `BulkLoad` behaviour: every key
//!    pays Algorithm 1 maintenance) vs `DyTis::bulk_load` (direct
//!    segment/bucket construction with trained remapping functions).
//! 2. **probe**: the bucket lower-bound kernel in isolation — the
//!    selected `simd` kernel (AVX2 where the CPU has it) vs the
//!    branchless binary-search reference it replaced, A/B over the same
//!    probe stream with a 50/50 hit/near-miss mix, in two shapes: full
//!    128-key buckets (positioning/scan entry) and 32-key hint windows
//!    (what `search_from_hint` resolves after the remap prediction —
//!    the per-get hot path). These are the cells the DESIGN.md §15
//!    kernel selection is judged by.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin hotpath [-- --smoke]
//!     [--assert-speedup] [--out BENCH_hotpath.json]
//! ```
//!
//! `--assert-speedup` pins the acceptance bar: bulk load >=2x over the
//! insert loop, and — only when the AVX2 kernel is actually dispatched —
//! hint-window probes >=1.2x over the branchless reference plus a >=1.05x
//! no-regression floor on the (memory-bound) full-bucket cell (all
//! relaxed under `--smoke`, where boundary noise dominates). Each speedup
//! is the median of [`ROUNDS`] rounds whose first leg alternates, so one
//! round that a noisy neighbour slowed moves neither the reported cells
//! nor the verdict. With `--features metrics` the obs registry snapshot is
//! embedded in the JSON.
//!
//! Every cell also reports cycles/op from `rdtsc` where the target has it
//! (`simd::cycles_now`), falling back to a wall-clock-only cell elsewhere.

use dytis::{simd, DyTis};
use index_traits::{BulkLoad, KvIndex};
use std::hint::black_box;
use std::time::Instant;

/// Rounds behind every reported speedup; odd, so the median is one round.
const ROUNDS: usize = 5;

struct Cell {
    label: String,
    ops: u64,
    elapsed_s: f64,
    cycles_per_op: Option<f64>,
}

impl Cell {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }

    fn to_json(&self) -> String {
        let cpo = match self.cycles_per_op {
            Some(c) => format!("{c:.1}"),
            None => "null".into(),
        };
        format!(
            "{{\"label\":\"{}\",\"ops\":{},\"elapsed_s\":{:.6},\"ops_per_sec\":{:.0},\
             \"cycles_per_op\":{}}}",
            self.label,
            self.ops,
            self.elapsed_s,
            self.ops_per_sec(),
            cpo
        )
    }
}

/// Wall clock + (where available) TSC bracket around a timed region.
struct Timer {
    wall: Instant,
    tsc: Option<u64>,
}

impl Timer {
    fn start() -> Timer {
        Timer {
            wall: Instant::now(),
            tsc: simd::cycles_now(),
        }
    }

    fn cell(self, label: &str, ops: u64) -> Cell {
        let elapsed_s = self.wall.elapsed().as_secs_f64();
        let cycles_per_op = match (self.tsc, simd::cycles_now()) {
            (Some(c0), Some(c1)) if ops > 0 && c1 > c0 => Some((c1 - c0) as f64 / ops as f64),
            _ => None,
        };
        Cell {
            label: label.into(),
            ops,
            elapsed_s,
            cycles_per_op,
        }
    }
}

/// Sorted unique keys spread over the full u64 domain: multiplication by an
/// odd constant is a bijection, so uniqueness is structural.
fn make_pairs(n: u64) -> Vec<(u64, u64)> {
    let mut pairs: Vec<(u64, u64)> = (0..n)
        .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15), i))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Runs `a` and `b`, `a` first when `a_first`, and returns `(a, b)`.
fn in_order<T>(a_first: bool, a: impl FnOnce() -> T, b: impl FnOnce() -> T) -> (T, T) {
    if a_first {
        let x = a();
        (x, b())
    } else {
        let y = b();
        (a(), y)
    }
}

/// Runs [`ROUNDS`] rounds of `round`, which times a `(reference, new)`
/// pair with the reference leg first when handed `true` (even rounds),
/// and returns the cells of the round whose speedup — new ops/s over
/// reference ops/s — is the median, with that speedup.
fn median_round(mut round: impl FnMut(bool) -> (Cell, Cell)) -> (Cell, Cell, f64) {
    let speedup = |(r, n): &(Cell, Cell)| n.ops_per_sec() / r.ops_per_sec();
    let mut rounds: Vec<(Cell, Cell)> = (0..ROUNDS).map(|r| round(r % 2 == 0)).collect();
    rounds.sort_by(|a, b| speedup(a).total_cmp(&speedup(b)));
    let mid = rounds.swap_remove(ROUNDS / 2);
    let s = speedup(&mid);
    (mid.0, mid.1, s)
}

fn build_by_inserts(pairs: &[(u64, u64)]) -> (DyTis, Cell) {
    let t = Timer::start();
    let mut idx = DyTis::new();
    for &(k, v) in pairs {
        idx.insert(k, v);
    }
    let cell = t.cell("bulk/insert_loop", pairs.len() as u64);
    (idx, cell)
}

fn build_by_bulk_load(pairs: &[(u64, u64)]) -> (DyTis, Cell) {
    let t = Timer::start();
    let idx = DyTis::bulk_load(pairs);
    let cell = t.cell("bulk/bulk_load", pairs.len() as u64);
    (idx, cell)
}

/// One timed pass of `f` over a probe slice. The accumulated index sum
/// is black-boxed so the probe loop cannot be elided.
fn probe_pass(
    label: &str,
    f: fn(&[u64], u64) -> usize,
    buckets: &[Vec<u64>],
    probes: &[u64],
    offset: usize,
) -> Cell {
    // Both legs call their kernel through an opaque pointer, as the index
    // calls the dispatched one: a reference inlined into this loop timed
    // slower than the function it stands for and inflated the ratio.
    let f = black_box(f);
    let t = Timer::start();
    let mut acc = 0usize;
    for (j, &p) in probes.iter().enumerate() {
        let i = offset + j;
        // Same scramble the probe generator used, so probe i lands on
        // the bucket it was derived from.
        acc = acc.wrapping_add(f(&buckets[i.wrapping_mul(0x9E37_79B9) % buckets.len()], p));
    }
    black_box(acc);
    t.cell(label, probes.len() as u64)
}

/// Kernel A/B microbench over bucket-shaped sorted arrays with a 50/50
/// hit/near-miss probe mix. Within a round the two legs alternate over
/// the same slices of the probe stream so a noisy-neighbour stall hits
/// both, and each leg keeps its fastest slice (min-of-k estimates the
/// uncontended cost on a shared box; the mean would smear the stalls in).
fn probe_kernels(
    label_ref: &str,
    f_ref: fn(&[u64], u64) -> usize,
    label_new: &str,
    f_new: fn(&[u64], u64) -> usize,
    buckets: &[Vec<u64>],
    probes: &[u64],
) -> (Cell, Cell, f64) {
    const SLICES: usize = 4;
    let per_slice = probes.len() / SLICES;
    median_round(|ref_first| {
        let mut best: Option<(Cell, Cell)> = None;
        for s in 0..SLICES {
            let off = s * per_slice;
            let slice = &probes[off..off + per_slice];
            let (cr, cn) = in_order(
                ref_first,
                || probe_pass(label_ref, f_ref, buckets, slice, off),
                || probe_pass(label_new, f_new, buckets, slice, off),
            );
            best = Some(match best {
                Some((br, bn)) => (
                    if br.elapsed_s <= cr.elapsed_s { br } else { cr },
                    if bn.elapsed_s <= cn.elapsed_s { bn } else { cn },
                ),
                None => (cr, cn),
            });
        }
        // invariant: SLICES > 0, so the loop ran.
        best.expect("at least one slice")
    })
}

fn main() {
    let mut smoke = false;
    let mut assert_speedup = false;
    let mut out_path = String::from("BENCH_hotpath.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--assert-speedup" => assert_speedup = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown arg {other}; usage: hotpath [--smoke] [--assert-speedup] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    let n_keys: u64 = if smoke { 100_000 } else { 1_000_000 };
    eprintln!("[hotpath] smoke={smoke} n_keys={n_keys}");

    let pairs = make_pairs(n_keys);

    // Phase 1: bulk build. Every index stays alive until the last round,
    // so each build allocates fresh memory, as a one-off build does:
    // reusing what an earlier build freed would hide the first-touch
    // cost, and the insert loop pays more of it.
    let mut built: Vec<DyTis> = Vec::with_capacity(2 * ROUNDS);
    let (loop_cell, bulk_cell, bulk_speedup) = median_round(|ref_first| {
        let ((loop_idx, loop_cell), (bulk_idx, bulk_cell)) = in_order(
            ref_first,
            || build_by_inserts(&pairs),
            || build_by_bulk_load(&pairs),
        );
        // Both builds must hold the same data for the round to count.
        assert_eq!(loop_idx.len(), bulk_idx.len(), "builds disagree on len");
        for &(k, v) in pairs.iter().step_by(997) {
            assert_eq!(bulk_idx.get(k), Some(v), "bulk build lost key {k:#x}");
        }
        built.extend([loop_idx, bulk_idx]);
        (loop_cell, bulk_cell)
    });
    drop(built);
    for c in [&loop_cell, &bulk_cell] {
        eprintln!("[hotpath] {}: {:.0} keys/s", c.label, c.ops_per_sec());
    }
    eprintln!("[hotpath] bulk load speedup vs insert loop: {bulk_speedup:.2}x");

    // Phase 2: the probe kernel in isolation. Bucket-shaped arrays (the
    // default bucket_entries = 128) cut from the benched key stream; every
    // odd probe is a stored key (hit), every even probe its neighbour
    // (miss), so both the early-exit and full-walk paths are exercised.
    let kernel = simd::active_kernel();
    // Every 128-key run of the benched stream becomes a bucket — the
    // whole population, not a hot subset, so probes see the cache mix a
    // loaded index sees (smoke: ~0.8 MB, full: ~8 MB of key arrays).
    // Bucket order is scrambled per probe by an odd multiplier.
    let bucket_keys: Vec<Vec<u64>> = pairs
        .chunks_exact(128)
        .map(|c| c.iter().map(|&(k, _)| k).collect())
        .collect();
    let n_probes: usize = if smoke { 2_000_000 } else { 20_000_000 };
    let probes: Vec<u64> = (0..n_probes)
        .map(|i| {
            let b = &bucket_keys[i.wrapping_mul(0x9E37_79B9) % bucket_keys.len()];
            let k = b[(i.wrapping_mul(2_654_435_761)) % b.len()];
            if i % 2 == 0 {
                k
            } else {
                k.wrapping_add(1)
            }
        })
        .collect();
    // Hint-window variant: the same keys cut to 16-slot windows — the
    // shape `search_from_hint` resolves after the remap prediction
    // brackets the slot (DESIGN.md §15). This is the per-get hot path;
    // the full-bucket arrays above are the positioning/scan-entry path.
    let window_keys: Vec<Vec<u64>> = pairs
        .chunks_exact(32)
        .map(|c| c.iter().map(|&(k, _)| k).collect())
        .collect();
    let wprobes: Vec<u64> = (0..n_probes)
        .map(|i| {
            let b = &window_keys[i.wrapping_mul(0x9E37_79B9) % window_keys.len()];
            let k = b[(i.wrapping_mul(2_654_435_761)) % b.len()];
            if i % 2 == 0 {
                k
            } else {
                k.wrapping_add(1)
            }
        })
        .collect();
    let warm = probe_pass("warm", simd::lower_bound, &bucket_keys, &probes[..4096], 0);
    black_box(warm.ops);
    let report = |c: &Cell| {
        eprintln!(
            "[hotpath] {}: {:.0} probes/s ({} cycles/op)",
            c.label,
            c.ops_per_sec(),
            c.cycles_per_op.map_or("n/a".into(), |x| format!("{x:.1}"))
        );
    };
    let kernel_fn = simd::kernel_fn();
    let (probe_ref, probe_simd, probe_speedup) = probe_kernels(
        "probe/branchless",
        simd::lower_bound_branchless,
        &format!("probe/{kernel}"),
        kernel_fn,
        &bucket_keys,
        &probes,
    );
    report(&probe_ref);
    report(&probe_simd);
    eprintln!("[hotpath] {kernel} full-bucket probe speedup vs branchless: {probe_speedup:.2}x");
    let (window_ref, window_simd, window_speedup) = probe_kernels(
        "window/branchless",
        simd::lower_bound_branchless,
        &format!("window/{kernel}"),
        kernel_fn,
        &window_keys,
        &wprobes,
    );
    report(&window_ref);
    report(&window_simd);
    eprintln!("[hotpath] {kernel} hint-window speedup vs branchless: {window_speedup:.2}x");

    let mut json = String::from("{");
    json.push_str(&format!(
        "\"bench\":\"hotpath\",\"smoke\":{smoke},\"n_keys\":{n_keys},"
    ));
    json.push_str("\"cells\":[");
    for (i, c) in [
        &loop_cell,
        &bulk_cell,
        &probe_ref,
        &probe_simd,
        &window_ref,
        &window_simd,
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&c.to_json());
    }
    json.push_str("],");
    json.push_str(&format!(
        "\"kernel\":\"{kernel}\",\"bulk_speedup\":{bulk_speedup:.2},\
         \"probe_speedup\":{probe_speedup:.2},\
         \"window_speedup\":{window_speedup:.2}"
    ));
    if obs::ENABLED {
        json.push_str(&format!(",\"obs\":{}", obs::snapshot().to_json()));
    }
    json.push('}');
    std::fs::write(&out_path, &json).expect("write BENCH_hotpath.json");
    eprintln!("[hotpath] wrote {out_path} ({} bytes)", json.len());

    if assert_speedup {
        // The acceptance bar applies to the full-size run; smoke keeps a
        // looser floor so a 100k-key CI box can flag a real regression
        // without flaking on boundary noise.
        let (bulk_bar, window_bar, probe_floor) = if smoke {
            (1.5, 1.1, 0.95)
        } else {
            (2.0, 1.2, 1.05)
        };
        assert!(
            bulk_speedup >= bulk_bar,
            "bulk load speedup was {bulk_speedup:.2}x, expected >={bulk_bar}x"
        );
        // The probe bars only mean something when a vector kernel was
        // actually dispatched; on a scalar-only box both legs run the
        // same class of code and the ratio is noise around 1.0. The
        // hint-window cell (the per-get hot path) carries the speedup
        // bar; the full-bucket cell is memory-bound at full scale, so it
        // only gets a no-regression floor.
        if kernel == "avx2" {
            assert!(
                window_speedup >= window_bar,
                "{kernel} hint-window speedup was {window_speedup:.2}x, expected >={window_bar}x"
            );
            assert!(
                probe_speedup >= probe_floor,
                "{kernel} full-bucket probe speedup was {probe_speedup:.2}x, \
                 expected >={probe_floor}x"
            );
        } else {
            eprintln!("[hotpath] probe bars skipped (kernel = {kernel})");
        }
        eprintln!("[hotpath] --assert-speedup passed");
    }
}
