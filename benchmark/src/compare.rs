//! `dybench compare <a.json> <b.json>`: applies each end-to-end metric's
//! bound from `BENCHMARK.json` to two result files.

use crate::harness::Res;
use crate::json::Json;
use crate::spec::Spec;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The reported median is itself uncertain by more than the bound, so
    /// the bound cannot separate a change from noise.
    Unresolved,
}

/// `(median over rounds, spread of that median as a share of it)` of one
/// metric. A result file holds one run, so the spread is estimated from its
/// rounds: the interquartile distance between rounds over the square root of
/// their count, which is how far the median of that many rounds wanders.
fn reading(file: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let q = |k| m.get(k).and_then(Json::as_f64).unwrap_or(value);
    let spread = if value == 0.0 {
        0.0
    } else {
        let rounds = m.get("n").and_then(Json::as_f64).unwrap_or(1.0).max(1.0);
        (q("q3") - q("q1")).abs() / value.abs() / rounds.sqrt()
    };
    Some((value, spread))
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Res<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one row per (workload, metric); `Ok(true)` when nothing regressed.
pub fn run(spec: &Spec, a_path: &Path, b_path: &Path) -> Res<bool> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound", "spread"
    );
    let mut clean = true;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (Some((va, sa)), Some((vb, sb))) =
                (reading(&a, w, &m.name), reading(&b, w, &m.name))
            else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let worse_by = worsening(va, vb, m.higher_is_better);
            let spread = sa.max(sb);
            let verdict = judge(worse_by, spread, bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {:>7.2}%  {}",
                w,
                m.name,
                va,
                vb,
                worse_by * 100.0,
                bound * 100.0,
                spread * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (side, file) in [("a", &a), ("b", &b)] {
            let failed = file
                .get("workloads")
                .and_then(|ws| ws.get(w))
                .and_then(|x| x.get("failed"))
                .and_then(Json::as_f64);
            if failed.is_some_and(|f| f > 0.0) {
                println!("{w:<18} failed ops in {side}: any failure fails the comparison");
                clean = false;
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // Throughput down 8% against a 5% bound.
        let w = worsening(100.0, 92.0, true);
        assert!((w - 0.08).abs() < 1e-12);
        assert_eq!(judge(w, 0.01, 0.05), Verdict::Regressed);
        // Latency down is an improvement however large.
        assert_eq!(
            judge(worsening(100.0, 50.0, false), 0.01, 0.05),
            Verdict::Ok
        );
        // Latency up 3% within a 5% bound.
        assert_eq!(
            judge(worsening(100.0, 103.0, false), 0.01, 0.05),
            Verdict::Ok
        );
        // Noise wider than the bound: no verdict either way.
        assert_eq!(judge(0.5, 0.2, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn readings_come_from_result_files() {
        let file = Json::parse(
            r#"{"workloads": {"idx_get": {"failed": 0, "metrics":
                {"op_p50_ns": {"value": 200, "q1": 190, "q3": 210, "n": 9, "unit": "ns"}}}}}"#,
        )
        .unwrap();
        // (210 - 190) / 200 between rounds, over sqrt(9) rounds.
        let (value, spread) = reading(&file, "idx_get", "op_p50_ns").unwrap();
        assert_eq!(value, 200.0);
        assert!((spread - 0.1 / 3.0).abs() < 1e-12);
        assert_eq!(reading(&file, "idx_get", "nope"), None);
    }
}
