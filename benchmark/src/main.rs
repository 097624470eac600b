//! dybench — the repo's reference benchmark.
//!
//! ```text
//! dybench [run] [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out <file>]
//! dybench compare <a.json> <b.json>
//! ```
//!
//! `run` executes the named workload (all seven without `--workload`),
//! checks every reply, prints each metric as `workload metric value unit`,
//! and ends with one JSON line per workload. With `--trace 0` (default) the
//! metrics are the end-to-end ones of `BENCHMARK.json`; `--trace 1` is the
//! separate traced run that yields the per-layer ones. See README.md.

mod affinity;
mod compare;
mod gen;
mod harness;
mod idx;
mod json;
mod net;
mod provenance;
mod spec;
mod stats;
mod trace;
mod wal;

use harness::{run_e2e, run_trace, Outcome, Res, RunCfg, Workload};
use json::Json;
use spec::{Metric, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: dybench [run] [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out <file>]
       dybench compare <a.json> <b.json>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            // `--trace` alone means on; `--trace 0|1` is the driver's form.
            "--trace" => {
                parsed.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run_one(name: &str, run: &RunCfg, traced: bool) -> Res<Outcome> {
    fn go<W: Workload>(cfg: &W::Cfg, run: &RunCfg, traced: bool) -> Res<Outcome> {
        if traced {
            run_trace::<W>(cfg, run)
        } else {
            run_e2e::<W>(cfg, run)
        }
    }
    match name {
        "idx_get" => go::<idx::Idx>(&idx::full(idx::Kind::Get), run, traced),
        "idx_scan" => go::<idx::Idx>(&idx::full(idx::Kind::Scan), run, traced),
        "idx_insert_drift" => go::<idx::Idx>(&idx::full(idx::Kind::InsertDrift), run, traced),
        "idx_mixed" => go::<idx::Idx>(&idx::full(idx::Kind::Mixed), run, traced),
        "net_batch" => go::<net::Net>(&net::full_batch(), run, traced),
        "net_rtt" => go::<net::Net>(&net::full_rtt(), run, traced),
        "wal_group" => go::<wal::WalBench>(&wal::full(), run, traced),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The metrics a run of this kind must print. Every end-to-end metric must
/// have been measured; a per-layer metric of a layer the workload leaves
/// idle reads 0.
fn emitted<'a>(spec: &'a Spec, out: &Outcome) -> Res<Vec<(&'a Metric, f64)>> {
    let (list, required) = if out.traced {
        (&spec.per_layer, false)
    } else {
        (&spec.end_to_end, true)
    };
    list.iter()
        .map(|m| match out.rounds.value(&m.name) {
            Some(v) => Ok((m, v)),
            None if required => Err(format!(
                "{}: metric {} was not measured",
                out.workload, m.name
            )),
            None => Ok((m, 0.0)),
        })
        .collect()
}

/// The driver's contract: one JSON object, last on standard output.
fn result_line(out: &Outcome, metrics: &[(&Metric, f64)]) -> String {
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(m, v)| {
                (
                    m.name.as_str(),
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str(&m.unit))]),
                )
            })),
        ),
    ])
    .to_line()
}

/// One workload's entry in the result file.
fn file_entry(out: &Outcome, metrics: &[(&Metric, f64)]) -> Json {
    Json::obj([
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "failed_share",
            Json::Num(out.failed as f64 / out.attempted.max(1) as f64),
        ),
        ("measured_s", Json::Num(out.measured_s)),
        (
            "stream_hash",
            Json::str(format!("{:016x}", out.stream_hash)),
        ),
        ("op_tail_ns_is", Json::str(&out.tail)),
        ("sizes", out.sizes.clone()),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(m, v)| {
                let mut entry = out
                    .rounds
                    .summary(&m.name)
                    .unwrap_or_else(|| Json::obj([("value", Json::Num(*v))]));
                if let Json::Obj(members) = &mut entry {
                    members.push(("unit".into(), Json::str(&m.unit)));
                }
                (m.name.as_str(), entry)
            })),
        ),
    ])
}

fn run(args: &Args) -> Res<bool> {
    let spec = spec::load(&spec::default_path())?;
    let out_dir = spec::bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let selected: Vec<String> = match &args.workload {
        Some(w) if spec.workloads.contains(w) => vec![w.clone()],
        Some(w) => {
            return Err(format!(
                "unknown workload {w:?}; BENCHMARK.json names {:?}",
                spec.workloads
            ))
        }
        None => spec.workloads.clone(),
    };
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    // Before anything starts a thread: the server's workers and the WAL's
    // committer inherit the pin.
    let cpu = affinity::pin_to_one_cpu();
    match cpu {
        Some(cpu) => println!("# pinned to cpu {cpu}"),
        None => println!("# not pinned"),
    }

    let mut entries = Vec::new();
    let mut lines = Vec::new();
    let mut clean = true;
    for name in &selected {
        let cfg = RunCfg {
            workload: name.clone(),
            seed: args.seed,
            seconds: Duration::from_secs(seconds),
            out_dir: out_dir.clone(),
        };
        let out = run_one(name, &cfg, args.traced)?;
        let metrics = emitted(&spec, &out)?;
        for (m, v) in &metrics {
            println!("{name} {} {v} {}", m.name, m.unit);
        }
        let share = out.failed as f64 / out.attempted.max(1) as f64;
        println!("{name} failed_share {share} ratio");
        if !out.traced {
            println!(
                "# {name}: op_tail_ns is {}; measured {:.1} s",
                out.tail, out.measured_s
            );
        }
        clean &= out.failed == 0;
        lines.push(result_line(&out, &metrics));
        entries.push((name.as_str(), file_entry(&out, &metrics)));
    }

    let mode = if args.traced { "trace" } else { "e2e" };
    let which = args.workload.as_deref().unwrap_or("all");
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("dybench-{mode}-seed{}-{which}.json", args.seed)));
    let file = Json::obj([
        ("provenance", provenance::stamp()),
        ("traced", Json::Bool(args.traced)),
        (
            "pinned_cpu",
            cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("workloads", Json::obj(entries)),
    ]);
    std::fs::write(&path, file.to_line() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# result file: {}", path.display());
    for line in lines {
        println!("{line}");
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => spec::load(&spec::default_path())
                .and_then(|s| compare::run(&s, Path::new(a), Path::new(b))),
            _ => Err(USAGE.to_string()),
        },
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        first => {
            let rest = if first == Some("run") {
                &args[1..]
            } else {
                &args[..]
            };
            parse(rest).and_then(|a| run(&a))
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Failed ops, or a regression under `compare`.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dybench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{Rounds, Scope};
    use std::collections::BTreeSet;
    use trace::{NoProbe, Tracer};

    fn args(list: &[&str]) -> Res<Args> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_flags_and_the_short_forms_parse() {
        let a = args(&[
            "--workload",
            "idx_get",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced),
            (Some("idx_get"), 7, Some(3), true)
        );
        assert!(!args(&["--trace", "0"]).unwrap().traced);
        assert!(args(&["--seed", "2", "--trace"]).unwrap().traced);
        assert!(args(&["--bogus"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    /// Runs one traced round of a tiny instance and returns the names of
    /// the per-layer metrics it produced.
    fn traced_names<W: Workload>(cfg: &W::Cfg, dir: &Path) -> BTreeSet<String> {
        let mut rounds = Rounds::default();
        let mut w = W::setup(cfg, 1, true, dir).unwrap();
        for name in [
            "gen.keys_s",
            "gen.ops_s",
            "gen.oracle_s",
            "trace.spans",
            "trace.overhead_share",
        ] {
            rounds.push(name, 0.0);
        }
        let mut tracer = Tracer::default();
        assert_eq!(w.pass(&mut NoProbe, Scope::Prefix).unwrap().failed, 0);
        assert_eq!(w.pass(&mut tracer, Scope::Prefix).unwrap().failed, 0);
        w.layer_metrics(&tracer, &mut rounds);
        w.extras(1, &mut rounds).unwrap();
        assert_eq!(w.finish(&mut rounds).unwrap().failed, 0);
        rounds
            .names()
            .filter(|n| !n.starts_with('_'))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_runner_produces() {
        let spec = spec::load(&spec::default_path()).unwrap();
        let dir = spec::bench_dir().join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let mut produced = BTreeSet::new();
        for kind in [
            idx::Kind::Get,
            idx::Kind::Scan,
            idx::Kind::InsertDrift,
            idx::Kind::Mixed,
        ] {
            produced.extend(traced_names::<idx::Idx>(&idx::tests::tiny(kind), &dir));
        }
        produced.extend(traced_names::<net::Net>(&net::tests::tiny(64), &dir));
        produced.extend(traced_names::<net::Net>(&net::tests::tiny(1), &dir));
        produced.extend(traced_names::<wal::WalBench>(&wal::tests::tiny(), &dir));
        let listed: BTreeSet<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            produced, listed,
            "per_layer of BENCHMARK.json vs. what traced runs push"
        );

        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "throughput_ops_s",
                "op_p50_ns",
                "op_tail_ns",
                "bytes_per_key"
            ]
        );
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert_eq!(
            spec.workloads,
            [
                "idx_get",
                "idx_scan",
                "idx_insert_drift",
                "idx_mixed",
                "net_batch",
                "net_rtt",
                "wal_group"
            ]
        );
        let cfg = RunCfg {
            workload: "no_such_workload".into(),
            seed: 1,
            seconds: Duration::ZERO,
            out_dir: dir,
        };
        assert!(run_one(&cfg.workload, &cfg, false).is_err());
    }

    #[test]
    fn an_end_to_end_run_measures_every_end_to_end_metric() {
        let spec = spec::load(&spec::default_path()).unwrap();
        let dir = spec::bench_dir().join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = RunCfg {
            workload: "idx_mixed".into(),
            seed: 1,
            seconds: Duration::ZERO,
            out_dir: dir,
        };
        let out = run_e2e::<idx::Idx>(&idx::tests::tiny(idx::Kind::Mixed), &cfg).unwrap();
        let metrics = emitted(&spec, &out).unwrap();
        assert_eq!(metrics.len(), spec.end_to_end.len());
        assert!(metrics.iter().all(|(_, v)| *v > 0.0));
        assert_eq!(out.rounds.get("setup_s").len(), harness::SETUPS);
        let line = Json::parse(&result_line(&out, &metrics)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.members().len(), 4);
    }
}
