//! `BENCHMARK.json` is the single list of workloads, metrics, units and
//! bounds; the runner emits exactly what it names and `compare` applies its
//! bounds.

use crate::harness::Res;
use crate::json::Json;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The benchmark's own directory: where Cargo says the manifest is when the
/// binary runs under `cargo run`, else where it was when it was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `BENCHMARK.json` sits at the repository root, beside `benchmark/`.
pub fn default_path() -> PathBuf {
    bench_dir().join("..").join("BENCHMARK.json")
}

fn metrics(doc: &Json, key: &str) -> Res<Vec<Metric>> {
    doc.get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{key}: metric without \"{k}\""))
            };
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

pub fn load(path: &Path) -> Res<Spec> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads = doc
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    Ok(Spec {
        run_seconds: doc.get("run_seconds").and_then(Json::as_f64).unwrap_or(5.0) as u64,
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}
