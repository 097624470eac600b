//! Where a result came from: stamped on every result file.

use crate::json::Json;
use crate::spec::bench_dir;
use std::process::Command;

fn git(root: &std::path::Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn first_line_after(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(
        line.split_once(':')
            .map_or(line, |(_, v)| v)
            .trim()
            .to_string(),
    )
}

pub fn stamp() -> Json {
    let root = bench_dir().join("..");
    // Only ask git when this tree is a repository of its own: a bare
    // checkout must not pick up some enclosing repository's HEAD.
    let (sha, dirty) = if root.join(".git").exists() {
        (
            git(&root, &["rev-parse", "HEAD"]),
            git(&root, &["status", "--porcelain"]).map(|s| !s.is_empty()),
        )
    } else {
        (None, None)
    };
    let unknown = || Json::str("unknown");
    Json::obj([
        ("git_sha", sha.map_or_else(unknown, Json::Str)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "cpu_model",
            first_line_after("/proc/cpuinfo", "model name").map_or_else(unknown, Json::Str),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| Json::str(s.trim())),
        ),
        ("rustc", Json::str(env!("DYBENCH_RUSTC"))),
        ("simd_kernel", Json::str(dytis::simd::active_kernel())),
        (
            "load_shape",
            Json::str("closed loop, 1 generator thread, 1 connection, 1 request in flight, all threads on 1 CPU"),
        ),
    ])
}
