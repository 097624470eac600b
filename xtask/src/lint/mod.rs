//! The workspace lint engine, invoked as `cargo run -p xtask -- lint`.
//!
//! Source files are collected from `crates/` (library sources *and*
//! per-crate `tests/`/`benches/`, including the `crates/bench` harness),
//! the workspace facade `src/`, the top-level `tests/`, and `examples/`.
//! The vendored `compat/` shims and xtask itself are exempt: the shims
//! deliberately mirror external APIs (poisoning `lock().unwrap()` idioms
//! and all), and linting the linter's own pattern tables would flag every
//! rule definition.
//!
//! Each file is preprocessed once into a [`SourceFile`] — raw lines,
//! comment/string-stripped lines, and a `#[cfg(test)]`-module mask — and
//! every [`Rule`] whose `applies` filter matches is run over it. Manifest
//! rules run over every workspace `Cargo.toml` (including `compat/`, so
//! the vendored-shim policy itself is checked). Findings are
//! `file:line: [rule] message`; any finding exits non-zero.
//!
//! Escape hatches are per-site comments, never global switches: the
//! original rules keep their dedicated `// invariant:` / `// relaxed:`
//! markers, and every newer rule accepts `// justified:` on the flagged
//! statement or the comment block directly above it. See DESIGN.md §12
//! for the catalogue.

pub mod guards;
pub mod rules;
pub mod strip;

use std::path::{Path, PathBuf};

/// Where a source file sits in the workspace; rules scope themselves by
/// class (e.g. panic-site justification applies to library code only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Shipping code: `crates/*/src` and the workspace facade `src/`.
    Library,
    /// Integration tests: `tests/` at the root or under a crate.
    Test,
    /// Benchmark harnesses: `crates/bench` and any `benches/` dir.
    Bench,
    /// Runnable documentation under `examples/`.
    Example,
}

/// One preprocessed source file, shared by every rule.
pub struct SourceFile {
    /// Workspace-relative path, used in diagnostics and by file-scoped
    /// policies (the `unsafe` allowlist).
    pub rel_path: String,
    /// The `crates/<name>` directory component (`"core"`, `"durability"`,
    /// …) or `"workspace"` for files outside `crates/`. Rules use this for
    /// crate-scoped policies (cast checks in durability framing).
    pub crate_dir: String,
    pub class: FileClass,
    pub raw_lines: Vec<String>,
    /// Comment/string/char-literal-stripped mirror of `raw_lines`.
    pub code_lines: Vec<String>,
    /// Per-line: inside a `#[cfg(test)] mod … { … }` block. Rules skip
    /// masked lines; unit tests embedded in library files follow test
    /// rules, not library rules.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    pub fn parse(rel_path: &str, crate_dir: &str, class: FileClass, text: &str) -> SourceFile {
        let raw_lines: Vec<String> = text.lines().map(str::to_string).collect();
        let mut stripper = strip::Stripper::default();
        let code_lines: Vec<String> = raw_lines.iter().map(|l| stripper.strip(l)).collect();

        // Test-module mask: `#[cfg(...test...)] mod x { ... }`.
        let mut in_test = vec![false; code_lines.len()];
        let mut depth = 0usize;
        let mut pending_test_attr = false;
        let mut test_exit_depth: Option<usize> = None;
        for (i, code) in code_lines.iter().enumerate() {
            let trimmed = code.trim();
            if test_exit_depth.is_none() {
                if trimmed.starts_with("#[") {
                    if trimmed.contains("cfg(") && trimmed.contains("test") {
                        pending_test_attr = true;
                    }
                } else if !trimmed.is_empty() {
                    if pending_test_attr && trimmed.starts_with("mod ") && trimmed.contains('{') {
                        test_exit_depth = Some(depth);
                    }
                    pending_test_attr = false;
                }
            }
            in_test[i] = test_exit_depth.is_some();
            for c in code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if test_exit_depth.is_some_and(|d| depth <= d) {
                            test_exit_depth = None;
                        }
                    }
                    _ => {}
                }
            }
        }

        SourceFile {
            rel_path: rel_path.to_string(),
            crate_dir: crate_dir.to_string(),
            class,
            raw_lines,
            code_lines,
            in_test,
        }
    }

    /// Shorthand: is the per-site escape hatch present at line index `i`?
    pub fn justified(&self, i: usize, marker: &str) -> bool {
        strip::justified(&self.raw_lines, i, marker)
    }
}

/// A single lint over one preprocessed source file.
pub trait Rule {
    fn name(&self) -> &'static str;
    /// Which files the rule scans. Default: library code only.
    fn applies(&self, file: &SourceFile) -> bool {
        file.class == FileClass::Library
    }
    fn check(&self, file: &SourceFile, findings: &mut Vec<String>);
}

/// A lint over one workspace `Cargo.toml`.
pub trait ManifestRule {
    fn name(&self) -> &'static str;
    fn check(&self, rel_path: &str, text: &str, findings: &mut Vec<String>);
}

/// Runs every rule over the widened source set rooted at `root`.
/// Returns the findings; prints nothing.
pub fn run(root: &Path) -> Vec<String> {
    let mut findings = Vec::new();
    let rules = rules::all();
    for file in collect_sources(root) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        let Ok(text) = std::fs::read_to_string(&file) else {
            findings.push(format!("{rel}: unreadable"));
            continue;
        };
        let source = SourceFile::parse(&rel, &crate_dir_of(&rel), classify(&rel), &text);
        for rule in &rules {
            if rule.applies(&source) {
                rule.check(&source, &mut findings);
            }
        }
    }
    let manifest_rules = rules::all_manifest();
    for manifest in collect_manifests(root) {
        let rel = manifest
            .strip_prefix(root)
            .unwrap_or(&manifest)
            .display()
            .to_string();
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            findings.push(format!("{rel}: unreadable"));
            continue;
        };
        for rule in &manifest_rules {
            rule.check(&rel, &text, &mut findings);
        }
    }
    findings
}

/// Total number of distinct rules the engine runs (for the summary line).
pub fn rule_count() -> usize {
    rules::all().len() + rules::all_manifest().len()
}

/// The `crates/<name>` component of a workspace-relative path, or
/// `"workspace"` for root-level `src/`, `tests/`, `examples/`.
fn crate_dir_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    "workspace".to_string()
}

/// File class from the workspace-relative path.
fn classify(rel: &str) -> FileClass {
    if rel.starts_with("crates/bench/") || rel.contains("/benches/") {
        FileClass::Bench
    } else if rel.starts_with("tests/") || rel.contains("/tests/") {
        FileClass::Test
    } else if rel.starts_with("examples/") || rel.contains("/examples/") {
        FileClass::Example
    } else {
        FileClass::Library
    }
}

/// Collects `.rs` sources: all of `crates/` (library, tests, benches —
/// only build output is skipped) plus the workspace `src/`, `tests/`, and
/// `examples/`. `compat/` and `xtask/` are exempt (see module docs).
pub fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        walk_rs(&root.join(top), &mut out);
    }
    out
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                walk_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Every workspace manifest: root, `crates/*`, `compat/*`, and xtask.
pub fn collect_manifests(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml"), root.join("xtask/Cargo.toml")];
    for member_dir in ["crates", "compat"] {
        let Ok(entries) = std::fs::read_dir(root.join(member_dir)) else {
            continue;
        };
        let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            let manifest = path.join("Cargo.toml");
            if manifest.is_file() {
                out.push(manifest);
            }
        }
    }
    out
}
