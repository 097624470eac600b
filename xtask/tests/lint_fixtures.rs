//! Non-vacuity suite for the lint engine: every rule added since the
//! original three is exercised against a seeded-violation fixture (must
//! flag) and a clean/justified variant (must pass). A rule whose `_bad`
//! fixture stops failing has gone vacuous — the checked-in source staying
//! clean proves nothing by itself.
//!
//! Fixtures live under `tests/fixtures/`; they are linted as text, never
//! compiled.

use xtask::lint::rules::{
    dependency_policy::DependencyPolicy, fsync_before_rename::FsyncBeforeRename,
    lock_across_io::LockAcrossIo, truncating_casts::TruncatingCasts,
    unbounded_retry::UnboundedRetry, unsafe_blocks::UnsafeBlocks,
};
use xtask::lint::{FileClass, ManifestRule, Rule, SourceFile};

/// Lints `src` as the library file at workspace-relative `path`
/// (`crates/<crate_dir>/src/...`) with one rule.
fn run_rule(rule: &dyn Rule, path: &str, src: &str) -> Vec<String> {
    let crate_dir = path.split('/').nth(1).expect("path under crates/");
    let file = SourceFile::parse(path, crate_dir, FileClass::Library, src);
    assert!(
        rule.applies(&file),
        "{} skipped its own fixture",
        rule.name()
    );
    let mut findings = Vec::new();
    rule.check(&file, &mut findings);
    findings
}

fn assert_flags(rule: &dyn Rule, path: &str, src: &str) {
    let findings = run_rule(rule, path, src);
    assert!(
        !findings.is_empty(),
        "{}: seeded violation not flagged — rule is vacuous",
        rule.name()
    );
    for f in &findings {
        assert!(
            f.contains(&format!("[{}]", rule.name())),
            "finding missing rule tag: {f}"
        );
    }
}

fn assert_clean(rule: &dyn Rule, path: &str, src: &str) {
    let findings = run_rule(rule, path, src);
    assert!(
        findings.is_empty(),
        "{}: clean fixture flagged: {findings:?}",
        rule.name()
    );
}

#[test]
fn lock_across_io_fixtures() {
    let rule = LockAcrossIo;
    assert_flags(
        &rule,
        "crates/kvstore/src/fixture.rs",
        include_str!("fixtures/lock_across_io_bad.rs"),
    );
    assert_clean(
        &rule,
        "crates/kvstore/src/fixture.rs",
        include_str!("fixtures/lock_across_io_ok.rs"),
    );
}

#[test]
fn fsync_before_rename_fixtures() {
    let rule = FsyncBeforeRename;
    assert_flags(
        &rule,
        "crates/kvstore/src/fixture.rs",
        include_str!("fixtures/fsync_before_rename_bad.rs"),
    );
    assert_clean(
        &rule,
        "crates/kvstore/src/fixture.rs",
        include_str!("fixtures/fsync_before_rename_ok.rs"),
    );
}

#[test]
fn unsafe_blocks_fixtures() {
    let rule = UnsafeBlocks;
    let ok = include_str!("fixtures/unsafe_blocks_ok.rs");
    // Unjustified unsafe is flagged even in an allowlisted file.
    assert_flags(
        &rule,
        "crates/core/src/simd.rs",
        include_str!("fixtures/unsafe_blocks_bad.rs"),
    );
    // The justified variant passes only in the two allowlisted files …
    assert_clean(&rule, "crates/core/src/simd.rs", ok);
    assert_clean(&rule, "crates/kvstore/src/reactor.rs", ok);
    // … and stays flagged everywhere else, justification or not — other
    // files of the same crates included.
    assert_flags(&rule, "crates/core/src/concurrent.rs", ok);
    assert_flags(&rule, "crates/kvstore/src/tpc.rs", ok);
    assert_flags(&rule, "crates/bench/src/lib.rs", ok);
}

#[test]
fn truncating_casts_fixtures() {
    let rule = TruncatingCasts;
    assert_flags(
        &rule,
        "crates/durability/src/fixture.rs",
        include_str!("fixtures/truncating_casts_bad.rs"),
    );
    assert_clean(
        &rule,
        "crates/durability/src/fixture.rs",
        include_str!("fixtures/truncating_casts_ok.rs"),
    );
    // Outside the durability crate the rule does not apply at all.
    let other = SourceFile::parse(
        "fixture.rs",
        "core",
        FileClass::Library,
        include_str!("fixtures/truncating_casts_bad.rs"),
    );
    assert!(!rule.applies(&other));
}

#[test]
fn unbounded_retry_fixtures() {
    let rule = UnboundedRetry;
    assert_flags(
        &rule,
        "crates/core/src/fixture.rs",
        include_str!("fixtures/unbounded_retry_bad.rs"),
    );
    assert_clean(
        &rule,
        "crates/core/src/fixture.rs",
        include_str!("fixtures/unbounded_retry_ok.rs"),
    );
}

/// The seqlock extension of `unbounded-retry`: a validate loop that
/// re-loads a version counter / spins on `try_read` must show the same
/// bound-or-fallback evidence as a lock/CAS retry loop.
#[test]
fn seqlock_validate_fixtures() {
    let rule = UnboundedRetry;
    assert_flags(
        &rule,
        "crates/core/src/fixture.rs",
        include_str!("fixtures/seqlock_validate_bad.rs"),
    );
    assert_clean(
        &rule,
        "crates/core/src/fixture.rs",
        include_str!("fixtures/seqlock_validate_ok.rs"),
    );
}

#[test]
fn dependency_policy_fixtures() {
    let rule = DependencyPolicy;
    let mut findings = Vec::new();
    rule.check(
        "fixture/Cargo.toml",
        include_str!("fixtures/dependency_policy_bad.toml"),
        &mut findings,
    );
    // Registry version, loom in [dependencies], proptest in
    // [dependencies], non-path workspace entry.
    assert_eq!(findings.len(), 4, "{findings:?}");

    let mut findings = Vec::new();
    rule.check(
        "fixture/Cargo.toml",
        include_str!("fixtures/dependency_policy_ok.toml"),
        &mut findings,
    );
    assert!(findings.is_empty(), "{findings:?}");
}

/// The real tree must be clean: the engine's source collection sees the
/// widened set (workspace src/, tests/, examples/, crate tests) and no
/// rule fires on checked-in code.
#[test]
fn workspace_is_clean_under_widened_scan() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits under the workspace root")
        .to_path_buf();
    let sources = xtask::lint::collect_sources(&root);
    let rels: Vec<String> = sources
        .iter()
        .map(|p| p.strip_prefix(&root).unwrap_or(p).display().to_string())
        .collect();
    for expected in [
        "src/lib.rs",
        "tests/concurrent.rs",
        "examples/quickstart.rs",
        "crates/core/src/concurrent.rs",
        "crates/core/tests/loom_models.rs",
        "crates/bench/src/lib.rs",
    ] {
        assert!(
            rels.iter().any(|r| r == expected),
            "widened scan missing {expected}"
        );
    }
    assert!(
        !rels
            .iter()
            .any(|r| r.starts_with("compat/") || r.starts_with("xtask/")),
        "compat/ and xtask/ must stay exempt"
    );
    let findings = xtask::lint::run(&root);
    assert!(findings.is_empty(), "{findings:?}");
}
