//! `unsafe` is forbidden by default across the workspace. Two files are
//! sanctioned exceptions, one per crate: `crates/core/src/simd.rs` (the
//! SIMD probe kernels, CPU intrinsics behind runtime feature detection)
//! and `crates/kvstore/src/reactor.rs` (the poll(2)/self-pipe FFI wrapper
//! that the thread-per-core server's event loops stand on). There, each
//! site must still carry a `// justified:` comment stating the safety
//! argument. Everywhere else — other files of the same crates included —
//! the finding is unconditional: extend [`ALLOWLISTED_FILES`]
//! deliberately, in review, rather than sprinkling comments.

use crate::lint::strip::contains_word;
use crate::lint::{Rule, SourceFile};

/// Workspace-relative files where justified `unsafe` is permitted.
const ALLOWLISTED_FILES: &[&str] = &["crates/core/src/simd.rs", "crates/kvstore/src/reactor.rs"];

pub struct UnsafeBlocks;

impl Rule for UnsafeBlocks {
    fn name(&self) -> &'static str {
        "unsafe-blocks"
    }

    /// All classes: an unsound test helper corrupts the suite as surely
    /// as library code.
    fn applies(&self, _file: &SourceFile) -> bool {
        true
    }

    fn check(&self, file: &SourceFile, findings: &mut Vec<String>) {
        let allowlisted = ALLOWLISTED_FILES.contains(&file.rel_path.as_str());
        for (i, code) in file.code_lines.iter().enumerate() {
            // `contains_word` keeps `unsafe_code` (lint attribute) from
            // matching; stripped lines keep strings/comments from matching.
            if !contains_word(code, "unsafe") {
                continue;
            }
            if allowlisted && file.justified(i, "justified:") {
                continue;
            }
            let hint = if allowlisted {
                "add a `// justified:` safety argument"
            } else {
                "this file is not on the unsafe allowlist (see unsafe_blocks.rs)"
            };
            findings.push(format!(
                "{}:{}: [{}] `unsafe` — {hint}",
                file.rel_path,
                i + 1,
                self.name(),
            ));
        }
    }
}
