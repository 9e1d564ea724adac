//! `mls-lint` — determinism & protocol-safety static analysis.
//!
//! Every guarantee this workspace makes — byte-identical reports at any
//! thread count (`batched_equivalence`), obs on or off
//! (`obs_equivalence`), interrupted and resumed or not
//! (`resume_equivalence`) — was enforced only dynamically, by
//! mission-flying test suites that catch a violation minutes after it is
//! written. This crate is the static half of that contract: a
//! source-level analyzer built on a small hand-rolled lexer (no `syn`)
//! that walks the workspace in well under a second and enforces the
//! determinism invariants of `docs/ARCHITECTURE.md` as machine-checked
//! rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | D001 | no `HashMap`/`HashSet` in serialization paths (order → bytes) |
//! | D002 | wall-clock reads only in `mls-obs`/`mls-bench` or obs-gated |
//! | D003 | `thread::spawn`, `thread::Builder`, `thread::scope` only in `MissionExecutor` |
//! | D004 | no unseeded entropy anywhere (OS RNG, `RandomState`) |
//! | D005 | no text-formatted floats in wire paths (`to_bits` only) |
//! | D006 | retired with the campaign fabric; the ID stays unused |
//! | D007 | no bare `File::create`/`fs::write` in artifact paths (atomic_write only) |
//!
//! Violations are suppressible only via `// mls-lint: allow(D00x): <reason>`
//! with a mandatory reason, and a *stale* allow (one that no longer
//! suppresses anything) is an error in its own right. `docs/LINT.md` is the
//! full catalog with rationale; `cargo run -p mls-lint` checks the tree and
//! writes `target/reports/lint.json`.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use report::LintReport;

/// Lints every shipped source file under `root` (the workspace checkout),
/// classifying each path onto the restricted surfaces and aggregating one
/// deterministic report.
///
/// # Errors
///
/// Propagates filesystem errors from discovery or reading; an unreadable
/// tree is a tooling failure, not a clean run.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = walk::workspace_sources(root)?;
    lint_files(root, &files)
}

/// Lints an explicit list of root-relative files — the workspace run and
/// the fixture-corpus tests share this path.
///
/// # Errors
///
/// Propagates read errors for any listed file.
pub fn lint_files(root: &Path, files: &[String]) -> io::Result<LintReport> {
    let mut lint_report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for rel in files {
        let src = fs::read_to_string(root.join(rel))?;
        let class = rules::classify(rel);
        let (findings, suppressed) = rules::check_source(rel, &src, class);
        lint_report.findings.extend(findings);
        lint_report.suppressed.extend(suppressed);
    }
    lint_report.sort();
    Ok(lint_report)
}
