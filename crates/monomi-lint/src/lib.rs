#![forbid(unsafe_code)]
//! # monomi-lint
//!
//! A workspace invariant checker for the MONOMI reproduction. The system's
//! security and correctness arguments rest on conventions that ordinary
//! compilation never checks:
//!
//! * **I1 — trust boundary**: keys and decryption live only in the trusted
//!   client; server-side crates compute on ciphertexts.
//! * **I2 — Montgomery residency**: values in Montgomery form never flow
//!   into plain-domain arithmetic.
//! * **I3 — determinism**: operator execution is byte-identical at every
//!   thread count — no clocks, env reads, or hash-iteration order.
//! * **I4 — panic freedom**: corrupt disk bytes fail the query with a typed
//!   error, never the process.
//! * **I5 — unsafe hygiene**: `unsafe` lives in one allow-listed module (the
//!   AES-NI rounds), each site under a `// SAFETY:` comment; every other
//!   crate forbids it outright.
//!
//! This crate machine-checks those invariants on every CI run with a
//! hand-rolled lexer (no `syn`/`dylint`: the build is offline) and a small
//! rule engine. Findings are suppressed per site with
//! `// monomi-lint: allow(<rule>): <justification>` — the justification is
//! mandatory and checked.
//!
//! Run it as `cargo run -p monomi-lint` (human report, exit 1 on violations)
//! or `cargo run -p monomi-lint -- --json` (machine-readable).

pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod walker;

use report::Report;
use rules::Violation;
use source::SourceFile;
use std::path::Path;

/// Lints one source text as if it were `rel_path` inside `crate_name`.
/// The fixture tests drive the per-file rules through this.
pub fn lint_source(crate_name: &str, rel_path: &str, text: &str) -> Vec<Violation> {
    let file = SourceFile::new(crate_name, rel_path, text);
    let mut out = Vec::new();
    rules::check_file(&file, &mut out);
    out
}

/// Lints a whole crate given `(rel_path, text)` pairs — per-file rules plus
/// the crate-level unsafe-hygiene rule.
pub fn lint_crate(crate_name: &str, sources: &[(&str, &str)]) -> Vec<Violation> {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, t)| SourceFile::new(crate_name, p, t))
        .collect();
    let mut out = Vec::new();
    for f in &files {
        rules::check_file(f, &mut out);
    }
    if let Some(root) = files
        .iter()
        .find(|f| f.basename() == "lib.rs")
        .or_else(|| files.iter().find(|f| f.basename() == "main.rs"))
    {
        rules::check_unsafe_hygiene(crate_name, &files, root, &mut out);
    }
    out
}

/// Lints the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let crates = walker::discover(root)?;
    let mut violations = Vec::new();
    let mut files = 0usize;
    let mut allows = 0usize;
    for c in &crates {
        files += c.files.len();
        for f in &c.files {
            allows += f
                .allows
                .iter()
                .filter(|a| !a.justification.is_empty())
                .count();
            rules::check_file(f, &mut violations);
        }
        if let Some(root_file) = c.root_file() {
            rules::check_unsafe_hygiene(&c.name, &c.files, root_file, &mut violations);
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Report {
        violations,
        files,
        crates: crates.len(),
        allows,
    })
}
