//! `foodmatch-lint` — a repo-specific determinism & panic-safety lint pass.
//!
//! Every guarantee this reproduction makes — golden service/router
//! equivalence, recovery landing bit-identical on the acked flush boundary,
//! telemetry neutrality — rests on invariants the compiler does not check:
//! no hasher-ordered iteration on the output path, no panics in the code
//! that runs mid-crash-recovery, no wall-clock reads outside telemetry, no
//! telemetry registry lookups in per-window loops, no thread started
//! outside the one fan-out. This crate enforces them
//! as typed diagnostics with `file:line`, a rule id, and a stable JSON
//! report, over a hand-rolled token-level scanner ([`lexer`]) — std-only,
//! no `syn`.
//!
//! A violation that is *correct by design* is waived in-source:
//!
//! ```text
//! // lint, colon, space, then: allow(<rule-id>) — <reason>
//! ```
//!
//! (written as one contiguous comment marker; spelled out here so the
//! self-scan does not read this paragraph as a waiver). A waiver with no
//! reason, naming an unknown rule, or suppressing nothing is itself a
//! diagnostic — waivers are recorded and counted in the JSON report so
//! creep is visible in CI.

pub mod lexer;
pub mod rules;

pub use rules::{scan_source, Diagnostic, Waiver, RULES};

use std::fs;
use std::path::{Path, PathBuf};

/// Everything one run of the pass produced, ready for printing or JSON.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
    pub waivers: Vec<(String, Waiver)>,
}

impl Report {
    /// True when the workspace is clean (waived violations are fine by
    /// definition — that is what a reason-carrying waiver means).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Serialises the report as stable JSON: fixed key order, diagnostics
    /// sorted by `(path, line, rule)`, waivers by `(path, line)`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"tool\": \"foodmatch-lint\",\n");
        out.push_str(&format!("  \"version\": {},\n", json_str(env!("CARGO_PKG_VERSION"))));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"rules\": [\n");
        for (i, (id, description)) in RULES.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"description\": {}}}{}\n",
                json_str(id),
                json_str(description),
                if i + 1 < RULES.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"diagnostic_count\": {},\n", self.diagnostics.len()));
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}{}\n",
                json_str(d.rule),
                json_str(&d.path),
                d.line,
                json_str(&d.message),
                if i + 1 < self.diagnostics.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"waiver_count\": {},\n", self.waivers.len()));
        out.push_str("  \"waivers\": [\n");
        for (i, (path, w)) in self.waivers.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"suppressed\": {}, \
                 \"reason\": {}}}{}\n",
                json_str(&w.rule),
                json_str(path),
                w.declared_line,
                w.suppressed,
                json_str(&w.reason),
                if i + 1 < self.waivers.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Collects every `.rs` file under `crates/`, `tests/`, and `examples/` of
/// `root`, sorted for deterministic reports. Directories named `target` or
/// `fixtures` are skipped — fixtures *are* seeded violations.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full pass over a workspace root.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in workspace_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let source = fs::read_to_string(&path)?;
        let (diagnostics, waivers) = scan_source(&rel, &source);
        report.files_scanned += 1;
        report.diagnostics.extend(diagnostics);
        report.waivers.extend(waivers.into_iter().map(|w| (rel.clone(), w)));
    }
    report
        .diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    report
        .waivers
        .sort_by(|a, b| (a.0.as_str(), a.1.declared_line).cmp(&(b.0.as_str(), b.1.declared_line)));
    Ok(report)
}

/// Walks upward from `start` to the directory holding the workspace
/// `Cargo.toml` (the one declaring `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
