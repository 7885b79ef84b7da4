//! `anor-lint` — workspace-aware static analysis for ANOR.
//!
//! A custom, dependency-free static-analysis engine enforcing the
//! project invariants the Rust compiler cannot see (DESIGN.md "Static
//! Analysis"):
//!
//! * **`ANOR-PANIC`** — designated hot-path modules (the cluster
//!   budgeter/endpoint/codec, the GEOPM agent tier, the simulator tick
//!   path, telemetry sinks) must be panic-free: the paper's feedback
//!   loop assumes the budgeter survives misclassified jobs and malformed
//!   peers.
//! * **`ANOR-CODEC`** — wire tags stay disjoint, every encoded tag
//!   has a decode arm, payload reads are length-guarded.
//! * **`ANOR-UNITS`** — watts/joules/seconds identifiers are never mixed
//!   additively in raw-`f64` arithmetic.
//! * **`ANOR-LOCK`** — no `parking_lot` guard held across blocking I/O;
//!   nested acquisition is collected into a whole-workspace lock graph
//!   and any cycle (in-different-order acquisition) is a finding.
//! * **`ANOR-DETERM`** — deterministic roots (sim tick, budgeter pump,
//!   replay, codec, ExecPool task bodies) must not reach nondeterminism
//!   sources: `HashMap` iteration, wall-clock reads, thread identity.
//!
//! The engine is three layers (DESIGN.md "Static Analysis"):
//!
//! 1. a hand-rolled lexer (see [`lexer`]) — no syn/proc-macro
//!    dependencies, because the build is offline — plus a lightweight
//!    item [`parser`] (fn items, impl owners, use trees, call sites);
//! 2. a per-crate symbol table and workspace call graph
//!    ([`symbols`], [`callgraph`]) with deliberately conservative call
//!    resolution (same file, then same crate, then unique-in-workspace);
//! 3. the rule passes — per-file token rules and whole-workspace
//!    call-graph rules — over those structures.
//!
//! Audited exceptions live in the workspace `anor-lint.toml`.

pub mod callgraph;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;

pub use config::Config;
pub use diag::{json_report, Diagnostic};

use std::path::{Path, PathBuf};

/// Lint a single file's source under its workspace-relative `path` (the
/// path decides which rules apply). Allowlist entries are already applied
/// to the returned diagnostics.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let toks = lexer::lex(src);
    let mask = lexer::test_mask(&toks);
    let mut diags = rules::run_all(path, &toks, &mask, cfg);
    cfg.apply_allowlist(&mut diags);
    diags
}

/// Discover the workspace's first-party Rust sources under `root`:
/// `src/` and every `crates/*/src/`. Vendored crates, build output, test
/// fixtures and integration-test directories are excluded — the panic
/// rules are about production control paths.
pub fn discover(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            roots.push(e.path().join("src"));
        }
    }
    for dir in roots {
        walk(&dir, &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Lint a set of `(workspace-relative path, source)` pairs as one
/// workspace: per-file rules over each file, then the call-graph rules
/// (`ANOR-DETERM`, panic reachability, lock-graph cycles) over the
/// whole set. Diagnostics come back sorted by `(file, line, rule)` and
/// with the allowlist applied.
pub fn lint_sources(sources: &[(String, String)], cfg: &Config) -> Vec<Diagnostic> {
    let ws = symbols::Workspace::parse(sources);
    let mut diags = Vec::new();
    for file in &ws.files {
        diags.extend(rules::run_all(&file.path, &file.toks, &file.mask, cfg));
    }
    let graph = callgraph::CallGraph::build(&ws);
    diags.extend(rules::run_workspace(&ws, &graph, cfg));
    diags.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    cfg.apply_allowlist(&mut diags);
    diags
}

/// Rule `ANOR-LINTS`: every workspace crate must opt into the shared
/// `[workspace.lints]` table — a crate that forgets `[lints] workspace =
/// true` silently loses `deny(unsafe_code)` and the rest of the hardened
/// set. Checked over manifest text, so it needs no TOML parser.
pub fn check_manifests(root: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let opted_in = |text: &str| -> bool {
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        lines.iter().enumerate().any(|(i, l)| {
            *l == "[lints]"
                && lines[i + 1..]
                    .iter()
                    .take_while(|l| !l.starts_with('['))
                    .any(|l| l.replace(' ', "") == "workspace=true")
        })
    };
    let mut manifests = vec![(root.join("Cargo.toml"), "Cargo.toml".to_string())];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            let rel = format!(
                "crates/{}/Cargo.toml",
                d.file_name().unwrap_or_default().to_string_lossy()
            );
            manifests.push((d.join("Cargo.toml"), rel));
        }
    }
    for (path, rel) in manifests {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        if rel == "Cargo.toml" && !text.contains("[workspace.lints.rust]") {
            out.push(Diagnostic::new(
                "ANOR-LINTS",
                &rel,
                1,
                "workspace manifest has no `[workspace.lints.rust]` table".to_string(),
                "declare the shared hardened lint set (deny unsafe_code, \
                 unused_must_use, unreachable_pub) at the workspace root",
                "[workspace.lints.rust]".to_string(),
            ));
        }
        if text.contains("[package]") && !opted_in(&text) {
            out.push(Diagnostic::new(
                "ANOR-LINTS",
                &rel,
                1,
                "crate does not opt into the shared workspace lints".to_string(),
                "add `[lints]` with `workspace = true` so deny(unsafe_code) \
                 and the rest of the hardened set apply here too",
                "[lints] workspace = true".to_string(),
            ));
        }
    }
    out
}

/// Lint the whole workspace rooted at `root`. Returns all diagnostics
/// (allowlisted ones included, marked `allowed`).
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Diagnostic>> {
    let mut sources = Vec::new();
    for file in discover(root) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&file)?;
        sources.push((rel, src));
    }
    let mut diags = check_manifests(root);
    diags.extend(lint_sources(&sources, cfg));
    cfg.apply_allowlist(&mut diags);
    Ok(diags)
}

/// Find the workspace root by walking up from `start` to the first
/// directory holding a `Cargo.toml` with a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_hot_path_flags_unwrap_but_not_in_tests() {
        let cfg = Config::default();
        let src = "fn pump() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }";
        let diags = lint_source("crates/cluster/src/budgeter.rs", src, &cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "ANOR-PANIC");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn non_hot_path_files_are_not_panic_checked() {
        let cfg = Config::default();
        let diags = lint_source("crates/anor/src/render.rs", "fn f() { x.unwrap(); }", &cfg);
        assert!(diags.iter().all(|d| d.rule != "ANOR-PANIC"));
    }

    #[test]
    fn allowlist_marks_but_keeps_diagnostics() {
        let mut cfg = Config::default();
        cfg.apply("allow ANOR-PANIC crates/cluster/src/budgeter.rs .unwrap(\n");
        let diags = lint_source(
            "crates/cluster/src/budgeter.rs",
            "fn pump() { x.unwrap(); }",
            &cfg,
        );
        assert_eq!(diags.len(), 1);
        assert!(diags[0].allowed);
    }
}
