//! Lint configuration: rule scoping, the unit-word registry, the lock
//! order table, and the audited-exception allowlist.
//!
//! The built-in defaults encode ANOR's designated hot paths; the
//! workspace-root `anor-lint.toml` supplies the parts meant to be edited
//! in review — allowlist entries and the declared lock order. The file is
//! line-oriented (see DESIGN.md "Static Analysis"):
//!
//! ```text
//! # comment
//! lock-order registry series shared events writer
//! allow ANOR-PANIC crates/model/src/fit.rs expect("non-empty range")
//! strict-panic-file crates/foo/src/hot.rs
//! ```

use crate::diag::Diagnostic;
use std::path::Path;

/// Dimension classes for the unit-safety rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitClass {
    Watts,
    Joules,
    Seconds,
}

impl UnitClass {
    pub fn name(self) -> &'static str {
        match self {
            UnitClass::Watts => "watts",
            UnitClass::Joules => "joules",
            UnitClass::Seconds => "seconds",
        }
    }
}

/// One audited exception: a diagnostic is allowed when its rule matches
/// (or the entry says `*`), its file path ends with `path`, and the
/// flagged snippet contains `needle`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub needle: String,
}

/// One deterministic root (a "det sink"): functions here must only
/// consume deterministic inputs. `func == "*"` seeds every function in
/// the file.
#[derive(Debug, Clone)]
pub struct DetSink {
    pub path: String,
    pub func: String,
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Hot-path files under the full panic-freedom rule, including the
    /// indexing check (suffix match on workspace-relative paths).
    pub strict_panic_files: Vec<String>,
    /// Files where panicking constructs are flagged but indexing is not
    /// (numeric kernels index heavily and are bounds-checked by shape).
    pub extended_panic_files: Vec<String>,
    /// Files holding wire-codec `encode`/`decode` pairs.
    pub codec_files: Vec<String>,
    /// snake_case words that classify an identifier into a unit class.
    pub unit_words: Vec<(&'static str, UnitClass)>,
    /// Method/function names treated as blocking for the lock rule.
    pub blocking_calls: Vec<String>,
    /// Declared lock acquisition order (earlier must be taken first).
    /// Optional since the lock-graph rewrite: cycle detection over the
    /// observed acquisition graph is the primary deadlock guard, and an
    /// order table (when declared) is checked on top of it.
    pub lock_order: Vec<String>,
    /// Deterministic roots for `ANOR-DETERM` (`det-sink` directives).
    pub det_sinks: Vec<DetSink>,
    /// Extra nondeterminism sources (`det-source` directives): a bare
    /// name matches any call of that name, `Qual::name` a qualified one.
    pub det_sources: Vec<String>,
    /// Path fragments where the determinism walk stops (`det-barrier`):
    /// audited observability boundaries whose internals never feed
    /// decisions (the telemetry crate records, it does not decide).
    pub det_barriers: Vec<String>,
    /// Audited exceptions.
    pub allow: Vec<AllowEntry>,
}

impl Default for Config {
    fn default() -> Self {
        let strict = [
            "crates/cluster/src/endpoint.rs",
            "crates/cluster/src/budgeter.rs",
            "crates/cluster/src/codec.rs",
            "crates/cluster/src/session.rs",
            "crates/geopm/src/agent.rs",
            "crates/geopm/src/endpoint.rs",
            "crates/geopm/src/platformio.rs",
            "crates/sim/src/sim.rs",
            "crates/telemetry/src/sink.rs",
            "crates/telemetry/src/trace.rs",
        ];
        let extended = [
            "crates/cluster/src/emulator.rs",
            "crates/model/src/fit.rs",
            "crates/model/src/window.rs",
            "crates/model/src/epoch_detect.rs",
            "crates/types/src/qos.rs",
            "crates/types/src/msg.rs",
            "crates/types/src/catalog.rs",
            "crates/types/src/cli.rs",
        ];
        Config {
            strict_panic_files: strict.iter().map(|s| s.to_string()).collect(),
            extended_panic_files: extended.iter().map(|s| s.to_string()).collect(),
            codec_files: vec!["crates/types/src/msg.rs".to_string()],
            unit_words: vec![
                ("watts", UnitClass::Watts),
                ("watt", UnitClass::Watts),
                ("power", UnitClass::Watts),
                ("cap", UnitClass::Watts),
                ("budget", UnitClass::Watts),
                ("headroom", UnitClass::Watts),
                ("joules", UnitClass::Joules),
                ("joule", UnitClass::Joules),
                ("energy", UnitClass::Joules),
                ("seconds", UnitClass::Seconds),
                ("second", UnitClass::Seconds),
                ("secs", UnitClass::Seconds),
                ("elapsed", UnitClass::Seconds),
                ("duration", UnitClass::Seconds),
                ("interval", UnitClass::Seconds),
                ("timestamp", UnitClass::Seconds),
            ],
            blocking_calls: [
                "send",
                "recv",
                "recv_frames",
                "recv_timeout",
                "flush_some",
                "accept",
                "connect",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            lock_order: Vec::new(),
            // The paper's headline guarantees are determinism properties:
            // byte-identical parallel grids, byte-identical chaos replay,
            // watts-conservation audits. These are the code paths that
            // carry them.
            det_sinks: [
                ("crates/sim/src/sim.rs", "step"),
                ("crates/cluster/src/budgeter.rs", "pump"),
                ("crates/cluster/src/replay.rs", "replay"),
                ("crates/cluster/src/codec.rs", "*"),
                ("crates/exec/src/lib.rs", "*"),
            ]
            .iter()
            .map(|(p, f)| DetSink {
                path: p.to_string(),
                func: f.to_string(),
            })
            .collect(),
            det_sources: Vec::new(),
            det_barriers: Vec::new(),
            allow: Vec::new(),
        }
    }
}

impl Config {
    /// Load defaults plus the workspace `anor-lint.toml` (if present).
    pub fn load(root: &Path) -> Config {
        let mut cfg = Config::default();
        let path = root.join("anor-lint.toml");
        if let Ok(text) = std::fs::read_to_string(path) {
            cfg.apply(&text);
        }
        cfg
    }

    /// Parse the line-oriented config text into `self`.
    pub fn apply(&mut self, text: &str) {
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(2, char::is_whitespace);
            let directive = parts.next().unwrap_or_default();
            let rest = parts.next().unwrap_or_default().trim();
            match directive {
                "lock-order" => {
                    self.lock_order = rest.split_whitespace().map(String::from).collect();
                }
                "allow" => {
                    let mut fields = rest.splitn(3, char::is_whitespace);
                    let (rule, path) = (fields.next(), fields.next());
                    if let (Some(rule), Some(path)) = (rule, path) {
                        self.allow.push(AllowEntry {
                            rule: rule.to_string(),
                            path: path.to_string(),
                            needle: fields.next().unwrap_or_default().trim().to_string(),
                        });
                    }
                }
                "strict-panic-file" => self.strict_panic_files.push(rest.to_string()),
                "extended-panic-file" => self.extended_panic_files.push(rest.to_string()),
                "codec-file" => self.codec_files.push(rest.to_string()),
                "blocking-call" => self.blocking_calls.push(rest.to_string()),
                "det-sink" => {
                    let mut fields = rest.split_whitespace();
                    if let Some(path) = fields.next() {
                        self.det_sinks.push(DetSink {
                            path: path.to_string(),
                            func: fields.next().unwrap_or("*").to_string(),
                        });
                    }
                }
                "det-source" => self.det_sources.push(rest.to_string()),
                "det-barrier" => self.det_barriers.push(rest.to_string()),
                _ => {} // Unknown directives are ignored for forward compat.
            }
        }
    }

    /// Does `path` fall under the strict panic-freedom scope?
    pub fn is_strict_panic(&self, path: &str) -> bool {
        self.strict_panic_files.iter().any(|f| path.ends_with(f))
    }

    /// Does `path` fall under the extended (no-indexing-check) scope?
    pub fn is_extended_panic(&self, path: &str) -> bool {
        self.extended_panic_files.iter().any(|f| path.ends_with(f))
    }

    pub fn is_codec_file(&self, path: &str) -> bool {
        self.codec_files.iter().any(|f| path.ends_with(f))
    }

    /// Classify a snake_case identifier by its last word.
    pub fn classify_ident(&self, ident: &str) -> Option<UnitClass> {
        let last = ident.rsplit('_').next().unwrap_or(ident);
        let last = last.to_ascii_lowercase();
        self.unit_words
            .iter()
            .find(|(w, _)| *w == last)
            .map(|(_, c)| *c)
    }

    /// Rank of a lock receiver in the declared order (None = undeclared).
    pub fn lock_rank(&self, receiver: &str) -> Option<usize> {
        self.lock_order.iter().position(|l| l == receiver)
    }

    /// Is `path` inside a determinism barrier (an audited observability
    /// boundary the `ANOR-DETERM` walk does not cross)?
    pub fn is_det_barrier(&self, path: &str) -> bool {
        self.det_barriers.iter().any(|b| path.contains(b.as_str()))
    }

    /// The deterministic-root functions seeded for `path` (`*` = all).
    pub fn det_sink_funcs(&self, path: &str) -> Vec<&str> {
        self.det_sinks
            .iter()
            .filter(|s| path.ends_with(&s.path))
            .map(|s| s.func.as_str())
            .collect()
    }

    /// Mark diagnostics covered by an allowlist entry.
    pub fn apply_allowlist(&self, diags: &mut [Diagnostic]) {
        for d in diags.iter_mut() {
            d.allowed = self.allow.iter().any(|a| {
                (a.rule == "*" || a.rule == d.rule)
                    && d.file.ends_with(&a.path)
                    && (a.needle.is_empty() || d.snippet.contains(&a.needle))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_file_parses_lock_order_and_allows() {
        let mut cfg = Config::default();
        cfg.apply(
            "# header\n\
             lock-order registry shared events\n\
             allow ANOR-PANIC crates/x/src/a.rs unwrap()\n\
             allow * crates/y/src/b.rs\n",
        );
        assert_eq!(cfg.lock_order, ["registry", "shared", "events"]);
        assert_eq!(cfg.allow.len(), 2);
        assert_eq!(cfg.lock_rank("shared"), Some(1));
        assert_eq!(cfg.lock_rank("unknown"), None);

        let mut diags = vec![
            Diagnostic::new(
                "ANOR-PANIC",
                "crates/x/src/a.rs",
                1,
                "m".into(),
                "s",
                "foo.unwrap()".into(),
            ),
            Diagnostic::new(
                "ANOR-LOCK",
                "crates/y/src/b.rs",
                2,
                "m".into(),
                "s",
                "whatever".into(),
            ),
            Diagnostic::new(
                "ANOR-PANIC",
                "crates/z/src/c.rs",
                3,
                "m".into(),
                "s",
                "foo.unwrap()".into(),
            ),
        ];
        cfg.apply_allowlist(&mut diags);
        assert!(diags[0].allowed);
        assert!(diags[1].allowed);
        assert!(!diags[2].allowed);
    }

    #[test]
    fn ident_classification_uses_last_word() {
        let cfg = Config::default();
        assert_eq!(cfg.classify_ident("avg_power"), Some(UnitClass::Watts));
        assert_eq!(cfg.classify_ident("timestamp"), Some(UnitClass::Seconds));
        assert_eq!(cfg.classify_ident("energy"), Some(UnitClass::Joules));
        assert_eq!(cfg.classify_ident("power_trace"), None);
        assert_eq!(cfg.classify_ident("measured"), None);
    }
}
