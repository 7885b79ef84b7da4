//! Measurement plumbing shared by the workloads: order statistics,
//! process counters read from `/proc/self`, the host reference kernel,
//! in-memory spans, golden-value checks and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Linear-interpolated quantile (`q` in `0..=1`) of unordered samples;
/// 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unordered samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// User plus system CPU seconds this process has used so far
/// (`utime + stime` of `/proc/self/stat`, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of the full line, utime 14, stime 15.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed CPU kernel timed just before each workload, so a run's
/// timings can be read against how fast the host was at that moment.
/// Median of five runs of a 2M-step integer/float recurrence, in ms.
pub fn host_ref_ms() -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
            let mut acc = 0.0f64;
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += (x >> 11) as f64 * 1e-16;
            }
            std::hint::black_box((x, acc));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

/// A note listing each timed call's throughput and pass p99, in call
/// order, so a run's own spread is visible beside its medians.
pub fn series(workload: &str, rate: &[(usize, f64)], p99_ms: &[(usize, f64)]) -> String {
    let show = |v: &[(usize, f64)]| {
        v.iter()
            .map(|(_, x)| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "{workload}: per-iteration virtual_s_per_s [{}], pass_p99_ms [{}]",
        show(rate),
        show(p99_ms)
    )
}

/// One benchmark-side span around a public call into the program.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory during a traced run and written out at the end.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Write every span as one JSON line: id, name, start, end.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Where a run writes what it generates: the benchmark's own `out/`
/// directory, inside the checkout it was built from.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// An exact value a correctness gate compares, rendered losslessly.
pub fn exact(v: f64) -> String {
    format!("{v:?}")
}

/// Compare observed against golden `(name, value)` pairs; one message
/// per mismatch or missing name.
pub fn check_goldens(observed: &[(&str, String)], golden: &[(&str, &str)]) -> Vec<String> {
    golden
        .iter()
        .filter_map(
            |(name, want)| match observed.iter().find(|(n, _)| n == name) {
                Some((_, got)) if got == want => None,
                Some((_, got)) => Some(format!("golden {name}: expected {want}, got {got}")),
                None => Some(format!("golden {name}: not observed")),
            },
        )
        .collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run established.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Control passes attempted.
    pub attempted: u64,
    /// Passes that errored, violated an invariant or left a job unfinished.
    pub failed: u64,
    /// Correctness-gate failures (empty on a correct run).
    pub gate: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn correct(&self) -> bool {
        self.gate.is_empty() && self.failed == 0
    }

    /// The result line: one JSON object, metrics in the order reported.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(host_ref_ms() > 0.0);
    }
}
