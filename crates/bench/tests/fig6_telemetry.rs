//! End-to-end check of the `--telemetry` artifact path: a Fig. 6 run
//! against a directory-backed sink must produce a parseable JSONL event
//! log, a Prometheus exposition and a summary table, with the core
//! series (budgeter rebalance latency, per-job retrain counts, transport
//! frame/byte/reconnect counters) non-empty.

use anor_core::experiments::fig6;
use anor_core::experiments::hw::HwRunOptions;
use anor_telemetry::Telemetry;
use std::path::PathBuf;

/// Validate one flat JSON object line the event log emits:
/// `{"key":"string","other":123,...}` with string / number / bool
/// values. Returns the keys on success.
fn parse_flat_json(line: &str) -> Result<Vec<String>, String> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not an object: {line}"))?;
    let mut keys = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        // Key.
        if chars.next() != Some('"') {
            return Err(format!("expected key quote in {line}"));
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '"' {
                break;
            }
            key.push(c);
        }
        keys.push(key);
        if chars.next() != Some(':') {
            return Err(format!("expected `:` in {line}"));
        }
        // Value: string, or bare token (number / bool).
        match chars.peek() {
            Some('"') => {
                chars.next();
                let mut escaped = false;
                loop {
                    let c = chars
                        .next()
                        .ok_or_else(|| format!("unterminated string in {line}"))?;
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        break;
                    }
                }
            }
            _ => {
                let mut token = String::new();
                while let Some(&c) = chars.peek() {
                    if c == ',' {
                        break;
                    }
                    token.push(c);
                    chars.next();
                }
                let ok = token == "true"
                    || token == "false"
                    || token == "null"
                    || token.parse::<f64>().is_ok();
                if !ok {
                    return Err(format!("bad value `{token}` in {line}"));
                }
            }
        }
        match chars.next() {
            Some(',') => continue,
            None => return Ok(keys),
            Some(c) => return Err(format!("unexpected `{c}` in {line}")),
        }
    }
}

#[test]
fn fig6_telemetry_dir_has_parseable_events_and_core_series() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("anor-fig6-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = Telemetry::to_dir(&dir).expect("telemetry dir");

    let opts = HwRunOptions {
        telemetry: telemetry.clone(),
        ..HwRunOptions::default()
    };
    fig6::run(1, 6, &opts).expect("emulated fig6 run");
    let summary = telemetry.write_artifacts().expect("artifacts");

    // Every event line parses as a flat JSON object with ts + event keys,
    // and the lifecycle events are present.
    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl");
    let mut names = Vec::new();
    let mut lines = 0usize;
    for line in events.lines() {
        let keys = parse_flat_json(line).expect("JSONL line parses");
        assert!(keys.contains(&"ts".to_string()), "missing ts: {line}");
        assert!(keys.contains(&"event".to_string()), "missing event: {line}");
        for name in ["run_started", "job_started", "job_done", "run_finished"] {
            if line.contains(&format!("\"event\":\"{name}\"")) {
                names.push(name);
            }
        }
        lines += 1;
    }
    assert!(lines > 0, "event log must be non-empty");
    for name in ["run_started", "job_started", "job_done", "run_finished"] {
        assert!(names.contains(&name), "missing lifecycle event {name}");
    }

    // Prometheus exposition carries the core series.
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
    for series in [
        "budgeter_rebalance_seconds",
        "job_retrains",
        "transport_frames_tx_total",
        "transport_frames_rx_total",
        "transport_bytes_tx_total",
        "transport_reconnects_total",
        "emulator_tick_seconds",
        "tracking_error",
    ] {
        assert!(prom.contains(series), "metrics.prom missing {series}");
    }
    // The rebalance histogram actually observed something.
    assert!(
        telemetry
            .histogram("budgeter_rebalance_seconds", &[])
            .count()
            > 0,
        "rebalance latency series is empty"
    );
    assert!(
        telemetry
            .counter("transport_frames_rx_total", &[("role", "budgeter")])
            .get()
            > 0,
        "budgeter received no frames"
    );

    // Summary table shows latency percentiles and the counters.
    assert!(std::fs::metadata(dir.join("summary.txt")).is_ok());
    for needle in [
        "budgeter_rebalance_seconds",
        "p99",
        "job_retrains",
        "transport_frames_tx_total",
    ] {
        assert!(
            summary.contains(needle),
            "summary missing {needle}:\n{summary}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
