//! `anor-top` — a refreshing terminal dashboard over a live `anord`.
//!
//! Polls the daemon's introspection endpoint (`anord --status-addr`) and
//! renders the budgeter's pool, lease, session and auditor state in
//! place, `top`-style:
//!
//! ```text
//! anor-top --addr 127.0.0.1:7070
//! anor-top --addr 127.0.0.1:7070 --interval-ms 250 --iterations 40
//! anor-top --addr 127.0.0.1:7070 --fetch /health
//! ```
//!
//! `--fetch PATH` is the scripting mode: one GET, body to stdout, exit
//! status 1 on a non-200 response or an empty body. CI uses it as a
//! `curl` substitute for smoke-checking `/health` and `/metrics`.
//!
//! The dashboard shows the daemon's build info, a pump-phase latency
//! pane (where each control pass spends its time) and the per-job table.
//! If the endpoint drops mid-poll, the last good snapshot stays on
//! screen under a "disconnected, retrying" banner until the daemon
//! answers again.

use anor_cluster::Args;
use anor_telemetry::json::{self, Json};
use anor_telemetry::ops::http_get;
use std::time::Duration;

fn main() {
    if let Err(e) = run() {
        eprintln!("anor-top: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env()?;
    let addr = args.required("addr")?.to_string();
    let timeout = Duration::from_millis(args.get_or("timeout-ms", 2000)?);

    if let Some(path) = args.get("fetch") {
        let (code, body) = http_get(&addr, path, timeout)?;
        print!("{body}");
        if code != 200 || body.is_empty() {
            return Err(format!("GET {path}: status {code}, {} byte body", body.len()).into());
        }
        return Ok(());
    }

    let interval = Duration::from_millis(args.get_or("interval-ms", 1000)?);
    let iterations: u64 = args.get_or("iterations", 0)?;
    let mut done = 0u64;
    // The last successfully rendered frame: when the endpoint drops
    // mid-poll the dashboard keeps showing it under a "disconnected"
    // banner instead of flashing blank and losing the operator's state.
    let mut last_good: Option<String> = None;
    // Clear once, then repaint from the home position each poll so the
    // dashboard refreshes in place.
    print!("\x1b[2J");
    loop {
        let outcome = match http_get(&addr, "/status", timeout) {
            Ok((200, body)) => match json::parse(&body) {
                Ok(v) => Ok(render(&v)),
                Err(e) => Err(format!("malformed /status JSON: {e}")),
            },
            Ok((code, _)) => Err(format!("GET /status returned {code}")),
            Err(e) => Err(format!("{addr} unreachable: {e}")),
        };
        let frame = match outcome {
            Ok(frame) => {
                last_good = Some(frame.clone());
                frame
            }
            Err(reason) => match &last_good {
                Some(stale) => format!(
                    "anor-top: disconnected, retrying — {reason}\n(showing last good snapshot)\n{stale}"
                ),
                None => format!("anor-top: disconnected, retrying — {reason}\n"),
            },
        };
        // Home the cursor, repaint, clear anything left from the
        // previous (possibly taller) frame.
        print!("\x1b[H{frame}\x1b[0J");
        use std::io::Write as _;
        std::io::stdout().flush()?;
        done += 1;
        if iterations > 0 && done >= iterations {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn u(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn f(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn render(v: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    let violations = u(v, "invariant_violations");
    let verdict = if violations == 0 { "ok" } else { "VIOLATIONS" };
    let build = v.get("build_version").and_then(Json::as_str).unwrap_or("?");
    let git = v.get("git_hash").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "anord {build} ({git})  budget {:7.1} W   allocated {:7.1} W   reclaimed {:7.1} W   audit {verdict} ({violations})",
        f(v, "budget"),
        f(v, "allocated_watts"),
        f(v, "reclaimed_watts"),
    );
    let _ = writeln!(
        out,
        "pumps {:>8}   active {:>3}   conns {:>3}   accepted {:>4}   completed {:>4}",
        u(v, "pumps"),
        u(v, "active_jobs"),
        u(v, "conns_open"),
        u(v, "accepted"),
        u(v, "completed"),
    );
    let _ = writeln!(
        out,
        "pump p50 {:>9.6}s  p90 {:>9.6}s  p99 {:>9.6}s   ring {:>5}   traced {:>7}   postmortems {}",
        f(v, "pump_p50"),
        f(v, "pump_p90"),
        f(v, "pump_p99"),
        u(v, "ring_depth"),
        u(v, "trace_recorded"),
        u(v, "postmortems"),
    );
    // Pump-phase profile: where each control pass spends its time.
    let phases = v.get("phases").and_then(Json::as_array).unwrap_or(&[]);
    if !phases.is_empty() {
        let _ = writeln!(
            out,
            "{:>16} {:>12} {:>12} {:>12}",
            "PHASE", "p50 s", "p90 s", "p99 s"
        );
        for p in phases {
            let _ = writeln!(
                out,
                "{:>16} {:>12.6} {:>12.6} {:>12.6}",
                p.get("phase").and_then(Json::as_str).unwrap_or("?"),
                f(p, "p50"),
                f(p, "p90"),
                f(p, "p99"),
            );
        }
    }
    let jobs = v.get("jobs").and_then(Json::as_array).unwrap_or(&[]);
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>7} {:>9} {:>6} {:>8} {:>7} {:>10} {:>5}",
        "JOB", "STATE", "MISSED", "CAP W", "NODES", "SAMPLES", "MODELS", "RECLAIMED", "DONE"
    );
    for j in jobs {
        let cap = match j.get("cap").and_then(Json::as_f64) {
            Some(c) => format!("{c:.1}"),
            None => "-".to_string(),
        };
        let reclaimed = match j.get("reclaimed").and_then(Json::as_f64) {
            Some(w) => format!("{w:.1}"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>7} {:>9} {:>6} {:>8} {:>7} {:>10} {:>5}",
            u(j, "job"),
            j.get("state").and_then(Json::as_str).unwrap_or("?"),
            u(j, "missed_pumps"),
            cap,
            u(j, "nodes"),
            u(j, "samples"),
            u(j, "models"),
            reclaimed,
            if j.get("done").and_then(Json::as_bool).unwrap_or(false) {
                "yes"
            } else {
                "no"
            },
        );
    }
    if jobs.is_empty() {
        let _ = writeln!(out, "  (no jobs registered)");
    }
    out
}
