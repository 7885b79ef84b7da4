//! The live ops plane, end to end in one process: a budgeter publishing
//! status snapshots every pump, the dependency-free HTTP introspection
//! endpoint serving them, and the continuous invariant auditor watching
//! the books — everything `anord --status-addr` wires up, plus the
//! polling side `anor-top` performs.
//!
//! ```text
//! cargo run --release --example live_ops
//! ```

use anor::cluster::budgeter::{BudgeterConfig, ClusterBudgeter};
use anor::cluster::{parse_json, BudgetPolicy, Json, StatusBoard, StreamOptions};
use anor::telemetry::ops::{http_get, OpsServer, StatusProvider};
use anor::telemetry::Telemetry;
use anor::types::msg::JobToCluster;
use anor::types::{JobId, Watts};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 1. The daemon side: a budgeter that publishes to a status board,
    //    and an ops server handing the board + metrics out over HTTP.
    let telemetry = Telemetry::new();
    let board = StatusBoard::new();
    let (mut budgeter, addr) =
        ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::EvenSlowdown, true))
            .telemetry(telemetry.clone())
            .status(board.clone())
            .bind()
            .expect("bind budgeter");
    let provider: StatusProvider = Arc::new(move || board.render_json());
    let ops = OpsServer::bind("127.0.0.1:0", telemetry.clone(), provider).expect("bind ops");
    let status_addr = ops.local_addr().to_string();
    println!("budgeter on {addr}, ops endpoint on {status_addr}");

    // 2. The job side: two sessions announce themselves over TCP.
    let mut sessions = Vec::new();
    for (job, type_name, nodes) in [(1u64, "bt.D.81", 2u32), (2, "sp.D.81", 2)] {
        let mut s = addr.dial(StreamOptions::default()).expect("dial budgeter");
        s.send(
            JobToCluster::Hello {
                job: JobId(job),
                type_name: type_name.into(),
                nodes,
            }
            .encode(),
        )
        .expect("hello");
        sessions.push(s);
    }

    // 3. Pump until both sessions hold capped leases; the auditor runs
    //    (and the board re-publishes) on every pass.
    for _ in 0..1000 {
        budgeter.pump(Watts(840.0)).expect("pump");
        if budgeter.status_snapshot().active_jobs == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // 4. The anor-top side: poll the endpoint like the dashboard does.
    let timeout = Duration::from_secs(2);
    let (code, body) = http_get(&status_addr, "/health", timeout).expect("GET /health");
    println!("GET /health -> {code}: {}", body.trim());

    let (_, metrics) = http_get(&status_addr, "/metrics", timeout).expect("GET /metrics");
    println!(
        "GET /metrics -> {} line(s), including:",
        metrics.lines().count()
    );
    for line in metrics.lines().filter(|l| {
        l.starts_with("budgeter_active_jobs") || l.starts_with("anor_invariant_violations")
    }) {
        println!("  {line}");
    }

    let (_, status) = http_get(&status_addr, "/status", timeout).expect("GET /status");
    let v = parse_json(&status).expect("well-formed /status JSON");
    let u = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    let f = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "GET /status -> budget {:.0} W, allocated {:.0} W, {} pump(s), {} active job(s), \
         {} invariant violation(s)",
        f("budget"),
        f("allocated_watts"),
        u("pumps"),
        u("active_jobs"),
        u("invariant_violations"),
    );
    for row in v.get("jobs").and_then(Json::as_array).unwrap_or(&[]) {
        println!(
            "  job {}: {} at {:.1} W/node x {} node(s)",
            row.get("job").and_then(Json::as_u64).unwrap_or(0),
            row.get("state").and_then(Json::as_str).unwrap_or("?"),
            row.get("cap").and_then(Json::as_f64).unwrap_or(0.0),
            row.get("nodes").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    assert_eq!(u("invariant_violations"), 0, "healthy run must audit clean");
    println!("auditor verdict: clean (4 invariant checks/pump)");
}
