//! `anor-load` — the synthetic-endpoint load harness for `anord`'s
//! connection plane.
//!
//! Spins up a real budgeter daemon (default: the sharded reactor) and
//! storms it with N scripted endpoints that register, stream samples,
//! absorb caps, and — per `--storms` — drop every socket at once and
//! resume. Reports sustained endpoint (re)connects per second, pump
//! latency percentiles, backpressure drops, and the continuous
//! invariant auditor's watts-conservation verdict.
//!
//! ```text
//! anor-load --endpoints 1000 --storms 2
//! anor-load --endpoints 256 --storms 3 --faults drop@17,corrupt@42
//! anor-load --endpoints 64 --transport blocking
//! ```
//!
//! `--policy` is `uniform` (the default), `even-power` or
//! `even-slowdown`. `even-slowdown+qos` runs only in the simulator
//! (`anorsim`), so the daemon under load refuses it with a config error.
//!
//! Exits non-zero when any stage stalls, an endpoint fails to hold its
//! session, or the auditor flags a violation — so CI can gate on it.

use anor_cluster::transport::{TransportKind, TransportOptions};
use anor_cluster::{run_load, FaultPlan, LoadConfig};
use anor_types::{Args, Watts};

fn main() {
    if let Err(e) = run() {
        eprintln!("anor-load: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env()?;
    let kind: TransportKind = args.get("transport").unwrap_or("reactor").parse()?;
    let cfg = LoadConfig {
        endpoints: args.get_or("endpoints", 64)?,
        storms: args.get_or("storms", 1)?,
        faults: FaultPlan::from_args(&args)?,
        budget: Watts(args.get_or("budget", 0.0)?),
        policy: args.get("policy").unwrap_or("uniform").parse()?,
        transport: TransportOptions {
            kind,
            shards: match kind {
                TransportKind::Reactor => args.get_or("shards", 2)?,
                TransportKind::Blocking => 1,
            },
        },
        drivers: args.get_or("drivers", 2)?,
        ..LoadConfig::default()
    };
    args.finish()?;
    let report = run_load(&cfg)?;
    println!("{report}");
    if !report.ok() {
        return Err(
            "load run failed (stalled stage, lost endpoint, or invariant violation)".into(),
        );
    }
    Ok(())
}
