//! End-to-end causal tracing: run the emulated cluster (real TCP
//! budgeter, GEOPM runtimes, modelers) with a `Tracer`, then join the
//! resulting JSONL back into decision chains with the analyzer — the
//! `fig6 --trace` + `anor-trace` path, in-process.

use anor_bench::analyze::analyze;
use anor_cluster::{BudgetPolicy, EmulatedCluster, EmulatorConfig, JobSetup};
use anor_telemetry::{read_trace, Tracer};
use anor_types::Watts;

#[test]
fn emulated_run_produces_complete_decision_chains() {
    let dir = std::env::temp_dir().join(format!("anor-trace-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tracer = Tracer::to_dir(&dir).unwrap();

    // A capped two-job run under the paper's shared budget: tight enough
    // that the budgeter must issue real cap changes.
    let cfg = EmulatorConfig::paper(BudgetPolicy::EvenSlowdown, true).with_tracer(tracer.clone());
    let report = EmulatedCluster::new(cfg)
        .run_static(
            &[JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")],
            Watts(840.0),
        )
        .expect("emulated run failed");
    assert_eq!(report.jobs.len(), 2);
    tracer.flush().unwrap();

    let scan = read_trace(&dir.join("trace.jsonl")).unwrap();
    assert_eq!(scan.malformed, 0, "trace contains malformed events");
    assert!(
        scan.events.len() >= 5,
        "suspiciously small trace: {} events",
        scan.events.len()
    );

    let r = analyze(&scan.events);
    assert!(
        r.complete >= 1,
        "no complete decision->actuation->observation chain (decisions: {}, orphans: {})",
        r.chains.len(),
        r.orphans.len()
    );
    assert_eq!(
        r.unknown_cause_samples, 0,
        "samples observed under causes no decision minted"
    );
    // Latency stats exist for the full downward path.
    assert!(r.decision_to_msr.count >= 1);
    assert!(r.msr_to_observation.count >= 1);
    // The report renders without panicking and names the key lines.
    let text = r.render();
    assert!(text.contains("complete chains"));
    assert!(text.contains("MSR write"));

    let _ = std::fs::remove_dir_all(&dir);
}
