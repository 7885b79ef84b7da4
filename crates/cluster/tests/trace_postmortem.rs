//! Flight-recorder postmortem: when the budgeter side of the link dies,
//! the job endpoint must dump its trace ring to disk so the last moments
//! before the disconnect can be analyzed offline.

use anor_cluster::{BudgetPolicy, BudgeterConfig, ClusterBudgeter, JobEndpoint, Listener};
use anor_geopm::endpoint_pair;
use anor_model::{ModelerConfig, PowerModeler};
use anor_telemetry::{read_trace, TraceStage, Tracer};
use anor_types::{CapRange, JobId, PowerCurve, Seconds, Watts};

#[test]
fn endpoint_dumps_postmortem_on_budgeter_disconnect() {
    let dir = std::env::temp_dir().join(format!("anor-postmortem-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tracer = Tracer::to_dir(&dir).unwrap();

    let (mut budgeter, addr) =
        ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false))
            .listener(Listener::in_process())
            .bind()
            .unwrap();
    let (modeler_side, _agent_side) = endpoint_pair();
    let mut cfg = ModelerConfig::paper();
    cfg.dither_fraction = 0.0;
    let default = PowerCurve::from_anchor(Seconds(0.5), 0.1, CapRange::paper_node());
    let modeler = PowerModeler::with_default(cfg, default);
    let mut endpoint = JobEndpoint::builder(addr, JobId(1), "bt.D.81", 2, modeler_side, modeler)
        .tracer(&tracer)
        .connect()
        .unwrap();

    // One pass on each side so the link is live, then kill the budgeter
    // side: the in-process link reports the close on the next pump.
    budgeter.pump(Watts(400.0)).unwrap();
    endpoint.pump(Seconds(0.0)).unwrap();
    drop(budgeter);
    endpoint.pump(Seconds(0.1)).unwrap();
    assert_eq!(
        tracer.postmortems(),
        1,
        "endpoint must dump once on disconnect"
    );

    // Exactly the disconnect dump, containing a disconnect event.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("postmortem-") && n.ends_with(".jsonl"))
        })
        .collect();
    assert_eq!(dumps.len(), 1, "{dumps:?}");
    let scan = read_trace(&dumps[0]).unwrap();
    assert_eq!(scan.malformed, 0, "postmortem contains malformed events");
    assert!(
        scan.events
            .iter()
            .any(|e| e.stage == TraceStage::Disconnect),
        "postmortem lacks the disconnect event"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
