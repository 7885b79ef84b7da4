//! Flight-recorder postmortem: when the budgeter side of the TCP link
//! dies, the job endpoint must dump its trace ring to disk so the last
//! moments before the disconnect can be analyzed offline.

use anor_cluster::JobEndpoint;
use anor_geopm::endpoint_pair;
use anor_model::{ModelerConfig, PowerModeler};
use anor_telemetry::{read_trace, TraceStage, Tracer};
use anor_types::{CapRange, JobId, PowerCurve, Seconds};
use std::net::TcpListener;
use std::time::Duration;

#[test]
fn endpoint_dumps_postmortem_on_budgeter_disconnect() {
    let dir = std::env::temp_dir().join(format!("anor-postmortem-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tracer = Tracer::to_dir(&dir).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (modeler_side, _agent_side) = endpoint_pair();
    let mut cfg = ModelerConfig::paper();
    cfg.dither_fraction = 0.0;
    let default = PowerCurve::from_anchor(Seconds(0.5), 0.1, CapRange::paper_node());
    let modeler = PowerModeler::with_default(cfg, default);
    let mut endpoint =
        JobEndpoint::builder(addr.into(), JobId(1), "bt.D.81", 2, modeler_side, modeler)
            .tracer(&tracer)
            .connect()
            .unwrap();

    // Accept the connection, exchange one pump so the link is live,
    // then kill the budgeter side.
    let (server, _) = listener.accept().unwrap();
    endpoint.pump(Seconds(0.0)).unwrap();
    server.shutdown(std::net::Shutdown::Both).unwrap();
    drop(server);

    // The endpoint must notice the dead peer and dump its ring; sends
    // may race the RST, so tolerate pump errors while polling.
    let mut dumped = false;
    for i in 1..200 {
        let _ = endpoint.pump(Seconds(i as f64 * 0.1));
        if tracer.postmortems() > 0 {
            dumped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        dumped,
        "endpoint never dumped a postmortem after disconnect"
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
    assert!(!dumps.is_empty(), "no postmortem file on disk");
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
