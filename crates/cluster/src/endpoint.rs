//! The per-job job-tier endpoint process.
//!
//! Fig. 2's middle box: one of these runs per job, bridging the GEOPM
//! endpoint (shared memory to the agent root) to the cluster budgeter
//! (TCP, or an in-process link inside the emulated cluster). It owns the
//! job's [`PowerModeler`]: endpoint samples feed the model; re-trains
//! push `Model` messages up; `SetPowerCap` messages from the budgeter
//! become agent policies — optionally dithered while the model is
//! under-identified.

use crate::codec::{FramedStream, StreamOptions, TransportMetrics};
use crate::session::{FaultPlan, RetryPolicy, SessionState};
use crate::transport::Addr;
use anor_geopm::{AgentPolicy, AgentSample, EndpointModeler};
use anor_model::{ModelSource, PowerModeler};
use anor_telemetry::{
    CauseId, Counter, FlightRecorder, Gauge, RecEvent, Telemetry, TraceStage, Tracer,
};
use anor_types::msg::{ClusterToJob, EpochSample, JobToCluster};
use anor_types::{AnorError, JobId, Result, Seconds, Watts};

/// Cached counters for one endpoint's budgeter round-trips.
#[derive(Debug)]
struct EndpointMetrics {
    telemetry: Telemetry,
    policies_applied: Counter,
    samples_forwarded: Counter,
    models_pushed: Counter,
    session_reconnects: Counter,
    sessions_gone: Counter,
    /// `endpoint_node_cap_watts{job}`, registered by the first policy
    /// write.
    node_cap: Option<Gauge>,
}

impl EndpointMetrics {
    fn new(telemetry: Telemetry) -> Self {
        EndpointMetrics {
            policies_applied: telemetry.counter("endpoint_policies_applied_total", &[]),
            samples_forwarded: telemetry.counter("endpoint_samples_forwarded_total", &[]),
            models_pushed: telemetry.counter("endpoint_models_pushed_total", &[]),
            session_reconnects: telemetry.counter("endpoint_session_reconnects_total", &[]),
            sessions_gone: telemetry.counter("endpoint_sessions_gone_total", &[]),
            node_cap: None,
            telemetry,
        }
    }
}

/// Everything needed to (re-)establish the budgeter link and introduce
/// the job: kept on the endpoint so a reconnect can replay the
/// registration without help from the caller.
#[derive(Debug, Clone)]
struct SessionConfig {
    addr: Addr,
    announced_type: String,
    retry: RetryPolicy,
    faults: Option<FaultPlan>,
}

/// Builds a [`JobEndpoint`]: the one place session knobs land — retry
/// policy, chaos fault plan, telemetry and tracing.
#[derive(Debug)]
pub struct EndpointBuilder {
    addr: Addr,
    job: JobId,
    announced_type: String,
    nodes: u32,
    endpoint: EndpointModeler,
    modeler: PowerModeler,
    telemetry: Option<Telemetry>,
    tracer: Tracer,
    retry: RetryPolicy,
    faults: Option<FaultPlan>,
    recorder: FlightRecorder,
}

impl EndpointBuilder {
    /// Record transport and round-trip series into a shared handle.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Trace cap receipt, policy writes, sample forwarding, retrains and
    /// session transitions.
    pub fn tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Reconnect policy for lost budgeter connections (defaults to
    /// [`RetryPolicy::default`]; use [`RetryPolicy::disabled`] to make
    /// the first disconnect final).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Inject a chaos [`FaultPlan`] into the endpoint's send path. The
    /// plan's cumulative frame counter spans reconnects.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Flight-record the endpoint's wire traffic: every inbound budgeter
    /// frame, every frame sent up, and session open/close transitions.
    /// Endpoint recordings carry role `endpoint` — `anor-replay` reads
    /// them for inspection and diffing, not reconstruction.
    pub fn recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Connect to the budgeter and introduce the job.
    pub fn connect(self) -> Result<JobEndpoint> {
        let telemetry = self.telemetry.unwrap_or_default();
        self.endpoint.attach_telemetry(&telemetry);
        let transport = TransportMetrics::new(&telemetry, "endpoint");
        let session = SessionConfig {
            addr: self.addr,
            announced_type: self.announced_type.clone(),
            retry: self.retry,
            faults: self.faults,
        };
        let mut opts = StreamOptions::default().metrics(transport.clone());
        if let Some(p) = &session.faults {
            opts = opts.faults(p.clone());
        }
        let mut stream = session.addr.dial(opts)?;
        let hello = JobToCluster::Hello {
            job: self.job,
            type_name: self.announced_type,
            nodes: self.nodes,
        }
        .encode();
        self.recorder.record(&RecEvent::ConnOpen { conn: 0 });
        self.recorder.record_with(|| RecEvent::DecisionTx {
            conn: 0,
            frame: hello.to_vec(),
        });
        stream.send(hello)?;
        let mut modeler = self.modeler;
        modeler.attach_tracer(&self.tracer);
        Ok(JobEndpoint {
            job: self.job,
            nodes: self.nodes,
            stream,
            endpoint: self.endpoint,
            modeler,
            last_sample_seq: 0,
            budget_cap: None,
            last_policy_at: None,
            control_interval: Seconds(2.0),
            sample_interval: Seconds(1.0),
            last_sample_sent_at: None,
            models_sent: 0,
            shutdown_requested: false,
            metrics: EndpointMetrics::new(telemetry),
            tracer: self.tracer,
            budget_cause: 0,
            disconnect_dumped: false,
            session,
            transport,
            state: SessionState::Connected,
            next_attempt_at: None,
            last_model: None,
            recorder: self.recorder,
        })
    }
}

/// The job-tier process for one job (pump-driven).
#[derive(Debug)]
pub struct JobEndpoint {
    job: JobId,
    nodes: u32,
    stream: FramedStream,
    endpoint: EndpointModeler,
    modeler: PowerModeler,
    last_sample_seq: u64,
    budget_cap: Option<Watts>,
    last_policy_at: Option<Seconds>,
    control_interval: Seconds,
    sample_interval: Seconds,
    last_sample_sent_at: Option<Seconds>,
    models_sent: u64,
    shutdown_requested: bool,
    metrics: EndpointMetrics,
    tracer: Tracer,
    /// Cause of the budget cap currently in force (0 = untraced).
    budget_cause: u64,
    /// Postmortem already dumped for the current disconnect episode.
    disconnect_dumped: bool,
    /// How to re-establish and re-introduce the session.
    session: SessionConfig,
    /// Transport series shared across reconnected streams.
    transport: TransportMetrics,
    /// Where the budgeter link currently stands.
    state: SessionState,
    /// Virtual deadline of the next reconnect attempt.
    next_attempt_at: Option<Seconds>,
    /// Last model pushed (or queued) — replayed after a resume, since
    /// models are not individually acknowledged.
    last_model: Option<JobToCluster>,
    /// Endpoint-side flight recorder (wire traffic + session events).
    recorder: FlightRecorder,
}

impl JobEndpoint {
    /// Start building an endpoint for `job` that dials the budgeter at
    /// `addr`. `announced_type` is the type name the batch system
    /// believes (possibly wrong).
    pub fn builder(
        addr: Addr,
        job: JobId,
        announced_type: &str,
        nodes: u32,
        endpoint: EndpointModeler,
        modeler: PowerModeler,
    ) -> EndpointBuilder {
        EndpointBuilder {
            addr,
            job,
            announced_type: announced_type.to_string(),
            nodes,
            endpoint,
            modeler,
            telemetry: None,
            tracer: Tracer::off(),
            retry: RetryPolicy::default(),
            faults: None,
            recorder: FlightRecorder::off(),
        }
    }

    /// One pass of the endpoint's control loop at virtual time `now`.
    pub fn pump(&mut self, now: Seconds) -> Result<()> {
        if self.state.is_connected() {
            self.pump_stream(now)?;
            if self.stream.is_closed() {
                self.on_disconnect(now);
            }
        } else {
            self.try_reconnect(now);
        }
        // Fresh agent samples -> modeler (+ model push on retrain). The
        // modeler keeps learning even while the link is down; the model
        // is replayed on resume.
        if let Some((sample, seq)) = self.endpoint.read_sample() {
            if seq != self.last_sample_seq {
                self.last_sample_seq = seq;
                let per_node_cap = sample.cap / self.nodes as f64;
                let retrained =
                    self.modeler
                        .observe(sample.epoch_count, sample.timestamp, per_node_cap);
                if retrained {
                    let model = JobToCluster::Model {
                        job: self.job,
                        curve: self.modeler.curve(),
                        samples: self.modeler.observation_count() as u32,
                        cause: self.modeler.cause(),
                    };
                    self.last_model = Some(model.clone());
                    if self.state.is_connected() {
                        let frame = model.encode();
                        self.rec_tx(&frame);
                        self.stream.send(frame)?;
                        self.models_sent += 1;
                        self.metrics.models_pushed.inc();
                    }
                }
                self.forward_sample(now, sample, false)?;
            }
        }
        // Periodic policy refresh (lets the dither alternate). The
        // believed cap stays in force while reconnecting — power safety
        // does not lapse with the TCP link — but a `Gone` session stops
        // pretending it has a live budget.
        let due = self
            .last_policy_at
            .is_none_or(|t| (now - t).value() >= self.control_interval.value());
        if due && self.budget_cap.is_some() && !self.state.is_gone() {
            self.apply_policy();
            self.last_policy_at = Some(now);
        }
        Ok(())
    }

    /// Flush, drain and dispatch inbound budgeter frames on the live
    /// stream.
    fn pump_stream(&mut self, now: Seconds) -> Result<()> {
        self.stream.flush_some()?;
        let frames = match self.stream.recv_frames() {
            Ok(frames) => frames,
            Err(AnorError::Protocol(e)) => {
                self.link_fault("endpoint-protocol-error", || e);
                Vec::new()
            }
            Err(e) => return Err(e),
        };
        for body in frames {
            self.recorder.record_with(|| RecEvent::FrameIn {
                conn: 0,
                body: body.to_vec(),
            });
            let msg = match ClusterToJob::decode(body) {
                Ok(m) => m,
                Err(e) => {
                    self.link_fault("endpoint-malformed-frame", || {
                        format!("malformed budgeter frame: {e}")
                    });
                    continue;
                }
            };
            match msg {
                ClusterToJob::SetPowerCap { cap, cause } => {
                    self.tracer.record_job(
                        TraceStage::CapRx,
                        CauseId(cause),
                        self.job.0,
                        Some(cap.value()),
                    );
                    self.adopt_cap(cap, cause, now);
                }
                ClusterToJob::ResumeAck { cap, cause } => {
                    self.tracer.record_job(
                        TraceStage::Resume,
                        CauseId(cause),
                        self.job.0,
                        Some(cap.value()),
                    );
                    // A non-positive cap means the budgeter has nothing
                    // on record (e.g. it restarted); keep the believed
                    // cap until the next rebalance re-caps us.
                    if cap.value() > 0.0 {
                        self.adopt_cap(cap, cause, now);
                    }
                }
                ClusterToJob::RequestSample => {
                    if let Some((sample, _)) = self.endpoint.read_sample() {
                        self.forward_sample(now, sample, true)?;
                    }
                }
                ClusterToJob::Shutdown => self.shutdown_requested = true,
            }
        }
        Ok(())
    }

    /// A malformed frame or corrupt length prefix from the budgeter must
    /// not kill the job: trace `detail`, dump a `reason` postmortem, keep
    /// the last-known cap and carry on driving the agent.
    fn link_fault(&self, reason: &str, detail: impl FnOnce() -> String) {
        self.tracer.record_with(
            TraceStage::TransportError,
            CauseId::NONE,
            None,
            None,
            detail,
        );
        self.tracer.dump_postmortem(reason);
    }

    /// Record an outbound frame into the endpoint flight recorder.
    fn rec_tx(&self, frame: &bytes::Bytes) {
        self.recorder.record_with(|| RecEvent::DecisionTx {
            conn: 0,
            frame: frame.to_vec(),
        });
    }

    /// Adopt a budgeter-supplied cap and apply it promptly.
    fn adopt_cap(&mut self, cap: Watts, cause: u64, now: Seconds) {
        self.budget_cap = Some(cap);
        self.budget_cause = cause;
        self.modeler.set_cause(cause);
        self.apply_policy();
        self.last_policy_at = Some(now);
    }

    /// The live stream just died: dump the flight recorder once and move
    /// to `Reconnecting` (or straight to `Gone` when retry is disabled).
    fn on_disconnect(&mut self, now: Seconds) {
        if !self.disconnect_dumped {
            self.disconnect_dumped = true;
            self.recorder.record(&RecEvent::ConnClosed { conn: 0 });
            self.tracer.record_job(
                TraceStage::Disconnect,
                CauseId(self.budget_cause),
                self.job.0,
                self.budget_cap.map(|c| c.value()),
            );
            self.tracer.dump_postmortem("budgeter-disconnect");
        }
        if self.session.retry.enabled() {
            self.state = SessionState::Reconnecting { attempt: 0 };
            self.next_attempt_at = Some(Seconds(now.value() + self.session.retry.delay(1).value()));
        } else {
            self.go_gone();
        }
    }

    /// Declared dead: retry budget exhausted (or retry disabled).
    fn go_gone(&mut self) {
        self.state = SessionState::Gone;
        self.next_attempt_at = None;
        self.metrics.sessions_gone.inc();
        self.tracer.record_detail(
            TraceStage::Disconnect,
            CauseId(self.budget_cause),
            "session gone: reconnect attempts exhausted",
        );
        self.tracer.dump_postmortem("session-gone");
    }

    /// Attempt one reconnect if its backoff deadline has passed.
    fn try_reconnect(&mut self, now: Seconds) {
        let SessionState::Reconnecting { attempt } = self.state else {
            return;
        };
        let due = self
            .next_attempt_at
            .is_some_and(|t| now.value() >= t.value());
        if !due {
            return;
        }
        let attempt = attempt + 1;
        match self.reopen() {
            Ok(()) => {
                self.state = SessionState::Connected;
                self.next_attempt_at = None;
                self.disconnect_dumped = false;
                self.metrics.session_reconnects.inc();
                self.tracer.record_job(
                    TraceStage::Reconnect,
                    CauseId(self.budget_cause),
                    self.job.0,
                    self.budget_cap.map(|c| c.value()),
                );
            }
            Err(_) if attempt >= self.session.retry.max_attempts => self.go_gone(),
            Err(_) => {
                self.state = SessionState::Reconnecting { attempt };
                self.next_attempt_at = Some(Seconds(
                    now.value() + self.session.retry.delay(attempt + 1).value(),
                ));
            }
        }
    }

    /// Dial the budgeter again and replay the session introduction: a
    /// `Resume` carrying the believed cap, then the last model (models
    /// are not individually acknowledged, so the latest one is replayed
    /// wholesale).
    fn reopen(&mut self) -> Result<()> {
        let mut opts = StreamOptions::default().metrics(self.transport.clone());
        if let Some(p) = &self.session.faults {
            opts = opts.faults(p.clone());
        }
        let mut stream = self.session.addr.dial(opts)?;
        self.recorder.record(&RecEvent::ConnOpen { conn: 0 });
        let resume = JobToCluster::Resume {
            job: self.job,
            type_name: self.session.announced_type.clone(),
            nodes: self.nodes,
            believed_cap: self.budget_cap.unwrap_or(Watts(-1.0)),
            cause: self.budget_cause,
        }
        .encode();
        self.rec_tx(&resume);
        stream.send(resume)?;
        if let Some(model) = self.last_model.clone() {
            let frame = model.encode();
            self.rec_tx(&frame);
            stream.send(frame)?;
        }
        self.stream = stream;
        Ok(())
    }

    fn apply_policy(&mut self) {
        if let Some(budget) = self.budget_cap {
            let cap = self.modeler.recommend_cap(budget);
            self.endpoint
                .write_policy(AgentPolicy::caused(cap, self.budget_cause));
            self.tracer.record_job(
                TraceStage::PolicyWrite,
                CauseId(self.budget_cause),
                self.job.0,
                Some(cap.value()),
            );
            self.metrics.policies_applied.inc();
            let (job, telemetry) = (self.job, &self.metrics.telemetry);
            self.metrics
                .node_cap
                .get_or_insert_with(|| {
                    telemetry.gauge("endpoint_node_cap_watts", &[("job", &job.0.to_string())])
                })
                .set(cap.value());
        }
    }

    /// Send `s` up unless the link is down or (without `force`) a sample
    /// went up less than a sample interval ago.
    fn forward_sample(&mut self, now: Seconds, s: AgentSample, force: bool) -> Result<()> {
        if !self.state.is_connected() {
            // Samples taken during an outage are not spooled: the cap is
            // re-synced on resume and fresh samples follow immediately.
            return Ok(());
        }
        let due = force
            || self
                .last_sample_sent_at
                .is_none_or(|t| (now - t).value() >= self.sample_interval.value());
        if !due {
            return Ok(());
        }
        self.last_sample_sent_at = Some(now);
        self.metrics.samples_forwarded.inc();
        self.tracer.record_job(
            TraceStage::SampleTx,
            CauseId(s.cause),
            self.job.0,
            Some(s.power.value()),
        );
        let frame = JobToCluster::Sample(EpochSample {
            job: self.job,
            epoch_count: s.epoch_count,
            energy: s.energy,
            avg_power: s.power,
            avg_cap: s.cap / self.nodes as f64,
            timestamp: s.timestamp,
            cause: s.cause,
        })
        .encode();
        self.rec_tx(&frame);
        self.stream.send(frame)
    }

    /// Announce job completion with its final application runtime.
    pub fn finish(&mut self, elapsed: Seconds) -> Result<()> {
        let frame = JobToCluster::Done {
            job: self.job,
            elapsed,
        }
        .encode();
        self.rec_tx(&frame);
        self.stream.send(frame)?;
        self.stream.flush_some()
    }

    /// The job this endpoint serves.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Latest per-node budget received from the budgeter. `None` once
    /// the session is [`SessionState::Gone`] — a dead endpoint must not
    /// report a stale cap as live (the silent-stranding bug).
    pub fn budget_cap(&self) -> Option<Watts> {
        if self.state.is_gone() {
            None
        } else {
            self.budget_cap
        }
    }

    /// Where the budgeter link currently stands.
    pub fn session_state(&self) -> SessionState {
        self.state
    }

    /// Where the modeler's current curve came from.
    pub fn model_source(&self) -> ModelSource {
        self.modeler.source()
    }

    /// Number of `Model` messages pushed up so far.
    pub fn models_sent(&self) -> u64 {
        self.models_sent
    }

    /// Did the budgeter ask us to shut down?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Listener;
    use anor_geopm::{endpoint_pair, AgentSample};
    use anor_model::ModelerConfig;
    use anor_types::msg::take_frame;
    use anor_types::{CapRange, Joules, PowerCurve};
    use bytes::BytesMut;
    use std::net::TcpListener;

    /// The budgeter's side of the next connection dialled to `listener`.
    fn accept(listener: &Listener) -> FramedStream {
        let link = listener.accept().unwrap().expect("a dialled connection");
        FramedStream::from_link(link, StreamOptions::default()).unwrap()
    }

    struct Harness {
        endpoint: JobEndpoint,
        server: FramedStream,
        agent: anor_geopm::EndpointAgent,
    }

    fn harness(dither: bool) -> Harness {
        let listener = Listener::in_process();
        let (modeler_side, agent_side) = endpoint_pair();
        let mut cfg = ModelerConfig::paper();
        if !dither {
            cfg.dither_fraction = 0.0;
        }
        // Tests drive the dither without epoch traffic: flip per call.
        cfg.dither_hold_epochs = 0;
        let default = PowerCurve::from_anchor(Seconds(0.5), 0.1, CapRange::paper_node());
        let pm = PowerModeler::with_default(cfg, default);
        let addr = listener.addr().unwrap();
        let je = JobEndpoint::builder(addr, JobId(1), "bt.D.81", 2, modeler_side, pm)
            .connect()
            .unwrap();
        Harness {
            endpoint: je,
            server: accept(&listener),
            agent: agent_side,
        }
    }

    /// Every frame the endpoint has sent so far: the in-process link
    /// delivers within the call that writes, so one read drains it.
    fn drain(server: &mut FramedStream) -> Vec<JobToCluster> {
        let frames = server.recv_frames().unwrap();
        frames
            .into_iter()
            .map(|body| JobToCluster::decode(body).unwrap())
            .collect()
    }

    fn cap(cap: f64, cause: u64) -> bytes::Bytes {
        ClusterToJob::SetPowerCap {
            cap: Watts(cap),
            cause,
        }
        .encode()
    }

    #[test]
    fn hello_arrives_first() {
        let mut h = harness(false);
        h.endpoint.pump(Seconds(0.0)).unwrap();
        let msgs = drain(&mut h.server);
        assert!(matches!(
            msgs[0],
            JobToCluster::Hello {
                job: JobId(1),
                nodes: 2,
                ..
            }
        ));
    }

    #[test]
    fn cap_from_budgeter_reaches_agent_policy() {
        let mut h = harness(false);
        h.server.send(cap(190.0, 0)).unwrap();
        h.endpoint.pump(Seconds(0.0)).unwrap();
        assert_eq!(h.endpoint.budget_cap(), Some(Watts(190.0)));
        let (policy, _) = h.agent.read_policy().expect("policy written");
        assert_eq!(policy.node_cap, Watts(190.0), "no dither when disabled");
    }

    #[test]
    fn dither_alternates_around_budget() {
        let mut h = harness(true);
        h.server.send(cap(200.0, 0)).unwrap();
        let mut caps = Vec::new();
        let mut t = 0.0;
        for _ in 0..200 {
            h.endpoint.pump(Seconds(t)).unwrap();
            t += 2.5; // beyond the control interval so the dither flips
            if let Some((p, seq)) = h.agent.read_policy() {
                if caps.last() != Some(&(p.node_cap, seq)) {
                    caps.push((p.node_cap, seq));
                }
            }
            if caps.len() >= 4 {
                break;
            }
        }
        assert!(caps.len() >= 4, "policies: {caps:?}");
        let values: Vec<f64> = caps.iter().map(|(c, _)| c.value()).collect();
        // Alternating above/below 200, mean 200.
        assert!(values.iter().any(|v| *v > 200.0));
        assert!(values.iter().any(|v| *v < 200.0));
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - 200.0).abs() < 8.0, "mean {mean}");
    }

    #[test]
    fn samples_forwarded_with_per_node_cap() {
        let mut h = harness(false);
        h.endpoint.pump(Seconds(0.0)).unwrap();
        drain(&mut h.server); // consume hello
        h.agent.write_sample(AgentSample {
            epoch_count: 3,
            energy: Joules(500.0),
            power: Watts(380.0),
            cap: Watts(400.0), // summed over 2 nodes
            timestamp: Seconds(4.0),
            cause: 0,
        });
        h.endpoint.pump(Seconds(5.0)).unwrap();
        let msgs = drain(&mut h.server);
        let JobToCluster::Sample(s) = &msgs[0] else {
            panic!("expected sample, got {msgs:?}");
        };
        assert_eq!(s.epoch_count, 3);
        assert_eq!(s.avg_cap, Watts(200.0), "cap reported per node");
        assert_eq!(s.avg_power, Watts(380.0));
    }

    #[test]
    fn retrain_pushes_model_message() {
        let mut h = harness(false);
        h.endpoint.pump(Seconds(0.0)).unwrap();
        drain(&mut h.server);
        // Feed epochs at two cap levels so the modeler can fit; the agent
        // reports the summed 2-node cap.
        let mut t = 0.0;
        let mut count = 0u64;
        for (cap2, tau) in [(320.0, 3.0), (520.0, 2.0)] {
            for _ in 0..12 {
                t += tau;
                count += 1;
                h.agent.write_sample(AgentSample {
                    epoch_count: count,
                    energy: Joules(t * 300.0),
                    power: Watts(cap2),
                    cap: Watts(cap2),
                    timestamp: Seconds(t),
                    cause: 0,
                });
                h.endpoint.pump(Seconds(t)).unwrap();
            }
        }
        assert!(
            h.endpoint.models_sent() >= 1,
            "a retrain must push a Model message"
        );
        assert!(matches!(
            h.endpoint.model_source(),
            ModelSource::Fitted { .. }
        ));
    }

    #[test]
    fn done_message_sent_on_finish() {
        let mut h = harness(false);
        h.endpoint.pump(Seconds(0.0)).unwrap();
        drain(&mut h.server);
        h.endpoint.finish(Seconds(617.0)).unwrap();
        let msgs = drain(&mut h.server);
        assert!(matches!(
            msgs[0],
            JobToCluster::Done { job: JobId(1), elapsed } if elapsed == Seconds(617.0)
        ));
    }

    #[test]
    fn shutdown_request_latches() {
        let mut h = harness(false);
        h.server.send(ClusterToJob::Shutdown.encode()).unwrap();
        h.endpoint.pump(Seconds(0.0)).unwrap();
        assert!(h.endpoint.shutdown_requested(), "shutdown never observed");
    }

    #[test]
    fn telemetry_counts_policies_samples_and_transport() {
        let telemetry = Telemetry::new();
        let listener = Listener::in_process();
        let (modeler_side, agent) = endpoint_pair();
        let mut cfg = ModelerConfig::paper();
        cfg.dither_fraction = 0.0;
        let default = PowerCurve::from_anchor(Seconds(0.5), 0.1, CapRange::paper_node());
        let pm = PowerModeler::with_default(cfg, default);
        let addr = listener.addr().unwrap();
        let mut je = JobEndpoint::builder(addr, JobId(4), "bt.D.81", 2, modeler_side, pm)
            .telemetry(telemetry.clone())
            .connect()
            .unwrap();
        let mut server = accept(&listener);
        server.send(cap(190.0, 0)).unwrap();
        agent.write_sample(AgentSample {
            epoch_count: 1,
            energy: Joules(100.0),
            power: Watts(350.0),
            cap: Watts(380.0),
            timestamp: Seconds(1.0),
            cause: 0,
        });
        je.pump(Seconds(0.0)).unwrap();
        assert!(je.budget_cap().is_some());
        assert!(
            telemetry
                .counter("endpoint_policies_applied_total", &[])
                .get()
                >= 1
        );
        assert!(
            telemetry
                .counter("endpoint_samples_forwarded_total", &[])
                .get()
                >= 1
        );
        assert!(
            telemetry
                .counter("transport_frames_tx_total", &[("role", "endpoint")])
                .get()
                >= 2,
            "hello + sample at least"
        );
        assert_eq!(
            telemetry
                .counter("transport_reconnects_total", &[("role", "endpoint")])
                .get(),
            1
        );
        assert_eq!(
            telemetry
                .gauge("endpoint_node_cap_watts", &[("job", "4")])
                .get(),
            190.0
        );
    }

    fn modeler() -> PowerModeler {
        let mut cfg = ModelerConfig::paper();
        cfg.dither_fraction = 0.0;
        let default = PowerCurve::from_anchor(Seconds(0.5), 0.1, CapRange::paper_node());
        PowerModeler::with_default(cfg, default)
    }

    #[test]
    fn reconnects_and_resumes_with_identical_cap() {
        use crate::session::{RetryPolicy, SessionState};
        let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
        for (listener, polled) in [(Listener::in_process(), false), (tcp.into(), true)] {
            // Loopback TCP may need the kernel a moment between a write
            // and the peer's read; the in-process link never does.
            let settle = || {
                if polled {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            };
            let (modeler_side, _agent) = endpoint_pair();
            let retry = RetryPolicy {
                base_delay: Seconds(0.5),
                jitter: 0.0,
                ..RetryPolicy::default()
            };
            let addr = listener.addr().unwrap();
            let mut je =
                JobEndpoint::builder(addr, JobId(9), "bt.D.81", 2, modeler_side, modeler())
                    .retry(retry)
                    .connect()
                    .unwrap();
            let mut server = accept(&listener);
            server.send(cap(205.0, 11)).unwrap();
            for i in 0..100 {
                je.pump(Seconds(i as f64 * 0.01)).unwrap();
                if je.budget_cap() == Some(Watts(205.0)) {
                    break;
                }
                settle();
            }
            assert_eq!(je.budget_cap(), Some(Watts(205.0)));
            // Kill the budgeter side of the link.
            drop(server);
            let mut t = 1.0;
            for _ in 0..100 {
                je.pump(Seconds(t)).unwrap();
                if !je.session_state().is_connected() {
                    break;
                }
                t += 0.1;
                settle();
            }
            assert!(
                matches!(je.session_state(), SessionState::Reconnecting { .. }),
                "{:?}",
                je.session_state()
            );
            // The believed cap stays in force while reconnecting.
            assert_eq!(je.budget_cap(), Some(Watts(205.0)));
            // Advance virtual time past the backoff; the endpoint redials.
            t += 1.0;
            je.pump(Seconds(t)).unwrap();
            assert!(je.session_state().is_connected(), "redial should succeed");
            let mut server = accept(&listener);
            // The first frame on the new connection is the Resume,
            // carrying the cap the endpoint still believes.
            let mut msgs = Vec::new();
            for _ in 0..200 {
                msgs.extend(drain(&mut server));
                if !msgs.is_empty() {
                    break;
                }
                settle();
            }
            let JobToCluster::Resume {
                job,
                believed_cap,
                cause,
                ..
            } = &msgs[0]
            else {
                panic!("expected Resume first, got {msgs:?}");
            };
            assert_eq!(*job, JobId(9));
            assert_eq!(*believed_cap, Watts(205.0));
            assert_eq!(*cause, 11);
            // Ack with the cap on record; the endpoint keeps an identical
            // cap.
            server
                .send(
                    ClusterToJob::ResumeAck {
                        cap: Watts(205.0),
                        cause: 11,
                    }
                    .encode(),
                )
                .unwrap();
            for _ in 0..100 {
                t += 0.1;
                je.pump(Seconds(t)).unwrap();
                settle();
            }
            assert_eq!(je.budget_cap(), Some(Watts(205.0)));
            assert!(je.session_state().is_connected());
        }
    }

    #[test]
    fn retry_disabled_goes_gone_and_stops_reporting_a_live_cap() {
        use crate::session::RetryPolicy;
        let listener = Listener::in_process();
        let (modeler_side, _agent) = endpoint_pair();
        let addr = listener.addr().unwrap();
        let mut je = JobEndpoint::builder(addr, JobId(2), "sp.D.64", 1, modeler_side, modeler())
            .retry(RetryPolicy::disabled())
            .connect()
            .unwrap();
        let mut server = accept(&listener);
        server.send(cap(190.0, 0)).unwrap();
        je.pump(Seconds(0.0)).unwrap();
        assert_eq!(je.budget_cap(), Some(Watts(190.0)));
        drop(server);
        drop(listener);
        je.pump(Seconds(1.0)).unwrap();
        assert!(je.session_state().is_gone());
        assert_eq!(
            je.budget_cap(),
            None,
            "a Gone session must not report a live cap"
        );
    }

    #[test]
    fn frame_helper_sanity() {
        // Guards against the test-only frame plumbing rotting: a frame we
        // build by hand must parse.
        let frame = ClusterToJob::RequestSample.encode();
        let mut buf = BytesMut::from(&frame[..]);
        let body = take_frame(&mut buf).unwrap().unwrap();
        assert_eq!(
            ClusterToJob::decode(body).unwrap(),
            ClusterToJob::RequestSample
        );
    }
}
