//! One job's complete job-tier runtime stack.
//!
//! [`JobRuntime`] bundles everything GEOPM attaches to one executing job:
//! a [`PlatformIo`] and power-governor [`Agent`] per node, the agent
//! communication [`AgentTree`], and the agent half of an endpoint. Each
//! discrete time step it:
//!
//! 1. pulls any *new* policy from the endpoint and broadcasts it down the
//!    tree (every agent enforces the node cap);
//! 2. advances every node's hardware and workload by `dt`;
//! 3. samples every agent, aggregates up the tree (min epochs, summed
//!    energy/power) and publishes the job-level sample to the endpoint.

use crate::agent::{Agent, AgentSample, PowerGovernorAgent};
use crate::endpoint::{endpoint_pair, EndpointAgent, EndpointModeler};
use crate::platformio::PlatformIo;
use crate::report::JobReport;
use crate::tree::AgentTree;
use anor_platform::{Node, Phase};
use anor_telemetry::{CauseId, Histogram, Telemetry, Timer, TraceStage, Tracer};
use anor_types::{AnorError, JobId, JobTypeSpec, Result, Seconds, Watts};

/// The job-tier runtime for a single (possibly multi-node) job.
#[derive(Debug)]
pub struct JobRuntime {
    job: JobId,
    spec: JobTypeSpec,
    ios: Vec<PlatformIo>,
    agents: Vec<PowerGovernorAgent>,
    tree: AgentTree,
    endpoint: EndpointAgent,
    last_policy_seq: u64,
    last_sample: AgentSample,
    elapsed: Seconds,
    done: bool,
    step_hist: Option<Histogram>,
    tracer: Tracer,
}

impl JobRuntime {
    /// Launch `spec` across `nodes` (the workload starts on every node)
    /// and return the runtime plus the modeler-side endpoint half.
    ///
    /// `seed` makes the run deterministic; each node derives its own
    /// workload stream from it.
    pub fn launch(
        job: JobId,
        spec: JobTypeSpec,
        mut nodes: Vec<Node>,
        seed: u64,
    ) -> Result<(JobRuntime, EndpointModeler)> {
        if nodes.is_empty() {
            return Err(AnorError::config(format!("{job}: needs at least one node")));
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            node.launch(job, spec.clone(), seed ^ ((i as u64 + 1) << 32) ^ job.0)?;
        }
        Ok(Self::assemble(job, spec, nodes))
    }

    /// Launch a multi-phase job (Section 8): the same runtime stack, but
    /// the workload's power profile shifts between phases mid-run —
    /// exercising the modeler's drift detection end to end.
    pub fn launch_phased(
        job: JobId,
        spec: JobTypeSpec,
        phases: &[Phase],
        mut nodes: Vec<Node>,
        seed: u64,
    ) -> Result<(JobRuntime, EndpointModeler)> {
        if nodes.is_empty() {
            return Err(AnorError::config(format!("{job}: needs at least one node")));
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            node.launch_phased(
                job,
                spec.clone(),
                phases,
                seed ^ ((i as u64 + 1) << 32) ^ job.0,
            )?;
        }
        Ok(Self::assemble(job, spec, nodes))
    }

    /// Wire launched nodes into the agent stack.
    fn assemble(job: JobId, spec: JobTypeSpec, nodes: Vec<Node>) -> (JobRuntime, EndpointModeler) {
        let ios: Vec<PlatformIo> = nodes.into_iter().map(PlatformIo::new).collect();
        let agents = ios.iter().map(|_| PowerGovernorAgent::new()).collect();
        let tree = AgentTree::balanced(ios.len());
        let (modeler, endpoint) = endpoint_pair();
        (
            JobRuntime {
                job,
                spec,
                ios,
                agents,
                tree,
                endpoint,
                last_policy_seq: 0,
                last_sample: AgentSample::default(),
                elapsed: Seconds::ZERO,
                done: false,
                step_hist: None,
                tracer: Tracer::off(),
            },
            modeler,
        )
    }

    /// Time every control-loop iteration ([`JobRuntime::step`]) into
    /// `runtime_step_seconds` on the given telemetry handle.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.step_hist = Some(telemetry.histogram("runtime_step_seconds", &[]));
    }

    /// Record an `msr_write` trace event each time a policy broadcast
    /// actually programs `PKG_POWER_LIMIT` on a node.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// The job id.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The job-type spec this runtime was launched with.
    pub fn spec(&self) -> &JobTypeSpec {
        &self.spec
    }

    /// Number of nodes the job occupies.
    pub fn node_count(&self) -> usize {
        self.ios.len()
    }

    /// Advance the whole job by `dt`. Returns true when the job has
    /// completed all its epochs on every node.
    pub fn step(&mut self, dt: Seconds) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let _timer = self.step_hist.clone().map(Timer::start);
        // 1. Policy propagation (only on change, in tree broadcast order).
        if let Some((policy, seq)) = self.endpoint.read_policy() {
            if seq != self.last_policy_seq {
                for &idx in self.tree.broadcast_order() {
                    let before = self.agents[idx].writes_issued();
                    self.agents[idx].adjust(&mut self.ios[idx], &policy)?;
                    if self.agents[idx].writes_issued() > before {
                        self.tracer.record_job(
                            TraceStage::MsrWrite,
                            CauseId(policy.cause),
                            self.job.0,
                            Some(policy.node_cap.value()),
                        );
                    }
                }
                self.last_policy_seq = seq;
            }
        }
        // 2. Hardware + workload time passes.
        let mut all_done = true;
        for io in &mut self.ios {
            let r = io.advance(dt);
            all_done &= r.job_done;
        }
        self.elapsed += dt;
        // 3. Sample aggregation up the tree.
        let agg = AgentTree::aggregate(
            self.agents
                .iter_mut()
                .zip(&self.ios)
                .map(|(a, io)| a.sample(io)),
        );
        self.last_sample = agg;
        self.endpoint.write_sample(agg);
        self.done = all_done;
        Ok(self.done)
    }

    /// True once every node's workload finished.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Wall-clock this runtime has executed.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Total CPU power the job drew during the last step.
    pub fn power(&self) -> Watts {
        self.last_sample.power
    }

    /// The most recent aggregated sample.
    pub fn last_sample(&self) -> AgentSample {
        self.last_sample
    }

    /// Produce the end-of-job GEOPM report.
    pub fn report(&self) -> JobReport {
        JobReport::from_final_sample(
            self.job,
            self.spec.name.clone(),
            "power_governor",
            self.ios.len() as u32,
            self.elapsed,
            &self.last_sample,
        )
    }

    /// Tear down, releasing the nodes back to the pool (the endpoint
    /// detaches, which the modeler observes).
    pub fn into_nodes(self) -> Vec<Node> {
        self.ios
            .into_iter()
            .map(|io| {
                let mut node = io.into_node();
                node.release();
                node
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentPolicy;
    use anor_types::{standard_catalog, NodeId};

    fn nodes(n: u32) -> Vec<Node> {
        (0..n).map(|i| Node::paper(NodeId(i))).collect()
    }

    fn spec(name: &str) -> JobTypeSpec {
        standard_catalog().find(name).unwrap().clone()
    }

    #[test]
    fn multi_node_job_runs_to_completion() {
        let (mut rt, modeler) = JobRuntime::launch(JobId(1), spec("is.D.32"), nodes(2), 5).unwrap();
        assert_eq!(rt.node_count(), 2);
        let mut steps = 0;
        while !rt.step(Seconds(0.5)).unwrap() {
            steps += 1;
            assert!(steps < 500, "is.D.32 never finished");
        }
        assert!(rt.is_done());
        let (s, _) = modeler.read_sample().unwrap();
        assert_eq!(s.epoch_count, spec("is.D.32").epochs);
        // Elapsed should be near the uncapped time of ~20 s.
        let t = rt.elapsed().value();
        assert!((15.0..30.0).contains(&t), "elapsed {t}");
    }

    #[test]
    fn policy_from_endpoint_caps_all_nodes() {
        let (mut rt, modeler) = JobRuntime::launch(JobId(2), spec("bt.D.81"), nodes(2), 1).unwrap();
        modeler.write_policy(AgentPolicy::capped(Watts(180.0)));
        rt.step(Seconds(1.0)).unwrap();
        // Job draws 180 W per node -> 360 W total.
        let p = rt.power().value();
        assert!((p - 360.0).abs() < 0.5, "capped job power {p}");
        for io in &rt.ios {
            assert_eq!(io.node().power_cap(), Watts(180.0));
        }
    }

    #[test]
    fn repeated_same_policy_writes_once() {
        let (mut rt, modeler) = JobRuntime::launch(JobId(3), spec("bt.D.81"), nodes(2), 2).unwrap();
        modeler.write_policy(AgentPolicy::capped(Watts(200.0)));
        for _ in 0..5 {
            rt.step(Seconds(0.5)).unwrap();
        }
        // The policy sequence only advanced once, so each agent adjusted once.
        assert!(rt.agents.iter().all(|a| a.writes_issued() == 1));
        modeler.write_policy(AgentPolicy::capped(Watts(220.0)));
        rt.step(Seconds(0.5)).unwrap();
        assert!(rt.agents.iter().all(|a| a.writes_issued() == 2));
    }

    #[test]
    fn epoch_count_gated_by_slowest_node() {
        // One slow node (coeff 1.5 would need custom nodes) — emulate by
        // checking min-aggregation: with identical nodes counts match the
        // per-node count.
        let (mut rt, modeler) = JobRuntime::launch(JobId(4), spec("mg.D.32"), nodes(3), 3).unwrap();
        for _ in 0..20 {
            rt.step(Seconds(1.0)).unwrap();
        }
        let (s, _) = modeler.read_sample().unwrap();
        let min_local = rt
            .ios
            .iter()
            .map(|io| io.node().workload().unwrap().epochs_done())
            .min()
            .unwrap();
        assert_eq!(s.epoch_count, min_local);
    }

    #[test]
    fn capping_slows_job_down() {
        let run = |cap: Option<Watts>| -> f64 {
            let (mut rt, modeler) =
                JobRuntime::launch(JobId(5), spec("is.D.32"), nodes(1), 7).unwrap();
            if let Some(c) = cap {
                modeler.write_policy(AgentPolicy::capped(c));
            }
            while !rt.step(Seconds(0.1)).unwrap() {}
            rt.elapsed().value()
        };
        let t_free = run(None);
        let t_capped = run(Some(Watts(140.0)));
        assert!(t_capped > t_free, "{t_capped} vs {t_free}");
    }

    #[test]
    fn report_reflects_run() {
        let (mut rt, _m) = JobRuntime::launch(JobId(6), spec("is.D.32"), nodes(2), 9).unwrap();
        while !rt.step(Seconds(0.5)).unwrap() {}
        let rep = rt.report();
        assert_eq!(rep.nodes, 2);
        assert_eq!(rep.epoch_count, spec("is.D.32").epochs);
        assert!(rep.energy.value() > 0.0);
        assert!(rep.average_power().value() > 0.0);
    }

    #[test]
    fn teardown_releases_nodes_and_detaches() {
        let (mut rt, modeler) =
            JobRuntime::launch(JobId(7), spec("is.D.32"), nodes(2), 11).unwrap();
        rt.step(Seconds(1.0)).unwrap();
        assert!(modeler.agent_attached());
        let nodes = rt.into_nodes();
        assert_eq!(nodes.len(), 2);
        assert!(nodes.iter().all(|n| n.is_idle()));
        assert!(!modeler.agent_attached());
    }

    #[test]
    fn attached_telemetry_times_every_step() {
        let telemetry = Telemetry::new();
        let (mut rt, _m) = JobRuntime::launch(JobId(9), spec("is.D.32"), nodes(1), 17).unwrap();
        rt.attach_telemetry(&telemetry);
        for _ in 0..5 {
            rt.step(Seconds(0.5)).unwrap();
        }
        assert_eq!(telemetry.histogram("runtime_step_seconds", &[]).count(), 5);
    }

    #[test]
    fn step_after_done_is_inert() {
        let (mut rt, _m) = JobRuntime::launch(JobId(8), spec("is.D.32"), nodes(1), 13).unwrap();
        while !rt.step(Seconds(0.5)).unwrap() {}
        let e = rt.elapsed();
        assert!(rt.step(Seconds(5.0)).unwrap());
        assert_eq!(rt.elapsed(), e, "no time accrues after completion");
    }
}
