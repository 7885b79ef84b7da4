//! A whole compute node: packages + workload + power accounting.
//!
//! Matches the paper's test platform (Section 5.5): dual-package nodes
//! with 140 W TDP per socket, a 70 W per-package minimum cap, power
//! observed and controlled only at CPU-package scope (Section 7.1 scopes
//! the study to CPU power).

use crate::phases::{Phase, PhasedWorkload};
use crate::rapl::PackageDomain;
use crate::workload::SyntheticWorkload;
use anor_types::{
    AnorError, CapRange, JobId, JobTypeSpec, Joules, NodeId, PackageId, Result, Seconds, Watts,
};

/// Static configuration of a node model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Number of CPU packages (sockets).
    pub packages: u8,
    /// TDP per package.
    pub tdp_per_pkg: Watts,
    /// Minimum enforceable cap per package.
    pub min_cap_per_pkg: Watts,
    /// CPU power drawn per package when the node is idle.
    pub idle_pkg_power: Watts,
}

impl NodeConfig {
    /// The paper's platform: 2 × (70–140 W) packages, ≈45 W idle each.
    pub fn paper() -> Self {
        NodeConfig {
            packages: 2,
            tdp_per_pkg: Watts(140.0),
            min_cap_per_pkg: Watts(70.0),
            idle_pkg_power: Watts(45.0),
        }
    }

    /// Achievable node-level cap range (per-package range × package count).
    pub fn cap_range(&self) -> CapRange {
        let n = self.packages as f64;
        CapRange::new(self.min_cap_per_pkg * n, self.tdp_per_pkg * n)
    }

    /// Node CPU power when idle.
    pub fn idle_power(&self) -> Watts {
        self.idle_pkg_power * self.packages as f64
    }
}

/// The application running on a node: a plain single-profile benchmark
/// or a multi-phase job (Section 8).
// One Workload lives per node; the size spread between variants is
// irrelevant at that population.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Workload {
    /// A single power-sensitivity profile for the whole run.
    Plain(SyntheticWorkload),
    /// A sequence of phases with distinct power profiles.
    Phased(PhasedWorkload),
}

impl Workload {
    /// Advance under a node cap; returns epochs crossed.
    pub fn step(&mut self, cap: Watts, dt: Seconds) -> u64 {
        match self {
            Workload::Plain(w) => w.step(cap, dt),
            Workload::Phased(w) => w.step(cap, dt),
        }
    }

    /// Epochs completed so far.
    pub fn epochs_done(&self) -> u64 {
        match self {
            Workload::Plain(w) => w.epochs_done(),
            Workload::Phased(w) => w.epochs_done(),
        }
    }

    /// Fractional completion in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        match self {
            Workload::Plain(w) => w.progress(),
            Workload::Phased(w) => w.progress(),
        }
    }

    /// All epochs done?
    pub fn is_done(&self) -> bool {
        match self {
            Workload::Plain(w) => w.is_done(),
            Workload::Phased(w) => w.is_done(),
        }
    }

    /// Wall-clock spent executing.
    pub fn elapsed(&self) -> Seconds {
        match self {
            Workload::Plain(w) => w.elapsed(),
            Workload::Phased(w) => w.elapsed(),
        }
    }

    /// Per-node power demanded right now.
    pub fn power_demand(&self) -> Watts {
        match self {
            Workload::Plain(w) => w.power_demand(),
            Workload::Phased(w) => w.power_demand(),
        }
    }
}

/// What happened on a node during one time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStepReport {
    /// CPU power drawn during the step (all packages).
    pub power: Watts,
    /// Epoch boundaries the local workload crossed.
    pub epochs_crossed: u64,
    /// True when the local workload has completed all epochs.
    pub job_done: bool,
}

/// One simulated compute node.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    cfg: NodeConfig,
    packages: Vec<PackageDomain>,
    perf_coeff: f64,
    job: Option<(JobId, Workload)>,
    time: Seconds,
}

impl Node {
    /// Build a node with an explicit configuration and performance
    /// coefficient.
    pub fn new(id: NodeId, cfg: NodeConfig, perf_coeff: f64) -> Self {
        assert!(cfg.packages > 0, "node needs at least one package");
        assert!(perf_coeff > 0.0, "performance coefficient must be positive");
        let packages = (0..cfg.packages)
            .map(|i| PackageDomain::new(PackageId(i), cfg.tdp_per_pkg, cfg.min_cap_per_pkg))
            .collect();
        Node {
            id,
            cfg,
            packages,
            perf_coeff,
            job: None,
            time: Seconds::ZERO,
        }
    }

    /// A nominal paper-platform node.
    pub fn paper(id: NodeId) -> Self {
        Node::new(id, NodeConfig::paper(), 1.0)
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Static configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Achievable node-level cap range.
    pub fn cap_range(&self) -> CapRange {
        self.cfg.cap_range()
    }

    /// The node's performance-variation coefficient.
    pub fn perf_coeff(&self) -> f64 {
        self.perf_coeff
    }

    /// Program a node-level power cap by splitting it evenly across
    /// packages (how GEOPM's power governor distributes a node budget).
    pub fn set_power_cap(&mut self, node_cap: Watts) -> Result<()> {
        let per_pkg = node_cap / self.cfg.packages as f64;
        for p in &mut self.packages {
            p.set_power_limit(per_pkg)?;
        }
        Ok(())
    }

    /// The currently enforced node-level cap (sum of enforced package
    /// limits).
    pub fn power_cap(&self) -> Watts {
        self.packages.iter().map(|p| p.power_limit()).sum()
    }

    /// Launch a job on this node. Errors when the node is already busy.
    pub fn launch(&mut self, job: JobId, spec: JobTypeSpec, seed: u64) -> Result<()> {
        if self.job.is_some() {
            return Err(AnorError::platform(format!(
                "{} is already running a job",
                self.id
            )));
        }
        self.job = Some((
            job,
            Workload::Plain(SyntheticWorkload::new(spec, self.perf_coeff, seed)),
        ));
        Ok(())
    }

    /// Launch a multi-phase job on this node (Section 8). Errors when the
    /// node is already busy.
    pub fn launch_phased(
        &mut self,
        job: JobId,
        spec: JobTypeSpec,
        phases: &[Phase],
        seed: u64,
    ) -> Result<()> {
        if self.job.is_some() {
            return Err(AnorError::platform(format!(
                "{} is already running a job",
                self.id
            )));
        }
        self.job = Some((
            job,
            Workload::Phased(PhasedWorkload::new(spec, phases, self.perf_coeff, seed)),
        ));
        Ok(())
    }

    /// Remove the current job (finished or cancelled). Returns its id.
    pub fn release(&mut self) -> Option<JobId> {
        self.job.take().map(|(id, _)| id)
    }

    /// The id of the running job, if any.
    pub fn job(&self) -> Option<JobId> {
        self.job.as_ref().map(|(id, _)| *id)
    }

    /// True when no job occupies the node.
    pub fn is_idle(&self) -> bool {
        self.job.is_none()
    }

    /// The running workload, if any.
    pub fn workload(&self) -> Option<&Workload> {
        self.job.as_ref().map(|(_, w)| w)
    }

    /// Simulated wall-clock on this node.
    pub fn now(&self) -> Seconds {
        self.time
    }

    /// Advance the node by `dt`: the workload progresses under the
    /// enforced node cap, packages draw power and account energy.
    pub fn step(&mut self, dt: Seconds) -> NodeStepReport {
        self.time += dt;
        let node_cap = self.power_cap();
        let npkg = self.cfg.packages as f64;
        let (pkg_demand, epochs_crossed, job_done) = match &mut self.job {
            Some((_, w)) if !w.is_done() => {
                let crossed = w.step(node_cap, dt);
                let demand = (w.power_demand() / npkg).max(self.cfg.idle_pkg_power);
                (demand, crossed, w.is_done())
            }
            Some((_, _)) => (self.cfg.idle_pkg_power, 0, true),
            None => (self.cfg.idle_pkg_power, 0, false),
        };
        let mut power = Watts::ZERO;
        for p in &mut self.packages {
            power += p.step(pkg_demand, dt);
        }
        NodeStepReport {
            power,
            epochs_crossed,
            job_done,
        }
    }

    /// Raw package energy counters, in package order (what GEOPM's
    /// `CPU_ENERGY` signal aggregates).
    pub fn energy_counters(&self) -> Vec<u64> {
        self.packages
            .iter()
            .map(|p| p.read_energy_counter())
            .collect()
    }

    /// Unwrapped total CPU energy consumed by this node.
    pub fn cpu_energy_total(&self) -> Joules {
        self.packages.iter().map(|p| p.energy_total()).sum()
    }

    /// Package domains (for PlatformIO-level access).
    pub fn packages(&self) -> &[PackageDomain] {
        &self.packages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_types::standard_catalog;

    fn spec(name: &str) -> JobTypeSpec {
        standard_catalog().find(name).unwrap().clone()
    }

    #[test]
    fn paper_node_cap_range() {
        let n = Node::paper(NodeId(0));
        assert_eq!(n.cap_range(), CapRange::new(Watts(140.0), Watts(280.0)));
        assert_eq!(n.power_cap(), Watts(280.0), "defaults to TDP");
        assert_eq!(n.config().idle_power(), Watts(90.0));
    }

    #[test]
    fn cap_splits_across_packages() {
        let mut n = Node::paper(NodeId(0));
        n.set_power_cap(Watts(200.0)).unwrap();
        assert_eq!(n.power_cap(), Watts(200.0));
        for p in n.packages() {
            assert_eq!(p.power_limit(), Watts(100.0));
        }
    }

    #[test]
    fn cap_clamped_at_package_floor() {
        let mut n = Node::paper(NodeId(0));
        n.set_power_cap(Watts(100.0)).unwrap();
        // 50 W per package requested, floor is 70 W.
        assert_eq!(n.power_cap(), Watts(140.0));
    }

    #[test]
    fn idle_node_draws_idle_power() {
        let mut n = Node::paper(NodeId(1));
        let r = n.step(Seconds(1.0));
        assert_eq!(r.power, Watts(90.0));
        assert_eq!(r.epochs_crossed, 0);
        assert!(!r.job_done);
    }

    #[test]
    fn busy_node_draws_job_power_under_cap() {
        let mut n = Node::paper(NodeId(2));
        n.launch(JobId(1), spec("bt.D.81"), 7).unwrap();
        // Uncapped: draws the job's natural 272 W.
        let r = n.step(Seconds(1.0));
        assert!((r.power.value() - 272.0).abs() < 1e-9, "power {}", r.power);
        // Capped at 200: draws exactly the cap.
        n.set_power_cap(Watts(200.0)).unwrap();
        let r = n.step(Seconds(1.0));
        assert!((r.power.value() - 200.0).abs() < 1e-9, "power {}", r.power);
    }

    #[test]
    fn double_launch_rejected() {
        let mut n = Node::paper(NodeId(3));
        n.launch(JobId(1), spec("is.D.32"), 1).unwrap();
        assert!(n.launch(JobId(2), spec("is.D.32"), 2).is_err());
        assert_eq!(n.job(), Some(JobId(1)));
        assert_eq!(n.release(), Some(JobId(1)));
        assert!(n.is_idle());
        assert!(n.launch(JobId(2), spec("is.D.32"), 2).is_ok());
    }

    #[test]
    fn job_runs_to_completion() {
        let mut n = Node::paper(NodeId(4));
        n.launch(JobId(9), spec("is.D.32"), 3).unwrap();
        let mut total_epochs = 0;
        let mut steps = 0;
        loop {
            let r = n.step(Seconds(0.5));
            total_epochs += r.epochs_crossed;
            steps += 1;
            assert!(steps < 1000, "is.D.32 never finished");
            if r.job_done {
                break;
            }
        }
        assert_eq!(total_epochs, spec("is.D.32").epochs);
        // After completion the node draws idle power again.
        let r = n.step(Seconds(1.0));
        assert_eq!(r.power, Watts(90.0));
        assert!(r.job_done, "done latches until release");
    }

    #[test]
    fn energy_counters_advance() {
        let mut n = Node::paper(NodeId(5));
        let before = n.energy_counters();
        n.step(Seconds(10.0));
        let after = n.energy_counters();
        assert!(after.iter().zip(&before).all(|(a, b)| a > b));
        // 90 W idle × 10 s = 900 J.
        assert!((n.cpu_energy_total().value() - 900.0).abs() < 0.01);
    }

    #[test]
    fn perf_coeff_slows_workload() {
        let mut nominal = Node::paper(NodeId(6));
        let mut slow = Node::new(NodeId(7), NodeConfig::paper(), 1.5);
        nominal.launch(JobId(1), spec("is.D.32"), 11).unwrap();
        slow.launch(JobId(2), spec("is.D.32"), 11).unwrap();
        let run = |n: &mut Node| {
            let mut t = 0.0;
            loop {
                if n.step(Seconds(0.1)).job_done {
                    return t;
                }
                t += 0.1;
                assert!(t < 10_000.0);
            }
        };
        let t1 = run(&mut nominal);
        let t2 = run(&mut slow);
        assert!(t2 / t1 > 1.3, "slow node ratio {}", t2 / t1);
    }

    #[test]
    #[should_panic(expected = "at least one package")]
    fn zero_package_node_rejected() {
        let cfg = NodeConfig {
            packages: 0,
            ..NodeConfig::paper()
        };
        Node::new(NodeId(0), cfg, 1.0);
    }
}
