//! PlatformIO: GEOPM's signal/control abstraction over the hardware.
//!
//! GEOPM "provides signals to monitor applications (e.g., a count of
//! times a region of code was entered) and hardware (e.g., power and
//! energy), and provides controls for the hardware platform (e.g., CPU
//! power caps)" (Section 4). The paper's deployment reads `CPU_ENERGY`
//! (aggregated from `PKG_ENERGY_STATUS` MSRs) and writes
//! `CPU_POWER_LIMIT_CONTROL` (mapping to `PKG_POWER_LIMIT`), Section 5.4.
//!
//! This module reproduces that layer over a simulated
//! [`anor_platform::Node`]. Energy is derived *only* from the wrapping
//! 32-bit MSR counters, exercising the same unwrap arithmetic a real
//! GEOPM build performs.

use anor_platform::msr::energy_delta;
use anor_platform::{Node, NodeStepReport};
use anor_types::{AnorError, Joules, Result, Seconds, Watts};

/// Signals PlatformIO can read. A deliberately small allowlist, like
/// GEOPM's signal registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Total CPU package energy consumed (joules), unwrapped from the
    /// `PKG_ENERGY_STATUS` counters.
    CpuEnergy,
    /// Average CPU power over the most recent sample interval (watts).
    CpuPower,
    /// Application epochs completed on this node (count).
    EpochCount,
    /// The currently enforced node power cap (watts).
    PowerCap,
    /// Node-local monotonic time (seconds).
    Time,
    /// Total software MSR writes accepted across the node's packages
    /// (count) — lets the tracing layer reconcile `msr_write` events
    /// against what the registers actually saw.
    MsrWrites,
}

/// Controls PlatformIO can write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Control {
    /// Node CPU power limit (watts), distributed across packages; GEOPM's
    /// `CPU_POWER_LIMIT_CONTROL`.
    CpuPowerLimit,
}

/// The per-node signal/control interface.
#[derive(Debug, Clone)]
pub struct PlatformIo {
    node: Node,
    prev_counters: Vec<u64>,
    energy_unwrapped: Joules,
    epoch_count: u64,
    last_power: Watts,
    last_report: Option<NodeStepReport>,
}

impl PlatformIo {
    /// Wrap a node. The node may already have a job launched.
    pub fn new(node: Node) -> Self {
        let prev_counters = node.energy_counters();
        PlatformIo {
            node,
            prev_counters,
            energy_unwrapped: Joules::ZERO,
            epoch_count: 0,
            last_power: Watts::ZERO,
            last_report: None,
        }
    }

    /// Advance simulated time by `dt`: the node hardware and workload
    /// progress, and all derived signals are refreshed from the MSRs.
    pub fn advance(&mut self, dt: Seconds) -> NodeStepReport {
        let report = self.node.step(dt);
        // Unwrap energy strictly from the 32-bit counters, as GEOPM must.
        let mut delta = Joules::ZERO;
        for (prev, pkg) in self.prev_counters.iter_mut().zip(self.node.packages()) {
            let curr = pkg.read_energy_counter();
            delta += energy_delta(*prev, curr);
            *prev = curr;
        }
        self.energy_unwrapped += delta;
        self.last_power = if dt.value() > 0.0 {
            delta / dt
        } else {
            Watts::ZERO
        };
        self.epoch_count += report.epochs_crossed;
        self.last_report = Some(report);
        report
    }

    /// Read a signal's current value.
    pub fn read_signal(&self, signal: Signal) -> f64 {
        match signal {
            Signal::CpuEnergy => self.energy_unwrapped.value(),
            Signal::CpuPower => self.last_power.value(),
            Signal::EpochCount => self.epoch_count as f64,
            Signal::PowerCap => self.node.power_cap().value(),
            Signal::Time => self.node.now().value(),
            Signal::MsrWrites => self
                .node
                .packages()
                .iter()
                .map(|p| p.msr_writes() as f64)
                .sum(),
        }
    }

    /// Write a control. Returns an error for out-of-domain values
    /// (non-finite or negative watts).
    pub fn write_control(&mut self, control: Control, value: f64) -> Result<()> {
        match control {
            Control::CpuPowerLimit => {
                if !value.is_finite() || value < 0.0 {
                    return Err(AnorError::platform(format!("invalid power limit {value}")));
                }
                self.node.set_power_cap(Watts(value))
            }
        }
    }

    /// The most recent step report (None before the first `advance`).
    pub fn last_report(&self) -> Option<NodeStepReport> {
        self.last_report
    }

    /// Borrow the underlying node.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Take the node back out of the abstraction.
    pub fn into_node(self) -> Node {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_types::{standard_catalog, JobId, NodeId};

    fn busy_io(name: &str) -> PlatformIo {
        let mut node = Node::paper(NodeId(0));
        let spec = standard_catalog().find(name).unwrap().clone();
        node.launch(JobId(1), spec, 42).unwrap();
        PlatformIo::new(node)
    }

    #[test]
    fn signals_start_at_zero() {
        let io = PlatformIo::new(Node::paper(NodeId(0)));
        assert_eq!(io.read_signal(Signal::CpuEnergy), 0.0);
        assert_eq!(io.read_signal(Signal::CpuPower), 0.0);
        assert_eq!(io.read_signal(Signal::EpochCount), 0.0);
        assert_eq!(io.read_signal(Signal::Time), 0.0);
        assert_eq!(io.read_signal(Signal::PowerCap), 280.0);
        assert!(io.last_report().is_none());
    }

    #[test]
    fn energy_and_power_derive_from_msrs() {
        let mut io = PlatformIo::new(Node::paper(NodeId(0)));
        io.advance(Seconds(10.0));
        // Idle node: 90 W for 10 s = 900 J (quantized by MSR units).
        let e = io.read_signal(Signal::CpuEnergy);
        assert!((e - 900.0).abs() < 0.01, "energy {e}");
        let p = io.read_signal(Signal::CpuPower);
        assert!((p - 90.0).abs() < 0.01, "power {p}");
        assert_eq!(io.read_signal(Signal::Time), 10.0);
    }

    #[test]
    fn power_limit_control_reaches_hardware() {
        let mut io = busy_io("bt.D.81");
        assert_eq!(io.read_signal(Signal::MsrWrites), 0.0);
        io.write_control(Control::CpuPowerLimit, 200.0).unwrap();
        assert_eq!(io.read_signal(Signal::PowerCap), 200.0);
        // One cap write lands on each of the node's two packages.
        assert_eq!(io.read_signal(Signal::MsrWrites), 2.0);
        io.advance(Seconds(1.0));
        let p = io.read_signal(Signal::CpuPower);
        assert!((p - 200.0).abs() < 0.01, "capped power {p}");
    }

    #[test]
    fn invalid_control_values_rejected() {
        let mut io = PlatformIo::new(Node::paper(NodeId(0)));
        assert!(io.write_control(Control::CpuPowerLimit, f64::NAN).is_err());
        assert!(io
            .write_control(Control::CpuPowerLimit, f64::INFINITY)
            .is_err());
        assert!(io.write_control(Control::CpuPowerLimit, -1.0).is_err());
    }

    #[test]
    fn epoch_count_accumulates() {
        let mut io = busy_io("is.D.32");
        let mut by_signal = 0.0;
        for _ in 0..40 {
            io.advance(Seconds(0.5));
            by_signal = io.read_signal(Signal::EpochCount);
        }
        assert!(by_signal > 0.0, "no epochs observed");
        // Signal must equal the node workload's own count.
        assert_eq!(
            by_signal as u64,
            io.node().workload().unwrap().epochs_done()
        );
    }

    #[test]
    fn zero_dt_advance_is_safe() {
        let mut io = busy_io("is.D.32");
        let r = io.advance(Seconds(0.0));
        assert_eq!(r.epochs_crossed, 0);
        assert_eq!(io.read_signal(Signal::CpuPower), 0.0);
    }
}
