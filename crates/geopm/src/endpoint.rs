//! The GEOPM endpoint interface.
//!
//! "The root level of that agent hierarchy has a software interface,
//! called the GEOPM endpoint interface, that can be used to dynamically
//! write new objectives and read summarized state updates from agents"
//! (Section 4). The paper's job-tier power modeler talks to the agent
//! root through shared memory over this interface (Fig. 2).
//!
//! Here the "shared memory" is an `Arc<Mutex<_>>` mailbox: the modeler
//! half writes policies and reads samples; the agent half reads policies
//! and writes samples. Sequence numbers let each side detect *new* data
//! without consuming duplicates — exactly the asynchronous-sampling issue
//! Section 7.2 describes.

use crate::agent::{AgentPolicy, AgentSample};
use anor_telemetry::{Counter, Telemetry};
use parking_lot::Mutex;
use std::sync::Arc;

/// Cached handles for the mailbox's write counters (attached via
/// [`EndpointModeler::attach_telemetry`]).
#[derive(Debug)]
struct Instruments {
    policy_writes: Counter,
    sample_writes: Counter,
}

#[derive(Debug, Default)]
struct Shared {
    policy: Option<AgentPolicy>,
    policy_seq: u64,
    sample: Option<AgentSample>,
    sample_seq: u64,
    agent_attached: bool,
    instruments: Option<Instruments>,
}

/// The modeler-side half of an endpoint (writes objectives, reads state).
#[derive(Debug, Clone)]
pub struct EndpointModeler {
    shared: Arc<Mutex<Shared>>,
}

/// The agent-side half of an endpoint (reads objectives, writes state).
#[derive(Debug)]
pub struct EndpointAgent {
    shared: Arc<Mutex<Shared>>,
}

/// Create a connected modeler/agent endpoint pair.
pub fn endpoint_pair() -> (EndpointModeler, EndpointAgent) {
    let shared = Arc::new(Mutex::new(Shared {
        agent_attached: true,
        ..Shared::default()
    }));
    (
        EndpointModeler {
            shared: Arc::clone(&shared),
        },
        EndpointAgent { shared },
    )
}

impl EndpointModeler {
    /// Count this mailbox's policy and sample writes into `telemetry`.
    /// Both halves share the counters.
    pub fn attach_telemetry(&self, telemetry: &Telemetry) {
        let instruments = Instruments {
            policy_writes: telemetry.counter("endpoint_policy_writes_total", &[]),
            sample_writes: telemetry.counter("endpoint_sample_writes_total", &[]),
        };
        self.shared.lock().instruments = Some(instruments);
    }

    /// Publish a new objective for the agent hierarchy.
    pub fn write_policy(&self, policy: AgentPolicy) {
        let mut s = self.shared.lock();
        s.policy = Some(policy);
        s.policy_seq += 1;
        if let Some(i) = &s.instruments {
            i.policy_writes.inc();
        }
    }

    /// Latest sample the agents published, with its sequence number
    /// (None before the first sample).
    pub fn read_sample(&self) -> Option<(AgentSample, u64)> {
        let s = self.shared.lock();
        s.sample.map(|smp| (smp, s.sample_seq))
    }

    /// Sequence number of the most recent sample (0 = none yet). Lets the
    /// modeler poll cheaply for fresh data.
    pub fn sample_seq(&self) -> u64 {
        self.shared.lock().sample_seq
    }

    /// Is the agent half still attached? (False after the job tears
    /// down — the modeler uses this to generate its final report.)
    pub fn agent_attached(&self) -> bool {
        self.shared.lock().agent_attached
    }
}

impl EndpointAgent {
    /// Latest policy the modeler published, with its sequence number.
    pub fn read_policy(&self) -> Option<(AgentPolicy, u64)> {
        let s = self.shared.lock();
        s.policy.map(|p| (p, s.policy_seq))
    }

    /// Publish a fresh aggregated sample.
    pub fn write_sample(&self, sample: AgentSample) {
        let mut s = self.shared.lock();
        s.sample = Some(sample);
        s.sample_seq += 1;
        if let Some(i) = &s.instruments {
            i.sample_writes.inc();
        }
    }
}

impl Drop for EndpointAgent {
    fn drop(&mut self) {
        self.shared.lock().agent_attached = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_types::{Joules, Seconds, Watts};

    fn sample(epochs: u64) -> AgentSample {
        AgentSample {
            epoch_count: epochs,
            energy: Joules(10.0),
            power: Watts(100.0),
            cap: Watts(120.0),
            timestamp: Seconds(1.0),
            cause: 0,
        }
    }

    #[test]
    fn starts_empty_and_attached() {
        let (modeler, agent) = endpoint_pair();
        assert!(modeler.read_sample().is_none());
        assert_eq!(modeler.sample_seq(), 0);
        assert!(agent.read_policy().is_none());
        assert!(modeler.agent_attached());
    }

    #[test]
    fn policy_flows_down() {
        let (modeler, agent) = endpoint_pair();
        modeler.write_policy(AgentPolicy::capped(Watts(180.0)));
        let (p, seq) = agent.read_policy().unwrap();
        assert_eq!(p.node_cap, Watts(180.0));
        assert_eq!(seq, 1);
        // Overwrite bumps the sequence.
        modeler.write_policy(AgentPolicy::capped(Watts(190.0)));
        let (p, seq) = agent.read_policy().unwrap();
        assert_eq!(p.node_cap, Watts(190.0));
        assert_eq!(seq, 2);
    }

    #[test]
    fn samples_flow_up_with_sequence() {
        let (modeler, agent) = endpoint_pair();
        agent.write_sample(sample(3));
        let (s, seq) = modeler.read_sample().unwrap();
        assert_eq!(s.epoch_count, 3);
        assert_eq!(seq, 1);
        agent.write_sample(sample(7));
        assert_eq!(modeler.sample_seq(), 2);
        let (s, _) = modeler.read_sample().unwrap();
        assert_eq!(s.epoch_count, 7);
    }

    #[test]
    fn reads_do_not_consume() {
        let (modeler, agent) = endpoint_pair();
        agent.write_sample(sample(1));
        assert!(modeler.read_sample().is_some());
        assert!(modeler.read_sample().is_some(), "sample persists");
        modeler.write_policy(AgentPolicy::capped(Watts(150.0)));
        assert!(agent.read_policy().is_some());
        assert!(agent.read_policy().is_some(), "policy persists");
    }

    #[test]
    fn attached_telemetry_times_roundtrips() {
        let telemetry = Telemetry::new();
        let (modeler, agent) = endpoint_pair();
        modeler.attach_telemetry(&telemetry);
        modeler.write_policy(AgentPolicy::capped(Watts(180.0)));
        agent.read_policy().unwrap();
        agent.write_sample(sample(1));
        modeler.read_sample().unwrap();
        assert_eq!(
            telemetry.counter("endpoint_policy_writes_total", &[]).get(),
            1
        );
        assert_eq!(
            telemetry.counter("endpoint_sample_writes_total", &[]).get(),
            1
        );
    }

    #[test]
    fn drop_detaches_agent() {
        let (modeler, agent) = endpoint_pair();
        assert!(modeler.agent_attached());
        drop(agent);
        assert!(!modeler.agent_attached());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let (modeler, agent) = endpoint_pair();
        let writer = std::thread::spawn(move || {
            for i in 1..=1000u64 {
                agent.write_sample(sample(i));
            }
            drop(agent);
        });
        let mut last = 0;
        while modeler.agent_attached() || modeler.sample_seq() > last {
            if let Some((s, seq)) = modeler.read_sample() {
                if seq > last {
                    assert!(s.epoch_count >= last, "epochs regressed");
                    last = seq;
                }
            }
        }
        writer.join().unwrap();
        assert_eq!(modeler.sample_seq(), 1000);
    }
}
