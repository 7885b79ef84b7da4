//! The hierarchical agent communication tree.
//!
//! "Agents on multi-node jobs interact across nodes through a
//! hierarchical communication interface... When the endpoint sends a new
//! power cap to a job's GEOPM agent on one node, the agent forwards the
//! power cap over a communication tree to the rest of the agent
//! instances (one per node running the job)" (Sections 4, 4.3).
//!
//! Aggregation semantics follow the epoch definition of Section 5.1: "an
//! epoch count is incremented after all processes across all nodes
//! running the benchmark call this function" — so a job's epoch count is
//! the **minimum** across its nodes, while energy/power/cap **sum** and
//! the timestamp is the latest observation.

use crate::agent::AgentSample;

/// A balanced k-ary tree over a job's agent instances. Node `0` is the
/// root (the instance attached to the endpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentTree {
    node_count: usize,
    fanout: usize,
    /// Breadth-first broadcast order, fixed with the tree at launch.
    order: Vec<usize>,
}

impl AgentTree {
    /// GEOPM's default tree fanout.
    pub const DEFAULT_FANOUT: usize = 8;

    /// Build a tree over `node_count` agents with the given fanout.
    pub fn new(node_count: usize, fanout: usize) -> Self {
        assert!(node_count >= 1, "a job runs on at least one node");
        assert!(fanout >= 1, "fanout must be at least 1");
        let mut tree = AgentTree {
            node_count,
            fanout,
            order: Vec::with_capacity(node_count),
        };
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(i) = queue.pop_front() {
            tree.order.push(i);
            queue.extend(tree.children(i));
        }
        tree
    }

    /// Tree with the default fanout.
    pub fn balanced(node_count: usize) -> Self {
        AgentTree::new(node_count, Self::DEFAULT_FANOUT)
    }

    /// Number of agents in the tree.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Parent index of an agent (None for the root).
    pub fn parent(&self, idx: usize) -> Option<usize> {
        assert!(idx < self.node_count, "index out of range");
        if idx == 0 {
            None
        } else {
            Some((idx - 1) / self.fanout)
        }
    }

    /// Child indices of an agent.
    pub fn children(&self, idx: usize) -> Vec<usize> {
        assert!(idx < self.node_count, "index out of range");
        let first = idx * self.fanout + 1;
        (first..(first + self.fanout).min(self.node_count)).collect()
    }

    /// Depth of the deepest agent (root = 0). Controls how many forwarding
    /// hops a policy update takes to reach every node.
    pub fn depth(&self) -> usize {
        let mut max_depth = 0;
        for mut i in 0..self.node_count {
            let mut d = 0;
            while let Some(p) = self.parent(i) {
                i = p;
                d += 1;
            }
            max_depth = max_depth.max(d);
        }
        max_depth
    }

    /// Total point-to-point messages needed to broadcast one policy from
    /// the root to all agents (= edges in the tree).
    pub fn broadcast_messages(&self) -> usize {
        self.node_count - 1
    }

    /// The order in which a breadth-first policy broadcast visits agents.
    pub fn broadcast_order(&self) -> &[usize] {
        &self.order
    }

    /// Aggregate per-node samples into the job-level sample the root
    /// reports through the endpoint.
    pub fn aggregate(samples: impl IntoIterator<Item = AgentSample>) -> AgentSample {
        let mut out = AgentSample {
            epoch_count: u64::MAX,
            ..AgentSample::default()
        };
        let mut count = 0usize;
        for s in samples {
            count += 1;
            out.epoch_count = out.epoch_count.min(s.epoch_count);
            out.energy += s.energy;
            out.power += s.power;
            out.cap += s.cap;
            out.timestamp = out.timestamp.max(s.timestamp);
            // Every node received the same policy broadcast; max() keeps
            // the traced cause over any untraced (zero) stragglers.
            out.cause = out.cause.max(s.cause);
        }
        assert!(count > 0, "aggregate of zero samples");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_types::{Joules, Seconds, Watts};

    #[test]
    fn single_node_tree() {
        let t = AgentTree::balanced(1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.parent(0), None);
        assert!(t.children(0).is_empty());
        assert_eq!(t.broadcast_messages(), 0);
        assert_eq!(t.broadcast_order(), [0]);
    }

    #[test]
    fn binary_tree_structure() {
        let t = AgentTree::new(7, 2);
        assert_eq!(t.children(0), vec![1, 2]);
        assert_eq!(t.children(1), vec![3, 4]);
        assert_eq!(t.children(2), vec![5, 6]);
        assert_eq!(t.parent(6), Some(2));
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.depth(), 2);
        assert_eq!(t.broadcast_messages(), 6);
    }

    #[test]
    fn broadcast_order_visits_everyone_once() {
        for n in [1, 2, 5, 16, 50] {
            let t = AgentTree::balanced(n);
            let mut order = t.broadcast_order().to_vec();
            assert_eq!(order.len(), n);
            order.sort_unstable();
            assert!(order.iter().enumerate().all(|(i, &x)| i == x));
        }
    }

    #[test]
    fn parents_precede_children_in_broadcast() {
        let t = AgentTree::new(20, 3);
        let order = t.broadcast_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; 20];
            for (rank, &i) in order.iter().enumerate() {
                p[i] = rank;
            }
            p
        };
        for i in 1..20 {
            let parent = t.parent(i).unwrap();
            assert!(
                pos[parent] < pos[i],
                "agent {i} broadcast before its parent {parent}"
            );
        }
    }

    #[test]
    fn default_fanout_keeps_trees_shallow() {
        // 200 nodes at fanout 8: depth <= 3.
        assert!(AgentTree::balanced(200).depth() <= 3);
        // Indices 1..=8 are all children of the root.
        assert_eq!(AgentTree::balanced(9).depth(), 1);
        assert_eq!(AgentTree::balanced(10).depth(), 2);
    }

    #[test]
    fn aggregation_semantics() {
        let samples = [
            AgentSample {
                epoch_count: 12,
                energy: Joules(100.0),
                power: Watts(200.0),
                cap: Watts(210.0),
                timestamp: Seconds(5.0),
                cause: 0,
            },
            AgentSample {
                epoch_count: 10, // the straggler defines job progress
                energy: Joules(90.0),
                power: Watts(190.0),
                cap: Watts(210.0),
                timestamp: Seconds(5.5),
                cause: 0,
            },
        ];
        let a = AgentTree::aggregate(samples);
        assert_eq!(a.epoch_count, 10);
        assert_eq!(a.energy, Joules(190.0));
        assert_eq!(a.power, Watts(390.0));
        assert_eq!(a.cap, Watts(420.0));
        assert_eq!(a.timestamp, Seconds(5.5));
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn aggregate_empty_panics() {
        AgentTree::aggregate([]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_tree_rejected() {
        AgentTree::balanced(0);
    }
}
