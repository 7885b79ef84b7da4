#![warn(missing_docs)]
//! # anor-types
//!
//! Shared vocabulary for the ANOR (Attach Nested-Objective Runtimes)
//! multi-tiered power-management framework, a reproduction of
//! *"An End-to-End HPC Framework for Dynamic Power Objectives"*
//! (Wilson et al., SC-W 2023).
//!
//! Every other crate in the workspace builds on the types defined here:
//!
//! * [`units`] — strongly-typed watts / joules / seconds arithmetic;
//! * [`ids`] — job, node and package identifiers;
//! * [`curve`] — the quadratic power-performance model `T(P) = A·P² + B·P + C`
//!   that both tiers exchange;
//! * [`jobtype`] / [`catalog`] — descriptors for the NAS-Parallel-Benchmark
//!   shaped synthetic job types used throughout the paper's evaluation;
//! * [`qos`] — the sojourn-time QoS degradation metric `Q = (T_so − T_min)/T_min`;
//! * [`stats`] — small statistics helpers (Welford accumulators, percentiles,
//!   Box–Muller normal and Poisson-process sampling) so the workspace does
//!   not need `rand_distr`;
//! * [`msg`] — the cluster-tier ↔ job-tier wire protocol message types;
//! * [`error`] — the shared error enum;
//! * [`cli`] — [`Args`], the one command-line parser every binary uses;
//!   it refuses any option the binary did not read ([`Args::finish`]).

pub mod catalog;
pub mod cli;
pub mod curve;
pub mod error;
pub mod ids;
pub mod jobtype;
pub mod msg;
pub mod qos;
pub mod stats;
pub mod units;

pub use catalog::{standard_catalog, Catalog};
pub use cli::Args;
pub use curve::{CapRange, PowerCurve};
pub use error::AnorError;
pub use ids::{JobId, NodeId, PackageId};
pub use jobtype::{JobTypeId, JobTypeSpec, SensitivityClass};
pub use msg::{ClusterToJob, JobToCluster};
pub use qos::{QosConstraint, QosDegradation};
pub use units::{Joules, Seconds, Watts};

/// Convenient `Result` alias used across the workspace.
pub type Result<T> = std::result::Result<T, AnorError>;
