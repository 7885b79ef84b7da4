#![warn(missing_docs)]
//! # ANOR — an end-to-end HPC framework for dynamic power objectives
//!
//! A Rust implementation of the multi-tiered, feedback-driven power
//! management framework of *"An End-to-End HPC Framework for Dynamic
//! Power Objectives"* (Wilson et al., SC-W 2023): a **cluster tier**
//! (demand-response bidder, weighted-queue scheduler, power budgeter)
//! distributes a time-varying cluster power target to a **job tier**
//! (one power-modeling endpoint process per job driving a GEOPM-style
//! runtime) and folds online performance feedback back into its
//! decisions, recovering the performance lost to job-type
//! misclassification.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`types`] | `anor-types` | units, ids, power curves, job-type catalog, QoS math, wire messages |
//! | [`platform`] | `anor-platform` | simulated dual-socket nodes: MSR file, RAPL domains, synthetic NPB workloads |
//! | [`geopm`] | `anor-geopm` | signals/controls, power-governor agent, agent tree, endpoint interface |
//! | [`model`] | `anor-model` | quadratic power-performance fitting, epoch windows, the retrain state machine |
//! | [`policy`] | `anor-policy` | uniform / even-power / even-slowdown budgeters, misclassification scenarios |
//! | [`aqa`] | `anor-aqa` | regulation signals, tracking error, hourly bidding, weighted queues, Poisson schedules |
//! | [`cluster`] | `anor-cluster` | the TCP budgeter daemon, job endpoints and the emulated 16-node cluster |
//! | [`sim`] | `anor-sim` | the tabular 1000-node cluster simulator |
//! | [`telemetry`] | `anor-telemetry` | metrics, causal tracing, flight recording and the live ops endpoint |
//! | [`experiments`] | `anor-core` | scenario runners regenerating Figs. 3–11 of the paper |
//! | [`bidding`], [`training`] | `anor-core` | the hourly bid search and AQA queue-weight training, judged on the simulator |
//! | [`render`] | `anor-core` | the text tables and bar charts the figure binaries print |
//!
//! ## Quickstart
//!
//! Run two jobs with opposite power sensitivity under a shared budget
//! and watch the performance-aware budgeter steer power to the job that
//! needs it:
//!
//! ```
//! use anor::cluster::{BudgetPolicy, EmulatedCluster, EmulatorConfig, JobSetup};
//! use anor::types::Watts;
//!
//! let cluster = EmulatedCluster::new(EmulatorConfig::paper(
//!     BudgetPolicy::EvenSlowdown,
//!     /* feedback = */ false,
//! ));
//! let report = cluster
//!     .run_static(
//!         &[JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")],
//!         Watts(840.0), // 75% of TDP over 4 nodes
//!     )
//!     .unwrap();
//! let bt = report.mean_slowdown("bt.D.81").unwrap();
//! let sp = report.mean_slowdown("sp.D.81").unwrap();
//! assert!(bt < 1.5 && sp < 1.5);
//! ```
//!
//! See `examples/` for demand-response tracking, misclassification
//! recovery, the 1000-node simulator and the head-node file formats.

pub use anor_core::bidding;
pub use anor_core::experiments;
pub use anor_core::render;
pub use anor_core::training;

pub use anor_aqa as aqa;
pub use anor_cluster as cluster;
pub use anor_geopm as geopm;
pub use anor_model as model;
pub use anor_platform as platform;
pub use anor_policy as policy;
pub use anor_sim as sim;
pub use anor_telemetry as telemetry;
pub use anor_types as types;
