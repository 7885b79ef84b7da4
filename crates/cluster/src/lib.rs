#![warn(missing_docs)]
// Hot-path crates must not panic while a power cap is in force: clippy
// enforces what `anor-lint` checks structurally. Test code is exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! # anor-cluster
//!
//! The end-to-end ANOR implementation for demand response (paper
//! Section 4, Fig. 2): "A single cluster-tier process communicates over
//! TCP with one job-tier power-modeling process per job, sending down
//! power budgets and receiving power models. The power-modeling process
//! sends power budgets to one GEOPM agent instance per job, over shared
//! memory, and receives performance metrics back from the agent."
//!
//! * [`codec`] — non-blocking framed streams over the
//!   `anor-types::msg` wire protocol, on a TCP or an in-process link;
//! * [`budgeter`] — the head-node cluster power budgeter daemon: accepts
//!   job connections, tracks believed job views (an unknown type name is
//!   believed to be the least power-sensitive type), holds each job's
//!   watts on a lease across disconnects, redistributes the busy power
//!   budget on every control pass, and (when feedback is enabled) folds
//!   received `Model` messages back into its views;
//! * [`endpoint`] — the per-job job-tier process bridging the GEOPM
//!   endpoint to the budgeter over TCP (in-process inside the emulator),
//!   running the power modeler;
//! * [`session`] — the fault-tolerance layer: deterministic reconnect
//!   backoff ([`RetryPolicy`]), session state ([`SessionState`]), and
//!   the seeded chaos-injection schedule ([`FaultPlan`]);
//! * [`status`] — the live ops surface: the budgeter publishes a
//!   [`StatusSnapshot`] each control pass into a [`StatusBoard`] that the
//!   introspection endpoint serves as `GET /status` JSON (read it back
//!   with `anor_telemetry::json`);
//! * [`replay`](mod@replay) — re-runs a budgeter's live pump over a
//!   flight recording, with byte-exact decision verification
//!   (`anor-replay --verify`) and first-divergence diffing;
//! * [`emulator`] — a 16-node emulated cluster harness that wires
//!   simulated nodes, GEOPM runtimes, endpoint processes and the budgeter
//!   daemon together over in-process links under a virtual clock (the
//!   real-hardware substitution documented in DESIGN.md);
//! * [`transport`] — the connection plane behind the budgeter: a
//!   [`Transport`] seam with three planes. The blocking sweep
//!   ([`BlockingTransport`]) and the sharded reactor
//!   ([`ReactorTransport`]) accept from a TCP or an in-process
//!   [`Listener`] that endpoints reach through an [`Addr`], with
//!   byte-identical decision streams; replay's plane serves a recording;
//! * [`load`] — the `anor-load` synthetic-endpoint harness: N endpoints
//!   × reconnect storms × fault specs against a live budgeter.

pub mod budgeter;
pub mod cli;
pub mod codec;
pub mod emulator;
pub mod endpoint;
pub mod load;
pub mod replay;
pub mod session;
pub mod status;
pub mod transport;

pub use budgeter::{BudgetPolicy, BudgeterBuilder, BudgeterConfig, ClusterBudgeter, LeaseConfig};
pub use cli::Args;
pub use codec::{FramedStream, StreamOptions, TransportMetrics};
pub use emulator::{EmulatedCluster, EmulatorConfig, JobResult, JobSetup, RunReport};
pub use endpoint::{EndpointBuilder, JobEndpoint};
pub use load::{run_load, LoadConfig, LoadReport};
pub use replay::{
    describe_config, diff_recordings, parse_config, recorder_meta, replay, Divergence,
    RecordingDiff, ReplayOptions, ReplayOutcome,
};
pub use session::{FaultKind, FaultPlan, FaultSpec, RetryPolicy, SessionState};
pub use status::{JobStatus, PhaseStat, StatusBoard, StatusSnapshot};
pub use transport::{
    Addr, BlockingTransport, ConnId, ConnSlab, Listener, ReactorTransport, Transport,
    TransportKind, TransportOptions,
};
