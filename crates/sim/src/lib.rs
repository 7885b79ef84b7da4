#![warn(missing_docs)]
//! # anor-sim
//!
//! The tabular cluster simulator of paper Section 5.6: "The simulator is
//! implemented as a collection of tables that store the current state of
//! nodes and jobs in the cluster... Each simulated second, the simulator
//! updates the state of the node table, then updates the view of the
//! cluster seen by the job scheduler and power manager, then schedules
//! jobs and caps power... Lastly, before starting the next iteration, we
//! append the current state of all tables to a file."
//!
//! It simulates a 1000-node cluster in demand-response scenarios with
//! per-node performance variation (Section 6.4 / Fig. 11):
//!
//! * [`table`] — the node table (idle/job, power, cap, progress) and job
//!   table (queue/start/end timestamps);
//! * [`sim`] — the event-driven engine behind the per-second update
//!   loop: node update → cluster view → schedule + cap → history append,
//!   with each stage memoized between events;
//! * [`event`] — the typed discrete-event queue (completions, arrivals,
//!   re-cap boundaries, admission retries) that paces the engine;
//! * [`history`] — the end-of-tick table appender.
//!
//! Power capping selects from [`anor_policy::BudgetPolicy`], the policy
//! table the head-node daemon shares; the simulator alone projects the
//! at-risk flags its `even-slowdown+qos` variant reads.

pub mod event;
pub mod history;
pub mod sim;
pub mod table;

pub use event::{Event, EventQueue};
pub use history::{dump_tables, write_history_csv, HistoryRow};
pub use sim::{SimConfig, SimOutcome, TabularSim};
pub use table::{crossing_ticks, progress_at, state_hash, JobRow, JobTable, NodeRow, NodeTable};

/// The name this table had before it moved into `anor-policy`, kept
/// while the benchmark under `repobench/` still compiles against it.
pub use anor_policy::BudgetPolicy as SimPowerPolicy;
