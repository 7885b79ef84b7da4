#![warn(missing_docs)]
//! # anor-policy
//!
//! Cluster-tier power-budgeting policies (paper Sections 4.1, 4.4.3).
//!
//! A *power budgeter* decides how a cluster-wide power budget is split
//! into per-node power caps for the currently running jobs. The paper
//! evaluates:
//!
//! * a **uniform** baseline — the same cap on every active node (AQA's
//!   rule: "power caps are applied uniformly across active nodes");
//! * the **performance-unaware (even power caps)** balancer — one γ scales
//!   every job between its achievable min and max power:
//!   `p_cap = γ·(p_max − p_min) + p_min`;
//! * the **performance-aware (even slowdown)** balancer — one expected
//!   slowdown `s` is applied to every job through its power model:
//!   `p_cap = P_j(s·T_j(p_max))`, with saturation at the platform's
//!   minimum cap (the "level off" of Section 6.1.1).
//!
//! [`BudgetPolicy`] is the one table of these policies, plus the
//! QoS-feedback variant of Section 6.4 that exempts at-risk jobs: the
//! daemon, the simulator, the experiments and every CLI select from it,
//! and [`BudgetPolicy::assign`] dispatches to the [`Budgeter`] impls.
//!
//! [`misclassify`] builds the Fig. 5/6 scenarios in which the budgeter's
//! *believed* model for a job differs from its true behaviour, and
//! evaluates the resulting slowdowns against ground truth.

pub mod budgeter;
pub mod facility;
pub mod job_view;
pub mod misclassify;
pub mod policy;
pub mod slowdown;

pub use budgeter::{Budgeter, EvenPowerBudgeter, EvenSlowdownBudgeter, UniformBudgeter};
pub use facility::{ClusterView, FacilityBudgeter};
pub use job_view::JobView;
pub use misclassify::{MisclassifyScenario, ScenarioOutcome};
pub use policy::BudgetPolicy;
pub use slowdown::{slowdown_under_cap, slowdowns_under_caps};
