//! Scenario runners for every figure in the paper's evaluation.
//!
//! Each submodule regenerates one figure of Section 6 and returns
//! structured data; the `anor-bench` `fig*` binaries print it with
//! [`crate::render`]. The paper has no numbered tables; Figs. 1–2 are
//! architecture diagrams; Figs. 3–11 are reproduced here.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig3`]  | Execution time vs power cap per job type |
//! | [`fig4`]  | Estimated slowdown under shared budgets, two budgeters |
//! | [`fig5`]  | Misclassified-job slowdown, 4 quadrants |
//! | [`hw`] + [`fig6`]/[`fig7`]/[`fig8`] | Measured slowdown under a shared 840 W budget on the emulated 16-node cluster |
//! | [`fig9`]  | 1-hour time-varying power-target tracking |
//! | [`fig10`] | Mean slowdown per type under 4 capping policies |
//! | [`fig11`] | 90th-percentile QoS degradation vs performance variation |

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hw;
