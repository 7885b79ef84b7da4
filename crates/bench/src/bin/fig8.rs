//! Regenerates Fig. 8: two SP instances under the shared 840 W budget,
//! one potentially misclassified as EP.

use anor_bench::{run_hw_figure, scaled};
use anor_core::experiments::fig8;

fn main() {
    run_hw_figure(
        "Fig. 8",
        "Measured slowdown (%) of two SP instances (one possibly = EP)",
        fig8::run,
        scaled(6, 1),
        8,
        "paper anchors: slowdowns stay small (low-sensitivity pair); the\n\
         misclassified instance's sibling sees a small slowdown; feedback\n\
         recovers part of it.",
    );
}
