//! Regenerates Fig. 6: BT + SP co-scheduled under a shared 840 W budget
//! (75% of TDP over 4 nodes), six budgeter configurations, measured on
//! the emulated cluster.

use anor_bench::{run_hw_figure, scaled};
use anor_core::experiments::fig6;

fn main() {
    run_hw_figure(
        "Fig. 6",
        "Measured slowdown (%) of BT and SP under a shared 840 W budget",
        fig6::run,
        scaled(3, 1),
        6,
        "paper anchors: BT degrades when misclassified (either direction);\n\
         feedback recovers most of the loss in both cases.",
    );
}
