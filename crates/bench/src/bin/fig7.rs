//! Regenerates Fig. 7: two BT instances under the shared 840 W budget,
//! one potentially misclassified as IS.

use anor_bench::{run_hw_figure, scaled};
use anor_core::experiments::fig7;

fn main() {
    run_hw_figure(
        "Fig. 7",
        "Measured slowdown (%) of two BT instances (one possibly = IS)",
        fig7::run,
        scaled(3, 1),
        7,
        "paper anchors: with identical job types, agnostic ≈ precharacterized;\n\
         misclassifying one instance slows it; feedback recovers.",
    );
}
