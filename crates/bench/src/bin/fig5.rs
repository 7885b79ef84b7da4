//! Regenerates Fig. 5: performance impact when a medium-sensitivity job
//! is misclassified, across under/over-prediction and small/large
//! unknown-job quadrants.

use anor_bench::{args, header, or_exit};
use anor_core::experiments::fig5;
use anor_core::render::render_table;

fn main() {
    or_exit(args().finish());
    header(
        "Fig. 5",
        "Slowdown (%) vs cluster budget when FT is misclassified (4 quadrants)",
    );
    for q in fig5::run() {
        let title = format!(
            "{} sensitivity of {} job",
            match q.direction {
                fig5::Direction::Underpredict => "Underpredict",
                fig5::Direction::Overpredict => "Overpredict",
            },
            match q.size {
                fig5::UnknownSize::Small => "small (2-node) unknown",
                fig5::UnknownSize::Large => "large (8-node) unknown",
            }
        );
        println!("{}", render_table(&title, "budget_w", &q.series));
    }
    println!(
        "paper anchors: under-prediction slows the unknown job; over-prediction\n\
         slows the sensitive co-scheduled job; impact grows with the relative\n\
         size of the misclassified job."
    );
}
