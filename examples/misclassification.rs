//! Misclassification and recovery: run BT labelled as IS (its power
//! sensitivity under-predicted) next to SP, with and without job-tier
//! feedback — the Fig. 6 story in miniature.
//!
//! ```text
//! cargo run --release --example misclassification
//! ```

use anor::cluster::{BudgetPolicy, EmulatedCluster, EmulatorConfig, JobSetup};
use anor::types::Watts;

fn run(label: &str, jobs: &[JobSetup], feedback: bool) -> f64 {
    let cluster = EmulatedCluster::new(EmulatorConfig::paper(BudgetPolicy::EvenSlowdown, feedback));
    let report = cluster.run_static(jobs, Watts(840.0)).expect("run failed");
    let bt = (report.mean_slowdown("bt.D.81").unwrap() - 1.0) * 100.0;
    println!("{label:<42} BT slowdown {bt:>5.1}%");
    bt
}

fn main() {
    println!("BT + SP under a shared 840 W budget (even-slowdown budgeter)\n");
    let known = [JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")];
    let mislabeled = [
        JobSetup::misclassified("bt.D.81", "is.D.32"),
        JobSetup::known("sp.D.81"),
    ];
    let ideal = run("correctly classified", &known, false);
    let hurt = run("BT misclassified as IS (no feedback)", &mislabeled, false);
    let fixed = run("BT misclassified as IS (with feedback)", &mislabeled, true);
    println!();
    println!(
        "misclassification cost {:.1} points of slowdown; online epoch\n\
         feedback recovered {:.0}% of it.",
        hurt - ideal,
        ((hurt - fixed) / (hurt - ideal).max(1e-9) * 100.0).clamp(0.0, 100.0)
    );
    println!(
        "\nHow it works: the job-tier modeler watches epoch completion times\n\
         under (slightly dithered) caps, refits T = A*P^2 + B*P + C after 10\n\
         new epochs, and pushes the model up to the cluster budgeter, which\n\
         re-balances the shared budget."
    );
}
