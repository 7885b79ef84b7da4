//! Runs the design-choice ablations DESIGN.md calls out and prints the
//! recovery achieved under each knob setting (perfsuite's
//! `model_retrain` row measures the *cost* of a retrain at the paper's
//! setting).

use anor_bench::{args, header, or_exit};
use anor_core::experiments::ablation;

fn main() {
    or_exit(args().finish());
    header(
        "Ablations",
        "Misclassification-recovery fraction vs modeler design knobs",
    );
    println!("retrain threshold (paper: 10 new epochs):");
    println!(
        "{:>10} {:>16} {:>10}",
        "epochs", "bt_slowdown_%", "recovery"
    );
    for p in ablation::retrain_threshold(&[5, 10, 20, 40], 42).expect("runs failed") {
        println!(
            "{:>10.0} {:>16.2} {:>10.2}",
            p.value, p.bt_slowdown_pct, p.recovery
        );
    }
    println!();
    println!("dither amplitude (fraction of the 140 W cap span; paper impl: 0.05):");
    println!(
        "{:>10} {:>16} {:>10}",
        "fraction", "bt_slowdown_%", "recovery"
    );
    for p in ablation::dither_amplitude(&[0.0, 0.02, 0.05, 0.10], 42).expect("runs failed") {
        println!(
            "{:>10.2} {:>16.2} {:>10.2}",
            p.value, p.bt_slowdown_pct, p.recovery
        );
    }
    println!(
        "\nreading: recovery 1.0 = feedback returns BT to the fully\n\
         characterized slowdown; 0.0 = no better than no feedback."
    );
}
