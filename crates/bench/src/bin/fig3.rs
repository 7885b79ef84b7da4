//! Regenerates Fig. 3: execution time of each job type under varied
//! power caps, relative to the 280 W time; σ over repeated runs.

use anor_bench::{args, header, or_exit, scaled};
use anor_core::experiments::fig3;
use anor_core::render::render_table;

fn main() {
    or_exit(args().finish());
    header(
        "Fig. 3",
        "Relative execution time vs node power cap (error = σ over runs)",
    );
    let runs = scaled(10, 3);
    let series = fig3::run(runs, 3);
    println!("{}", render_table("relative time vs cap", "cap_w", &series));
    // Paper anchor: curves span 1.0 at 280 W up to ~1.8 at 140 W, with
    // EP/BT/LU/FT steep and IS/SP/MG/CG shallow.
    let at140: Vec<(String, f64)> = series
        .iter()
        .map(|s| (s.label.clone(), s.y_at(140.0).unwrap_or(f64::NAN)))
        .collect();
    println!("slowest-cap relative times (paper: up to ~1.8):");
    for (name, y) in at140 {
        println!("  {name:>8}: {y:.3}");
    }
}
