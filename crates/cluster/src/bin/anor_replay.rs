//! `anor-replay` — offline replay, verification and diffing of budgeter
//! flight recordings.
//!
//! ```text
//! anor-replay --rec run/anord.rec                 # replay, print summary
//! anor-replay --rec run/anord.rec --verify        # byte-exact decision check
//! anor-replay --rec a.rec --diff b.rec            # first-divergence report
//! anor-replay --rec run/anord.rec --until 40      # stop at pump 40, dump JSON
//! ```
//!
//! `--rec` accepts a recording file or a directory containing exactly one
//! `.rec` file (the `--record <dir>` layout of `anord` and the figure
//! runners). Replay reconstructs the budgeter from the recording header's
//! config string and re-runs every control pass through the real decode,
//! lease and budget code paths under a virtual clock; the continuous
//! invariant auditor runs on every replayed pump exactly as it does live.
//!
//! Exit status: 0 on success; 1 when `--verify` finds a divergence or any
//! invariant violation, or when `--diff` finds the recordings diverging.

use anor_cluster::{diff_recordings, replay, ReplayOptions};
use anor_telemetry::read_recording;
use anor_types::Args;
use std::path::PathBuf;

fn main() {
    match run() {
        Ok(clean) => std::process::exit(if clean { 0 } else { 1 }),
        Err(e) => {
            eprintln!("anor-replay: {e}");
            std::process::exit(2);
        }
    }
}

/// Locate the recording: a `.rec` file directly, or the single `.rec`
/// inside a `--record` output directory.
fn resolve_recording(path: &str) -> Result<PathBuf, String> {
    let p = PathBuf::from(path);
    if !p.is_dir() {
        return Ok(p);
    }
    let entries = std::fs::read_dir(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    let mut recs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|q| q.extension().is_some_and(|x| x == "rec"))
        .collect();
    recs.sort();
    match recs.len() {
        0 => Err(format!("no .rec file in {}", p.display())),
        1 => Ok(recs.swap_remove(0)),
        n => Err(format!(
            "{n} .rec files in {}; pass one explicitly (first: {})",
            p.display(),
            recs.first()
                .map_or_else(String::new, |q| q.display().to_string()),
        )),
    }
}

fn run() -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::from_env()?;
    let rec_path = resolve_recording(args.required("rec")?)?;
    let rec = read_recording(&rec_path)?;
    println!(
        "anor-replay: {} — role {}, seed {}, segment {}, {} event(s), built by {} ({})",
        rec_path.display(),
        rec.header.role,
        rec.header.seed,
        rec.header.segment,
        rec.events.len(),
        rec.header.build_version,
        rec.header.git_hash,
    );
    if rec.unknown_skipped > 0 {
        println!(
            "anor-replay: skipped {} record(s) with unknown tags (newer writer?)",
            rec.unknown_skipped
        );
    }

    if let Some(other) = args.get("diff") {
        args.finish()?;
        let other_path = resolve_recording(other)?;
        let second = read_recording(&other_path)?;
        let d = diff_recordings(&rec, &second);
        for note in &d.notes {
            println!("anor-replay: header differs — {note}");
        }
        return match d.first_divergence {
            None => {
                println!(
                    "anor-replay: no divergence across {} event(s)",
                    d.events_a.min(d.events_b)
                );
                Ok(true)
            }
            Some(div) => {
                println!(
                    "anor-replay: FIRST DIVERGENCE at event {} (pump {}):",
                    div.index, div.pump
                );
                println!("  {}:\n    {}", rec_path.display(), div.expected);
                println!("  {}:\n    {}", other_path.display(), div.actual);
                Ok(false)
            }
        };
    }

    let opts = ReplayOptions {
        verify: args.flag("verify"),
        until: match args.get("until") {
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| format!("--until: bad pump `{v}`"))?,
            ),
            None => None,
        },
    };
    args.finish()?;
    let out = replay(&rec, &opts)?;
    println!(
        "anor-replay: replayed {} pump(s), {} decision(s) {}, {} invariant violation(s), \
         recorded wall time {:.3}s",
        out.pumps_replayed,
        out.decisions_checked,
        if opts.verify { "verified" } else { "captured" },
        out.invariant_violations,
        out.recorded_wall_s,
    );
    if opts.until.is_some() {
        // The --until contract: dump the reconstructed state as JSON.
        println!("{}", out.snapshot.to_json());
    }
    if let Some(div) = &out.first_divergence {
        println!(
            "anor-replay: VERIFY FAILED at pump {} decision {}:",
            div.pump, div.index
        );
        println!("  recorded: {}", div.expected);
        println!("  replayed: {}", div.actual);
        return Ok(false);
    }
    if opts.verify && out.invariant_violations > 0 {
        println!(
            "anor-replay: VERIFY FAILED — {} invariant violation(s) during replay",
            out.invariant_violations
        );
        return Ok(false);
    }
    if opts.verify {
        println!("anor-replay: verify OK — decisions byte-identical, zero invariant violations");
    }
    Ok(true)
}
