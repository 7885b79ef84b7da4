//! Process-level checks of the figure binaries' and perfsuite's command
//! lines: an option a binary does not read, or a value it cannot use, is
//! an error (exit 2, the option named on stderr) before the run starts.

use std::process::Command;

#[test]
fn unread_options_and_unusable_values_exit_2_before_the_run() {
    let dir = std::env::temp_dir().join(format!("figure-cli-{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    for (bin, args, named) in [
        (env!("CARGO_BIN_EXE_fig3"), &["--jobs", "2"][..], "--jobs"),
        (
            env!("CARGO_BIN_EXE_fig5"),
            &["--telemetry", dir][..],
            "--telemetry",
        ),
        (
            env!("CARGO_BIN_EXE_perfsuite"),
            &["--runs", "two"][..],
            "--runs",
        ),
        (
            env!("CARGO_BIN_EXE_perfsuite"),
            &["--runs", "0"][..],
            "--runs",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("run binary");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
        assert!(err.contains(named), "{bin} {args:?}: {err}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} started: {out:?}");
    }
    assert!(!std::path::Path::new(dir).exists(), "fig5 opened {dir}");
}

#[test]
fn refused_commands_create_no_sink_or_recording() {
    let base = std::env::temp_dir().join(format!("figure-cli-sinks-{}", std::process::id()));
    let path = |name: &str| base.join(name).to_str().unwrap().to_string();
    let (telemetry, trace, record) = (path("telemetry"), path("trace"), path("record"));
    let sinks = [
        "--telemetry",
        &telemetry,
        "--trace",
        &trace,
        "--no-such-option",
    ];
    let recorded = [&sinks[..], &["--record", &record]].concat();
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig4"), &sinks[..]),
        (env!("CARGO_BIN_EXE_fig6"), &recorded[..]),
        (env!("CARGO_BIN_EXE_fig9"), &sinks[..]),
        (env!("CARGO_BIN_EXE_fig10"), &recorded[..]),
        (env!("CARGO_BIN_EXE_fig11"), &sinks[..]),
    ] {
        let out = Command::new(bin).args(args).output().expect("run binary");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
        assert!(err.contains("--no-such-option"), "{bin} {args:?}: {err}");
        assert!(!base.exists(), "{bin} {args:?} created {}", base.display());
    }
}
