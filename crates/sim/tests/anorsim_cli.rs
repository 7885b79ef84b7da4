//! Process-level test of the `anorsim` CLI: runs a small simulation and
//! checks the summary, history CSV and table dumps it produces.

use std::process::Command;

#[test]
fn anorsim_produces_summary_history_and_tables() {
    let dir = std::env::temp_dir().join(format!("anorsim-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let history = dir.join("history.csv");
    let tables = dir.join("tables.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_anorsim"))
        .args([
            "--nodes",
            "80",
            "--utilization",
            "0.6",
            "--horizon-secs",
            "900",
            "--variation-pct",
            "10",
            "--policy",
            "even-slowdown",
            "--history",
            history.to_str().unwrap(),
            "--tables",
            tables.to_str().unwrap(),
            "--tables-every",
            "300",
        ])
        .output()
        .expect("run anorsim");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed"), "{stdout}");
    assert!(stdout.contains("tracking:"), "{stdout}");
    assert!(stdout.contains("qos[all]"), "{stdout}");
    // History CSV: header + one row per tick over the whole run.
    let h = std::fs::read_to_string(&history).unwrap();
    assert!(
        h.lines().count() > 900,
        "history rows: {}",
        h.lines().count()
    );
    assert!(h.starts_with("time_s,target_w"));
    // Table dumps: 80 NODE lines per dump, 3 dumps within the horizon.
    let t = std::fs::read_to_string(&tables).unwrap();
    let node_lines = t.lines().filter(|l| l.starts_with("NODE")).count();
    assert_eq!(node_lines % 80, 0, "node lines {node_lines}");
    assert!(node_lines >= 240, "node lines {node_lines}");
    assert!(t.lines().any(|l| l.starts_with("JOB")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn anorsim_rejects_bad_policy() {
    let out = Command::new(env!("CARGO_BIN_EXE_anorsim"))
        .args(["--nodes", "40", "--policy", "nonsense"])
        .output()
        .expect("run anorsim");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
}

#[test]
fn anorsim_rejects_out_of_range_numbers_as_config_errors() {
    for (opt, value) in [
        ("--nodes", "0"),
        ("--nodes", "1"), // smaller than a two-node job
        ("--utilization", "-1"),
        ("--utilization", "1.5"),
        ("--utilization", "nan"),
        ("--horizon-secs", "inf"),
        ("--horizon-secs", "nan"),
        ("--horizon-secs", "-5"),
        ("--horizon-secs", "0"),
        ("--variation-pct", "-5"),
        ("--variation-pct", "nan"),
        ("--variation-pct", "inf"),
        ("--avg-watts", "nan"),
        ("--avg-watts", "0"),
        ("--reserve-watts", "-100"),
        ("--tables-every", "0"),
        ("--history-cap", "x"),
        ("--histroy", "x.csv"),  // misspelt: refused, not ignored
        ("--history", "--seed"), // the path is missing
    ] {
        // A small, short run, so a value that slipped through would
        // still finish quickly and fail the assertions below. Every
        // refusal comes before the run writes anything.
        let tables = std::env::temp_dir().join(format!("anorsim-refused-{}", std::process::id()));
        let mut args = vec!["--nodes", "40", "--horizon-secs", "60"];
        args.extend(["--tables", tables.to_str().unwrap()]);
        match args.iter().position(|a| *a == opt) {
            Some(i) => args[i + 1] = value,
            None => args.extend([opt, value]),
        }
        let out = Command::new(env!("CARGO_BIN_EXE_anorsim"))
            .args(&args)
            .output()
            .expect("run anorsim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{opt} {value}: {stderr}");
        assert!(stderr.contains("config error"), "{opt} {value}: {stderr}");
        assert!(stderr.contains(opt), "{opt} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{opt} {value}: {stderr}");
        assert!(!tables.exists(), "{opt} {value}: the run started");
    }
}

#[test]
fn refused_anorsim_creates_no_sink() {
    let base = std::env::temp_dir().join(format!("anorsim-sinks-{}", std::process::id()));
    let telemetry = base.join("telemetry");
    let trace = base.join("trace");
    let out = Command::new(env!("CARGO_BIN_EXE_anorsim"))
        .args(["--nodes", "64", "--horizon-secs", "300", "--telemetry"])
        .arg(&telemetry)
        .arg("--trace")
        .arg(&trace)
        .arg("--no-such-option")
        .output()
        .expect("run anorsim");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("--no-such-option"), "{err}");
    assert!(!base.exists(), "anorsim created {}", base.display());
}
