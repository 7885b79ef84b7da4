//! Process-level integration test: spawn the real `anord` daemon and two
//! real `anor-job` processes as separate OS processes talking TCP on
//! localhost — the deployment shape of the paper's Fig. 2.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn wait_with_timeout(child: &mut Child, timeout: Duration) -> Option<std::process::ExitStatus> {
    let start = Instant::now();
    loop {
        if let Ok(Some(status)) = child.try_wait() {
            return Some(status);
        }
        if start.elapsed() > timeout {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn daemon_and_two_job_processes_complete_a_shared_budget_run() {
    // 1. Start the daemon on an ephemeral port; it prints its address.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_anord"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--policy",
            "even-slowdown",
            "--budget",
            "840",
            "--expect-jobs",
            "2",
            "--duration-secs",
            "120",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn anord");
    let stdout = daemon.stdout.take().expect("daemon stdout piped");
    let mut daemon = KillOnDrop(daemon);
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read daemon banner");
    let addr = first
        .trim()
        .strip_prefix("anord listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first:?}"))
        .to_string();

    // 2. Launch two short jobs against it (IS pair: ~20 s virtual each,
    // replayed at 400x).
    let spawn_job = |id: &str, seed: &str| -> KillOnDrop {
        KillOnDrop(
            Command::new(env!("CARGO_BIN_EXE_anor-job"))
                .args([
                    "--connect",
                    &addr,
                    "--job-id",
                    id,
                    "--type",
                    "is.D.32",
                    "--seed",
                    seed,
                    "--speedup",
                    "400",
                    "--tick-ms",
                    "2",
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn anor-job"),
        )
    };
    let mut job1 = spawn_job("1", "11");
    let mut job2 = spawn_job("2", "22");

    // 3. Jobs exit successfully and print GEOPM-style reports.
    for job in [&mut job1, &mut job2] {
        let status =
            wait_with_timeout(&mut job.0, Duration::from_secs(60)).expect("job process timed out");
        assert!(status.success(), "job exited with {status}");
    }
    for job in [job1, job2] {
        let mut out = String::new();
        let mut child = job;
        use std::io::Read;
        child
            .0
            .stdout
            .take()
            .expect("job stdout piped")
            .read_to_string(&mut out)
            .unwrap();
        assert!(out.contains("Application Totals"), "report missing: {out}");
        assert!(out.contains("epoch-count: 40"), "bad epoch count: {out}");
    }

    // 4. The daemon saw both Done messages and exits on its own.
    let status = wait_with_timeout(&mut daemon.0, Duration::from_secs(60))
        .expect("daemon did not exit after jobs completed");
    assert!(status.success(), "daemon exited with {status}");
    let mut rest = String::new();
    use std::io::Read;
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("job-1 done"), "daemon log: {rest}");
    assert!(rest.contains("job-2 done"), "daemon log: {rest}");
    assert!(rest.contains("all 2 expected jobs completed"));
}

#[test]
fn daemon_rejects_bad_configuration() {
    // No budget and no targets file: immediate configuration error.
    let out = Command::new(env!("CARGO_BIN_EXE_anord"))
        .args(["--listen", "127.0.0.1:0"])
        .output()
        .expect("run anord");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--budget"), "stderr: {err}");
}

#[test]
fn daemons_refuse_options_they_do_not_read() {
    let anord = [
        "--listen",
        "127.0.0.1:0",
        "--budget",
        "400",
        "--duration-secs",
        "0.3",
        "--queue-depth",
        "8",
    ];
    let job = ["--connect", "127.0.0.1:1", "--type", "is.D.32", "--bogus"];
    for (bin, args, unread) in [
        (env!("CARGO_BIN_EXE_anord"), &anord[..], "--queue-depth"),
        (env!("CARGO_BIN_EXE_anor-job"), &job[..], "--bogus"),
    ] {
        let out = Command::new(bin).args(args).output().expect("run daemon");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin} accepted {args:?}");
        assert!(err.contains(unread), "{bin}: {err}");
        // Refused before it bound or connected anything.
        assert!(out.stdout.is_empty(), "{bin} started: {out:?}");
    }
}

#[test]
fn job_rejects_unknown_type() {
    let out = Command::new(env!("CARGO_BIN_EXE_anor-job"))
        .args([
            "--connect",
            "127.0.0.1:1", // never reached; type check comes first? No —
            // connect comes first, so use an unreachable port to check
            // the error path either way.
            "--type",
            "nosuch.Z.9",
        ])
        .output()
        .expect("run anor-job");
    assert!(!out.status.success());
}

#[test]
fn daemon_follows_a_targets_file_ladder() {
    // Write a power-target ladder the daemon will walk through.
    let dir = std::env::temp_dir().join(format!("anord-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let targets = dir.join("targets.txt");
    std::fs::write(&targets, "# time_s target_w\n0.0 840.0\n2.0 700.0\n").unwrap();
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_anord"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--targets",
            targets.to_str().unwrap(),
            "--expect-jobs",
            "1",
            "--duration-secs",
            "60",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn anord");
    let stdout = daemon.stdout.take().unwrap();
    let mut daemon = KillOnDrop(daemon);
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    let addr = first
        .trim()
        .strip_prefix("anord listening on ")
        .unwrap()
        .to_string();
    let mut job = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_anor-job"))
            .args([
                "--connect",
                &addr,
                "--job-id",
                "1",
                "--type",
                "is.D.32",
                "--speedup",
                "400",
                "--tick-ms",
                "2",
            ])
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn anor-job"),
    );
    let status = wait_with_timeout(&mut job.0, Duration::from_secs(60)).expect("job timed out");
    assert!(status.success());
    let status =
        wait_with_timeout(&mut daemon.0, Duration::from_secs(60)).expect("daemon timed out");
    assert!(status.success());
    std::fs::remove_dir_all(&dir).ok();
}
