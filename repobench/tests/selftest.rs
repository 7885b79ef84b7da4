//! Self-tests of the benchmark: small-scale runs of every workload pass
//! their gates, the fleet generator is deterministic, the metric names
//! the benchmark prints match `BENCHMARK.json`, and a wrong golden value
//! trips the gate. Run with `cargo test --release`.

use repobench::fleet::{generate, FleetSpec};
use repobench::harness::{check_goldens, out_dir, Outcome};
use repobench::{run_workload, Opts, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn small(workload: &str, trace: bool) -> Outcome {
    run_workload(workload, &Opts::new(3, 0, trace), Scale::Small).expect("a known workload")
}

#[test]
fn small_runs_pass_the_gate_and_report_every_metric() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = small(workload, trace);
            assert!(out.correct(), "{workload} trace={trace}: {:?}", out.gate);
            assert!(out.attempted > 0, "{workload} attempted nothing");
            let table = if trace { PER_LAYER } else { END_TO_END };
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(names, want, "{workload} trace={trace}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{workload}: {} is 0", m.name);
                }
            }
            let line = out.result_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn fleet_generator_is_deterministic() {
    let dir = out_dir().join(format!("selftest-{}", std::process::id()));
    let spec = FleetSpec::at(Scale::Small);
    let a = generate(spec, 7, &dir.join("a.rec")).expect("generate a");
    let b = generate(spec, 7, &dir.join("b.rec")).expect("generate b");
    let c = generate(spec, 8, &dir.join("c.rec")).expect("generate c");
    let bytes = |p: &std::path::Path| std::fs::read(p).expect("read back");
    assert_eq!(bytes(&a.path), bytes(&b.path), "same seed, different files");
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, c.digest, "different seeds, same file");
    let rec = anor_telemetry::read_recording(&a.path).expect("a budgeter recording");
    assert_eq!(rec.header.role, "budgeter");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// The `"name"` and `"unit"` values of one top-level array of
/// `BENCHMARK.json`, in order.
fn listed(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    let field = |obj: &str, f: &str| {
        let at = obj.find(&format!("\"{f}\""))?;
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit"))))
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, Option<String>)> = table
            .iter()
            .map(|d| (d.name.to_string(), Some(d.unit.to_string())))
            .collect();
        assert_eq!(listed(&json, key), want, "{key}");
    }
    for (workload, _) in listed(&json, "workloads") {
        assert!(WORKLOADS.contains(&workload.as_str()), "{workload}");
    }
}

#[test]
fn a_wrong_golden_value_trips_the_gate() {
    let observed = vec![("passes", "600".to_string()), ("digest", "ab".to_string())];
    assert!(check_goldens(&observed, &[("passes", "600"), ("digest", "ab")]).is_empty());
    assert_eq!(check_goldens(&observed, &[("passes", "601")]).len(), 1);
    assert_eq!(
        check_goldens(&observed, &[("never_observed", "1")]).len(),
        1
    );
    let out = Outcome {
        gate: check_goldens(&observed, &[("digest", "cd")]),
        ..Outcome::default()
    };
    assert!(!out.correct());
    assert!(out.result_line().starts_with("{\"correct\": false"));
}
