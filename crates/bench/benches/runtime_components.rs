//! Micro-benches of the runtime components on every control path: MSR
//! access, PlatformIO stepping, agent-tree aggregation, wire-codec
//! encode/decode, and epoch-window differencing.

use anor_geopm::{AgentSample, AgentTree, PlatformIo};
use anor_model::EpochWindow;
use anor_platform::Node;
use anor_types::msg::{ClusterToJob, EpochSample, JobToCluster};
use anor_types::{standard_catalog, JobId, Joules, NodeId, Seconds, Watts};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn platform_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");
    group.bench_function("platformio_advance_busy_node", |b| {
        let spec = standard_catalog().find("bt.D.81").unwrap().clone();
        b.iter_batched(
            || {
                let mut node = Node::paper(NodeId(0));
                node.launch(JobId(1), spec.clone(), 7).unwrap();
                PlatformIo::new(node)
            },
            |mut io| {
                for _ in 0..100 {
                    io.advance(Seconds(0.5));
                }
                io.read_signal(anor_geopm::Signal::CpuEnergy)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("tree_aggregate_64_nodes", |b| {
        let samples: Vec<AgentSample> = (0..64)
            .map(|i| AgentSample {
                epoch_count: 100 + i as u64,
                energy: Joules(1000.0),
                power: Watts(200.0),
                cap: Watts(210.0),
                timestamp: Seconds(i as f64),
                cause: 0,
            })
            .collect();
        b.iter(|| AgentTree::aggregate(std::hint::black_box(&samples)))
    });
    group.bench_function("codec_sample_roundtrip", |b| {
        let msg = JobToCluster::Sample(EpochSample {
            job: JobId(42),
            epoch_count: 1234,
            energy: Joules(9999.5),
            avg_power: Watts(201.0),
            avg_cap: Watts(210.0),
            timestamp: Seconds(77.7),
            cause: 7,
        });
        b.iter(|| {
            let frame = msg.encode();
            let mut body = frame.clone();
            bytes::Buf::advance(&mut body, 4);
            JobToCluster::decode(body).unwrap()
        })
    });
    group.bench_function("codec_cap_roundtrip", |b| {
        let msg = ClusterToJob::SetPowerCap {
            cap: Watts(195.5),
            cause: 7,
        };
        b.iter(|| {
            let frame = msg.encode();
            let mut body = frame.clone();
            bytes::Buf::advance(&mut body, 4);
            ClusterToJob::decode(body).unwrap()
        })
    });
    group.bench_function("epoch_window_push_1000", |b| {
        b.iter(|| {
            let mut w = EpochWindow::new();
            let mut out = 0u64;
            for i in 0..1000u64 {
                if let Some(obs) = w.push(i, Seconds(i as f64 * 2.0), Watts(200.0)) {
                    out += obs.epochs;
                }
            }
            out
        })
    });
    group.finish();
}

criterion_group!(benches, platform_step);
criterion_main!(benches);
