//! Fleet-scale scenario throughput: a mixed fleet — every adversary model
//! compromising a slice of it — driven through the sharded enforcement
//! plane on 1–8 shards.
//!
//! The scenario is prepared once per configuration
//! ([`PreparedScenario::prepare`]: apk analysis, template compilation, fleet
//! assembly) and each iteration re-runs only the enforcement tick loop, so
//! the rows compare data-plane wall-clock as the shard count grows.
//!
//! Beside the 10,000-device fleet, three fleet sizes land the per-tick
//! batches in the ≤16 / ≤64 / ~1k packet regimes (2 sockets/device, 1–2
//! packets per flow per tick, plus adversarial injections): 3 devices ≈
//! 9-packet batches, 20 devices ≈ 62, 330 devices ≈ 1,059.  Tick counts
//! scale inversely so every regime row times a comparable amount of work.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bp_analysis::scenario::{PreparedScenario, ScenarioSpec};

const SEED: u64 = 0xb0bde5;

/// (group, devices, ticks, shard counts).
const FLEETS: [(&str, u32, u32, &[usize]); 4] = [
    ("10k_devices", 10_000, 3, &[1, 2, 4, 8]),
    ("small_batch", 3, 48, &[1, 4, 8]),
    ("mid_batch", 20, 16, &[1, 4, 8]),
    ("large_batch", 330, 4, &[1, 4, 8]),
];

fn bench_fleet_scale(c: &mut Criterion) {
    for (name, devices, ticks, shard_counts) in FLEETS {
        let mut group = c.benchmark_group(format!("fleet_scale/{name}"));
        for &shards in shard_counts {
            let mut spec = ScenarioSpec::adversarial_fleet("fleet-bench", devices, SEED, shards);
            spec.ticks = ticks;
            let prepared = PreparedScenario::prepare(&spec).expect("scenario prepares");
            // The engine is deterministic, so one run sizes the throughput
            // axis for every iteration.
            let packets = prepared.run().expect("scenario runs").packets;
            group.throughput(Throughput::Elements(packets));
            group.bench_with_input(
                BenchmarkId::new("shards", shards),
                &prepared,
                |b, prepared| b.iter(|| black_box(prepared.run().expect("scenario runs"))),
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fleet_scale);
criterion_main!(benches);
