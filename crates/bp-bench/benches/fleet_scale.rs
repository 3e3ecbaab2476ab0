//! Fleet-scale scenario throughput: a 10,000-device mixed fleet — every
//! adversary model compromising a slice of it — driven through the sharded
//! enforcement plane on 1–8 shards.
//!
//! The scenario is prepared once per configuration
//! ([`PreparedScenario::prepare`]: apk analysis, template compilation, fleet
//! assembly) and each iteration re-runs only the enforcement tick loop, so
//! the rows compare data-plane wall-clock as the shard count grows.
//!
//! `--json` switches to the quick sweep that feeds `BENCH.json`: three
//! fleet sizes chosen so the per-tick batches land in the ≤16 / ≤64 / ~1k
//! packet regimes, each on 1/4/8 shards.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};

use bp_analysis::scenario::{PreparedScenario, ScenarioSpec};
use bp_bench::quick::{json_mode, QuickBench};

const DEVICES: u32 = 10_000;
const SEED: u64 = 0xb0bde5;

fn bench_fleet_scale(c: &mut Criterion) {
    // One probe run to size the throughput axis (the engine is
    // deterministic, so every run drives the same packet count).
    let probe = PreparedScenario::prepare(&ScenarioSpec::adversarial_fleet(
        "fleet-probe",
        DEVICES,
        SEED,
        1,
    ))
    .expect("probe scenario prepares");
    let packets = probe.run().expect("probe scenario runs").packets;

    let mut group = c.benchmark_group("fleet_scale/10k_devices");
    group.throughput(Throughput::Elements(packets));
    for shards in [1usize, 2, 4, 8] {
        let spec = ScenarioSpec::adversarial_fleet("fleet-bench", DEVICES, SEED, shards);
        let prepared = PreparedScenario::prepare(&spec).expect("scenario prepares");
        group.bench_with_input(
            BenchmarkId::new("shards", shards),
            &prepared,
            |b, prepared| b.iter(|| black_box(prepared.run().expect("scenario runs"))),
        );
    }
    group.finish();
}

/// `--json` quick sweep, merged into `BENCH.json`.
///
/// Fleet sizes map to per-tick batch regimes (2 sockets/device, 1–2 packets
/// per flow per tick, plus adversarial injections): 3 devices ≈ 10-packet
/// batches, 20 devices ≈ 65, 330 devices ≈ 1k.  Tick counts scale inversely
/// so every row times a comparable amount of work.
fn json_sweep() {
    let mut quick = QuickBench::new("fleet_scale");
    for (devices, ticks, label) in [
        (3u32, 48u32, "small_batch"),
        (20, 16, "mid_batch"),
        (330, 4, "large_batch"),
    ] {
        for shards in [1usize, 4, 8] {
            let mut spec = ScenarioSpec::adversarial_fleet("fleet-json", devices, SEED, shards);
            spec.ticks = ticks;
            let prepared = PreparedScenario::prepare(&spec).expect("scenario prepares");
            let report = prepared.run().expect("scenario runs");
            let batch = (report.packets / u64::from(ticks)) as usize;
            quick.measure(label, shards, batch, report.packets, || {
                black_box(prepared.run().expect("scenario runs"));
            });
        }
    }
    quick.finish();
}

criterion_group!(benches, bench_fleet_scale);

fn main() {
    if json_mode() {
        json_sweep();
    } else {
        benches();
    }
}
