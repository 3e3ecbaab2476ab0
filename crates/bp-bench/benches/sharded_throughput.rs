//! Batch throughput of the sharded Policy Enforcer: one compiled table set
//! shared across N worker shards, inspecting a mixed multi-flow packet
//! stream, vs a one-shard enforcer inspecting the same stream inline.
//!
//! The case-study set is swept over batches of 8, 64 and 1024 packets; the
//! 1-shard rows run entirely on the submitting thread, so each multi-shard
//! row over its 1-shard row is the fan-out cost (or gain) at that batch
//! size.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bp_bench::{analyzed_solcalendar, blacklist_policies, case_study_policies, mixed_stream};
use bp_core::enforcer::{EnforcementTables, EnforcerConfig, ShardedEnforcer};
use bp_core::policy::PolicySet;

const BATCH: usize = 1_024;

/// One policy-set scenario, per batch size: `inspect_batch` fanned over
/// 1/2/4/8 shards, plus (at [`BATCH`]) a one-shard enforcer's `inspect`
/// per packet.
fn bench_scenario(c: &mut Criterion, scenario: &str, policies: PolicySet, batches: &[usize]) {
    let app = analyzed_solcalendar();
    let login = app.context_payload("fb-login");
    let analytics = app.context_payload("fb-analytics");
    let tables = EnforcementTables::shared(&app.database, &policies, EnforcerConfig::default());

    for &batch in batches {
        let packets = mixed_stream(&login, &analytics, batch);
        let mut group = c.benchmark_group(format!("sharded_throughput/{scenario}/batch_{batch}"));
        group.throughput(Throughput::Elements(batch as u64));

        if batch == BATCH {
            group.bench_function("inline_inspect", |b| {
                let enforcer = ShardedEnforcer::new(tables.clone(), 1);
                b.iter(|| {
                    for packet in &packets {
                        black_box(enforcer.inspect(packet));
                    }
                })
            });
        }

        for shards in [1usize, 2, 4, 8] {
            let enforcer = ShardedEnforcer::new(tables.clone(), shards);
            let mut verdicts = Vec::with_capacity(batch);
            group.bench_with_input(
                BenchmarkId::new("inspect_batch", shards),
                &enforcer,
                |b, enforcer| {
                    b.iter(|| {
                        enforcer.inspect_batch_into(&packets, &mut verdicts);
                        black_box(verdicts.len())
                    })
                },
            );
        }
        group.finish();
    }
}

fn bench_sharded(c: &mut Criterion) {
    // Light: 3 targeted rules — measures the fan-out overhead floor.
    bench_scenario(
        c,
        "case_study_policies",
        case_study_policies(),
        &[8, 64, BATCH],
    );
    // Heavy: the 1,050-library validation blacklist — per-packet evaluation
    // is expensive enough that sharding pays.
    bench_scenario(c, "blacklist_1050", blacklist_policies(), &[BATCH]);
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
