//! Batch throughput of the sharded Policy Enforcer: one compiled table set
//! shared across N worker shards, inspecting a mixed multi-flow packet
//! stream, vs a one-shard enforcer inspecting the same stream inline.
//!
//! `--json` switches to the quick sweep (batch sizes 8/64/1024 × 1/2/4/8
//! shards) that feeds `BENCH.json`; the 1-shard rows run entirely on the
//! submitting thread, so each multi-shard row over its 1-shard row is the
//! fan-out cost (or gain) at that batch size.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};

use bp_bench::quick::{json_mode, QuickBench};
use bp_bench::{analyzed_solcalendar, blacklist_policies, case_study_policies};
use bp_core::enforcer::{EnforcementTables, EnforcerConfig, ShardedEnforcer};
use bp_core::policy::PolicySet;
use bp_netsim::addr::Endpoint;
use bp_netsim::options::{IpOption, IpOptionKind};
use bp_netsim::packet::Ipv4Packet;

const BATCH: usize = 1_024;

/// A mixed stream: many flows (distinct source endpoints), mostly conforming
/// traffic with some policy violations sprinkled in.
fn packet_stream(login: &[u8], analytics: &[u8], batch: usize) -> Vec<Ipv4Packet> {
    (0..batch as u16)
        .map(|i| {
            let mut packet = Ipv4Packet::new(
                Endpoint::new([10, 0, (i >> 8) as u8, i as u8], 40_000 + i),
                Endpoint::new([31, 13, 71, 36], 443),
                vec![0xA5; 256],
            );
            let payload = if i % 5 == 0 {
                analytics.to_vec()
            } else {
                login.to_vec()
            };
            packet
                .options_mut()
                .push(IpOption::new(IpOptionKind::BorderPatrolContext, payload).unwrap())
                .unwrap();
            packet
        })
        .collect()
}

/// One policy-set scenario: a one-shard enforcer's `inspect` per packet vs
/// `inspect_batch` fanned over 1/2/4/8 shards.
fn bench_scenario(c: &mut Criterion, scenario: &str, policies: PolicySet) {
    let app = analyzed_solcalendar();
    let packets = packet_stream(
        &app.context_payload("fb-login"),
        &app.context_payload("fb-analytics"),
        BATCH,
    );

    let tables = EnforcementTables::shared(&app.database, &policies, EnforcerConfig::default());
    let mut group = c.benchmark_group(format!("sharded_throughput/{scenario}"));
    group.throughput(Throughput::Elements(BATCH as u64));

    group.bench_function("inline_inspect", |b| {
        let enforcer = ShardedEnforcer::new(tables.clone(), 1);
        b.iter(|| {
            for packet in &packets {
                black_box(enforcer.inspect(packet));
            }
        })
    });

    for shards in [1usize, 2, 4, 8] {
        let enforcer = ShardedEnforcer::new(tables.clone(), shards);
        let mut verdicts = Vec::with_capacity(BATCH);
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

fn bench_sharded(c: &mut Criterion) {
    // Light: 3 targeted rules — measures the fan-out overhead floor.
    bench_scenario(c, "case_study_policies", case_study_policies());
    // Heavy: the 1,050-library validation blacklist — per-packet evaluation
    // is expensive enough that sharding pays.
    bench_scenario(c, "blacklist_1050", blacklist_policies());
}

/// `--json` quick sweep: pkts/sec per (batch size, shards) on the case-study
/// policy set, merged into `BENCH.json`.
fn json_sweep() {
    let app = analyzed_solcalendar();
    let policies = case_study_policies();
    let tables = EnforcementTables::shared(&app.database, &policies, EnforcerConfig::default());
    let login = app.context_payload("fb-login");
    let analytics = app.context_payload("fb-analytics");

    let mut quick = QuickBench::new("sharded_throughput");
    for batch in [8usize, 64, 1024] {
        let packets = packet_stream(&login, &analytics, batch);
        for shards in [1usize, 2, 4, 8] {
            let enforcer = ShardedEnforcer::new(tables.clone(), shards);
            let mut verdicts = Vec::with_capacity(batch);
            quick.measure("case_study_policies", shards, batch, batch as u64, || {
                enforcer.inspect_batch_into(&packets, &mut verdicts);
                black_box(verdicts.len());
            });
        }
    }
    quick.finish();
}

criterion_group!(benches, bench_sharded);

fn main() {
    if json_mode() {
        json_sweep();
    } else {
        benches();
    }
}
