//! Flow-table verdict caching on a repeated-flow workload: the cached accept
//! path (one O(1) probe per packet after warm-up) vs the compiled uncached
//! pipeline (full decode + resolve + evaluate per packet), inline on one
//! shard and batched across 1–8 shards.
//!
//! The workload models what the enforcer actually sees on a busy perimeter:
//! a modest number of long-lived flows, each re-sending the same connect-time
//! context on every packet.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bp_bench::{analyzed_solcalendar, blacklist_policies, case_study_policies};
use bp_core::enforcer::{
    DropLog, EnforcementTables, EnforcerConfig, EnforcerCounters, ShardedEnforcer,
};
use bp_core::policy::PolicySet;
use bp_netsim::addr::Endpoint;
use bp_netsim::options::{IpOption, IpOptionKind};
use bp_netsim::packet::Ipv4Packet;

const BATCH: usize = 1_024;
const FLOWS: u16 = 64;

/// A repeated-flow stream: `FLOWS` distinct 5-tuples, each packet carrying
/// the same (conforming, accepted) context its flow always carries.
fn repeated_flow_stream(login: &[u8]) -> Vec<Ipv4Packet> {
    (0..BATCH as u16)
        .map(|i| {
            let flow = i % FLOWS;
            let mut packet = Ipv4Packet::new(
                Endpoint::new([10, 0, (flow >> 8) as u8, flow as u8], 40_000 + flow),
                Endpoint::new([31, 13, 71, 36], 443),
                vec![0xA5; 256],
            );
            packet
                .options_mut()
                .push(IpOption::new(IpOptionKind::BorderPatrolContext, login.to_vec()).unwrap())
                .unwrap();
            packet
        })
        .collect()
}

/// One policy-set scenario: uncached compiled baseline vs a one-shard
/// enforcer's flow-cached `inspect` per packet vs `inspect_batch` over
/// 1/2/4/8 shards, all on the same stream.
fn bench_scenario(c: &mut Criterion, scenario: &str, policies: PolicySet) {
    let app = analyzed_solcalendar();
    let packets = repeated_flow_stream(&app.context_payload("fb-login"));

    let tables = EnforcementTables::shared(&app.database, &policies, EnforcerConfig::default());
    let mut group = c.benchmark_group(format!("flow_cache/{scenario}"));
    group.throughput(Throughput::Elements(BATCH as u64));

    group.bench_function("uncached_compiled", |b| {
        let (counters, mut drop_log) = (EnforcerCounters::new(), DropLog::default());
        let mut scratch = Vec::new();
        b.iter(|| {
            for packet in &packets {
                black_box(tables.inspect_packet(packet, &mut scratch, &counters, &mut drop_log));
            }
        })
    });

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
        group.bench_with_input(
            BenchmarkId::new("cached_sharded", shards),
            &enforcer,
            |b, enforcer| b.iter(|| black_box(enforcer.inspect_batch(&packets))),
        );
    }
    group.finish();
}

fn bench_flow_cache(c: &mut Criterion) {
    // Light rules: measures the pure pipeline-vs-probe delta.
    bench_scenario(c, "case_study_policies", case_study_policies());
    // Heavy rules: the 1,050-library blacklist makes each uncached
    // evaluation expensive, which is exactly what the cache amortizes away.
    bench_scenario(c, "blacklist_1050", blacklist_policies());
}

criterion_group!(benches, bench_flow_cache);
criterion_main!(benches);
