//! Telemetry-plane overhead: small-batch `inspect_batch` throughput with a
//! live `bp-obs` collector attached versus detached.
//!
//! "Attached" is the production shape — [`Collector::spawn`] runs a sampler
//! thread that polls every shard's seqlock snapshot concurrently with the
//! data plane at the default 100 ms cadence.  The seqlock's design claim is
//! that the writer never blocks on readers: publication is two
//! relaxed-plus-fence stamp stores at batch boundaries, and a polling
//! reader costs the writer at most a cache-line bounce plus one short poll
//! of CPU time per interval.  The paired rows put a number on that claim;
//! the budget is <2% on the small-batch regime (the `fleet_scale`
//! small-batch shape, where per-batch fixed costs weigh the most).
//!
//! `--json` merges `<regime>/detached` / `<regime>/attached` rows into
//! `BENCH.json` alongside the `fleet_scale` rows they mirror.

use std::sync::Arc;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};

use bp_bench::quick::{json_mode, QuickBench};
use bp_bench::{analyzed_solcalendar, case_study_policies};
use bp_core::enforcer::{EnforcementTables, EnforcerConfig, ShardedEnforcer};
use bp_netsim::addr::Endpoint;
use bp_netsim::options::{IpOption, IpOptionKind};
use bp_netsim::packet::Ipv4Packet;
use bp_obs::{Collector, CollectorConfig, CollectorHandle};

/// The `fleet_scale` small-batch regime: ~10-packet batches.
const SMALL_BATCH: usize = 8;

/// Sampler cadence while attached: the collector's default poll rate.
const SAMPLE_MILLIS: u64 = 100;

/// The mixed multi-flow stream the throughput benches use, sized down to
/// the small-batch regime.
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

fn enforcer(tables: &Arc<EnforcementTables>, shards: usize) -> Arc<ShardedEnforcer> {
    Arc::new(ShardedEnforcer::new(Arc::clone(tables), shards))
}

/// Attach a default-cadence sampler to the enforcer.
fn attach(enforcer: &Arc<ShardedEnforcer>) -> CollectorHandle {
    Collector::new(CollectorConfig {
        tick_millis: SAMPLE_MILLIS,
        ..CollectorConfig::default()
    })
    .spawn(Arc::clone(enforcer))
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let app = analyzed_solcalendar();
    let policies = case_study_policies();
    let tables = EnforcementTables::shared(&app.database, &policies, EnforcerConfig::default());
    let packets = packet_stream(
        &app.context_payload("fb-login"),
        &app.context_payload("fb-analytics"),
        SMALL_BATCH,
    );

    let mut group = c.benchmark_group("telemetry_overhead/small_batch");
    group.throughput(Throughput::Elements(SMALL_BATCH as u64));
    for shards in [1usize, 4] {
        let detached = enforcer(&tables, shards);
        let mut verdicts = Vec::with_capacity(SMALL_BATCH);
        group.bench_with_input(BenchmarkId::new("detached", shards), &detached, |b, e| {
            b.iter(|| {
                e.inspect_batch_into(&packets, &mut verdicts);
                black_box(verdicts.len())
            })
        });

        let attached = enforcer(&tables, shards);
        let sampler = attach(&attached);
        let mut verdicts = Vec::with_capacity(SMALL_BATCH);
        group.bench_with_input(BenchmarkId::new("attached", shards), &attached, |b, e| {
            b.iter(|| {
                e.inspect_batch_into(&packets, &mut verdicts);
                black_box(verdicts.len())
            })
        });
        let collector = sampler.stop();
        black_box(collector.view().polls);
    }
    group.finish();
}

/// `--json` quick sweep, merged into `BENCH.json`: detached vs attached
/// rows at the small and mid batch regimes.  Diffing the paired rows shows
/// what a live sampler costs the data plane; the budget is <2% on
/// small_batch.
fn json_sweep() {
    let app = analyzed_solcalendar();
    let policies = case_study_policies();
    let tables = EnforcementTables::shared(&app.database, &policies, EnforcerConfig::default());
    let login = app.context_payload("fb-login");
    let analytics = app.context_payload("fb-analytics");

    let mut quick = QuickBench::new("telemetry_overhead");
    for (batch, label) in [(SMALL_BATCH, "small_batch"), (64, "mid_batch")] {
        let packets = packet_stream(&login, &analytics, batch);
        for shards in [1usize, 4] {
            let detached = enforcer(&tables, shards);
            let mut verdicts = Vec::with_capacity(batch);
            let case = format!("{label}/detached");
            quick.measure(&case, shards, batch, batch as u64, || {
                detached.inspect_batch_into(&packets, &mut verdicts);
                black_box(verdicts.len());
            });

            let attached = enforcer(&tables, shards);
            let sampler = attach(&attached);
            let mut verdicts = Vec::with_capacity(batch);
            let case = format!("{label}/attached");
            quick.measure(&case, shards, batch, batch as u64, || {
                attached.inspect_batch_into(&packets, &mut verdicts);
                black_box(verdicts.len());
            });
            let collector = sampler.stop();
            black_box(collector.view().polls);
        }
    }
    quick.finish();
}

criterion_group!(benches, bench_telemetry_overhead);

fn main() {
    if json_mode() {
        json_sweep();
    } else {
        benches();
    }
}
