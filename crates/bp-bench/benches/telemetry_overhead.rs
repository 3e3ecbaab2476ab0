//! Telemetry-plane overhead: small- and mid-batch `inspect_batch` throughput
//! with a live `bp-obs` collector attached versus detached.
//!
//! "Attached" is the production shape — [`Collector::spawn`] runs a sampler
//! thread that polls every shard's seqlock snapshot concurrently with the
//! data plane at the default 100 ms cadence.  The seqlock's design claim is
//! that the writer never blocks on readers: publication is two
//! relaxed-plus-fence stamp stores at batch boundaries, and a polling
//! reader costs the writer at most a cache-line bounce plus one short poll
//! of CPU time per interval.  The paired rows put a number on that claim;
//! the budget is <2% on the small-batch regime (the `fleet_scale`
//! small-batch shape, where per-batch fixed costs weigh the most); the
//! mid-batch regime (64 packets) mirrors `fleet_scale`'s mid-batch rows.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bp_bench::{analyzed_solcalendar, case_study_policies, mixed_stream};
use bp_core::enforcer::{EnforcementTables, EnforcerConfig, ShardedEnforcer};
use bp_obs::{Collector, CollectorConfig, CollectorHandle};

/// (regime, packets per batch): the `fleet_scale` small- and mid-batch
/// regimes.
const REGIMES: [(&str, usize); 2] = [("small_batch", 8), ("mid_batch", 64)];

/// Sampler cadence while attached: the collector's default poll rate.
const SAMPLE_MILLIS: u64 = 100;

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
    let login = app.context_payload("fb-login");
    let analytics = app.context_payload("fb-analytics");

    for (regime, batch) in REGIMES {
        let packets = mixed_stream(&login, &analytics, batch);
        let mut group = c.benchmark_group(format!("telemetry_overhead/{regime}"));
        group.throughput(Throughput::Elements(batch as u64));
        for shards in [1usize, 4] {
            let detached = enforcer(&tables, shards);
            let mut verdicts = Vec::with_capacity(batch);
            group.bench_with_input(BenchmarkId::new("detached", shards), &detached, |b, e| {
                b.iter(|| {
                    e.inspect_batch_into(&packets, &mut verdicts);
                    black_box(verdicts.len())
                })
            });

            let attached = enforcer(&tables, shards);
            let sampler = attach(&attached);
            let mut verdicts = Vec::with_capacity(batch);
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
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
