//! Fault-plane overhead: `inspect_batch` throughput with the PR 10 chaos
//! hooks inert versus armed-but-quiet.
//!
//! The self-healing runtime consults the fault plane at every partition
//! start and decoded frame.  When no plan is installed ("inert", the
//! production default) each hook is one `OnceLock` load plus a health-state
//! load; the budget is <2% versus the PR 9 baseline on the small-batch and
//! fleet regimes, where per-batch fixed costs weigh the most.  The
//! "armed_quiet" rows install an **empty** [`FaultPlan`] — the injector is
//! consulted, its ordinals tick, but nothing ever fires — pricing the worst
//! case of leaving chaos instrumentation armed in production.
//!
//! `--json` merges `<regime>/inert` / `<regime>/armed_quiet` rows into
//! `BENCH.json`;
//! diffing the inert rows against the committed PR 9 `fleet_scale` /
//! `telemetry_overhead` rows shows what the hooks cost the hot path.

use std::sync::Arc;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};

use bp_bench::quick::{json_mode, QuickBench};
use bp_bench::{analyzed_solcalendar, case_study_policies};
use bp_core::enforcer::{EnforcementTables, EnforcerConfig, ShardedEnforcer};
use bp_core::faults::{FaultInjector, FaultPlan};
use bp_netsim::addr::Endpoint;
use bp_netsim::options::{IpOption, IpOptionKind};
use bp_netsim::packet::Ipv4Packet;

/// The `fleet_scale` small-batch regime: ~10-packet batches.
const SMALL_BATCH: usize = 8;

/// The fleet regime: a per-tick batch for a mid-size fleet.
const FLEET_BATCH: usize = 256;

/// The mixed multi-flow stream the throughput benches use.
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

/// An enforcer with the hooks in the given arming state.
fn enforcer(tables: &Arc<EnforcementTables>, shards: usize, armed: bool) -> Arc<ShardedEnforcer> {
    let enforcer = Arc::new(ShardedEnforcer::new(Arc::clone(tables), shards));
    if armed {
        // An empty plan: the injector is consulted on every hook but never
        // fires — the priced path is plan lookup, not fault handling.
        enforcer.install_faults(Arc::new(FaultInjector::new(FaultPlan::default(), shards)));
    }
    enforcer
}

fn bench_fault_overhead(c: &mut Criterion) {
    let app = analyzed_solcalendar();
    let policies = case_study_policies();
    let tables = EnforcementTables::shared(&app.database, &policies, EnforcerConfig::default());
    let packets = packet_stream(
        &app.context_payload("fb-login"),
        &app.context_payload("fb-analytics"),
        SMALL_BATCH,
    );

    let mut group = c.benchmark_group("fault_overhead/small_batch");
    group.throughput(Throughput::Elements(SMALL_BATCH as u64));
    for shards in [1usize, 4] {
        for (label, armed) in [("inert", false), ("armed_quiet", true)] {
            let e = enforcer(&tables, shards, armed);
            let mut verdicts = Vec::with_capacity(SMALL_BATCH);
            group.bench_with_input(BenchmarkId::new(label, shards), &e, |b, e| {
                b.iter(|| {
                    e.inspect_batch_into(&packets, &mut verdicts);
                    black_box(verdicts.len())
                })
            });
        }
    }
    group.finish();
}

/// `--json` quick sweep, merged into `BENCH.json`: inert vs armed-quiet
/// rows at the small-batch and fleet regimes.  The budget is <2% on both.
fn json_sweep() {
    let app = analyzed_solcalendar();
    let policies = case_study_policies();
    let tables = EnforcementTables::shared(&app.database, &policies, EnforcerConfig::default());
    let login = app.context_payload("fb-login");
    let analytics = app.context_payload("fb-analytics");

    let mut quick = QuickBench::new("fault_overhead");
    for (batch, label) in [(SMALL_BATCH, "small_batch"), (FLEET_BATCH, "fleet")] {
        let packets = packet_stream(&login, &analytics, batch);
        for shards in [1usize, 4] {
            for (arming, armed) in [("inert", false), ("armed_quiet", true)] {
                let e = enforcer(&tables, shards, armed);
                let mut verdicts = Vec::with_capacity(batch);
                let case = format!("{label}/{arming}");
                quick.measure(&case, shards, batch, batch as u64, || {
                    e.inspect_batch_into(&packets, &mut verdicts);
                    black_box(verdicts.len());
                });
            }
        }
    }
    quick.finish();
}

criterion_group!(benches, bench_fault_overhead);

fn main() {
    if json_mode() {
        json_sweep();
    } else {
        benches();
    }
}
