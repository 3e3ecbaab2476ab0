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

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bp_bench::{analyzed_solcalendar, case_study_policies, mixed_stream};
use bp_core::enforcer::{EnforcementTables, EnforcerConfig, ShardedEnforcer};
use bp_core::faults::{FaultInjector, FaultPlan};

/// (regime, packets per batch): the `fleet_scale` small-batch regime, and
/// a per-tick batch for a mid-size fleet.
const REGIMES: [(&str, usize); 2] = [("small_batch", 8), ("fleet", 256)];

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
    let login = app.context_payload("fb-login");
    let analytics = app.context_payload("fb-analytics");

    for (regime, batch) in REGIMES {
        let packets = mixed_stream(&login, &analytics, batch);
        let mut group = c.benchmark_group(format!("fault_overhead/{regime}"));
        group.throughput(Throughput::Elements(batch as u64));
        for shards in [1usize, 4] {
            for (label, armed) in [("inert", false), ("armed_quiet", true)] {
                let e = enforcer(&tables, shards, armed);
                let mut verdicts = Vec::with_capacity(batch);
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
}

criterion_group!(benches, bench_fault_overhead);
criterion_main!(benches);
