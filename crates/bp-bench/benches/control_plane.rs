//! Control-plane costs: commit latency (one transaction = one table build +
//! endpoint hot-swap) and what a sustained commit storm does to data-plane
//! throughput.
//!
//! The storm rows quantify the §IV "Reconfigurability" story at fleet scale:
//! an operator recompiling and installing policies in a tight loop while the
//! sharded data plane keeps inspecting.  Every committed generation bumps
//! the flow-cache epoch, so the storm also measures the worst-case cache
//! re-warm pressure (each swap turns the next probe of every flow into a
//! miss).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use criterion::{black_box, criterion_group, Criterion, Throughput};

use bp_bench::quick::{json_mode, QuickBench};
use bp_bench::{analyzed_solcalendar, blacklist_policies, case_study_policies};
use bp_core::control::{ControlPlane, EnforcementEndpoint};
use bp_core::enforcer::{EnforcerConfig, ShardedEnforcer};
use bp_core::policy::PolicySet;
use bp_netsim::addr::Endpoint;
use bp_netsim::options::{IpOption, IpOptionKind};
use bp_netsim::packet::Ipv4Packet;

const BATCH: usize = 1_024;
const FLOWS: u16 = 64;
const SHARDS: usize = 4;

fn repeated_flow_stream(payload: &[u8]) -> Vec<Ipv4Packet> {
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
                .push(IpOption::new(IpOptionKind::BorderPatrolContext, payload.to_vec()).unwrap())
                .unwrap();
            packet
        })
        .collect()
}

/// Latency of one committed transaction, by staged-state weight: each
/// iteration alternates between two policy sets so every commit really
/// rebuilds (a no-change commit short-circuits without compiling).
fn bench_commit_latency(c: &mut Criterion) {
    let app = analyzed_solcalendar();
    let mut group = c.benchmark_group("control_plane/commit");

    group.bench_function("replace_3_policies", |b| {
        let mut control = ControlPlane::new(
            app.database.clone(),
            PolicySet::new(),
            EnforcerConfig::default(),
        );
        let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), SHARDS));
        control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
        let sets = [case_study_policies(), PolicySet::new()];
        let mut flip = 0usize;
        b.iter(|| {
            flip ^= 1;
            black_box(
                control
                    .begin()
                    .replace_policies(sets[flip].clone())
                    .commit()
                    .unwrap(),
            )
        })
    });

    group.bench_function("replace_1050_policy_blacklist", |b| {
        let mut control = ControlPlane::new(
            app.database.clone(),
            PolicySet::new(),
            EnforcerConfig::default(),
        );
        let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), SHARDS));
        control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
        let sets = [blacklist_policies(), PolicySet::new()];
        let mut flip = 0usize;
        b.iter(|| {
            flip ^= 1;
            black_box(
                control
                    .begin()
                    .replace_policies(sets[flip].clone())
                    .commit()
                    .unwrap(),
            )
        })
    });

    group.bench_function("rollback", |b| {
        let mut control = ControlPlane::new(
            app.database.clone(),
            PolicySet::new(),
            EnforcerConfig::default(),
        );
        let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), SHARDS));
        control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
        let g1 = control.generation();
        let g2 = control
            .begin()
            .replace_policies(case_study_policies())
            .commit()
            .unwrap();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            black_box(control.rollback(if flip { g1 } else { g2 }).unwrap())
        })
    });

    group.finish();
}

/// Data-plane batch throughput with the control plane quiet vs committing in
/// a tight loop from another thread.
fn bench_throughput_under_storm(c: &mut Criterion) {
    let app = analyzed_solcalendar();
    let packets = repeated_flow_stream(&app.context_payload("fb-login"));

    let mut group = c.benchmark_group("control_plane/storm");
    group.throughput(Throughput::Elements(BATCH as u64));

    group.bench_function("inspect_batch_quiet", |b| {
        let mut control = ControlPlane::new(
            app.database.clone(),
            case_study_policies(),
            EnforcerConfig::default(),
        );
        let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), SHARDS));
        control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
        b.iter(|| black_box(enforcer.inspect_batch(&packets)))
    });

    group.bench_function("inspect_batch_commit_storm", |b| {
        let mut control = ControlPlane::new(
            app.database.clone(),
            case_study_policies(),
            EnforcerConfig::default(),
        );
        let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), SHARDS));
        control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
        let stop = AtomicBool::new(false);
        let sets = [case_study_policies(), PolicySet::new()];
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut flip = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    flip ^= 1;
                    control
                        .begin()
                        .replace_policies(sets[flip].clone())
                        .commit()
                        .unwrap();
                }
            });
            b.iter(|| black_box(enforcer.inspect_batch(&packets)));
            stop.store(true, Ordering::Relaxed);
        });
    });

    group.finish();
}

fn benches_all(c: &mut Criterion) {
    bench_commit_latency(c);
    bench_throughput_under_storm(c);
}

/// `--json` quick sweep, merged into `BENCH.json`: commit/rollback
/// latencies (batch = policy count, elements = commits) plus the quiet
/// data-plane batch throughput.
fn json_sweep() {
    let app = analyzed_solcalendar();
    let mut quick = QuickBench::new("control_plane");

    for (case, policy_sets) in [
        (
            "commit_3_policies",
            [case_study_policies(), PolicySet::new()],
        ),
        (
            "commit_1050_policies",
            [blacklist_policies(), PolicySet::new()],
        ),
    ] {
        let mut control = ControlPlane::new(
            app.database.clone(),
            PolicySet::new(),
            EnforcerConfig::default(),
        );
        let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), SHARDS));
        control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
        let mut flip = 0usize;
        let rules = policy_sets[0].len();
        // Commit rows measure the control plane: "pkts_per_sec" carries
        // commits/sec (elements = 1 commit).
        quick.measure(case, SHARDS, rules, 1, || {
            flip ^= 1;
            criterion::black_box(
                control
                    .begin()
                    .replace_policies(policy_sets[flip].clone())
                    .commit()
                    .unwrap(),
            );
        });
    }

    let packets = repeated_flow_stream(&app.context_payload("fb-login"));
    let mut control = ControlPlane::new(
        app.database.clone(),
        case_study_policies(),
        EnforcerConfig::default(),
    );
    let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), SHARDS));
    control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
    let mut verdicts = Vec::with_capacity(BATCH);
    quick.measure("inspect_batch_quiet", SHARDS, BATCH, BATCH as u64, || {
        enforcer.inspect_batch_into(&packets, &mut verdicts);
        criterion::black_box(verdicts.len());
    });
    quick.finish();
}

criterion_group!(benches, benches_all);

fn main() {
    if json_mode() {
        json_sweep();
    } else {
        benches();
    }
}
