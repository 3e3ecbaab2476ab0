//! Throughput of the Policy Enforcer and Packet Sanitizer NFQUEUE consumers
//! (packets per second through the network-side pipeline), comparing the
//! legacy interpretive inspection path with the compiled data plane.
//!
//! The `legacy/*` rows drive [`inspect_legacy`], the `compiled/*` rows
//! [`EnforcementTables::inspect_packet`] — the uncached pipeline, so the
//! comparison stays apples-to-apples; the flow-table verdict cache in front
//! of it is measured separately by the `flow_cache` bench.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use bp_bench::{analyzed_solcalendar, case_study_policies};
use bp_core::enforcer::{
    inspect_legacy, DropLog, EnforcementTables, EnforcerConfig, EnforcerCounters,
};
use bp_core::sanitizer::PacketSanitizer;
use bp_netsim::netfilter::QueueHandler;

fn bench_enforcer(c: &mut Criterion) {
    let app = analyzed_solcalendar();
    let allowed = app.tagged_packet("fb-login");
    let denied = app.tagged_packet("fb-analytics");

    let (database, policies) = (&app.database, &case_study_policies());
    let config = EnforcerConfig::default();
    let tables = EnforcementTables::build(database, policies, config);
    let (counters, mut drop_log) = (EnforcerCounters::new(), DropLog::default());
    let mut scratch = Vec::new();

    let mut group = c.benchmark_group("enforcer_throughput");
    group.throughput(Throughput::Elements(1));

    group.bench_function("legacy/inspect_allowed_packet", |b| {
        b.iter(|| {
            let packet = allowed.clone();
            black_box(inspect_legacy(
                database,
                policies,
                config,
                &packet,
                &counters,
                &mut drop_log,
            ))
        })
    });
    group.bench_function("compiled/inspect_allowed_packet", |b| {
        b.iter(|| {
            let packet = allowed.clone();
            black_box(tables.inspect_packet(&packet, &mut scratch, &counters, &mut drop_log))
        })
    });
    group.bench_function("legacy/inspect_denied_packet", |b| {
        b.iter(|| {
            let packet = denied.clone();
            black_box(inspect_legacy(
                database,
                policies,
                config,
                &packet,
                &counters,
                &mut drop_log,
            ))
        })
    });
    group.bench_function("compiled/inspect_denied_packet", |b| {
        b.iter(|| {
            let packet = denied.clone();
            black_box(tables.inspect_packet(&packet, &mut scratch, &counters, &mut drop_log))
        })
    });
    group.bench_function("sanitize_packet", |b| {
        let mut sanitizer = PacketSanitizer::new();
        b.iter(|| {
            let mut packet = allowed.clone();
            black_box(sanitizer.handle(&mut packet))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_enforcer);
criterion_main!(benches);
