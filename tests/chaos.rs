//! Self-healing data plane under deterministic fault injection: an injected
//! worker panic fails its partition closed and the next batch on the same
//! enforcer succeeds (the poison regression), chaos runs leave non-faulted
//! packets byte-identical to a fault-free run, the overload guard sheds
//! attributed drops, the respawn budget quarantines a persistently-failing
//! shard onto the inline path, control-plane commit faults roll back
//! cleanly, and a seeded chaos scenario reproduces its report byte for byte.

use std::sync::Arc;

use proptest::prelude::*;

use borderpatrol::analysis::scenario::{PreparedScenario, ScenarioSpec};
use borderpatrol::core::control::RolloutError;
use borderpatrol::core::enforcer::{
    EnforcementTables, EnforcerConfig, ShardedEnforcer, OVERLOAD_DROP_REASON,
    RUNTIME_FAULT_DROP_REASON,
};
use borderpatrol::core::faults::{FaultInjector, FaultPlan, WorkerPanic};
use borderpatrol::core::policy::{Policy, PolicySet};
use borderpatrol::netsim::addr::Endpoint;
use borderpatrol::netsim::netfilter::Verdict;
use borderpatrol::netsim::packet::Ipv4Packet;
use borderpatrol::types::EnforcementLevel;
use borderpatrol::{Engine, HealthState};

mod common;
use common::{inspect_each, solcalendar_fixture, tagged_packet};

/// The deny policies every chaos run enforces.
fn deny_policies() -> PolicySet {
    PolicySet::from_policies(vec![
        Policy::deny(EnforcementLevel::Class, "com/facebook/appevents"),
        Policy::deny(EnforcementLevel::Library, "com/flurry"),
    ])
}

/// An enforcer with `plan` armed, plus a fault-free twin sharing the same
/// compiled tables.  The twin is driven packet by packet ([`inspect_each`]),
/// so it shares no batch code with the runtime under test.
fn chaos_pair(shards: usize, plan: FaultPlan) -> (ShardedEnforcer, ShardedEnforcer) {
    let (db, _, _) = solcalendar_fixture();
    let tables = EnforcementTables::shared(db, &deny_policies(), EnforcerConfig::default());
    let chaos = ShardedEnforcer::new(Arc::clone(&tables), shards);
    chaos.install_faults(Arc::new(FaultInjector::new(plan, shards)));
    (chaos, ShardedEnforcer::new(tables, shards))
}

/// The packet shapes chaos streams draw from, keyed by flow so every packet
/// of a flow always carries the same payload — with consistent payloads the
/// flow cache is verdict-transparent, and a fault-free run's verdicts are a
/// pure function of the packet index.
fn flow_keyed_packet(flow: u16) -> Ipv4Packet {
    let (_, analytics, login) = solcalendar_fixture();
    match flow % 4 {
        0 => tagged_packet(flow, login),
        1 => tagged_packet(flow, analytics),
        2 => tagged_packet(flow, &[9, 9, 9]),
        _ => Ipv4Packet::new(
            Endpoint::new([10, 0, (flow >> 8) as u8, flow as u8], 40_000 + flow),
            Endpoint::new([31, 13, 71, 36], 443),
            b"GET / HTTP/1.1".to_vec(),
        ),
    }
}

fn is_runtime_fault(verdict: &Verdict) -> bool {
    matches!(verdict, Verdict::Drop { reason } if reason == RUNTIME_FAULT_DROP_REASON)
}

/// THE poison regression: after an injected worker panic fails a partition
/// closed, the *next* `inspect_batch` on the same enforcer must succeed —
/// the panicked worker is respawned (or the partition rerouted), nothing is
/// poisoned, and verdicts match a fault-free twin on 1, 4 and 8 shards.
#[test]
fn injected_panic_recovers_on_next_batch() {
    for shards in [1usize, 4, 8] {
        // Panic every shard's very first partition: the whole first batch
        // fails closed, the second batch must be served normally.
        let plan = FaultPlan {
            worker_panics: (0..shards)
                .map(|shard| WorkerPanic { shard, batch: 0 })
                .collect(),
            ..FaultPlan::default()
        };
        let (chaos, twin) = chaos_pair(shards, plan);
        let packets: Vec<Ipv4Packet> = (0..96u16).map(flow_keyed_packet).collect();

        let faulted = chaos.inspect_batch(&packets);
        assert!(
            faulted.iter().all(is_runtime_fault),
            "{shards} shards: every packet of the panicked batch fails closed"
        );

        // Recovery: the same enforcer serves the next batch correctly.
        let recovered = chaos.inspect_batch(&packets);
        let expected = inspect_each(&twin, &packets);
        assert_eq!(recovered, expected, "{shards} shards: recovery batch");

        let stats = chaos.stats();
        assert_eq!(stats.dropped_runtime_fault, packets.len() as u64);
        assert_eq!(
            stats.packets_inspected,
            stats.packets_accepted + stats.total_dropped(),
            "{shards} shards: conservation"
        );
        let fault_logs = chaos
            .drop_log()
            .iter()
            .filter(|reason| reason.as_str() == RUNTIME_FAULT_DROP_REASON)
            .count();
        assert_eq!(fault_logs, packets.len(), "{shards} shards: drop log");
        assert!(chaos.shard_health().iter().any(|h| h.faults > 0));
    }
}

/// The overload guard: packets past the admission watermark are shed
/// fail-closed with `dropped_overload` attribution, in input order.
#[test]
fn overload_watermark_sheds_the_tail_fail_closed() {
    let (chaos, twin) = chaos_pair(4, FaultPlan::default());
    chaos.set_overload_watermark(64);
    let packets: Vec<Ipv4Packet> = (0..96u16).map(flow_keyed_packet).collect();

    let verdicts = chaos.inspect_batch(&packets);
    let expected = inspect_each(&twin, &packets);
    assert_eq!(
        verdicts[..64],
        expected[..64],
        "admitted head is inspected normally"
    );
    for verdict in &verdicts[64..] {
        assert!(
            matches!(verdict, Verdict::Drop { reason } if reason == OVERLOAD_DROP_REASON),
            "shed tail must carry the overload reason: {verdict:?}"
        );
    }
    let stats = chaos.stats();
    assert_eq!(stats.dropped_overload, 32);
    assert_eq!(
        stats.packets_inspected,
        stats.packets_accepted + stats.total_dropped()
    );
}

/// Spending the respawn budget quarantines the shard; a quarantined shard
/// is rerouted to the submitter's inline path — injection no longer applies
/// — and the enforcer keeps serving correct verdicts forever after.
#[test]
fn respawn_budget_exhaustion_quarantines_onto_the_inline_path() {
    let shards = 4usize;
    // Panic shard 0's partition on its first 12 batches: enough to burn the
    // respawn budget through the backoff cooldowns.
    let plan = FaultPlan {
        worker_panics: (0..12)
            .map(|batch| WorkerPanic { shard: 0, batch })
            .collect(),
        ..FaultPlan::default()
    };
    let (chaos, twin) = chaos_pair(shards, plan);
    let packets: Vec<Ipv4Packet> = (0..96u16).map(flow_keyed_packet).collect();
    let expected = inspect_each(&twin, &packets);

    let mut clean_batches = 0u32;
    for _ in 0..40 {
        let verdicts = chaos.inspect_batch(&packets);
        if verdicts == expected {
            clean_batches += 1;
        }
    }
    assert!(
        chaos.any_quarantined(),
        "the persistently-panicking shard must be quarantined: {:?}",
        chaos.shard_health()
    );
    assert_eq!(
        chaos.shard_health()[0].state,
        HealthState::Quarantined,
        "shard 0 spent its respawn budget"
    );
    assert!(
        clean_batches >= 20,
        "the quarantined shard's inline path must keep serving ({clean_batches} clean)"
    );
    let stats = chaos.stats();
    assert_eq!(
        stats.packets_inspected,
        stats.packets_accepted + stats.total_dropped()
    );
}

/// Injected wire corruption fails closed through the typed wire-error path.
#[test]
fn injected_wire_corruption_drops_through_the_typed_path() {
    let plan = FaultPlan {
        corrupt_every: std::num::NonZeroU64::new(1),
        ..FaultPlan::default()
    };
    let (chaos, _) = chaos_pair(2, plan);
    let (_, _, login) = solcalendar_fixture();
    let frames: Vec<Vec<u8>> = (0..8u16)
        .map(|flow| borderpatrol::core::wire::encode(&tagged_packet(flow, login)))
        .collect();
    let frame_refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let mut verdicts = Vec::new();
    chaos.inspect_wire_batch_into(&frame_refs, &mut verdicts);
    assert_eq!(verdicts.len(), frames.len());
    assert!(
        verdicts.iter().all(|v| !v.is_accept()),
        "every corrupted frame must fail closed: {verdicts:?}"
    );
    assert_eq!(chaos.stats().dropped_wire, frames.len() as u64);
}

/// A scheduled control-plane commit fault aborts the transaction without
/// touching deployed state; the retry commits normally.
#[test]
fn injected_commit_failure_rolls_back_and_the_retry_lands() {
    let (db, analytics, _) = solcalendar_fixture();
    let plan = FaultPlan {
        fail_commits: vec![0],
        ..FaultPlan::default()
    };
    let mut engine = Engine::builder()
        .shards(2)
        .database(db.clone())
        .faults(plan)
        .build();
    let packets: Vec<Ipv4Packet> = (0..8u16).map(|f| tagged_packet(f, analytics)).collect();
    assert!(engine
        .data_plane()
        .inspect_batch(&packets)
        .iter()
        .all(Verdict::is_accept));

    let attempt = engine
        .control()
        .begin()
        .add_policy(Policy::deny(EnforcementLevel::Library, "com/facebook"))
        .commit();
    assert!(
        matches!(attempt, Err(RolloutError::FaultInjected { ordinal: 0 })),
        "first commit attempt must absorb the injected fault: {attempt:?}"
    );
    // Nothing deployed: the data plane still accepts.
    assert!(engine
        .data_plane()
        .inspect_batch(&packets)
        .iter()
        .all(Verdict::is_accept));

    engine
        .control()
        .begin()
        .add_policy(Policy::deny(EnforcementLevel::Library, "com/facebook"))
        .commit()
        .expect("the retry is past the scheduled fault");
    assert!(engine
        .data_plane()
        .inspect_batch(&packets)
        .iter()
        .all(|verdict| !verdict.is_accept()));
}

/// An engine under a full seeded fault plan never panics outward, keeps
/// serving, attributes every faulted packet, and reports shard health.
#[test]
fn engine_under_seeded_plan_keeps_serving_and_accounts_every_packet() {
    for shards in [1usize, 4, 8] {
        let (db, _, _) = solcalendar_fixture();
        let engine = Engine::builder()
            .shards(shards)
            .database(db.clone())
            .policies(deny_policies())
            .faults(FaultPlan::seeded(0xBAD_CAFE, shards))
            .build();
        let packets: Vec<Ipv4Packet> = (0..64u16).map(flow_keyed_packet).collect();
        for _ in 0..12 {
            let verdicts = engine.data_plane().inspect_batch(&packets);
            assert_eq!(verdicts.len(), packets.len());
        }
        let stats = engine.data_plane().stats();
        assert!(
            stats.dropped_runtime_fault > 0,
            "{shards} shards: the seeded plan panics every shard once"
        );
        assert_eq!(
            stats.packets_inspected,
            stats.packets_accepted + stats.total_dropped(),
            "{shards} shards: conservation under chaos"
        );
        assert_eq!(engine.shard_health().len(), shards);
        assert!(engine.shard_health().iter().any(|h| h.faults > 0));
    }
}

/// Same seed, same shards → byte-identical chaos report, on 1, 4 and
/// 8 shards; a different seed produces a different report.
#[test]
fn seeded_chaos_scenario_reproduces_its_report_byte_for_byte() {
    for shards in [1usize, 4, 8] {
        let spec = ScenarioSpec::chaos_fleet("chaos-replay", 6, 0xD15EA5E, shards);
        let first = PreparedScenario::prepare(&spec)
            .expect("scenario prepares")
            .run()
            .expect("chaos run completes");
        let second = PreparedScenario::prepare(&spec)
            .expect("scenario prepares")
            .run()
            .expect("chaos run completes");
        assert_eq!(
            first.render(),
            second.render(),
            "{shards} shards: chaos reports must be byte-identical"
        );
        assert!(
            first.stats.dropped_runtime_fault > 0,
            "{shards} shards: the seeded plan must actually fire"
        );
    }
    let a = PreparedScenario::prepare(&ScenarioSpec::chaos_fleet("chaos-replay", 6, 1, 4))
        .unwrap()
        .run()
        .unwrap();
    let b = PreparedScenario::prepare(&ScenarioSpec::chaos_fleet("chaos-replay", 6, 2, 4))
        .unwrap()
        .run()
        .unwrap();
    assert_ne!(a.render(), b.render(), "different seeds, different chaos");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos equivalence: under a random fault plan, every non-faulted
    /// packet's verdict is identical to the fault-free run's verdict at the
    /// same index, every faulted packet is accounted fail-closed, and the
    /// drop-log multiset decomposes exactly into the twin's drops at
    /// non-faulted indexes plus the runtime-fault entries.
    #[test]
    fn chaos_runs_are_equivalent_on_non_faulted_packets(
        flows in prop::collection::vec(0u16..48, 16..128),
        shards in prop::sample::select(vec![1usize, 4, 8]),
        panic_batches in prop::collection::vec((0usize..8, 0u64..3), 0..6),
    ) {
        let plan = FaultPlan {
            worker_panics: panic_batches
                .iter()
                .map(|&(shard, batch)| WorkerPanic { shard: shard % shards.max(1), batch })
                .collect(),
            ..FaultPlan::default()
        };
        let (chaos, twin) = chaos_pair(shards, plan);
        let packets: Vec<Ipv4Packet> = flows.iter().map(|&f| flow_keyed_packet(f)).collect();

        let mut faulted = 0u64;
        let mut expected_drops: Vec<String> = Vec::new();
        for _ in 0..3 {
            let chaos_verdicts = chaos.inspect_batch(&packets);
            let twin_verdicts = inspect_each(&twin, &packets);
            for (chaos_verdict, twin_verdict) in chaos_verdicts.iter().zip(&twin_verdicts) {
                if is_runtime_fault(chaos_verdict) {
                    faulted += 1;
                    expected_drops.push(RUNTIME_FAULT_DROP_REASON.to_string());
                } else {
                    prop_assert_eq!(chaos_verdict, twin_verdict);
                    if let Verdict::Drop { reason } = twin_verdict {
                        expected_drops.push(reason.to_string());
                    }
                }
            }
        }

        let stats = chaos.stats();
        prop_assert_eq!(stats.dropped_runtime_fault, faulted);
        prop_assert_eq!(
            stats.packets_inspected,
            stats.packets_accepted + stats.total_dropped()
        );
        let mut chaos_log = chaos.drop_log();
        chaos_log.sort();
        expected_drops.sort();
        prop_assert_eq!(chaos_log, expected_drops);
    }
}
