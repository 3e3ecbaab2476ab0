//! Flow-aware enforcement: integration tests for the per-shard flow table
//! and epoch-versioned verdict caching (no stale verdicts across hot swaps).

use std::sync::Arc;

use borderpatrol::core::control::{ControlPlane, EnforcementEndpoint};
use borderpatrol::core::encoding::ContextEncoding;
use borderpatrol::core::enforcer::{
    DropLog, EnforcementTables, EnforcerConfig, EnforcerCounters, EnforcerStats, ShardedEnforcer,
    DROP_LOG_CAPACITY,
};
use borderpatrol::core::flow::{FlowTable, FlowTableConfig};
use borderpatrol::core::offline::SignatureDatabase;
use borderpatrol::core::policy::{Policy, PolicySet};
use borderpatrol::netsim::addr::Endpoint;
use borderpatrol::netsim::clock::SimDuration;
use borderpatrol::netsim::options::{IpOption, IpOptionKind};
use borderpatrol::netsim::packet::Ipv4Packet;
use borderpatrol::types::{ApkHash, EnforcementLevel};
use borderpatrol::Engine;
use proptest::prelude::*;

mod common;
use common::{inspect_each, stream, tagged_packet};

/// Analyzed SolCalendar fixture plus its Facebook-analytics context payload.
fn fixture() -> (SignatureDatabase, Vec<u8>) {
    let (db, analytics, _) = common::solcalendar_fixture();
    (db.clone(), analytics.clone())
}

#[test]
fn table_epochs_increase_monotonically_across_builds() {
    let db = SignatureDatabase::new();
    let mut last = 0;
    for _ in 0..4 {
        let tables = EnforcementTables::build(&db, &PolicySet::new(), EnforcerConfig::default());
        assert!(tables.epoch() > last, "epochs must strictly increase");
        last = tables.epoch();
    }
}

#[test]
fn hot_swap_mid_inspect_batch_serves_no_stale_verdict_after_swap_returns() {
    let (db, payload) = fixture();
    let mut control = ControlPlane::new(db, PolicySet::new(), EnforcerConfig::default());
    let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), 4));
    control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
    let packets = stream(64, 8, &payload);

    // Warm every flow's cache entry under the allow tables.
    assert!(enforcer
        .inspect_batch(&packets)
        .iter()
        .all(|verdict| verdict.is_accept()));
    assert!(enforcer.stats().flow_hits > 0);

    // Hammer inspect_batch from a worker while the main thread commits a
    // control-plane transaction replacing the policies.
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let mut accepts = 0usize;
            let mut drops = 0usize;
            for _ in 0..30 {
                for verdict in enforcer.inspect_batch(&packets) {
                    if verdict.is_accept() {
                        accepts += 1;
                    } else {
                        drops += 1;
                    }
                }
            }
            (accepts, drops)
        });

        control
            .begin()
            .replace_policies(PolicySet::from_policies(vec![Policy::deny(
                EnforcementLevel::Library,
                "com/facebook",
            )]))
            .commit()
            .expect("hot swap commit");

        // The commit has returned: every verdict from here on must reflect
        // the deny tables — the flow entries warmed under the old epoch must
        // miss, not replay their cached accepts.
        let verdicts = enforcer.inspect_batch(&packets);
        assert!(
            verdicts.iter().all(|verdict| !verdict.is_accept()),
            "stale accept served after the commit returned"
        );

        let (accepts, drops) = worker.join().expect("worker batch panicked");
        // The worker raced the swap, so it may have seen both regimes — but
        // every packet received exactly one verdict.
        assert_eq!(accepts + drops, 30 * packets.len());
    });

    // Statistics reconcile: every inspected packet was either accepted or
    // dropped, and every tagged inspection either hit or missed the cache.
    let stats = enforcer.stats();
    assert_eq!(
        stats.packets_inspected,
        stats.packets_accepted + stats.total_dropped()
    );
    assert_eq!(stats.packets_inspected, stats.flow_hits + stats.flow_misses);
}

#[test]
fn facade_policy_swap_is_equivalent_to_a_fresh_enforcer() {
    let (db, payload) = fixture();
    let deny = PolicySet::from_policies(vec![Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    )]);

    // The warmed enforcer is a registered endpoint of a control plane; the
    // swap is a committed transaction.
    let mut control = ControlPlane::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
    let swapped = Arc::new(ShardedEnforcer::new(control.tables(), 1));
    control.register(Arc::clone(&swapped) as Arc<dyn EnforcementEndpoint>);
    let packets = stream(16, 3, &payload);
    for packet in &packets {
        assert!(swapped.inspect(packet).is_accept());
    }

    // Swap policies on the warmed enforcer; tables freshly compiled with the
    // same policies, inspected without a flow table, are the ground truth.
    control
        .begin()
        .replace_policies(deny.clone())
        .commit()
        .expect("policy swap commit");
    let fresh = EnforcementTables::build(&db, &deny, EnforcerConfig::default());
    let (fresh_stats, mut fresh_log) = (EnforcerCounters::new(), DropLog::default());
    let mut scratch = Vec::new();
    for packet in &packets {
        assert_eq!(
            swapped.inspect(packet),
            fresh.inspect_packet(packet, &mut scratch, &fresh_stats, &mut fresh_log)
        );
    }
    // Post-swap traffic re-evaluated (one miss per flow) then re-cached.
    let stats = swapped.stats();
    assert_eq!(stats.dropped_by_policy, packets.len() as u64);
}

/// Flow-cache replays interleaved with fresh evaluations in one batch must
/// charge the same outcome counters *and* the same drop-log lines, in the
/// same order, as an uncached enforcer seeing the identical stream.
#[test]
fn interleaved_replays_and_fresh_evaluations_keep_drop_log_order_and_stats_parity() {
    let (db, denied_payload) = fixture();
    let deny = PolicySet::from_policies(vec![Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    )]);

    // One batch interleaving: repeated flows (whose denied verdict replays
    // from the cache after the first packet) with never-seen-before flows
    // (fresh evaluations), in a shuffled but deterministic order.
    let mut packets = Vec::new();
    let hot = stream(4, 1, &denied_payload); // flows 0..4, cached after first sight
    for round in 0..5u16 {
        for packet in &hot {
            packets.push(packet.clone());
        }
        // Two fresh flows per round, interleaved between the replays.
        for i in 0..2u16 {
            let mut fresh = Ipv4Packet::new(
                Endpoint::new([10, 9, 0, round as u8], 50_000 + i),
                Endpoint::new([31, 13, 71, 36], 443),
                b"POST /beacon HTTP/1.1".to_vec(),
            );
            fresh
                .options_mut()
                .push(
                    IpOption::new(IpOptionKind::BorderPatrolContext, denied_payload.clone())
                        .unwrap(),
                )
                .unwrap();
            packets.push(fresh);
        }
    }

    // Single shard so the drop log is one totally ordered sequence.
    let tables = EnforcementTables::shared(&db, &deny, EnforcerConfig::default());
    let cached = ShardedEnforcer::new(Arc::clone(&tables), 1);
    let cached_verdicts = cached.inspect_batch(&packets);

    let (uncached_stats, mut uncached_log) = (EnforcerCounters::new(), DropLog::default());
    let mut scratch = Vec::new();
    let uncached_verdicts: Vec<_> = packets
        .iter()
        .map(|packet| {
            tables.inspect_packet(packet, &mut scratch, &uncached_stats, &mut uncached_log)
        })
        .collect();

    assert_eq!(cached_verdicts, uncached_verdicts);
    assert!(cached_verdicts.iter().all(|v| !v.is_accept()));

    // Outcome parity: identical per-packet counters; the cached run did
    // replay (flow hits) while the uncached run never probed.
    let cached_stats = cached.stats();
    assert_eq!(
        cached_stats.without_flow_counters(),
        uncached_stats.snapshot().without_flow_counters()
    );
    assert!(cached_stats.flow_hits > 0);
    assert_eq!(
        cached_stats.flow_hits + cached_stats.flow_misses,
        cached_stats.packets_inspected
    );

    // Drop-log parity: same lines, same order — replayed verdicts append
    // their drop reasons exactly where a fresh evaluation would have.
    assert_eq!(cached.drop_log(), uncached_log.to_vec());
    assert_eq!(cached.drop_log().len(), packets.len());
}

#[test]
fn flow_ttl_expires_on_the_sim_clock() {
    use borderpatrol::netsim::clock::SimDuration;

    let (db, payload) = fixture();
    let enforcer = ShardedEnforcer::with_flow_config(
        EnforcementTables::shared(&db, &PolicySet::new(), EnforcerConfig::default()),
        1,
        FlowTableConfig {
            capacity: 64,
            ttl: SimDuration::from_millis(5),
        },
    );
    let packets = stream(4, 1, &payload);
    for packet in &packets {
        enforcer.inspect(packet);
    }
    assert_eq!(enforcer.stats().flow_misses, 4);

    // Within the TTL: hits.
    enforcer.set_now(SimDuration::from_millis(4));
    for packet in &packets {
        enforcer.inspect(packet);
    }
    assert_eq!(enforcer.stats().flow_hits, 4);

    // Idle past the TTL: the flows are dead, the packets re-evaluate.
    enforcer.set_now(SimDuration::from_millis(30));
    for packet in &packets {
        enforcer.inspect(packet);
    }
    let stats = enforcer.stats();
    assert_eq!(stats.flow_hits, 4);
    assert_eq!(stats.flow_misses, 8);
}

fn deny_appevents() -> Policy {
    Policy::deny(EnforcementLevel::Class, "com/facebook/appevents")
}

/// The context memo must never outlive its epoch: a context allowed (and
/// remembered) under generation N is denied on the first packet of a *new*
/// flow once N+1 denies it, and accepted again once N is rolled back to.
#[test]
fn remembered_context_follows_commit_and_rollback_on_new_flows() {
    let (db, analytics, _) = common::solcalendar_fixture();
    let mut engine = Engine::builder().shards(2).database(db.clone()).build();
    let allow_generation = engine.generation();
    let new_flows = |from: u16| -> Vec<Ipv4Packet> {
        (from..from + 32)
            .map(|flow| tagged_packet(flow, analytics))
            .collect()
    };
    let all = |engine: &Engine, flows: &[Ipv4Packet], accept: bool| {
        engine
            .data_plane()
            .inspect_batch(flows)
            .iter()
            .all(|verdict| verdict.is_accept() == accept)
    };

    // Generation N: every shard evaluates the context and remembers "accept".
    assert!(all(&engine, &new_flows(0), true));

    // Generation N+1 denies it.  These flows have no flow-table entry, so
    // only the memo could serve the stale accept.
    engine
        .control()
        .begin()
        .add_policy(deny_appevents())
        .commit()
        .unwrap();
    assert!(
        all(&engine, &new_flows(100), false),
        "a context remembered under the previous generation was accepted"
    );

    // Back on N — the same tables, the same epoch — new flows are accepted:
    // the "deny" remembered under N+1 is not served either.
    engine.control().rollback(allow_generation).unwrap();
    assert!(
        all(&engine, &new_flows(200), true),
        "a context remembered under the rolled-back generation was denied"
    );

    let stats = engine.stats();
    assert_eq!((stats.flow_hits, stats.flow_misses), (0, 96));
    assert_eq!((stats.packets_accepted, stats.dropped_by_policy), (64, 32));
}

/// The memo is per shard: the same contexts arriving on two shards get the
/// verdicts, merged counters and drop reasons one shard gives them, and each
/// shard's counters conserve on their own.
#[test]
fn two_shards_remember_the_same_contexts_like_one() {
    let (db, analytics, login) = common::solcalendar_fixture();
    let tables = EnforcementTables::shared(
        db,
        &PolicySet::from_policies(vec![deny_appevents()]),
        EnforcerConfig::strict(),
    );
    // Fresh flows throughout, contexts alternating, twice over so the second
    // half carries only remembered contexts.
    let packets: Vec<Ipv4Packet> = (0..256u16)
        .map(|flow| tagged_packet(flow, if flow % 2 == 0 { analytics } else { login }))
        .collect();

    let one = ShardedEnforcer::new(Arc::clone(&tables), 1);
    let two = ShardedEnforcer::new(Arc::clone(&tables), 2);
    let expected = inspect_each(&one, &packets);
    assert_eq!(two.inspect_batch(&packets), expected);
    assert_eq!(two.stats(), one.stats());

    let mut reasons = (one.drop_log(), two.drop_log());
    reasons.1.sort();
    reasons.0.sort();
    assert_eq!(reasons.0, reasons.1);

    let shards = two.shard_stats();
    assert!(
        shards.iter().all(|shard| shard.packets_inspected > 0),
        "both shards saw traffic"
    );
    for shard in &shards {
        assert_eq!(
            shard.packets_inspected,
            shard.packets_accepted + shard.total_dropped()
        );
        assert_eq!(shard.packets_inspected, shard.flow_misses);
    }
    let merged = shards
        .iter()
        .fold(EnforcerStats::default(), |sum, shard| sum.merged(shard));
    assert_eq!(merged, two.stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Few contexts, many fresh flows, every configuration, epoch bumps in
    /// between: the flow-cached path (flow table + context memo) and the
    /// memo-free `inspect_packet` reference agree on every verdict, outcome
    /// counter and drop-log line, in order, on the same tables.
    #[test]
    fn remembered_contexts_match_the_memo_free_pipeline(
        config_bits in 0u8..16,
        // Each step: (context selector, resend on the previous flow?, rebuild
        // the tables — a fresh epoch — before this packet?).
        steps in prop::collection::vec((0u8..7, any::<bool>(), 0u8..8), 1..120),
    ) {
        let (db, analytics, login) = common::solcalendar_fixture();
        let config = EnforcerConfig {
            drop_untagged: config_bits & 1 != 0,
            drop_unknown_apps: config_bits & 2 != 0,
            drop_malformed_context: config_bits & 4 != 0,
            drop_context_switch: config_bits & 8 != 0,
        };
        let policy_sets = [
            PolicySet::new(),
            PolicySet::from_policies(vec![deny_appevents()]),
            PolicySet::from_policies(vec![Policy::allow(EnforcementLevel::Library, "com/facebook")]),
        ];
        let unknown_app =
            ContextEncoding::encode(ApkHash::digest(b"never-analyzed").tag(), &[0, 1], false)
                .unwrap();
        let contexts: [Option<&[u8]>; 7] = [
            Some(analytics),
            Some(login),
            Some(&[9, 9, 9]),                        // malformed
            Some(&unknown_app),                      // unknown app
            Some(&analytics[..analytics.len() - 1]), // cut short
            Some(&login[..login.len() - 1]),
            None,                                    // untagged
        ];

        // A flow table smaller than the flow count, so inserts evict; the
        // memo and the flow entries live across every rebuild below.
        let mut flow = FlowTable::new(FlowTableConfig { capacity: 4, ttl: SimDuration::ZERO });
        let (cached_stats, reference_stats) = (EnforcerCounters::new(), EnforcerCounters::new());
        let mut cached_log = DropLog::new(DROP_LOG_CAPACITY);
        let mut reference_log = DropLog::new(DROP_LOG_CAPACITY);
        let mut scratch = Vec::new();
        let mut generation = 0usize;
        let mut tables = EnforcementTables::build(db, &policy_sets[0], config);
        let mut previous: Option<Ipv4Packet> = None;

        for (step, (context, resend, rebuild)) in steps.into_iter().enumerate() {
            if rebuild == 0 {
                generation += 1;
                tables = EnforcementTables::build(db, &policy_sets[generation % 3], config);
            }
            // A resend repeats the previous packet (same flow, same context:
            // a flow hit, or a miss if the epoch moved); otherwise the flow
            // is one no earlier step used.
            let packet = match previous.take().filter(|_| resend) {
                Some(packet) => packet,
                None => match contexts[context as usize] {
                    Some(payload) => tagged_packet(step as u16, payload),
                    None => {
                        let mut untagged = tagged_packet(step as u16, &[]);
                        untagged.options_mut().clear();
                        untagged
                    }
                },
            };
            let verdict = tables.inspect_flow_cached(
                &packet,
                &mut flow,
                SimDuration::ZERO,
                &mut scratch,
                &cached_stats,
                &mut cached_log,
            );
            let reference =
                tables.inspect_packet(&packet, &mut scratch, &reference_stats, &mut reference_log);
            prop_assert_eq!(verdict, reference);
            previous = Some(packet);
        }

        prop_assert_eq!(
            cached_stats.snapshot().without_flow_counters(),
            reference_stats.snapshot().without_flow_counters()
        );
        prop_assert_eq!(cached_log.to_vec(), reference_log.to_vec());
    }
}
