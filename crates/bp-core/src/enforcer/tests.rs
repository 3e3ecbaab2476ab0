//! Unit tests of the enforcer module tree, kept in one `enforcer::tests`
//! module so the test names stay what they were before the file split.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bp_netsim::netfilter::Verdict;
use bp_netsim::options::IpOptionKind;
use bp_netsim::packet::Ipv4Packet;

use super::*;
use crate::encoding::ContextEncoding;
use crate::offline::OfflineAnalyzer;
use crate::offline::SignatureDatabase;
use crate::policy::Policy;
use crate::policy::PolicySet;
use bp_appsim::generator::CorpusGenerator;
use bp_netsim::addr::Endpoint;
use bp_netsim::options::IpOption;
use bp_types::EnforcementLevel;

fn tagged_packet(payload_option: Vec<u8>) -> Ipv4Packet {
    let mut packet = Ipv4Packet::new(
        Endpoint::new([10, 0, 0, 4], 40001),
        Endpoint::new([31, 13, 71, 36], 443),
        b"POST /beacon HTTP/1.1".to_vec(),
    );
    packet
        .options_mut()
        .push(IpOption::new(IpOptionKind::BorderPatrolContext, payload_option).unwrap())
        .unwrap();
    packet
}

fn untagged_packet() -> Ipv4Packet {
    Ipv4Packet::new(
        Endpoint::new([10, 0, 0, 4], 40001),
        Endpoint::new([31, 13, 71, 36], 443),
        b"GET / HTTP/1.1".to_vec(),
    )
}

/// Build a database + a context payload whose decoded stack includes the
/// Facebook analytics frames of the SolCalendar model.
fn solcalendar_fixture() -> (SignatureDatabase, Vec<u8>, Vec<u8>) {
    let spec = CorpusGenerator::solcalendar();
    let apk = spec.build_apk();
    let mut db = SignatureDatabase::new();
    OfflineAnalyzer::new().analyze_into(&apk, &mut db).unwrap();
    let table = bp_dex::MethodTable::from_apk(&apk).unwrap();

    let indexes_for = |functionality: &str| -> Vec<u32> {
        spec.functionality(functionality)
            .unwrap()
            .call_chain
            .iter()
            .rev()
            .map(|sig| table.index_of(sig).unwrap())
            .collect()
    };
    let analytics =
        ContextEncoding::encode(apk.hash().tag(), &indexes_for("fb-analytics"), false).unwrap();
    let login = ContextEncoding::encode(apk.hash().tag(), &indexes_for("fb-login"), false).unwrap();
    (db, analytics, login)
}

/// [`inspect_legacy`] with its own counters and drop log, over one database,
/// policy set and configuration.
struct Legacy {
    database: SignatureDatabase,
    policies: PolicySet,
    config: EnforcerConfig,
    counters: EnforcerCounters,
    drop_log: DropLog,
}

impl Legacy {
    fn new(database: SignatureDatabase, policies: PolicySet, config: EnforcerConfig) -> Self {
        Legacy {
            database,
            policies,
            config,
            counters: EnforcerCounters::new(),
            drop_log: DropLog::default(),
        }
    }

    fn inspect(&mut self, packet: &Ipv4Packet) -> Verdict {
        inspect_legacy(
            &self.database,
            &self.policies,
            self.config,
            packet,
            &self.counters,
            &mut self.drop_log,
        )
    }
}

#[test]
fn policy_violations_are_dropped_and_logged() {
    let (db, analytics_payload, login_payload) = solcalendar_fixture();
    let policies = PolicySet::from_policies(vec![Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    )]);
    let enforcer = ShardedEnforcer::from_parts(&db, &policies, EnforcerConfig::default(), 1);

    let verdict = enforcer.inspect(&tagged_packet(analytics_payload));
    assert!(!verdict.is_accept());
    let verdict = enforcer.inspect(&tagged_packet(login_payload));
    assert!(verdict.is_accept());

    let stats = enforcer.stats();
    assert_eq!(stats.packets_inspected, 2);
    assert_eq!(stats.dropped_by_policy, 1);
    assert_eq!(stats.packets_accepted, 1);
    assert_eq!(enforcer.drop_log().len(), 1);
    assert!(enforcer.drop_log()[0].contains("com/facebook/appevents"));
}

#[test]
fn untagged_packets_follow_configuration() {
    let (db, _, _) = solcalendar_fixture();
    let permissive =
        ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 1);
    assert!(permissive.inspect(&untagged_packet()).is_accept());
    assert_eq!(permissive.stats().dropped_untagged, 0);

    let strict = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::strict(), 1);
    assert!(!strict.inspect(&untagged_packet()).is_accept());
    assert_eq!(strict.stats().dropped_untagged, 1);
}

#[test]
fn unknown_app_tags_follow_configuration() {
    let (db, _, _) = solcalendar_fixture();
    let bogus_payload = ContextEncoding::encode(
        bp_types::ApkHash::digest(b"never-analyzed").tag(),
        &[0, 1],
        false,
    )
    .unwrap();

    let default = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 1);
    assert!(!default
        .inspect(&tagged_packet(bogus_payload.clone()))
        .is_accept());
    assert_eq!(default.stats().dropped_unknown_app, 1);

    let permissive =
        ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::permissive(), 1);
    assert!(permissive
        .inspect(&tagged_packet(bogus_payload))
        .is_accept());
}

#[test]
fn malformed_context_is_dropped_by_default() {
    let (db, _, _) = solcalendar_fixture();
    let enforcer =
        ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 1);
    // 3 bytes is shorter than the payload header.
    let verdict = enforcer.inspect(&tagged_packet(vec![1, 2, 3]));
    assert!(!verdict.is_accept());
    assert_eq!(enforcer.stats().dropped_malformed, 1);
}

#[test]
fn dangling_index_counts_as_malformed_for_known_app() {
    let (db, _, _) = solcalendar_fixture();
    let tag = db
        .iter()
        .next()
        .map(|(tag_hex, _)| bp_types::AppTag::from_hex(tag_hex).unwrap())
        .unwrap();
    let payload = ContextEncoding::encode(tag, &[60_000], false).unwrap();
    let enforcer =
        ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 1);
    assert!(!enforcer.inspect(&tagged_packet(payload)).is_accept());
    assert_eq!(enforcer.stats().dropped_malformed, 1);
}

#[test]
fn reconfiguration_changes_behaviour_without_rebuilding() {
    let (db, analytics_payload, _) = solcalendar_fixture();
    let mut control =
        crate::control::ControlPlane::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
    let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), 1));
    control.register(Arc::clone(&enforcer) as _);
    assert!(enforcer
        .inspect(&tagged_packet(analytics_payload.clone()))
        .is_accept());

    control
        .begin()
        .replace_policies(PolicySet::from_policies(vec![Policy::deny(
            EnforcementLevel::Library,
            "com/facebook",
        )]))
        .commit()
        .unwrap();
    assert!(!enforcer
        .inspect(&tagged_packet(analytics_payload))
        .is_accept());
    enforcer.reset_stats();
    assert_eq!(enforcer.stats().packets_inspected, 0);
    assert!(enforcer.drop_log().is_empty());
}

#[test]
fn legacy_and_compiled_paths_agree_on_the_fixture() {
    let (db, analytics_payload, login_payload) = solcalendar_fixture();
    let policies = PolicySet::from_policies(vec![
        Policy::deny(EnforcementLevel::Class, "com/facebook/appevents"),
        Policy::deny(EnforcementLevel::Library, "com/flurry"),
    ]);
    let compiled = ShardedEnforcer::from_parts(&db, &policies, EnforcerConfig::default(), 1);
    let mut legacy = Legacy::new(db, policies, EnforcerConfig::default());

    for payload in [analytics_payload, login_payload, vec![1, 2, 3]] {
        let packet = tagged_packet(payload);
        assert_eq!(compiled.inspect(&packet), legacy.inspect(&packet));
    }
    let untagged = untagged_packet();
    assert_eq!(compiled.inspect(&untagged), legacy.inspect(&untagged));
    // Outcome counters must agree; the legacy pipeline has no flow cache,
    // so the hit/miss bookkeeping is excluded from the comparison.
    let legacy_stats = legacy.counters.snapshot();
    assert_eq!(
        compiled.stats().without_flow_counters(),
        legacy_stats.without_flow_counters()
    );
    assert_eq!(legacy_stats.flow_misses, 0);
    assert_eq!(compiled.drop_log(), legacy.drop_log.to_vec());
}

#[test]
fn mid_flow_context_switch_is_counted_and_reevaluated_by_default() {
    let (db, analytics_payload, login_payload) = solcalendar_fixture();
    let enforcer =
        ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 1);

    // Same 5-tuple, two different payloads: the second is flagged as a
    // mid-flow switch but — with the knob off — still re-evaluated.
    assert!(enforcer
        .inspect(&tagged_packet(analytics_payload.clone()))
        .is_accept());
    assert!(enforcer
        .inspect(&tagged_packet(login_payload.clone()))
        .is_accept());
    let stats = enforcer.stats();
    assert_eq!(stats.flow_context_switches, 1);
    assert_eq!(stats.dropped_context_switch, 0);
    assert_eq!(stats.flow_misses, 2);
    assert_eq!(stats.packets_accepted, 2);

    // The switch overwrote the entry: the new payload now hits.
    assert!(enforcer.inspect(&tagged_packet(login_payload)).is_accept());
    assert_eq!(enforcer.stats().flow_hits, 1);
}

#[test]
fn context_switch_drop_keeps_the_original_flow_entry() {
    let (db, analytics_payload, login_payload) = solcalendar_fixture();
    let config = EnforcerConfig {
        drop_context_switch: true,
        ..EnforcerConfig::default()
    };
    let enforcer = ShardedEnforcer::from_parts(&db, &PolicySet::new(), config, 1);

    assert!(enforcer
        .inspect(&tagged_packet(analytics_payload.clone()))
        .is_accept());
    // Replayed context on the live flow: dropped, attributed to the
    // context-switch counter, and logged.
    let verdict = enforcer.inspect(&tagged_packet(login_payload));
    assert!(!verdict.is_accept());
    let stats = enforcer.stats();
    assert_eq!(stats.dropped_context_switch, 1);
    assert_eq!(stats.flow_context_switches, 1);
    assert!(enforcer.drop_log()[0].contains("mid-flow context change"));

    // The legitimate context was not evicted by the injection: the
    // flow's original payload still replays from the cache.
    assert!(enforcer
        .inspect(&tagged_packet(analytics_payload))
        .is_accept());
    assert_eq!(enforcer.stats().flow_hits, 1);
    assert_eq!(enforcer.stats().flow_misses, 1);
}

#[test]
fn strict_config_enables_context_switch_drops() {
    assert!(EnforcerConfig::strict().drop_context_switch);
    assert!(!EnforcerConfig::default().drop_context_switch);
    assert!(!EnforcerConfig::permissive().drop_context_switch);
}

#[test]
fn drop_log_ring_buffer_evicts_oldest_in_order() {
    let mut log = DropLog::new(3);
    for i in 0..5 {
        log.push(format!("drop {i}"));
    }
    assert_eq!(log.len(), 3);
    assert_eq!(log.to_vec(), vec!["drop 2", "drop 3", "drop 4"]);
    assert_eq!(log.capacity(), 3);
    log.clear();
    assert!(log.is_empty());
}

#[test]
fn drop_log_stays_bounded_under_sustained_drops() {
    let (db, _, _) = solcalendar_fixture();
    let enforcer = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::strict(), 1);
    for _ in 0..(DROP_LOG_CAPACITY + 50) {
        enforcer.inspect(&untagged_packet());
    }
    assert_eq!(enforcer.drop_log().len(), DROP_LOG_CAPACITY);
    assert_eq!(
        enforcer.stats().dropped_untagged,
        (DROP_LOG_CAPACITY + 50) as u64
    );
}

#[test]
fn sharded_enforcer_matches_single_shard_on_a_packet_stream() {
    let (db, analytics_payload, login_payload) = solcalendar_fixture();
    let policies = PolicySet::from_policies(vec![Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    )]);

    // A stream mixing allowed, denied, malformed and untagged packets
    // across many source ports (flows).
    let mut packets = Vec::new();
    for i in 0..200u16 {
        let mut packet = Ipv4Packet::new(
            Endpoint::new([10, 0, (i >> 8) as u8, i as u8], 40_000 + i),
            Endpoint::new([31, 13, 71, 36], 443),
            b"POST /beacon HTTP/1.1".to_vec(),
        );
        let payload = match i % 4 {
            0 => Some(analytics_payload.clone()),
            1 => Some(login_payload.clone()),
            2 => Some(vec![9, 9, 9]),
            _ => None,
        };
        if let Some(payload) = payload {
            packet
                .options_mut()
                .push(IpOption::new(IpOptionKind::BorderPatrolContext, payload).unwrap())
                .unwrap();
        }
        packets.push(packet);
    }

    let single = ShardedEnforcer::from_parts(&db, &policies, EnforcerConfig::default(), 1);
    let expected: Vec<Verdict> = packets.iter().map(|p| single.inspect(p)).collect();

    let sharded = ShardedEnforcer::from_parts(&db, &policies, EnforcerConfig::default(), 4);
    let verdicts = sharded.inspect_batch(&packets);

    assert_eq!(verdicts, expected);
    assert_eq!(sharded.stats(), single.stats());
    // Work actually spread across shards.
    let busy = sharded
        .shard_stats()
        .iter()
        .filter(|s| s.packets_inspected > 0)
        .count();
    assert!(busy > 1, "expected multiple busy shards, got {busy}");
    // Drop logs hold the same multiset of reasons.
    let mut sharded_log = sharded.drop_log();
    let mut single_log = single.drop_log();
    sharded_log.sort();
    single_log.sort();
    assert_eq!(sharded_log, single_log);

    sharded.reset_stats();
    assert_eq!(sharded.stats(), EnforcerStats::default());
    assert!(sharded.drop_log().is_empty());
}

#[test]
fn duplicate_context_options_are_dropped_as_spoofing() {
    let (db, analytics_payload, login_payload) = solcalendar_fixture();
    // The login context is benign; a second (spoofed) analytics context
    // rides behind it.  Enforcing on only the first would accept.
    let mut packet = tagged_packet(login_payload.clone());
    packet
        .options_mut()
        .push(IpOption::new(IpOptionKind::BorderPatrolContext, analytics_payload).unwrap())
        .unwrap();

    let enforcer = ShardedEnforcer::from_parts(
        &db,
        &PolicySet::from_policies(vec![Policy::deny(
            EnforcementLevel::Class,
            "com/facebook/appevents",
        )]),
        EnforcerConfig::default(),
        1,
    );
    let verdict = enforcer.inspect(&packet);
    assert!(!verdict.is_accept());
    let stats = enforcer.stats();
    assert_eq!(stats.dropped_duplicate_context, 1);
    assert_eq!(stats.total_dropped(), 1);
    // Non-conforming packets never reach the flow cache.
    assert_eq!(stats.flow_misses, 0);
    assert_eq!(enforcer.flow_cache_len(), 0);
    assert!(enforcer.drop_log()[0].contains("duplicate"));

    // The legacy pipeline agrees.
    let mut legacy = Legacy::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
    assert_eq!(legacy.inspect(&packet), verdict);
    assert_eq!(legacy.counters.snapshot().dropped_duplicate_context, 1);

    // The drop is unconditional: even permissive deployments (which
    // still apply deny policies) must not enforce on only the first
    // option — that would reopen the bypass for them.
    let permissive =
        ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::permissive(), 1);
    assert!(!permissive.inspect(&packet).is_accept());
    assert_eq!(permissive.stats().dropped_duplicate_context, 1);
    let mut permissive_legacy =
        Legacy::new(db.clone(), PolicySet::new(), EnforcerConfig::permissive());
    assert!(!permissive_legacy.inspect(&packet).is_accept());

    // A single context option (the same first one) still passes.
    let single = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 1);
    assert!(single.inspect(&tagged_packet(login_payload)).is_accept());
}

#[test]
fn trailing_covert_data_is_dropped_as_nonconforming() {
    let (db, _, _) = solcalendar_fixture();
    // Craft the wire form: a context option, End-of-List, then covert
    // bytes riding the padding area.  The conformance check fires before
    // any decoding, so a short payload suffices.
    let mut packet = untagged_packet();
    let mut wire = vec![IpOptionKind::BorderPatrolContext.type_byte(), 5, 1, 2, 3];
    wire.push(IpOptionKind::EndOfList.type_byte());
    wire.extend_from_slice(&[0xDE, 0xAD]);
    let options = bp_netsim::options::IpOptions::parse(&wire).unwrap();
    assert!(options.has_trailing_data());
    *packet.options_mut() = options;

    let enforcer =
        ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 1);
    assert!(!enforcer.inspect(&packet).is_accept());
    assert_eq!(enforcer.stats().dropped_malformed, 1);
    assert!(enforcer.drop_log()[0].contains("end-of-options-list"));

    let mut legacy = Legacy::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
    assert!(!legacy.inspect(&packet).is_accept());

    // Permissive deployments (drop_malformed_context = false) still
    // evaluate the context instead of dropping.
    let permissive =
        ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::permissive(), 1);
    assert!(permissive.inspect(&packet).is_accept());
    assert_eq!(permissive.stats().dropped_malformed, 0);
}

#[test]
fn flow_cache_replays_verdicts_and_counts_hits() {
    let (db, analytics_payload, login_payload) = solcalendar_fixture();
    let policies = PolicySet::from_policies(vec![Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    )]);
    let tables = EnforcementTables::shared(&db, &policies, EnforcerConfig::default());
    let cached = ShardedEnforcer::new(Arc::clone(&tables), 1);
    let (uncached_stats, mut uncached_log) = (EnforcerCounters::new(), DropLog::default());
    let mut scratch = Vec::new();
    let mut uncached = |packet: &Ipv4Packet| {
        tables.inspect_packet(packet, &mut scratch, &uncached_stats, &mut uncached_log)
    };

    let accept_packet = tagged_packet(login_payload);
    let deny_packet = tagged_packet(analytics_payload);
    for _ in 0..5 {
        assert_eq!(cached.inspect(&accept_packet), uncached(&accept_packet));
        assert_eq!(cached.inspect(&deny_packet), uncached(&deny_packet));
    }

    // Identical outcome counters and drop logs, hit-accelerated.
    assert_eq!(
        cached.stats().without_flow_counters(),
        uncached_stats.snapshot().without_flow_counters()
    );
    assert_eq!(cached.drop_log(), uncached_log.to_vec());
    let stats = cached.stats();
    // Both packets share one flow (same 5-tuple) but alternate payloads,
    // so every probe after the first is a payload mismatch: the
    // cache re-evaluates instead of replaying the wrong verdict.
    assert_eq!(stats.flow_hits, 0);
    assert_eq!(stats.flow_misses, 10);

    // On distinct flows the repeats hit.
    cached.reset_stats();
    cached.clear_flow_cache();
    let mut packets = Vec::new();
    for port in 0..4u16 {
        let mut packet = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 4], 41_000 + port),
            Endpoint::new([31, 13, 71, 36], 443),
            b"POST /beacon HTTP/1.1".to_vec(),
        );
        packet
            .options_mut()
            .push(
                IpOption::new(
                    IpOptionKind::BorderPatrolContext,
                    cached_payload_for(port, &accept_packet, &deny_packet),
                )
                .unwrap(),
            )
            .unwrap();
        packets.push(packet);
    }
    for _ in 0..3 {
        for packet in &packets {
            cached.inspect(packet);
        }
    }
    let stats = cached.stats();
    assert_eq!(stats.flow_misses, 4);
    assert_eq!(stats.flow_hits, 8);
    assert_eq!(cached.flow_cache_len(), 4);
}

/// Payload helper for the distinct-flow test above: alternate accept and
/// deny contexts across flows.
fn cached_payload_for(port: u16, accept_packet: &Ipv4Packet, deny_packet: &Ipv4Packet) -> Vec<u8> {
    let source = if port % 2 == 0 {
        accept_packet
    } else {
        deny_packet
    };
    source
        .options()
        .find(IpOptionKind::BorderPatrolContext)
        .unwrap()
        .data
        .clone()
}

#[test]
fn policy_swap_bumps_epoch_and_invalidates_cached_verdicts() {
    let (db, analytics_payload, _) = solcalendar_fixture();
    let mut control =
        crate::control::ControlPlane::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
    let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), 1));
    control.register(Arc::clone(&enforcer) as _);
    let packet = tagged_packet(analytics_payload);

    let epoch_before = enforcer.tables().epoch();
    assert!(enforcer.inspect(&packet).is_accept());
    assert!(enforcer.inspect(&packet).is_accept());
    assert_eq!(enforcer.stats().flow_hits, 1);

    control
        .begin()
        .replace_policies(PolicySet::from_policies(vec![Policy::deny(
            EnforcementLevel::Library,
            "com/facebook",
        )]))
        .commit()
        .unwrap();
    assert!(enforcer.tables().epoch() > epoch_before);

    // The cached accept was computed under the old epoch: it must not be
    // served.  The probe misses, re-evaluates and drops.
    assert!(!enforcer.inspect(&packet).is_accept());
    let stats = enforcer.stats();
    assert_eq!(stats.flow_hits, 1);
    assert_eq!(stats.flow_misses, 2);
    assert_eq!(stats.dropped_by_policy, 1);
}

#[test]
fn flow_cache_evictions_are_counted_and_bounded() {
    let (db, analytics_payload, _) = solcalendar_fixture();
    let enforcer = ShardedEnforcer::with_flow_config(
        EnforcementTables::shared(&db, &PolicySet::new(), EnforcerConfig::default()),
        1,
        crate::flow::FlowTableConfig {
            capacity: 8,
            ttl: bp_netsim::clock::SimDuration::ZERO,
        },
    );
    for port in 0..32u16 {
        let mut packet = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 4], 42_000 + port),
            Endpoint::new([31, 13, 71, 36], 443),
            b"POST /beacon HTTP/1.1".to_vec(),
        );
        packet
            .options_mut()
            .push(
                IpOption::new(IpOptionKind::BorderPatrolContext, analytics_payload.clone())
                    .unwrap(),
            )
            .unwrap();
        enforcer.inspect(&packet);
    }
    assert_eq!(enforcer.flow_cache_len(), 8);
    assert_eq!(enforcer.stats().flow_evictions, 24);
    enforcer.clear_flow_cache();
    assert_eq!(enforcer.flow_cache_len(), 0);
}

#[test]
fn sharded_install_tables_hot_swaps_without_stale_verdicts() {
    let (db, analytics_payload, _) = solcalendar_fixture();
    let sharded = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 4);
    let packet = tagged_packet(analytics_payload);

    // Warm the flow cache under the permissive tables.
    assert!(sharded.inspect(&packet).is_accept());
    assert!(sharded.inspect(&packet).is_accept());
    assert_eq!(sharded.stats().flow_hits, 1);

    let deny = EnforcementTables::shared(
        &db,
        &PolicySet::from_policies(vec![Policy::deny(
            EnforcementLevel::Library,
            "com/facebook",
        )]),
        EnforcerConfig::default(),
    );
    sharded.install_tables(Arc::clone(&deny));
    assert_eq!(sharded.tables().epoch(), deny.epoch());

    // The swap bumped the epoch: the warmed entry cannot be replayed.
    assert!(!sharded.inspect(&packet).is_accept());
    assert_eq!(sharded.stats().dropped_by_policy, 1);
}

#[test]
fn sharded_enforcer_keeps_flows_on_one_shard() {
    let (db, analytics_payload, _) = solcalendar_fixture();
    let sharded = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 8);
    let packet = tagged_packet(analytics_payload);
    let shard = sharded.shard_for(&packet);
    for _ in 0..10 {
        assert_eq!(sharded.shard_for(&packet), shard);
    }
}

/// A multi-flow stream mixing accepted, denied, malformed and untagged
/// packets.
fn mixed_stream(analytics: &[u8], login: &[u8], count: u16) -> Vec<Ipv4Packet> {
    (0..count)
        .map(|i| {
            let mut packet = Ipv4Packet::new(
                Endpoint::new([10, 0, (i >> 8) as u8, i as u8], 40_000 + i),
                Endpoint::new([31, 13, 71, 36], 443),
                b"POST /beacon HTTP/1.1".to_vec(),
            );
            let payload = match i % 4 {
                0 => Some(analytics.to_vec()),
                1 => Some(login.to_vec()),
                2 => Some(vec![9, 9, 9]),
                _ => None,
            };
            if let Some(payload) = payload {
                packet
                    .options_mut()
                    .push(IpOption::new(IpOptionKind::BorderPatrolContext, payload).unwrap())
                    .unwrap();
            }
            packet
        })
        .collect()
}

#[test]
fn pool_and_scoped_runtimes_agree_on_a_mixed_stream() {
    let (db, analytics, login) = solcalendar_fixture();
    let policies = PolicySet::from_policies(vec![Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    )]);
    let tables = EnforcementTables::shared(&db, &policies, EnforcerConfig::default());
    let packets = mixed_stream(&analytics, &login, 256);

    for shards in [2usize, 4, 8] {
        let batched = ShardedEnforcer::new(Arc::clone(&tables), shards);
        // The reference shares no batch code with the runtime: a second
        // enforcer on the same tables, driven packet by packet.
        let reference = ShardedEnforcer::new(Arc::clone(&tables), shards);
        // Several batches so the second round replays from the flow
        // caches on both sides.
        for _ in 0..3 {
            let expected: Vec<Verdict> = packets.iter().map(|p| reference.inspect(p)).collect();
            assert_eq!(batched.inspect_batch(&packets), expected);
        }
        // A partition and the per-packet loop both visit a shard's
        // packets in input order, so per-shard counters and the
        // shard-grouped drop log match exactly, not just as multisets.
        assert_eq!(batched.shard_stats(), reference.shard_stats());
        assert_eq!(batched.drop_log(), reference.drop_log());
    }
}

#[test]
fn inspect_batch_into_reuses_the_buffer_and_matches_inspect_batch() {
    let (db, analytics, login) = solcalendar_fixture();
    let sharded = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 4);
    let packets = mixed_stream(&analytics, &login, 64);
    let mut reused = Vec::new();
    for _ in 0..3 {
        sharded.inspect_batch_into(&packets, &mut reused);
        assert_eq!(reused.len(), packets.len());
    }
    let fresh = sharded.inspect_batch(&packets);
    sharded.inspect_batch_into(&packets, &mut reused);
    assert_eq!(reused, fresh);
}

#[test]
fn dropping_the_enforcer_shuts_down_and_joins_all_pool_workers() {
    let (db, analytics, login) = solcalendar_fixture();
    let sharded = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::strict(), 4);
    let packets = mixed_stream(&analytics, &login, 64);
    // Every busy shard but the last has its partition dispatched, which
    // spawns that lane's worker; the last runs here.  Watch the workers
    // and the shared core across the enforcer's drop.
    let verdicts = sharded.inspect_batch(&packets);
    assert_eq!(verdicts.len(), packets.len());
    let busy: std::collections::BTreeSet<usize> =
        packets.iter().map(|p| sharded.shard_for(p)).collect();
    assert!(busy.len() > 1, "stream never fans out");
    let live = sharded.pool.live_workers();
    assert_eq!(live.load(Ordering::Relaxed), busy.len() - 1);
    let core = Arc::downgrade(&sharded.core);

    drop(sharded);

    // Drop joined every worker (no detached threads), and with the
    // workers gone nothing still references the shared core (no leaked
    // flow tables, stats or table snapshots).
    assert_eq!(live.load(Ordering::Acquire), 0);
    assert!(
        core.upgrade().is_none(),
        "enforcer core leaked past drop (a worker still holds it)"
    );
}

#[test]
fn an_unbatched_enforcer_spawns_no_pool_threads() {
    let (db, analytics, _) = solcalendar_fixture();
    let sharded = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 4);
    // Inline single-packet inspection and single-packet "batches" never
    // fan out.
    assert!(sharded
        .inspect(&tagged_packet(analytics.clone()))
        .is_accept());
    let _ = sharded.inspect_batch(&[tagged_packet(analytics)]);
    assert_eq!(
        sharded.pool.live_workers().load(Ordering::Acquire),
        0,
        "quiet enforcer spawned threads"
    );
}

#[test]
fn single_flow_batches_and_one_shard_enforcers_spawn_no_threads() {
    let (db, analytics, login) = solcalendar_fixture();
    // Four shards, but every batch is one flow: one busy partition, run
    // on the submitter.
    let sharded = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 4);
    let flow = vec![tagged_packet(analytics.clone()); 32];
    for _ in 0..8 {
        assert_eq!(sharded.inspect_batch(&flow).len(), flow.len());
    }
    assert_eq!(sharded.pool.live_workers().load(Ordering::Acquire), 0);

    // One shard, many flows, many batches: the only partition is always
    // the last busy one.
    let single = ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 1);
    let packets = mixed_stream(&analytics, &login, 256);
    for _ in 0..8 {
        assert_eq!(single.inspect_batch(&packets).len(), packets.len());
    }
    assert_eq!(single.pool.live_workers().load(Ordering::Acquire), 0);
}

/// Drop-log regression: the rendered text must be byte-identical to what
/// the `String`-based log recorded before [`DropReason`] (operator
/// tooling greps these lines).
#[test]
fn drop_log_text_is_byte_identical_to_the_string_log() {
    let (db, analytics, _) = solcalendar_fixture();
    let policies = PolicySet::from_policies(vec![Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    )]);
    let config = EnforcerConfig {
        drop_untagged: true,
        drop_context_switch: true,
        ..EnforcerConfig::default()
    };
    let enforcer = ShardedEnforcer::from_parts(&db, &policies, config, 1);

    // One distinct flow per case so the flow cache never reroutes a
    // later case into a mid-flow context switch.
    let flow_packet = |port: u16, payload: Option<Vec<u8>>| {
        let mut packet = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 4], port),
            Endpoint::new([31, 13, 71, 36], 443),
            b"POST /beacon HTTP/1.1".to_vec(),
        );
        if let Some(payload) = payload {
            packet
                .options_mut()
                .push(IpOption::new(IpOptionKind::BorderPatrolContext, payload).unwrap())
                .unwrap();
        }
        packet
    };

    // Untagged.
    enforcer.inspect(&flow_packet(50_000, None));
    // Malformed (short payload).
    enforcer.inspect(&flow_packet(50_001, Some(vec![1, 2, 3])));
    // Unknown app.
    let bogus = ContextEncoding::encode(
        bp_types::ApkHash::digest(b"never-analyzed").tag(),
        &[0],
        false,
    )
    .unwrap();
    enforcer.inspect(&flow_packet(50_002, Some(bogus)));
    // Duplicate options.
    let mut duplicate = flow_packet(50_003, Some(analytics.clone()));
    duplicate
        .options_mut()
        .push(IpOption::new(IpOptionKind::BorderPatrolContext, analytics.clone()).unwrap())
        .unwrap();
    enforcer.inspect(&duplicate);
    // Policy deny, then a mid-flow switch on the same live flow.
    enforcer.inspect(&flow_packet(50_004, Some(analytics)));
    enforcer.inspect(&flow_packet(50_004, Some(vec![7; 12])));

    let log = enforcer.drop_log();
    assert_eq!(log[0], "packet carries no BorderPatrol context");
    assert!(
        log[1].starts_with("malformed context option: "),
        "unexpected malformed rendering: {}",
        log[1]
    );
    assert!(
        log[2].starts_with("unknown application tag "),
        "unexpected unknown-app rendering: {}",
        log[2]
    );
    assert_eq!(log[3], "duplicate BorderPatrol context options");
    assert!(
        log[4].starts_with("policy ")
            && log[4].contains("violated: ")
            && log[4].contains("com/facebook/appevents"),
        "unexpected deny rendering: {}",
        log[4]
    );
    assert_eq!(
        log[5],
        "mid-flow context change (replayed or injected context)"
    );
    // Every drop verdict's reason equals its log line.
    assert_eq!(enforcer.stats().total_dropped(), log.len() as u64);
}

#[test]
fn drop_reason_renders_and_converts() {
    assert_eq!(DropReason::Static("static").as_str(), "static");
    assert_eq!(DropReason::from("static"), DropReason::Static("static"));
    let rendered = DropReason::from(String::from("rendered"));
    assert_eq!(rendered.as_str(), "rendered");
    assert_eq!(rendered.to_string(), "rendered");
    let shared: Arc<str> = "shared".into();
    assert_eq!(DropReason::from(&shared).as_str(), "shared");
}

/// One packet through both struct batch entry points, each on an enforcer
/// of its own: the verdicts (which must agree) and the first enforcer's
/// statistics and drop log.
fn struct_batch_outcome(
    db: &SignatureDatabase,
    policies: &PolicySet,
    packet: &Ipv4Packet,
) -> (Verdict, EnforcerStats, Vec<String>) {
    use bp_netsim::netfilter::QueueHandler;

    let config = EnforcerConfig::default();
    let batched = ShardedEnforcer::from_parts(db, policies, config, 2);
    let verdicts = batched.inspect_batch(std::slice::from_ref(packet));
    let mut handler = ShardedEnforcer::from_parts(db, policies, config, 2);
    let mut copy = packet.clone();
    let mut handled = Vec::new();
    handler.handle_batch_into(&mut [&mut copy], &mut handled);
    assert_eq!(handled, verdicts, "the filter chain's batch agrees");
    assert_eq!(handler.stats(), batched.stats());
    let stats = batched.stats();
    assert_eq!(
        stats.packets_inspected,
        stats.packets_accepted + stats.total_dropped(),
        "conservation"
    );
    assert_eq!(stats.packets_inspected, 1);
    let [verdict] = <[Verdict; 1]>::try_from(verdicts).expect("one verdict");
    (verdict, stats, batched.drop_log())
}

/// A struct batch is judged as the frame it encodes to: its verdict and
/// drop log are the legacy oracle's over `decode_frame(encode(packet))`,
/// and so are the outcome counters.
fn assert_judged_as_its_frame(packet: &Ipv4Packet) -> Verdict {
    let (db, _, _) = solcalendar_fixture();
    let policies = PolicySet::from_policies(vec![Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    )]);
    let frame = crate::wire::decode_frame(&crate::wire::encode(packet)).expect("the frame parses");
    let mut legacy = Legacy::new(db.clone(), policies.clone(), EnforcerConfig::default());
    let expected = legacy.inspect(&frame);
    let (verdict, stats, drop_log) = struct_batch_outcome(&db, &policies, packet);
    assert_eq!(verdict, expected);
    assert_eq!(drop_log, legacy.drop_log.to_vec());
    let oracle = legacy.counters.snapshot();
    assert_eq!(stats.packets_accepted, oracle.packets_accepted);
    assert_eq!(stats.total_dropped(), oracle.total_dropped());
    assert_eq!(stats.dropped_malformed, oracle.dropped_malformed);
    verdict
}

#[test]
fn struct_batch_judges_a_mid_list_end_of_list_as_its_frame() {
    let (_, _, login) = solcalendar_fixture();
    // End-of-List ahead of the context: on the wire the context option is
    // post-EOL data, so the frame carries no context but trailing data.
    let mut packet = untagged_packet();
    let options = packet.options_mut();
    options
        .push(IpOption::new(IpOptionKind::EndOfList, vec![]).unwrap())
        .unwrap();
    options
        .push(IpOption::new(IpOptionKind::BorderPatrolContext, login).unwrap())
        .unwrap();
    let verdict = assert_judged_as_its_frame(&packet);
    assert!(!verdict.is_accept(), "post-EOL bytes are a covert channel");
}

#[test]
fn struct_batch_judges_trailing_data_on_a_full_area_as_its_frame() {
    let (_, _, login) = solcalendar_fixture();
    // The login context, then No-Ops up to 39 of the 40 option bytes: one
    // byte is too few for the EOL marker and its trailer, so the encoder
    // drops the flag and the frame is the plain login context.
    let mut packet = tagged_packet(login.clone());
    let options = packet.options_mut();
    while options.encoded_len() < bp_netsim::options::MAX_OPTIONS_LEN - 1 {
        options
            .push(IpOption::new(IpOptionKind::NoOp, vec![]).unwrap())
            .unwrap();
    }
    assert_eq!(
        options.encoded_len(),
        bp_netsim::options::MAX_OPTIONS_LEN - 1,
        "login fits"
    );
    options.mark_trailing_data();
    let verdict = assert_judged_as_its_frame(&packet);
    assert!(verdict.is_accept(), "the frame is the login context");
}

#[test]
fn struct_batch_drops_a_packet_past_the_length_field_as_a_wire_failure() {
    let (db, _, _) = solcalendar_fixture();
    let packet = Ipv4Packet::new(
        Endpoint::new([10, 0, 0, 4], 40001),
        Endpoint::new([31, 13, 71, 36], 443),
        vec![0; 70_000],
    );
    assert!(packet.total_len() > usize::from(u16::MAX));
    let error = crate::wire::WireError::LengthMismatch;
    assert_eq!(
        crate::wire::decode_frame(&crate::wire::encode(&packet)),
        Err(error)
    );
    let (verdict, stats, drop_log) = struct_batch_outcome(&db, &PolicySet::new(), &packet);
    assert_eq!(verdict, Verdict::drop(error.drop_reason()));
    assert_eq!(stats.dropped_wire, 1);
    assert_eq!(stats.dropped_wire_by.get(error), 1);
    assert_eq!(drop_log, [error.drop_reason()]);
}
