//! Transactional control plane: integration tests for commit atomicity
//! (no torn generations under concurrent inspection), the
//! one-build-per-commit guarantee, and rollback equivalence.

use std::sync::Arc;

use proptest::prelude::*;

use borderpatrol::core::control::{ControlPlane, EnforcementEndpoint, RolloutError};
use borderpatrol::core::enforcer::{EnforcerConfig, ShardedEnforcer};
use borderpatrol::core::offline::SignatureDatabase;
use borderpatrol::core::policy::{Policy, PolicySet};
use borderpatrol::types::EnforcementLevel;
use borderpatrol::Engine;

mod common;
use common::{solcalendar_fixture as fixture, stream, tagged_packet};

/// Regression for the historical double-rebuild bug: a paired
/// `set_policies` + `set_database` built the tables (and bumped the
/// flow-cache epoch) twice per update.  One transaction staging *both*
/// changes must perform exactly one build — one epoch bump — and leave every
/// registered endpoint on that single new epoch, invalidating each cached
/// flow exactly once.
#[test]
fn paired_policy_and_database_update_bumps_the_epoch_exactly_once() {
    let (db, analytics, _) = fixture();
    let mut control = ControlPlane::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
    let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), 2));
    control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);

    // Warm one flow under the initial epoch.
    let packet = tagged_packet(7, analytics);
    assert!(enforcer.inspect(&packet).is_accept());
    assert!(enforcer.inspect(&packet).is_accept());
    assert_eq!(enforcer.stats().flow_hits, 1);

    let builds_before = control.builds();
    let epoch_before = control.tables().epoch();
    control
        .begin()
        .replace_policies(PolicySet::from_policies(vec![Policy::deny(
            EnforcementLevel::Library,
            "com/flurry",
        )]))
        .swap_database(db.clone())
        .configure(EnforcerConfig::default())
        .commit()
        .unwrap();

    // Exactly one compilation for the whole transaction (the global epoch
    // counter is shared by concurrently running tests, so the build count is
    // the deterministic witness; the endpoint epoch equality below pins the
    // single new build to the data plane).
    assert_eq!(control.builds() - builds_before, 1);
    assert!(control.tables().epoch() > epoch_before);
    assert_eq!(enforcer.tables().epoch(), control.tables().epoch());

    // The warmed flow re-evaluates exactly once (one miss wave), then is
    // served from the cache again: a second spurious invalidation would
    // show up as a second miss here.
    assert!(enforcer.inspect(&packet).is_accept());
    assert!(enforcer.inspect(&packet).is_accept());
    let stats = enforcer.stats();
    assert_eq!(
        stats.flow_misses, 2,
        "initial miss + exactly one re-evaluation"
    );
    assert_eq!(stats.flow_hits, 2);
}

/// Regression for the BENCH_5 wart: `commit_1050` paid a full ~133µs
/// recompilation for a one-rule change.  A 1-policy delta commit on a large
/// rule set must *extend* the previous generation's compiled index instead
/// of rebuilding it — every pre-existing rule's compiled form reused, one
/// build (one epoch bump) still accounted, and the appended rule live.
#[test]
fn one_rule_delta_commit_reuses_the_large_compiled_index() {
    // 100k rules exercises the real scale; debug builds get 20k so the
    // assertion suite stays interactive.
    let rule_count: usize = if cfg!(debug_assertions) {
        20_000
    } else {
        100_000
    };
    let rules: Vec<Policy> = (0..rule_count)
        .map(|i| Policy::deny(EnforcementLevel::Library, format!("gen/a{:06}", i)))
        .collect();
    let mut control = ControlPlane::new(
        SignatureDatabase::new(),
        PolicySet::from_policies(rules),
        EnforcerConfig::default(),
    );
    assert_eq!(control.policy_index_reuses(), 0);
    assert_eq!(control.tables().policies().reused_rule_count(), 0);
    let builds_before = control.builds();
    let epoch_before = control.tables().epoch();

    control
        .begin()
        .add_policy(Policy::deny(EnforcementLevel::Library, "com/flurry"))
        .commit()
        .unwrap();

    // The commit reused the whole pre-existing index rather than rebuilding
    // it: all `rule_count` compiled rules carried over, only the appended
    // rule was compiled fresh.
    assert_eq!(control.policy_index_reuses(), 1);
    assert_eq!(control.tables().policies().reused_rule_count(), rule_count);
    assert_eq!(control.tables().policies().len(), rule_count + 1);
    // Still exactly one accounted build and one epoch bump — incremental
    // compilation changes cost, not the invalidation contract.
    assert_eq!(control.builds() - builds_before, 1);
    assert!(control.tables().epoch() > epoch_before);
    // The appended rule is live in the extended index.
    let sig: borderpatrol::types::MethodSignature =
        "Lcom/flurry/sdk/Agent;->report(Ljava/lang/String;)V"
            .parse()
            .unwrap();
    let tag = borderpatrol::types::ApkHash::digest(b"delta").tag();
    let verdict = control
        .tables()
        .policies()
        .evaluate_frames(tag, 1, |_| &sig);
    assert_eq!(
        verdict,
        borderpatrol::core::policy::CompiledVerdict::Deny {
            policy: Some(rule_count),
            frame: Some(0),
        }
    );
}

/// Commit atomicity under fire, on 1, 4 and 8 shards: while a worker hammers
/// `inspect_batch`, the control plane commits a generation that flips every
/// verdict.  Every packet's verdict must be attributable to exactly one
/// generation — an accept (generation 1: no policies) or a policy drop
/// naming the generation-2 rule; nothing torn, nothing unaccounted — and
/// once `commit` returns, only generation-2 verdicts may appear.
#[test]
fn transactional_hot_swap_mid_batch_has_no_torn_generations() {
    let (db, analytics, _) = fixture();
    for shards in [1usize, 4, 8] {
        let mut control =
            ControlPlane::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
        let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), shards));
        control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
        let packets = stream(64, 4, analytics);

        // Warm every flow under generation 1.
        assert!(enforcer
            .inspect_batch(&packets)
            .iter()
            .all(|verdict| verdict.is_accept()));

        let verdict_generation = |verdict: &borderpatrol::netsim::netfilter::Verdict| match verdict
        {
            borderpatrol::netsim::netfilter::Verdict::Accept => 1u64,
            borderpatrol::netsim::netfilter::Verdict::Drop { reason } => {
                assert!(
                    reason.contains("com/facebook"),
                    "verdict attributable to neither generation: {reason}"
                );
                2
            }
        };

        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut per_generation = [0usize; 2];
                for _ in 0..20 {
                    for verdict in enforcer.inspect_batch(&packets) {
                        per_generation[verdict_generation(&verdict) as usize - 1] += 1;
                    }
                }
                per_generation
            });

            control
                .begin()
                .add_policy(Policy::deny(EnforcementLevel::Library, "com/facebook"))
                .commit()
                .unwrap();

            // The commit returned: generation 2 everywhere, immediately.
            for verdict in enforcer.inspect_batch(&packets) {
                assert_eq!(
                    verdict_generation(&verdict),
                    2,
                    "stale generation-1 verdict after commit returned ({shards} shards)"
                );
            }

            let per_generation = worker.join().expect("inspection worker panicked");
            assert_eq!(
                per_generation[0] + per_generation[1],
                20 * packets.len(),
                "every packet received exactly one attributable verdict"
            );
        });

        // Statistics reconcile: every inspected packet was accepted or
        // dropped, and every one either hit or missed the flow cache.
        let stats = enforcer.stats();
        assert_eq!(
            stats.packets_inspected,
            stats.packets_accepted + stats.total_dropped()
        );
        assert_eq!(stats.packets_inspected, stats.flow_hits + stats.flow_misses);
    }
}

#[test]
fn rollback_restores_verdicts_and_cached_flows() {
    let (db, analytics, _) = fixture();
    let mut engine = Engine::builder().shards(2).database(db.clone()).build();
    let g1 = engine.generation();

    let packets = stream(16, 2, analytics);
    assert!(engine
        .data_plane()
        .inspect_batch(&packets)
        .iter()
        .all(|verdict| verdict.is_accept()));
    let warmed = engine.stats();
    assert_eq!(warmed.flow_misses, 16);

    // Generation 2 denies the fleet's traffic.
    let g2 = engine
        .control()
        .begin()
        .add_policy(Policy::deny(EnforcementLevel::Library, "com/facebook"))
        .commit()
        .unwrap();
    assert!(engine
        .data_plane()
        .inspect_batch(&packets)
        .iter()
        .all(|verdict| !verdict.is_accept()));

    // Rolling back to g1 reinstalls the retained build without a rebuild.
    // The g2 traffic overwrote the flow entries with g2-epoch verdicts, so
    // these correctly re-evaluate (one miss wave) — no stale deny is served.
    assert_eq!(engine.control().rollback(g1).unwrap(), g1);
    assert_eq!(engine.generation(), g1);
    let misses_before = engine.stats().flow_misses;
    assert!(engine
        .data_plane()
        .inspect_batch(&packets)
        .iter()
        .all(|verdict| verdict.is_accept()));
    assert_eq!(engine.stats().flow_misses, misses_before + 16);

    // A commit immediately rolled back (no intervening traffic) leaves the
    // g1-epoch entries untouched: they are *revived*, not re-evaluated.
    let g3 = engine
        .control()
        .begin()
        .add_policy(Policy::deny(EnforcementLevel::Library, "com/flurry"))
        .commit()
        .unwrap();
    assert_eq!(engine.control().rollback(g1).unwrap(), g1);
    let misses_before = engine.stats().flow_misses;
    assert!(engine
        .data_plane()
        .inspect_batch(&packets)
        .iter()
        .all(|verdict| verdict.is_accept()));
    assert_eq!(
        engine.stats().flow_misses,
        misses_before,
        "an aborted rollout must not invalidate the flow cache"
    );
    let _ = g3;

    // g2 is retained too; unknown generations are typed errors.
    assert_eq!(engine.control().rollback(g2).unwrap(), g2);
    let unknown = engine.control().rollback(g1);
    assert!(unknown.is_ok(), "g1 is still retained");
    let err = engine
        .control()
        .rollback(borderpatrol::core::control::GenerationId::from_u64(999))
        .unwrap_err();
    assert!(matches!(err, RolloutError::UnknownGeneration { .. }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Commit → rollback is behaviourally equivalent to never committing,
    /// including flow-cache behaviour: an enforcer that took a policy
    /// generation and rolled it back must serve the same verdicts, the same
    /// outcome counters, the same drop log *and* the same hit/miss pattern
    /// as one that never saw the commit.
    #[test]
    fn commit_then_rollback_is_equivalent_to_never_committing(
        // Each step: (flow selector, payload selector).
        before in prop::collection::vec((0u16..8, any::<bool>()), 1..20),
        after in prop::collection::vec((0u16..8, any::<bool>()), 1..20),
    ) {
        let (db, analytics, login) = fixture();
        let build = || {
            let mut control = ControlPlane::new(
                db.clone(),
                PolicySet::new(),
                EnforcerConfig::default(),
            );
            let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), 1));
            control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
            (control, enforcer)
        };
        let (mut rolled, rolled_enforcer) = build();
        let (_untouched, untouched_enforcer) = build();

        let drive = |steps: &[(u16, bool)]| {
            for &(flow, use_login) in steps {
                let payload = if use_login { login } else { analytics };
                let packet = tagged_packet(flow, payload);
                let a = rolled_enforcer.inspect(&packet);
                let b = untouched_enforcer.inspect(&packet);
                assert_eq!(a, b);
            }
        };

        drive(&before);

        // One enforcer takes a deny-everything generation and immediately
        // rolls it back; the other never sees it.
        let g1 = rolled.generation();
        rolled
            .begin()
            .add_policy(Policy::deny(EnforcementLevel::Library, "com"))
            .commit()
            .unwrap();
        rolled.rollback(g1).unwrap();

        drive(&after);

        let (a, b) = (&rolled_enforcer, &untouched_enforcer);
        // Full equivalence — flow bookkeeping included: the rolled-back
        // epoch is the original one, so the cache pattern is identical.
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.drop_log(), b.drop_log());
        prop_assert_eq!(a.flow_cache_len(), b.flow_cache_len());
    }
}
