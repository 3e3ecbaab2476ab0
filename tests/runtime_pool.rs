//! The batch runtime: integration tests proving `inspect_batch` decides
//! exactly like a per-packet reference that shares no batch code with it —
//! same verdicts, same per-shard statistics, same per-shard drop-log order —
//! on 1, 4 and 8 shards, including under a mid-batch control-plane hot swap,
//! and that an engine whose data plane has spawned workers shuts down
//! cleanly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use borderpatrol::core::control::{ControlPlane, EnforcementEndpoint};
use borderpatrol::core::enforcer::{
    EnforcementTables, EnforcerConfig, EnforcerStats, ShardedEnforcer,
};
use borderpatrol::core::policy::{Policy, PolicySet};
use borderpatrol::netsim::addr::Endpoint;
use borderpatrol::netsim::netfilter::Verdict;
use borderpatrol::netsim::packet::Ipv4Packet;
use borderpatrol::types::EnforcementLevel;
use borderpatrol::Engine;

mod common;
use common::{inspect_each, solcalendar_fixture, stream, tagged_packet};

/// The deny policies every equivalence run enforces.
fn deny_policies() -> PolicySet {
    PolicySet::from_policies(vec![
        Policy::deny(EnforcementLevel::Class, "com/facebook/appevents"),
        Policy::deny(EnforcementLevel::Library, "com/flurry"),
    ])
}

/// A batch-driven enforcer and its reference, sharing one compiled table
/// set.  The reference is only ever driven packet by packet
/// ([`inspect_each`]), so nothing of the batch runtime is on both sides.
fn runtime_pair(shards: usize) -> (ShardedEnforcer, ShardedEnforcer) {
    let (db, _, _) = solcalendar_fixture();
    let tables = EnforcementTables::shared(db, &deny_policies(), EnforcerConfig::default());
    (
        ShardedEnforcer::new(Arc::clone(&tables), shards),
        ShardedEnforcer::new(tables, shards),
    )
}

/// Assert both enforcers ended in the same per-shard state: identical
/// per-shard statistics and an identical shard-grouped drop log.  A
/// partition and the per-packet loop both visit a shard's packets in input
/// order, so the logs match in order, not just as multisets.
fn assert_equivalent(pool: &ShardedEnforcer, reference: &ShardedEnforcer) {
    assert_eq!(pool.shard_stats(), reference.shard_stats());
    assert_eq!(pool.drop_log(), reference.drop_log());
}

/// The packet shapes the randomized stream draws from: an accepted context,
/// a denied context, a malformed payload and an untagged packet.
fn shaped_packet(flow: u16, shape: usize) -> Ipv4Packet {
    let (_, analytics, login) = solcalendar_fixture();
    match shape {
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

#[test]
fn pool_matches_scoped_verdicts_stats_and_drops_across_shard_counts() {
    for shards in [1usize, 4, 8] {
        let (pool, reference) = runtime_pair(shards);
        // Three rounds over a 96-flow mixed stream: round one populates the
        // flow caches, later rounds replay from them on both sides.
        let packets: Vec<Ipv4Packet> = (0..96u16)
            .map(|i| shaped_packet(i, usize::from(i) % 4))
            .collect();
        for _ in 0..3 {
            let pool_verdicts = pool.inspect_batch(&packets);
            let expected = inspect_each(&reference, &packets);
            assert_eq!(pool_verdicts, expected, "{shards} shards");
        }
        assert_equivalent(&pool, &reference);
        assert!(pool.stats().flow_hits > 0, "caches never warmed");
    }
}

#[test]
fn pool_handles_empty_and_tiny_batches() {
    let (pool, reference) = runtime_pair(4);
    assert_eq!(pool.inspect_batch(&[]), Vec::<Verdict>::new());
    let (_, _, login) = solcalendar_fixture();
    let single = vec![tagged_packet(7, login)];
    assert_eq!(
        pool.inspect_batch(&single),
        inspect_each(&reference, &single)
    );
    let pair = vec![tagged_packet(7, login), tagged_packet(8, login)];
    assert_eq!(pool.inspect_batch(&pair), inspect_each(&reference, &pair));
    assert_equivalent(&pool, &reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed streams, random batch sizes: the runtime and the
    /// per-packet reference agree packet-for-packet on 1, 4 and 8 shards.
    #[test]
    fn pool_and_scoped_agree_on_random_streams(
        shapes in prop::collection::vec((0usize..4, 0u16..48), 1..160),
        shards in prop::sample::select(vec![1usize, 4, 8]),
        split in 1usize..160,
    ) {
        let (pool, reference) = runtime_pair(shards);
        let packets: Vec<Ipv4Packet> = shapes
            .iter()
            .map(|&(shape, flow)| shaped_packet(flow, shape))
            .collect();
        // Drive the stream as two batches so cache state created by the
        // first influences the second, at a random split point.
        let split = split.min(packets.len());
        let (first, second) = packets.split_at(split);
        prop_assert_eq!(pool.inspect_batch(first), inspect_each(&reference, first));
        prop_assert_eq!(pool.inspect_batch(second), inspect_each(&reference, second));
        prop_assert_eq!(pool.shard_stats(), reference.shard_stats());
        prop_assert_eq!(pool.drop_log(), reference.drop_log());
    }
}

/// Deadlock guard: an inline `inspect` and a batch worker contend for the
/// same shards.  Each shard has one lock, so neither can hold part of a
/// shard while waiting for the rest; the only other locks on the batch path
/// are the struct entry points' encode buffers and the pool's submission
/// lock, and `inspect` takes neither (it encodes into its shard's buffer).
/// When a shard had three mutexes and one path took them in another order,
/// this interleaving wedged within a few iterations — the test terminating
/// is the assertion.
#[test]
fn inline_inspect_and_pool_batches_interleave_without_deadlock() {
    let (pool, _) = runtime_pair(4);
    let (_, analytics, login) = solcalendar_fixture();
    let packets: Vec<Ipv4Packet> = (0..64u16).map(|i| tagged_packet(i, login)).collect();
    std::thread::scope(|scope| {
        let batcher = scope.spawn(|| {
            let mut verdicts = Vec::new();
            for _ in 0..400 {
                pool.inspect_batch_into(&packets, &mut verdicts);
            }
        });
        // Inline inspections hit the same shards (same flows) concurrently.
        for round in 0..400 {
            let flow = (round % 64) as u16;
            pool.inspect(&tagged_packet(flow, analytics));
        }
        batcher.join().unwrap();
    });
    assert_eq!(
        pool.stats().packets_inspected,
        400 * 64 + 400,
        "every inline and batched packet accounted"
    );
}

/// `reset_stats` against running batches: counters, drop log and published
/// snapshot are zeroed together under the shard lock, so a reset lands
/// between two partitions.  When the counters were zeroed before the lock
/// was taken, a reset landing between a packet's `inspected` and `accepted`
/// bumps left the shard with more verdicts than inspections.
#[test]
fn reset_stats_under_load_keeps_every_shard_conserving() {
    let (pool, _) = runtime_pair(4);
    let packets: Vec<Ipv4Packet> = (0..256u16)
        .map(|i| shaped_packet(i, usize::from(i) % 4))
        .collect();
    let conserves = |stats: &EnforcerStats| {
        stats.packets_inspected == stats.packets_accepted + stats.total_dropped()
    };
    let (resetting, done) = (Barrier::new(2), AtomicBool::new(false));
    std::thread::scope(|scope| {
        let resetter = scope.spawn(|| {
            resetting.wait();
            while !done.load(Ordering::Relaxed) {
                pool.reset_stats();
            }
        });
        // Batches start only once the resetter thread is running.
        resetting.wait();
        let mut verdicts = Vec::new();
        for _ in 0..400 {
            pool.inspect_batch_into(&packets, &mut verdicts);
            for stats in pool.shard_stats() {
                assert!(conserves(&stats), "reset tore a running shard: {stats:?}");
            }
        }
        done.store(true, Ordering::Relaxed);
        resetter.join().unwrap();
    });
    // Quiescent: whichever came last on a shard, a reset or a partition,
    // its live counters and its published snapshot agree.
    for (stats, snapshot) in pool.shard_stats().iter().zip(pool.telemetry()) {
        assert!(conserves(stats), "{stats:?}");
        assert_eq!(*stats, snapshot.stats);
    }
}

/// Commit atomicity through the runtime: while a worker thread hammers
/// `inspect_batch`, the control plane commits a generation that flips every
/// verdict.  Nothing torn mid-batch, and once `commit` returns only
/// generation-2 verdicts appear.
#[test]
fn mid_batch_commit_hot_swaps_the_pool_runtime() {
    let (db, analytics, _) = solcalendar_fixture();
    for shards in [1usize, 4, 8] {
        let mut control =
            ControlPlane::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
        let enforcer = Arc::new(ShardedEnforcer::new(control.tables(), shards));
        control.register(Arc::clone(&enforcer) as Arc<dyn EnforcementEndpoint>);
        let packets = stream(64, 4, analytics);

        // Warm every flow under generation 1 (no policies: all accept).
        assert!(enforcer
            .inspect_batch(&packets)
            .iter()
            .all(Verdict::is_accept));

        let generation_of = |verdict: &Verdict| match verdict {
            Verdict::Accept => 1u64,
            Verdict::Drop { reason } => {
                assert!(
                    reason.contains("com/facebook"),
                    "verdict attributable to neither generation: {reason}"
                );
                2
            }
        };

        std::thread::scope(|scope| {
            let hammer = scope.spawn(|| {
                let mut verdicts = Vec::new();
                let mut per_generation = [0usize; 2];
                for _ in 0..20 {
                    enforcer.inspect_batch_into(&packets, &mut verdicts);
                    for verdict in &verdicts {
                        per_generation[generation_of(verdict) as usize - 1] += 1;
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
                    generation_of(&verdict),
                    2,
                    "stale generation-1 verdict after commit returned ({shards} shards)"
                );
            }

            let per_generation = hammer.join().unwrap();
            assert_eq!(
                per_generation[0] + per_generation[1],
                packets.len() * 20,
                "every hammered packet attributed to exactly one generation"
            );
        });
    }
}

/// An engine whose data plane has fanned batches out — registered as a
/// control-plane endpoint, batches in flight beforehand — drops cleanly: the
/// runtime's shutdown joins its workers, so this test finishing (rather than
/// hanging on a leaked thread) is the assertion.
#[test]
fn engine_drop_shuts_down_the_pool() {
    let (db, analytics, _) = solcalendar_fixture();
    let mut engine = Engine::builder().shards(4).database(db.clone()).build();
    let packets = stream(32, 2, analytics);
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
        .unwrap();
    assert!(engine
        .data_plane()
        .inspect_batch(&packets)
        .iter()
        .all(|verdict| !verdict.is_accept()));
    drop(engine);
}
