//! The allocation budget of the byte ingress.
//!
//! `Engine::ingest_bytes_into` holds every packet of every flow until it has
//! a verdict, and under attack most verdicts are drops, so its steady state
//! must not touch the heap: frames are inspected in place and drop reasons
//! are handed out by pointer.  This binary counts allocations with a
//! wrapping global allocator and asserts **zero** per batch once the
//! engine is warm, for cached accepts, cached drops and an attack-shaped
//! mix — and for batches made only of *new flows* whose contexts the shard
//! has evaluated before, with the flow table at capacity: the context memo
//! hands those their outcome, and its reason text, by refcount.  Only the
//! first sighting of a context is the slow path and may allocate (it
//! renders the deny reason once); it is held to the parent's count.
//!
//! The struct batch entry points — `ShardedEnforcer::inspect_batch_into` and
//! the filter chain's `QueueHandler::handle_batch_into` — are held to the
//! same zero over cached flows.
//!
//! The control plane's compiler is held to a budget too: a full
//! `PolicySet::compile` allocates a fixed handful of buffers, sized up front,
//! however many rules it compiles.
//!
//! One `#[test]`, on purpose: the counter is process-wide, and a second
//! test running (or being spawned by the harness) beside a measured window
//! would be counted into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use borderpatrol::core::encoding::ContextEncoding;
use borderpatrol::core::enforcer::{
    EnforcementTables, EnforcerConfig, EnforcerStats, ShardedEnforcer, DROP_LOG_CAPACITY,
};
use borderpatrol::core::flow::FlowTableConfig;
use borderpatrol::core::policy::{Policy, PolicySet};
use borderpatrol::core::wire::{self, WireError};
use borderpatrol::netsim::netfilter::{QueueHandler, Verdict};
use borderpatrol::netsim::options::{IpOption, IpOptionKind};
use borderpatrol::netsim::packet::Ipv4Packet;
use borderpatrol::types::{ApkHash, EnforcementLevel};
use borderpatrol::Engine;

mod common;
use common::{solcalendar_fixture, tagged_packet};

/// Calls to `alloc`/`realloc` since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting.  Test-only: the workspace's one `unsafe` outside
/// `bp-core::runtime` (see `crates/bp-lint/invariants.manifest`).
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore this type's; the counter is a relaxed
// atomic that never touches the memory being managed.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is
    // exactly `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` through this type with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const BATCH: usize = 256;
const MEASURED_BATCHES: usize = 64;
/// Flows per shard: room for every cached flow below, small enough that the
/// churn section's warm-up fills each flow table several times over.
const FLOW_CAPACITY: usize = 512;

/// Allocations a batch of 256 never-seen flows carrying 256 never-seen
/// policy-denied contexts made at the parent of the change that introduced
/// the context memo (same warm-up, same frames, measured with this file).
const PARENT_MISS_BATCH_ALLOCATIONS: u64 = 3_076;

/// Batches of never-seen flows that fill each shard's flow table — its slab
/// and index grow for the last time on the way to capacity — and the batches
/// counted after them.
const CHURN_WARM_BATCHES: usize = 48;
const CHURN_MEASURED_BATCHES: usize = 16;

/// Rule counts of the synthetic sets the compile section builds; the same
/// allocation count at both means it does not grow with the rule count.
const COMPILE_SCALES: [usize; 2] = [1_000, 10_000];
/// Allocations one full compilation of such a set may make.
const COMPILE_ALLOCATIONS: u64 = 64;

/// A synthetic `n`-rule set of hash, library, class and method rules in
/// turn, every target distinct, held in one shared chunk (no appended tail).
fn mixed_rule_set(n: usize) -> PolicySet {
    PolicySet::from_policies(
        (0..n)
            .map(|i| match i % 4 {
                0 => Policy::deny(
                    EnforcementLevel::Hash,
                    ApkHash::digest(&(i as u64).to_le_bytes()).tag().to_hex(),
                ),
                1 => Policy::deny(EnforcementLevel::Library, format!("gen/v{i:06}")),
                2 => Policy::deny(EnforcementLevel::Class, format!("gen/v{i:06}/Widget")),
                _ => Policy::deny(
                    EnforcementLevel::Method,
                    format!("Lgen/v{i:06}/Widget;->run()V"),
                ),
            })
            .collect(),
    )
}

fn policies() -> PolicySet {
    PolicySet::from_policies(vec![Policy::deny(
        EnforcementLevel::Class,
        "com/facebook/appevents",
    )])
}

fn flow_config() -> FlowTableConfig {
    FlowTableConfig {
        capacity: FLOW_CAPACITY,
        ..FlowTableConfig::default()
    }
}

fn engine(shards: usize) -> Engine {
    let (db, _, _) = solcalendar_fixture();
    Engine::builder()
        .shards(shards)
        .database(db.clone())
        .policies(policies())
        .config(EnforcerConfig::strict())
        .flow_config(flow_config())
        .build()
}

/// The engine's data plane on its own, for the entry points that take it by
/// `&mut` (the filter chain's [`QueueHandler`]).
fn enforcer(shards: usize) -> ShardedEnforcer {
    let (db, _, _) = solcalendar_fixture();
    let tables = EnforcementTables::shared(db, &policies(), EnforcerConfig::strict());
    ShardedEnforcer::with_flow_config(tables, shards, flow_config())
}

/// `BATCH` frames over 64 flows, each built by `shape` from its flow number.
fn batch_of(shape: impl Fn(u16) -> Vec<u8>) -> Vec<Vec<u8>> {
    (0..BATCH as u16).map(|n| shape(n % 64)).collect()
}

/// Every committed malformed frame (one per `WireError`, plus the covert
/// post-EOL frame that decodes and dies in enforcement).
fn malformed_corpus() -> Vec<Vec<u8>> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire");
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("fixture directory")
        .map(|entry| entry.expect("fixture entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "bin"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| fs::read(path).expect("fixture"))
        .collect()
}

/// What an attacker sends, beside the traffic it rides on: wire errors of
/// every kind, untagged, duplicate-context and trailing-data packets,
/// replayed context on live flows — and the cached accepts of those flows.
fn attack_batch() -> Vec<Vec<u8>> {
    let (_, analytics, login) = solcalendar_fixture();
    let corpus = malformed_corpus();
    (0..BATCH as u16)
        .map(|n| {
            // Eight frames per flow, the cached accepts ahead of the switch.
            let flow = n / 8 % 16;
            let mut packet = tagged_packet(flow, login);
            match n % 8 {
                0 | 1 => return corpus[n as usize / 4 % corpus.len()].clone(),
                2 => packet.options_mut().clear(),
                3 => packet
                    .options_mut()
                    .push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![9, 9]).unwrap())
                    .unwrap(),
                4 => packet.options_mut().mark_trailing_data(),
                // The flow's cached context is `login`: a mid-flow switch.
                7 => packet = tagged_packet(flow, analytics),
                _ => {}
            }
            wire::encode(&packet)
        })
        .collect()
}

/// Has a shard nothing left to grow?  Its drop log, if it logs at all, is
/// at `DROP_LOG_CAPACITY`.  (Its flows are cached by the first batch, and a
/// hit grows nothing: the flow table relinks the entry where it lies.)
fn is_warm(shard: &EnforcerStats) -> bool {
    let dropped = shard.total_dropped();
    dropped == 0 || dropped >= DROP_LOG_CAPACITY as u64
}

/// Drive `frames` through `engine` until nothing is left to grow — worker
/// lanes spawned, flows cached, every shard [`is_warm`], the `verdicts`
/// buffer sized — then count the allocations of `MEASURED_BATCHES` more
/// batches.
fn steady_state_allocations(engine: &Engine, frames: &[Vec<u8>]) -> u64 {
    let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let mut verdicts: Vec<Verdict> = Vec::new();
    loop {
        engine.ingest_bytes_into(&refs, &mut verdicts);
        if engine.data_plane().shard_stats().iter().all(is_warm) {
            break;
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_BATCHES {
        engine.ingest_bytes_into(&refs, &mut verdicts);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// [`steady_state_allocations`] for a struct batch entry point: run `batch`
/// on `enforcer` until every shard [`is_warm`], then count the allocations
/// of `MEASURED_BATCHES` more.
fn struct_steady_state_allocations(
    enforcer: &mut ShardedEnforcer,
    mut batch: impl FnMut(&mut ShardedEnforcer),
) -> u64 {
    loop {
        batch(enforcer);
        if enforcer.shard_stats().iter().all(is_warm) {
            break;
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_BATCHES {
        batch(enforcer);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn byte_ingress_stays_within_its_allocation_budget() {
    // First, before any engine starts a worker: a full compilation allocates
    // no string per rule, no tree node per key and no table regrowth.
    let compile_allocations = COMPILE_SCALES.map(|n| {
        let set = mixed_rule_set(n);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let compiled = set.compile();
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(compiled.len(), n);
        allocated
    });
    assert_eq!(
        compile_allocations[0], compile_allocations[1],
        "compiling {COMPILE_SCALES:?} rules allocated {compile_allocations:?} times"
    );
    assert!(
        compile_allocations[1] <= COMPILE_ALLOCATIONS,
        "a full compilation allocated {} times, the budget is {COMPILE_ALLOCATIONS}",
        compile_allocations[1]
    );

    let (_, analytics, login) = solcalendar_fixture();
    let accepts = batch_of(|flow| wire::encode(&tagged_packet(flow, login)));
    let denies = batch_of(|flow| wire::encode(&tagged_packet(flow, analytics)));

    for shards in [1, 2] {
        let engine = engine(shards);
        assert_eq!(
            steady_state_allocations(&engine, &accepts),
            0,
            "cached accepts, {shards} shard(s)"
        );
        let stats = engine.stats();
        assert_eq!(stats.packets_accepted, stats.packets_inspected);
        assert_eq!(stats.flow_misses, 64);
    }

    // The struct entry points over the same cached flows: a batch of
    // `Ipv4Packet`s, and the filter chain's batch of `&mut Ipv4Packet`.
    let packets: Vec<Ipv4Packet> = (0..BATCH as u16)
        .map(|n| tagged_packet(n % 64, login))
        .collect();
    for shards in [1, 2] {
        let mut verdicts = Vec::new();
        let inspected = struct_steady_state_allocations(&mut enforcer(shards), |enforcer| {
            enforcer.inspect_batch_into(&packets, &mut verdicts)
        });
        assert_eq!(inspected, 0, "inspect_batch_into, {shards} shard(s)");
        let mut owned = packets.clone();
        let mut handles: Vec<&mut Ipv4Packet> = owned.iter_mut().collect();
        let handled = struct_steady_state_allocations(&mut enforcer(shards), |enforcer| {
            enforcer.handle_batch_into(&mut handles, &mut verdicts)
        });
        assert_eq!(handled, 0, "handle_batch_into, {shards} shard(s)");
        assert!(verdicts.iter().all(Verdict::is_accept));
    }

    let engine = self::engine(2);
    assert_eq!(
        steady_state_allocations(&engine, &denies),
        0,
        "cached policy denies"
    );
    let stats = engine.stats();
    assert_eq!(stats.dropped_by_policy, stats.packets_inspected);
    assert_eq!(stats.flow_misses, 64);

    // New flows, remembered contexts: every frame opens a flow this (warm)
    // engine has never seen, half of them policy-denied, and once the flow
    // tables are full every insert evicts.  Each shard evaluates `login`
    // once, during the warm-up (`analytics` it has seen above).
    let churn: Vec<Vec<u8>> = (0..((CHURN_WARM_BATCHES + CHURN_MEASURED_BATCHES) * BATCH) as u16)
        .map(|n| {
            let context = if n % 2 == 0 { analytics } else { login };
            wire::encode(&tagged_packet(2_000 + n, context))
        })
        .collect();
    let refs: Vec<&[u8]> = churn.iter().map(Vec::as_slice).collect();
    let mut verdicts = Vec::with_capacity(BATCH);
    let (warm_up, measured) = refs.split_at(CHURN_WARM_BATCHES * BATCH);
    for batch in warm_up.chunks(BATCH) {
        engine.ingest_bytes_into(batch, &mut verdicts);
    }
    for shard in engine.data_plane().shard_stats() {
        assert!(
            shard.flow_evictions >= 4 * FLOW_CAPACITY as u64,
            "a shard's flow table is not warm: {} evictions",
            shard.flow_evictions
        );
    }
    let before_stats = engine.stats();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for batch in measured.chunks(BATCH) {
        engine.ingest_bytes_into(batch, &mut verdicts);
    }
    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed) - before,
        0,
        "new flows carrying remembered contexts, flow table at capacity"
    );
    let stats = engine
        .stats()
        .delta_since(&before_stats)
        .expect("same engine");
    let frames = measured.len() as u64;
    assert_eq!((stats.flow_misses, stats.flow_hits), (frames, 0));
    assert_eq!(stats.flow_evictions, frames);
    assert_eq!(stats.dropped_by_policy, frames / 2);
    assert_eq!(stats.packets_accepted, frames / 2);

    let engine = self::engine(2);
    assert_eq!(
        steady_state_allocations(&engine, &attack_batch()),
        0,
        "attack-shaped batch"
    );
    let stats = engine.stats();
    for error in WireError::ALL {
        assert!(stats.dropped_wire_by.get(error) > 0, "no {error} frame");
    }
    for (class, count) in [
        ("untagged", stats.dropped_untagged),
        ("duplicate context", stats.dropped_duplicate_context),
        ("trailing data", stats.dropped_malformed),
        ("context switch", stats.dropped_context_switch),
        ("accepted", stats.packets_accepted),
    ] {
        assert!(count > 0, "the attack batch has no {class} packet");
    }
    assert_eq!(stats.dropped_by_policy, 0, "nothing reached evaluation");

    // The slow path: a batch of flows the (warm) engine has never seen, each
    // carrying a context it has never seen either — the analytics stack
    // under two more (harmless) frames — so each is evaluated, policy-denied
    // and renders its reason.
    let denied = ContextEncoding::decode(analytics).expect("fixture context");
    let fresh: Vec<Vec<u8>> = (0..BATCH as u16)
        .map(|n| {
            let mut stack = denied.frame_indexes.clone();
            stack.extend([u32::from(n / 16), u32::from(n % 16)]);
            let context =
                ContextEncoding::encode(denied.app_tag, &stack, false).expect("fits the option");
            wire::encode(&tagged_packet(1_000 + n, &context))
        })
        .collect();
    let refs: Vec<&[u8]> = fresh.iter().map(Vec::as_slice).collect();
    let mut verdicts = Vec::with_capacity(BATCH);
    let misses = engine.stats().flow_misses;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    engine.ingest_bytes_into(&refs, &mut verdicts);
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let stats = engine.stats();
    assert_eq!(stats.flow_misses - misses, BATCH as u64);
    assert_eq!(stats.dropped_by_policy, BATCH as u64);
    assert!(
        allocated <= PARENT_MISS_BATCH_ALLOCATIONS,
        "{BATCH} flow-table misses allocated {allocated} times, \
         {PARENT_MISS_BATCH_ALLOCATIONS} at the parent"
    );
}
