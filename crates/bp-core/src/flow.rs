//! Connection-tracking flow table with epoch-versioned verdict caching.
//!
//! The Policy Enforcer sits on the path of **every packet** (paper §IV-A3),
//! yet the packets of a long-lived flow almost always carry the *same*
//! context option: the stack is captured once per `connect` and re-injected
//! verbatim on every packet of the socket.  Re-running context decode,
//! signature resolution and policy evaluation for each of them is pure waste
//! — Poise makes the same observation for in-network BYOD enforcement and
//! keeps per-flow context state in the data plane to reach line rate.
//!
//! [`FlowTable`] is that state here: a bounded per-shard map from the 5-tuple
//! [`FlowKey`] (the exact key `bp-netsim`'s network-side flow accounting
//! uses, so the two planes agree on flow identity) to the cached outcome of
//! the last evaluation, together with
//!
//! * the **exact context-option payload** that produced the outcome, stored
//!   inline (RFC 791 bounds it to 38 bytes) and byte-compared on every probe
//!   — any context change (new stack, new tag, tampered bytes) on a live
//!   flow is surfaced as a [`FlowProbe::ContextSwitch`] (the set-once kernel
//!   never re-tags a socket, so a mid-flow change is the signature of
//!   context replay or injection), and no hash-collision replay is possible;
//!   and
//! * the **epoch** of the compiled [`EnforcementTables`] the outcome was
//!   computed under — recompiling (policy or database hot-swap) bumps the
//!   epoch, so entries cached before the swap are lazily invalidated on
//!   their next probe and a stale verdict is never served.  This holds even
//!   when the control plane compiles a generation *incrementally* (an
//!   append-only policy delta extends the previous generation's index
//!   instead of rebuilding it): every committed generation is stamped with a
//!   fresh epoch regardless of how much compiled structure it reuses, so
//!   reuse changes compile cost only, never cache-coherence semantics.
//!
//! Eviction is LRU (lazy, via a touch queue) bounded by
//! [`FlowTableConfig::capacity`], plus TTL on the simulated clock: entries
//! idle longer than [`FlowTableConfig::ttl`] are treated as dead flows.
//!
//! Flow tables are *shard-local*. [`ShardedEnforcer`] partitions batches by
//! flow, so a flow's packets always land on the same shard and the tables
//! need no cross-shard synchronization.
//!
//! # The context memo
//!
//! A context is (app hash, call stack at `connect`), so an app's thousands
//! of sockets carry a few dozen distinct payloads: most flow-table *misses*
//! bring bytes this shard evaluated moments ago on another flow.  Behind the
//! flow entries the table therefore keeps a small **context memo** — exact
//! payload bytes + tables epoch → [`CachedOutcome`] — that the enforcer
//! consults only after a probe has missed (`FlowTable::remembered_or`): a
//! remembered context skips decode, resolve and evaluation and gets its
//! reason text by refcount; a new one is evaluated once and remembered.
//! Probe, insert, eviction and every flow counter are what they were — a
//! remembered context is still a flow miss.
//!
//! * **Sound** because evaluation is a pure function of (payload bytes,
//!   tables) and the epoch names the tables: an entry is only served under
//!   the epoch it was stored under, so a commit invalidates it exactly as it
//!   does flow entries (and a rollback to a retained generation, which
//!   restores that generation's tables *and* epoch, revives it).  A commit
//!   then costs one evaluation per distinct context per shard, not one per
//!   flow.
//! * **Exact bytes, not a hash**, for the reason given on `PayloadBuf`: the
//!   hash only picks a set, the bytes decide.
//! * **Bounded against hostile traffic by construction**: 64 sets × 4 ways
//!   (256 contexts, 18 KiB per shard) allocated with the table, never
//!   resized, rehashed or swept.  A never-repeating payload costs one hash,
//!   four compares and one store that shifts its set down (288 bytes) more
//!   than it did without a memo, and displaces one entry of one set — so a
//!   flood displaces at most the 256 remembered contexts, each of which
//!   costs its next flow one ordinary evaluation.  Payloads over the RFC 791
//!   bound are never remembered; [`FlowTable::clear`] empties it.
//!
//! [`EnforcementTables`]: crate::enforcer::EnforcementTables
//! [`ShardedEnforcer`]: crate::enforcer::ShardedEnforcer

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use bp_netsim::clock::SimDuration;
use bp_netsim::packet::FlowKey;

use crate::encoding::MAX_CONTEXT_PAYLOAD;

/// Default bound on the number of flows one shard tracks.
pub const DEFAULT_FLOW_CAPACITY: usize = 4_096;

/// Default idle TTL after which a cached flow entry is considered dead.
pub const DEFAULT_FLOW_TTL: SimDuration = SimDuration::from_millis(30_000);

/// The Fx multiplier (a.k.a. the Firefox hasher constant).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Inline copy of a context-option payload.
///
/// RFC 791 bounds the payload to [`MAX_CONTEXT_PAYLOAD`] (38) bytes, so the
/// cache stores the **exact** bytes and compares them on every probe — a
/// 38-byte memcmp costs about as much as hashing would, and unlike a 64-bit
/// payload hash it cannot be collided: an app that controls its own call
/// chains could otherwise craft a *denied* context whose hash matches its
/// cached *allowed* one and replay the stale accept.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PayloadBuf {
    len: u8,
    bytes: [u8; MAX_CONTEXT_PAYLOAD],
}

impl PayloadBuf {
    /// Copy `payload` inline; `None` if it exceeds the RFC 791 bound (such a
    /// payload cannot come from a real options area, so it is not cached).
    fn new(payload: &[u8]) -> Option<Self> {
        if payload.len() > MAX_CONTEXT_PAYLOAD {
            return None;
        }
        let mut bytes = [0u8; MAX_CONTEXT_PAYLOAD];
        bytes[..payload.len()].copy_from_slice(payload);
        Some(PayloadBuf {
            len: payload.len() as u8,
            bytes,
        })
    }

    fn as_slice(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// Fx-style hasher for [`FlowKey`] map probes: the key is 13 bytes of
/// already-well-distributed address material, so a multiply-rotate mix is
/// plenty and roughly an order of magnitude cheaper than the default
/// SipHash — the probe *is* the hot path the flow table exists to shorten.
#[derive(Debug, Default)]
pub struct FlowKeyHasher {
    hash: u64,
}

impl Hasher for FlowKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash = (self.hash.rotate_left(5) ^ u64::from(byte)).wrapping_mul(FX_SEED);
        }
    }

    fn write_u32(&mut self, value: u32) {
        self.hash = (self.hash.rotate_left(5) ^ u64::from(value)).wrapping_mul(FX_SEED);
    }

    fn write_u16(&mut self, value: u16) {
        self.hash = (self.hash.rotate_left(5) ^ u64::from(value)).wrapping_mul(FX_SEED);
    }

    fn write_u8(&mut self, value: u8) {
        self.hash = (self.hash.rotate_left(5) ^ u64::from(value)).wrapping_mul(FX_SEED);
    }

    fn write_u64(&mut self, value: u64) {
        self.hash = (self.hash.rotate_left(5) ^ value).wrapping_mul(FX_SEED);
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type FlowMap = HashMap<FlowKey, FlowEntry, BuildHasherDefault<FlowKeyHasher>>;

/// The cacheable outcome of evaluating one context payload against the
/// compiled tables.
///
/// This is the *configuration-independent* evaluation result: how it maps to
/// an accept/drop verdict (and which statistics counter it charges) is
/// decided by `EnforcementTables::apply_outcome`, so replaying a cached
/// outcome produces byte-identical verdicts, statistics and drop-log entries
/// to a fresh evaluation.
///
/// Diagnostics are carried as `Arc<str>`: cloning an outcome into (or out
/// of) the flow table, and appending its reason to the drop log, bumps a
/// refcount instead of copying string bytes — the rendering is paid once,
/// at evaluation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedOutcome {
    /// No policy matched (or an allow won): the packet passes.
    Accept,
    /// The payload failed to decode or referenced indexes outside the app's
    /// method table; the reason is the rendered diagnostic.
    Malformed(Arc<str>),
    /// The app tag is not present in the signature database.
    UnknownApp(Arc<str>),
    /// A deny policy matched; the reason is the fully rendered drop detail.
    Deny(Arc<str>),
}

/// The result of one [`FlowTable::probe`].
///
/// Distinguishing a plain miss from a **context switch** matters for
/// enforcement: the hardened kernel injects the context once per socket
/// (set-once `setsockopt`, paper §IV-A2/§VII), so the packets of a live flow
/// can never legitimately change their context payload.  A live, same-epoch
/// entry whose payload no longer matches is therefore the signature of
/// context replay or injection riding an established flow, and the enforcer
/// surfaces it in its own statistics counter (and, when configured, drops
/// the packet) instead of silently re-evaluating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowProbe<'a> {
    /// A live entry matched flow, epoch and exact payload bytes; the cached
    /// outcome can be replayed.
    Hit(&'a CachedOutcome),
    /// No usable entry: the flow is untracked, its entry expired (dead flow —
    /// the 5-tuple may be legitimately reused by a new socket), or it was
    /// cached under an older tables epoch.  Stale entries are dropped.
    Miss,
    /// A live, same-epoch entry carries **different** payload bytes: the
    /// flow's context changed mid-flow, which the set-once kernel never
    /// produces.  The existing entry is *kept* so that an enforcer
    /// configured to drop such packets keeps serving the flow's original
    /// context (an attacker must not be able to evict the legitimate entry
    /// by injection); callers that re-evaluate instead simply overwrite it
    /// via [`FlowTable::insert`].
    ContextSwitch,
}

impl<'a> FlowProbe<'a> {
    /// True if the probe found a replayable cached outcome.
    pub fn is_hit(&self) -> bool {
        matches!(self, FlowProbe::Hit(_))
    }

    /// The cached outcome, if the probe hit.
    pub fn outcome(&self) -> Option<&'a CachedOutcome> {
        match self {
            FlowProbe::Hit(outcome) => Some(outcome),
            _ => None,
        }
    }
}

/// Sizing and expiry knobs of a [`FlowTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTableConfig {
    /// Maximum number of flows tracked; the least-recently-used entry is
    /// evicted to admit a new flow at capacity.
    pub capacity: usize,
    /// Maximum idle age (on the simulated clock) before an entry is treated
    /// as a dead flow and re-evaluated.  [`SimDuration::ZERO`] disables TTL
    /// expiry, which is what standalone benches (no clock source) want.
    pub ttl: SimDuration,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        FlowTableConfig {
            capacity: DEFAULT_FLOW_CAPACITY,
            ttl: DEFAULT_FLOW_TTL,
        }
    }
}

#[derive(Debug, Clone)]
struct FlowEntry {
    payload: PayloadBuf,
    epoch: u64,
    outcome: CachedOutcome,
    last_seen: SimDuration,
    /// Tick of this entry's most recent touch; queue entries with an older
    /// tick are stale and skipped during eviction.
    tick: u64,
}

/// Sets in the context memo; a power of two.
const MEMO_SETS: usize = 64;

/// Ways per memo set.  Capacity is `MEMO_SETS * MEMO_WAYS` = 256 contexts at
/// 72 bytes each: 18 KiB per shard, allocated once.
const MEMO_WAYS: usize = 4;

/// One remembered evaluation: the exact payload, the epoch it was evaluated
/// under, and what the evaluation said.
#[derive(Debug, Clone)]
struct MemoEntry {
    payload: PayloadBuf,
    epoch: u64,
    outcome: CachedOutcome,
}

/// The memo set `payload` lives in: the Fx mix of [`FlowKeyHasher`] over the
/// zero-padded bytes a word at a time (five multiplies, not 38).  The hash
/// only picks the set — a match is decided by comparing the bytes.
fn memo_set(payload: &PayloadBuf) -> usize {
    let mut hasher = FlowKeyHasher::default();
    for chunk in payload.bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hasher.write_u64(u64::from_le_bytes(word));
    }
    hasher.write_u8(payload.len);
    // The multiply leaves its entropy in the high bits.
    (hasher.finish() >> 32) as usize % MEMO_SETS
}

/// A bounded per-shard flow table: [`FlowKey`] → cached verdict, versioned by
/// exact payload bytes and tables epoch, with lazy-LRU + TTL eviction.
///
/// # Examples
///
/// ```
/// use bp_core::flow::{CachedOutcome, FlowProbe, FlowTable, FlowTableConfig};
/// use bp_netsim::addr::Endpoint;
/// use bp_netsim::clock::SimDuration;
/// use bp_netsim::packet::Ipv4Packet;
///
/// let mut table = FlowTable::new(FlowTableConfig::default());
/// let key = Ipv4Packet::new(
///     Endpoint::new([10, 0, 0, 1], 40_000),
///     Endpoint::new([1, 1, 1, 1], 443),
///     vec![],
/// )
/// .flow_key();
/// let now = SimDuration::ZERO;
///
/// assert_eq!(table.probe(&key, b"payload", 1, now), FlowProbe::Miss);
/// table.insert(key, b"payload", 1, CachedOutcome::Accept, now);
/// assert_eq!(
///     table.probe(&key, b"payload", 1, now),
///     FlowProbe::Hit(&CachedOutcome::Accept)
/// );
/// // A bumped epoch misses (and drops the stale entry) …
/// assert_eq!(table.probe(&key, b"payload", 2, now), FlowProbe::Miss);
/// // … while a payload change on a *live* entry is a mid-flow context
/// // switch, which the set-once kernel never produces.
/// table.insert(key, b"payload", 2, CachedOutcome::Accept, now);
/// assert_eq!(
///     table.probe(&key, b"other", 2, now),
///     FlowProbe::ContextSwitch
/// );
/// ```
#[derive(Debug)]
pub struct FlowTable {
    config: FlowTableConfig,
    entries: FlowMap,
    /// Lazy LRU order: every touch appends `(key, tick)`; entries whose tick
    /// no longer matches the live entry are skipped (and compacted away once
    /// the queue grows past a multiple of capacity).
    order: VecDeque<(FlowKey, u64)>,
    tick: u64,
    /// The context memo: `MEMO_SETS` sets of `MEMO_WAYS` slots, newest first
    /// within a set (see the module documentation).
    memo: Box<[Option<MemoEntry>]>,
}

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable::new(FlowTableConfig::default())
    }
}

impl FlowTable {
    /// An empty table with the given bounds (capacity is clamped to ≥ 1).
    pub fn new(config: FlowTableConfig) -> Self {
        let config = FlowTableConfig {
            capacity: config.capacity.max(1),
            ..config
        };
        FlowTable {
            config,
            entries: FlowMap::with_capacity_and_hasher(
                config.capacity.min(1_024),
                BuildHasherDefault::default(),
            ),
            order: VecDeque::new(),
            tick: 0,
            memo: vec![None; MEMO_SETS * MEMO_WAYS].into_boxed_slice(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> FlowTableConfig {
        self.config
    }

    /// Number of flows currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every tracked flow and every remembered context.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.memo.fill(None);
    }

    /// Bound the touch queue: stale touches accumulate one per hit, so
    /// compact once the queue outgrows a small multiple of capacity.  Called
    /// before the map is borrowed so hit probes can return a reference
    /// without re-probing.
    fn maybe_compact(&mut self) {
        if self.order.len() > self.config.capacity.saturating_mul(4).max(64) {
            let entries = &self.entries;
            self.order
                .retain(|(key, tick)| entries.get(key).is_some_and(|e| e.tick == *tick));
        }
    }

    /// Probe for a cached outcome: [`FlowProbe::Hit`] only when the flow is
    /// present, was cached under the same `epoch`, carries **byte-identical**
    /// context `payload`, and has not idled past the TTL.  A hit refreshes
    /// the entry's LRU position and timestamp.  An entry cached under an
    /// older epoch or idle past the TTL is removed and reported as a
    /// [`FlowProbe::Miss`]; a *live* same-epoch entry whose payload differs
    /// is reported as a [`FlowProbe::ContextSwitch`] and **kept** (see the
    /// variant documentation for why).
    pub fn probe(
        &mut self,
        key: &FlowKey,
        payload: &[u8],
        epoch: u64,
        now: SimDuration,
    ) -> FlowProbe<'_> {
        self.maybe_compact();
        let ttl = self.config.ttl;
        match self.entries.entry(*key) {
            std::collections::hash_map::Entry::Vacant(_) => FlowProbe::Miss,
            std::collections::hash_map::Entry::Occupied(occupied) => {
                let entry = occupied.get();
                if entry.epoch != epoch
                    || (ttl > SimDuration::ZERO && now.saturating_sub(entry.last_seen) > ttl)
                {
                    occupied.remove();
                    return FlowProbe::Miss;
                }
                if entry.payload.as_slice() != payload {
                    return FlowProbe::ContextSwitch;
                }
                self.tick += 1;
                let tick = self.tick;
                self.order.push_back((*key, tick));
                let entry = occupied.into_mut();
                entry.last_seen = now;
                entry.tick = tick;
                FlowProbe::Hit(&entry.outcome)
            }
        }
    }

    /// Cache `outcome` for `key`, evicting least-recently-used entries if the
    /// table is at capacity; returns how many entries were evicted.  Payloads
    /// beyond the RFC 791 bound are not cached (no real options area can
    /// produce them).
    pub fn insert(
        &mut self,
        key: FlowKey,
        payload: &[u8],
        epoch: u64,
        outcome: CachedOutcome,
        now: SimDuration,
    ) -> u64 {
        let Some(payload) = PayloadBuf::new(payload) else {
            return 0;
        };
        self.maybe_compact();
        let mut evicted = 0;
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= self.config.capacity {
                if self.evict_lru() {
                    evicted += 1;
                } else {
                    break;
                }
            }
        }
        self.tick += 1;
        let tick = self.tick;
        self.order.push_back((key, tick));
        self.entries.insert(
            key,
            FlowEntry {
                payload,
                epoch,
                outcome,
                last_seen: now,
                tick,
            },
        );
        evicted
    }

    /// The outcome of evaluating `payload` under `epoch`: the remembered one
    /// if this table has seen these exact bytes under this epoch, otherwise
    /// `evaluate()`'s, which is remembered for the next flow that carries
    /// them.  `evaluate` must be a pure function of (`payload`, the tables
    /// `epoch` names) — the caller's half of the soundness argument in the
    /// module documentation.
    ///
    /// O(1) and allocation-free apart from `evaluate` itself: one hash, at
    /// most `MEMO_WAYS` byte comparisons, and on a first sighting one store
    /// that shifts the set's entries down and drops its oldest.  Oversized
    /// payloads are evaluated and not remembered.
    pub(crate) fn remembered_or(
        &mut self,
        payload: &[u8],
        epoch: u64,
        evaluate: impl FnOnce() -> CachedOutcome,
    ) -> CachedOutcome {
        let Some(payload) = PayloadBuf::new(payload) else {
            return evaluate();
        };
        let first = memo_set(&payload) * MEMO_WAYS;
        let set = &mut self.memo[first..first + MEMO_WAYS];
        let remembered = set
            .iter()
            .flatten()
            .find(|entry| entry.epoch == epoch && entry.payload == payload);
        if let Some(entry) = remembered {
            return entry.outcome.clone();
        }
        let outcome = evaluate();
        set.rotate_right(1);
        set[0] = Some(MemoEntry {
            payload,
            epoch,
            outcome: outcome.clone(),
        });
        outcome
    }

    /// Remove the least-recently-used live entry; returns false only if the
    /// table is empty.
    fn evict_lru(&mut self) -> bool {
        while let Some((key, tick)) = self.order.pop_front() {
            if self.entries.get(&key).is_some_and(|e| e.tick == tick) {
                self.entries.remove(&key);
                return true;
            }
        }
        // The touch queue always contains a live touch for every entry, so
        // reaching here means the table is empty.
        debug_assert!(self.entries.is_empty());
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_netsim::addr::Endpoint;
    use bp_netsim::packet::Ipv4Packet;

    fn key(port: u16) -> FlowKey {
        Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 1], port),
            Endpoint::new([1, 1, 1, 1], 443),
            vec![],
        )
        .flow_key()
    }

    fn table(capacity: usize, ttl: SimDuration) -> FlowTable {
        FlowTable::new(FlowTableConfig { capacity, ttl })
    }

    #[test]
    fn payloads_are_compared_exactly_including_length() {
        let mut t = table(8, SimDuration::ZERO);
        let now = SimDuration::ZERO;
        t.insert(key(1), &[0], 1, CachedOutcome::Accept, now);
        // A zero-extended payload is a different context, not a hit.
        assert_eq!(t.probe(&key(1), &[0, 0], 1, now), FlowProbe::ContextSwitch);

        // Oversized payloads (impossible on a real options area) never cache.
        assert_eq!(t.insert(key(2), &[7; 64], 1, CachedOutcome::Accept, now), 0);
        assert_eq!(t.probe(&key(2), &[7; 64], 1, now), FlowProbe::Miss);
    }

    #[test]
    fn probe_flags_payload_change_and_misses_on_epoch_bump() {
        let mut t = table(8, SimDuration::ZERO);
        let now = SimDuration::ZERO;
        t.insert(key(1), b"ctx-a", 1, CachedOutcome::Accept, now);
        assert_eq!(
            t.probe(&key(1), b"ctx-a", 1, now),
            FlowProbe::Hit(&CachedOutcome::Accept)
        );

        // Context change: same flow, different payload bytes on a live
        // entry — the signature of mid-flow context replay/injection.
        assert_eq!(t.probe(&key(1), b"ctx-b", 1, now), FlowProbe::ContextSwitch);
        // The legitimate entry is kept: the original payload still hits, so
        // an attacker cannot evict the flow's real context by injection.
        assert!(t.probe(&key(1), b"ctx-a", 1, now).is_hit());

        // Epoch bump: tables were recompiled; the stale entry is dropped.
        assert_eq!(t.probe(&key(1), b"ctx-a", 2, now), FlowProbe::Miss);
        assert!(t.is_empty());
        // With no live entry, a different payload is a plain miss, not a
        // context switch.
        assert_eq!(t.probe(&key(1), b"ctx-b", 2, now), FlowProbe::Miss);
    }

    #[test]
    fn ttl_expires_idle_entries_on_the_sim_clock() {
        let mut t = table(8, SimDuration::from_millis(10));
        t.insert(key(1), b"ctx", 1, CachedOutcome::Accept, SimDuration::ZERO);
        // Within TTL (inclusive boundary): still live, and the hit refreshes.
        assert!(t
            .probe(&key(1), b"ctx", 1, SimDuration::from_millis(10))
            .is_hit());
        assert!(t
            .probe(&key(1), b"ctx", 1, SimDuration::from_millis(20))
            .is_hit());
        // Past TTL since the refresh: dead flow.
        assert_eq!(
            t.probe(&key(1), b"ctx", 1, SimDuration::from_millis(31)),
            FlowProbe::Miss
        );
        assert!(t.is_empty());
        // Port reuse after expiry is legitimate: a different payload on the
        // reused 5-tuple is a plain miss, not a context switch.
        t.insert(key(1), b"ctx", 1, CachedOutcome::Accept, SimDuration::ZERO);
        assert_eq!(
            t.probe(&key(1), b"ctx2", 1, SimDuration::from_millis(40)),
            FlowProbe::Miss
        );
    }

    #[test]
    fn lru_eviction_prefers_the_coldest_flow() {
        let mut t = table(2, SimDuration::ZERO);
        let now = SimDuration::ZERO;
        assert_eq!(t.insert(key(1), b"ctx", 1, CachedOutcome::Accept, now), 0);
        assert_eq!(t.insert(key(2), b"ctx", 1, CachedOutcome::Accept, now), 0);
        // Touch flow 1 so flow 2 becomes the LRU victim.
        assert!(t.probe(&key(1), b"ctx", 1, now).is_hit());
        assert_eq!(t.insert(key(3), b"ctx", 1, CachedOutcome::Accept, now), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.probe(&key(2), b"ctx", 1, now), FlowProbe::Miss);
        assert!(t.probe(&key(1), b"ctx", 1, now).is_hit());
        assert!(t.probe(&key(3), b"ctx", 1, now).is_hit());
    }

    #[test]
    fn reinserting_an_existing_flow_does_not_evict() {
        let mut t = table(2, SimDuration::ZERO);
        let now = SimDuration::ZERO;
        t.insert(key(1), b"ctx", 1, CachedOutcome::Accept, now);
        t.insert(key(2), b"ctx", 1, CachedOutcome::Accept, now);
        // Updating flow 1 in place must not evict flow 2.
        assert_eq!(
            t.insert(
                key(1),
                b"ctx2",
                2,
                CachedOutcome::Deny("re-eval".into()),
                now
            ),
            0
        );
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.probe(&key(1), b"ctx2", 2, now),
            FlowProbe::Hit(&CachedOutcome::Deny("re-eval".into()))
        );
        assert_eq!(
            t.probe(&key(1), b"ctx2", 2, now).outcome(),
            Some(&CachedOutcome::Deny("re-eval".into()))
        );
    }

    #[test]
    fn touch_queue_stays_bounded_under_sustained_hits() {
        let mut t = table(4, SimDuration::ZERO);
        let now = SimDuration::ZERO;
        for p in 0..4u16 {
            t.insert(key(p), b"ctx", 1, CachedOutcome::Accept, now);
        }
        for _ in 0..10_000 {
            for p in 0..4u16 {
                assert!(t.probe(&key(p), b"ctx", 1, now).is_hit());
            }
        }
        // Compaction triggers past max(4 * capacity, 64) touches; the queue
        // never grows more than one touch beyond that threshold.
        assert!(
            t.order.len() <= t.config.capacity.saturating_mul(4).max(64) + 1,
            "touch queue grew unboundedly: {}",
            t.order.len()
        );
        // Eviction still works after heavy compaction.
        t.insert(key(100), b"ctx", 1, CachedOutcome::Accept, now);
        assert_eq!(t.len(), 4);
    }

    /// `remembered_or` with an evaluation that counts its calls.
    fn recall(
        t: &mut FlowTable,
        payload: &[u8],
        epoch: u64,
        evaluations: &mut u32,
    ) -> CachedOutcome {
        t.remembered_or(payload, epoch, || {
            *evaluations += 1;
            CachedOutcome::Deny(format!("denied {payload:?} under {epoch}").into())
        })
    }

    #[test]
    fn memo_remembers_a_context_per_epoch_and_clear_forgets_it() {
        let mut t = table(8, SimDuration::ZERO);
        let mut evaluations = 0;
        let first = recall(&mut t, b"ctx", 1, &mut evaluations);
        // The same bytes on any later flow: not evaluated, same reason text
        // handed out by refcount.
        let again = recall(&mut t, b"ctx", 1, &mut evaluations);
        assert_eq!((evaluations, &again), (1, &first));
        let (CachedOutcome::Deny(a), CachedOutcome::Deny(b)) = (&first, &again) else {
            panic!("deny outcomes");
        };
        assert!(Arc::ptr_eq(a, b));
        // Exact bytes, including length; and never across an epoch.
        recall(&mut t, b"ctx\0", 1, &mut evaluations);
        assert_eq!(evaluations, 2);
        let bumped = recall(&mut t, b"ctx", 2, &mut evaluations);
        assert_eq!(evaluations, 3);
        assert_ne!(bumped, first);
        // Oversized payloads are evaluated every time.
        recall(&mut t, &[7; 64], 2, &mut evaluations);
        recall(&mut t, &[7; 64], 2, &mut evaluations);
        assert_eq!(evaluations, 5);
        // The memo is independent of the flow entries, and `clear` drops both.
        assert!(t.is_empty());
        t.clear();
        recall(&mut t, b"ctx", 2, &mut evaluations);
        assert_eq!(evaluations, 6);
    }

    #[test]
    fn memo_is_bounded_under_a_flood_of_distinct_contexts() {
        let mut t = table(8, SimDuration::ZERO);
        let slots = t.memo.len();
        assert_eq!(slots, MEMO_SETS * MEMO_WAYS);
        assert_eq!(std::mem::size_of_val(&*t.memo), 18 * 1024);
        let mut evaluations = 0;
        let legit = recall(&mut t, b"legit", 1, &mut evaluations);

        // 100k never-repeating payloads: one evaluation each (what they cost
        // without a memo), and the memo neither grows nor moves.
        let storage = t.memo.as_ptr();
        for n in 0..100_000u32 {
            let mut payload = [0xA5u8; MAX_CONTEXT_PAYLOAD];
            payload[..4].copy_from_slice(&n.to_le_bytes());
            recall(&mut t, &payload[..4 + n as usize % 35], 1, &mut evaluations);
        }
        assert_eq!(evaluations, 100_001);
        assert_eq!((t.memo.len(), t.memo.as_ptr()), (slots, storage));
        assert!(t.memo.iter().all(Option::is_some), "the flood fills it");

        // The flood displaced the legitimate context; it is re-evaluated
        // once, gets the same outcome, and is remembered again.
        assert_eq!(recall(&mut t, b"legit", 1, &mut evaluations), legit);
        assert_eq!(recall(&mut t, b"legit", 1, &mut evaluations), legit);
        assert_eq!(evaluations, 100_002);
    }

    #[test]
    fn capacity_is_clamped_and_clear_resets() {
        let mut t = table(0, SimDuration::ZERO);
        assert_eq!(t.config().capacity, 1);
        t.insert(key(1), b"ctx", 1, CachedOutcome::Accept, SimDuration::ZERO);
        t.insert(key(2), b"ctx", 1, CachedOutcome::Accept, SimDuration::ZERO);
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(
            t.probe(&key(2), b"ctx", 1, SimDuration::ZERO),
            FlowProbe::Miss
        );
    }
}
