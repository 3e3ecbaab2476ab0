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
//! Eviction is exact LRU bounded by [`FlowTableConfig::capacity`], plus TTL
//! on the simulated clock: entries idle longer than [`FlowTableConfig::ttl`]
//! are treated as dead flows.
//!
//! Flow tables are *shard-local*. [`ShardedEnforcer`] partitions batches by
//! flow, so a flow's packets always land on the same shard and the tables
//! need no cross-shard synchronization.
//!
//! # Storage
//!
//! Three structures, none of which is ever swept:
//!
//! * a **slab** of entries, each carrying its own [`FlowKey`].  It grows by
//!   `push` until it holds `capacity` entries and never past that; a slot
//!   vacated by a stale entry goes on a free list and is the next one used;
//! * an **open-addressed index** of `tag << 32 | slot` cells: the tag is the
//!   high half of an Fx mix of the 5-tuple, its low bits name the home cell,
//!   collisions probe linearly.  The index is at most half full — it doubles
//!   (re-seated from the stored tags, no key is re-hashed) while the slab is
//!   still growing, and a removal shifts the rest of its probe run back so no
//!   run ever holds a tombstone;
//! * a **recency list** threaded through the slab by two slot numbers per
//!   entry, newest to oldest.  A hit unlinks the entry and relinks it at the
//!   newest end (nothing, if it is already there); the eviction victim is the
//!   oldest end.
//!
//! So a probe is one index walk, one key compare and one payload compare; an
//! insert at capacity removes the oldest entry and reuses its slot.  Every
//! operation is O(1) expected, and a table at capacity allocates nothing on
//! probe, insert or eviction: recency is kept where the entry lies, so no
//! batch pays for the hits of the batches before it.
//!
//! The LRU is *exact* — the victim is always the least recently touched live
//! entry — rather than set-associative with per-set recency (the shape of
//! the context memo below), because a fixed set overflows while the table
//! still has room: 2 048 flows in 512 eight-way sets overflow about 2 % of
//! the sets, and each overflow is a conflict miss on a flow an exact table
//! of the same size serves from cache.  Exactness keeps `flow_hits`,
//! `flow_misses` and `flow_evictions` a function of the traffic and the
//! capacity alone.
//!
//! The Fx mix is unkeyed, so a sender who chooses its 5-tuples can aim many
//! flows at one home cell, as it can collide any Fx-hashed map.  The tag
//! compare keeps such a run off the slab (a cell is followed only when all
//! 32 tag bits match), so its cost is a walk over adjacent 8-byte cells;
//! bounding how many entries one device may hold is per-device admission's
//! job, not the index's.
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

/// One step of the Fx mix.  Flow keys and context payloads are already
/// well-distributed address and index material, so a multiply-rotate per
/// word is plenty and roughly an order of magnitude cheaper than SipHash —
/// the probe *is* the hot path the flow table exists to shorten.  The
/// multiply leaves its entropy in the high bits.
fn fx_mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

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

/// "No slot": ends the recency list and the free list.  Slot numbers are
/// `u32`, and capacity is clamped so that no slot ever has this number.
const NONE: u32 = u32::MAX;

/// An empty index cell; no occupied cell names the slot [`NONE`].
const EMPTY: u64 = u64::MAX;

/// Flows a new table makes index room for before it has seen one.  Nothing
/// else is sized up front, and nothing at all from a capacity beyond this:
/// callers pass bounds they never expect to reach.
const INITIAL_FLOWS: usize = 1_024;

/// The index tag of `key`: the high half of the Fx mix of the 5-tuple packed
/// into two words, the parts that vary between flows in the low bits, where
/// the multiply spreads them furthest.
fn tag_of(key: &FlowKey) -> u32 {
    let addresses = u64::from(u32::from(key.dst_ip)) << 32 | u64::from(u32::from(key.src_ip));
    let ports = u64::from(key.protocol.number()) << 32
        | u64::from(key.dst_port) << 16
        | u64::from(key.src_port);
    (fx_mix(fx_mix(0, addresses), ports) >> 32) as u32
}

#[derive(Debug, Clone)]
struct FlowEntry {
    key: FlowKey,
    payload: PayloadBuf,
    epoch: u64,
    outcome: CachedOutcome,
    last_seen: SimDuration,
    /// The entry touched next after this one; [`NONE`] on the newest.
    newer: u32,
    /// The entry touched last before this one, [`NONE`] on the oldest; on a
    /// vacated slot, the next vacated slot.
    older: u32,
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

/// The memo set `payload` lives in: [`fx_mix`] over the zero-padded bytes a
/// word at a time (five multiplies, not 38), then over the length.  The hash
/// only picks the set — a match is decided by comparing the bytes.
fn memo_set(payload: &PayloadBuf) -> usize {
    let words = payload.bytes.chunks(8).fold(0, |hash, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fx_mix(hash, u64::from_le_bytes(word))
    });
    (fx_mix(words, u64::from(payload.len)) >> 32) as usize % MEMO_SETS
}

/// A bounded per-shard flow table: [`FlowKey`] → cached verdict, versioned by
/// exact payload bytes and tables epoch, with exact-LRU + TTL eviction.
///
/// Entries live in a slab that grows to `capacity` and no further, found
/// through an open-addressed index and ordered by a recency list threaded
/// through the slab (see the module documentation): probe, insert and
/// eviction are O(1), and at capacity none of them allocates.
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
    /// Every entry, live or vacated, by slot number.
    slab: Vec<FlowEntry>,
    /// `tag << 32 | slot` per live entry, [`EMPTY`] elsewhere; a power of
    /// two long and at most half full, so every probe run ends.
    index: Vec<u64>,
    /// Live entries: the slab's, minus the free list's.
    len: usize,
    /// Ends of the recency list through [`FlowEntry::newer`] and
    /// [`FlowEntry::older`].
    newest: u32,
    oldest: u32,
    /// Head of the vacated slots, linked through [`FlowEntry::older`].
    free: u32,
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
    /// An empty table with the given bounds (capacity is clamped to ≥ 1, and
    /// to what a `u32` slot number can name).
    pub fn new(config: FlowTableConfig) -> Self {
        let config = FlowTableConfig {
            capacity: config.capacity.clamp(1, NONE as usize),
            ..config
        };
        let cells = (2 * config.capacity.min(INITIAL_FLOWS)).next_power_of_two();
        FlowTable {
            config,
            slab: Vec::new(),
            index: vec![EMPTY; cells],
            len: 0,
            newest: NONE,
            oldest: NONE,
            free: NONE,
            memo: vec![None; MEMO_SETS * MEMO_WAYS].into_boxed_slice(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> FlowTableConfig {
        self.config
    }

    /// Number of flows currently tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every tracked flow and every remembered context.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.index.fill(EMPTY);
        self.len = 0;
        (self.newest, self.oldest, self.free) = (NONE, NONE, NONE);
        self.memo.fill(None);
    }

    /// The index cell and slab slot of `key`, whose tag is `tag`, if it is
    /// tracked.  Only a cell whose 32 tag bits match is followed to the slab.
    fn find(&self, key: &FlowKey, tag: u32) -> Option<(usize, u32)> {
        let mask = self.index.len() - 1;
        let mut at = tag as usize & mask;
        loop {
            let cell = self.index[at];
            if cell == EMPTY {
                return None;
            }
            let slot = cell as u32;
            if (cell >> 32) as u32 == tag && self.slab[slot as usize].key == *key {
                return Some((at, slot));
            }
            at = (at + 1) & mask;
        }
    }

    /// Store `cell` in the first empty cell at or after its tag's home.
    fn seat(&mut self, cell: u64) {
        let mask = self.index.len() - 1;
        let mut at = (cell >> 32) as usize & mask;
        while self.index[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.index[at] = cell;
    }

    /// Take `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let entry = &self.slab[slot as usize];
        let (newer, older) = (entry.newer, entry.older);
        match newer {
            NONE => self.newest = older,
            newer => self.slab[newer as usize].older = older,
        }
        match older {
            NONE => self.oldest = newer,
            older => self.slab[older as usize].newer = newer,
        }
    }

    /// Put `slot`, which is not in the recency list, at its newest end.
    fn link_newest(&mut self, slot: u32) {
        let entry = &mut self.slab[slot as usize];
        (entry.newer, entry.older) = (NONE, self.newest);
        match self.newest {
            NONE => self.oldest = slot,
            newest => self.slab[newest as usize].newer = slot,
        }
        self.newest = slot;
    }

    /// Make the live entry in `slot` the most recently touched.
    fn touch(&mut self, slot: u32) {
        if self.newest != slot {
            self.unlink(slot);
            self.link_newest(slot);
        }
    }

    /// Remove the live entry in `slot`, which index cell `cell` names.
    fn remove(&mut self, cell: usize, slot: u32) {
        // Backward shift: close the hole with the cells of the run behind it,
        // so that no probe run ever contains an empty cell or a tombstone.
        let mask = self.index.len() - 1;
        let (mut hole, mut at) = (cell, (cell + 1) & mask);
        while self.index[at] != EMPTY {
            let home = (self.index[at] >> 32) as usize & mask;
            // A cell stays reachable from its home only if it is not moved
            // to before it: it may fill the hole when its home is at least
            // as far behind it (cyclically) as the hole is.
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.index[hole] = self.index[at];
                hole = at;
            }
            at = (at + 1) & mask;
        }
        self.index[hole] = EMPTY;

        self.unlink(slot);
        let entry = &mut self.slab[slot as usize];
        // A vacated slot keeps no reason text alive.
        entry.outcome = CachedOutcome::Accept;
        entry.older = self.free;
        self.free = slot;
        self.len -= 1;
    }

    /// Probe for a cached outcome: [`FlowProbe::Hit`] only when the flow is
    /// present, was cached under the same `epoch`, carries **byte-identical**
    /// context `payload`, and has not idled past the TTL.  A hit refreshes
    /// the entry's LRU position and timestamp.  An entry cached under an
    /// older epoch or idle past the TTL is removed and reported as a
    /// [`FlowProbe::Miss`]; a *live* same-epoch entry whose payload differs
    /// is reported as a [`FlowProbe::ContextSwitch`] and **kept**, its LRU
    /// position unchanged (see the variant documentation for why).
    pub fn probe(
        &mut self,
        key: &FlowKey,
        payload: &[u8],
        epoch: u64,
        now: SimDuration,
    ) -> FlowProbe<'_> {
        let Some((cell, slot)) = self.find(key, tag_of(key)) else {
            return FlowProbe::Miss;
        };
        let entry = &self.slab[slot as usize];
        let ttl = self.config.ttl;
        if entry.epoch != epoch
            || (ttl > SimDuration::ZERO && now.saturating_sub(entry.last_seen) > ttl)
        {
            self.remove(cell, slot);
            return FlowProbe::Miss;
        }
        if entry.payload.as_slice() != payload {
            return FlowProbe::ContextSwitch;
        }
        self.touch(slot);
        let entry = &mut self.slab[slot as usize];
        entry.last_seen = now;
        FlowProbe::Hit(&entry.outcome)
    }

    /// Cache `outcome` for `key`, evicting the least-recently-used entry if
    /// the table is at capacity; returns how many entries were evicted.
    /// Re-inserting a tracked flow overwrites and refreshes its entry and
    /// evicts nothing.  Payloads beyond the RFC 791 bound are not cached (no
    /// real options area can produce them).
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
        let tag = tag_of(&key);
        if let Some((_, slot)) = self.find(&key, tag) {
            let entry = &mut self.slab[slot as usize];
            entry.payload = payload;
            entry.epoch = epoch;
            entry.outcome = outcome;
            entry.last_seen = now;
            self.touch(slot);
            return 0;
        }

        let evict = self.len == self.config.capacity;
        if evict {
            let victim = self.slab[self.oldest as usize].key;
            let (cell, slot) = self
                .find(&victim, tag_of(&victim))
                .expect("a listed entry is indexed");
            debug_assert_eq!(slot, self.oldest, "one cell per live entry");
            self.remove(cell, slot);
        }

        let entry = FlowEntry {
            key,
            payload,
            epoch,
            outcome,
            last_seen: now,
            newer: NONE,
            older: NONE,
        };
        let slot = match self.free {
            NONE => {
                if self.slab.len() == self.slab.capacity() {
                    // Double as `push` would, but never past the bound.
                    let room = self.config.capacity - self.slab.len();
                    self.slab.reserve_exact(self.slab.len().max(4).min(room));
                }
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
            slot => {
                self.free = self.slab[slot as usize].older;
                self.slab[slot as usize] = entry;
                slot
            }
        };
        self.len += 1;
        if self.len * 2 > self.index.len() {
            // Re-seat every cell by the tag it carries; the slab is not read.
            let cells = self.index.len() * 2;
            for cell in std::mem::replace(&mut self.index, vec![EMPTY; cells]) {
                if cell != EMPTY {
                    self.seat(cell);
                }
            }
        }
        self.seat(u64::from(tag) << 32 | u64::from(slot));
        self.link_newest(slot);
        u64::from(evict)
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
    // `#[inline]` keeps this inside `EnforcementTables::inspect_view`, its one
    // caller, whatever codegen units the rest of the crate is split into: an
    // edit confined to the policy compiler once pushed it out of line
    // (`tools/symdiff.sh` shows it).
    #[inline]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_netsim::addr::Endpoint;
    use bp_netsim::packet::{Ipv4Packet, Protocol};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

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

    /// A key that is a function of `n` alone, without building a packet.
    fn nth_key(n: u32) -> FlowKey {
        FlowKey {
            src_ip: (0x0a00_0000 + (n >> 16)).into(),
            src_port: n as u16,
            dst_ip: [1, 1, 1, 1].into(),
            dst_port: 443,
            protocol: Protocol::Tcp,
        }
    }

    impl FlowTable {
        /// Panic unless slab, index, recency list and free list describe the
        /// same `len` entries.
        fn assert_consistent(&self) {
            assert!(self.slab.len() <= self.config.capacity);
            assert!(self.index.len().is_power_of_two());
            assert!(self.len * 2 <= self.index.len(), "more than half full");
            let occupied = self.index.iter().filter(|&&cell| cell != EMPTY).count();
            assert_eq!(occupied, self.len, "one cell per live entry");

            // Newest to oldest: links agree in both directions, and every
            // entry is found from its home cell — so it is indexed (exactly
            // once, by the count above) and no empty cell interrupts its run.
            let (mut listed, mut newer, mut slot) = (0, NONE, self.newest);
            while slot != NONE {
                let entry = &self.slab[slot as usize];
                assert_eq!(entry.newer, newer);
                let found = self.find(&entry.key, tag_of(&entry.key));
                assert_eq!(found.map(|(_, slot)| slot), Some(slot));
                listed += 1;
                assert!(listed <= self.len, "the recency list loops");
                (newer, slot) = (slot, entry.older);
            }
            assert_eq!((listed, newer), (self.len, self.oldest));

            let (mut vacated, mut slot) = (0, self.free);
            while slot != NONE {
                vacated += 1;
                assert!(vacated <= self.slab.len(), "the free list loops");
                slot = self.slab[slot as usize].older;
            }
            assert_eq!(listed + vacated, self.slab.len());
        }
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
        // Hits relink entries where they are: nothing grew.
        assert_eq!((t.slab.len(), t.slab.capacity(), t.index.len()), (4, 4, 8));
        t.assert_consistent();
        // Eviction still works after 40 000 hits, and reuses the slot.
        assert_eq!(t.insert(key(100), b"ctx", 1, CachedOutcome::Accept, now), 1);
        assert_eq!((t.len(), t.slab.len()), (4, 4));
        assert_eq!(t.probe(&key(0), b"ctx", 1, now), FlowProbe::Miss);
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

    // --- the table against a model of its contract ---

    struct ModelEntry {
        key: FlowKey,
        payload: Vec<u8>,
        epoch: u64,
        outcome: CachedOutcome,
        last_seen: SimDuration,
    }

    /// The table's contract as the simplest thing that keeps it: live
    /// entries in a `Vec`, least recently touched first.  O(n) per operation.
    struct ModelTable {
        config: FlowTableConfig,
        entries: Vec<ModelEntry>,
    }

    impl ModelTable {
        fn probe(
            &mut self,
            key: &FlowKey,
            payload: &[u8],
            epoch: u64,
            now: SimDuration,
        ) -> FlowProbe<'_> {
            let Some(at) = self.entries.iter().position(|entry| entry.key == *key) else {
                return FlowProbe::Miss;
            };
            let (entry, ttl) = (&self.entries[at], self.config.ttl);
            if entry.epoch != epoch
                || (ttl > SimDuration::ZERO && now.saturating_sub(entry.last_seen) > ttl)
            {
                self.entries.remove(at);
                return FlowProbe::Miss;
            }
            if entry.payload != payload {
                return FlowProbe::ContextSwitch;
            }
            let mut entry = self.entries.remove(at);
            entry.last_seen = now;
            self.entries.push(entry);
            FlowProbe::Hit(&self.entries.last().expect("just pushed").outcome)
        }

        fn insert(
            &mut self,
            key: FlowKey,
            payload: &[u8],
            epoch: u64,
            outcome: CachedOutcome,
            now: SimDuration,
        ) -> u64 {
            if payload.len() > MAX_CONTEXT_PAYLOAD {
                return 0;
            }
            let tracked = self.entries.iter().position(|entry| entry.key == key);
            let evict = tracked.is_none() && self.entries.len() == self.config.capacity;
            if let Some(at) = tracked.or(evict.then_some(0)) {
                self.entries.remove(at);
            }
            self.entries.push(ModelEntry {
                key,
                payload: payload.to_vec(),
                epoch,
                outcome,
                last_seen: now,
            });
            u64::from(evict)
        }
    }

    /// A table and its model driven through the same operations, compared
    /// after each one.
    struct Twin {
        table: FlowTable,
        model: ModelTable,
        epoch: u64,
        now: SimDuration,
        inserts: u64,
        evictions: u64,
        /// `assert_consistent` is O(capacity): run it every this many checks.
        stride: u64,
        checks: u64,
    }

    impl Twin {
        fn new(capacity: usize, ttl: SimDuration, stride: u64) -> Self {
            let config = FlowTableConfig { capacity, ttl };
            Twin {
                table: FlowTable::new(config),
                model: ModelTable {
                    config,
                    entries: Vec::new(),
                },
                epoch: 1,
                now: SimDuration::ZERO,
                inserts: 0,
                evictions: 0,
                stride,
                checks: 0,
            }
        }

        fn check(&mut self) {
            assert_eq!(self.table.len(), self.model.entries.len());
            assert_eq!(self.table.is_empty(), self.model.entries.is_empty());
            self.checks += 1;
            if self.checks.is_multiple_of(self.stride) {
                self.table.assert_consistent();
            }
        }

        fn probe_under(&mut self, key: FlowKey, payload: &[u8], epoch: u64) {
            assert_eq!(
                self.table.probe(&key, payload, epoch, self.now),
                self.model.probe(&key, payload, epoch, self.now),
                "probe of {key:?} after {} inserts",
                self.inserts
            );
            self.check();
        }

        fn probe(&mut self, key: FlowKey, payload: &[u8]) {
            self.probe_under(key, payload, self.epoch);
        }

        /// Probe under a newer epoch: removes the entry if `key` is tracked.
        fn expire(&mut self, key: FlowKey) {
            self.probe_under(key, b"", self.epoch + 1);
        }

        fn insert(&mut self, key: FlowKey, payload: &[u8]) {
            self.inserts += 1;
            // An outcome no other insert cached, so a hit names its insert.
            let outcome = CachedOutcome::Deny(self.inserts.to_string().into());
            let evicted = self
                .table
                .insert(key, payload, self.epoch, outcome.clone(), self.now);
            let expected = self
                .model
                .insert(key, payload, self.epoch, outcome, self.now);
            assert_eq!(evicted, expected, "insert {} of {key:?}", self.inserts);
            self.evictions += evicted;
            self.check();
        }

        fn clear(&mut self) {
            self.table.clear();
            self.model.entries.clear();
            self.check();
        }

        /// One generated operation over a small key universe: 14 in 32 are
        /// probes, 12 inserts, 3 advance the clock, 2 bump the epoch (every
        /// entry goes stale where it lies) and 1 clears.
        fn step(&mut self, op: u8, key: u32, payload: u8) {
            const PAYLOADS: [&[u8]; 4] = [b"ctx-a", b"ctx-b", b"", &[7; MAX_CONTEXT_PAYLOAD + 1]];
            let (key, bytes) = (nth_key(key), PAYLOADS[usize::from(payload)]);
            match op {
                0..=13 => self.probe(key, bytes),
                14..=25 => self.insert(key, bytes),
                26..=28 => self.now += SimDuration::from_millis(u64::from(payload) + 1),
                29..=30 => self.epoch += 1,
                _ => self.clear(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn table_matches_the_exact_lru_model(
            capacity in 1usize..=8,
            ttl_ms in prop::sample::select(vec![0u64, 4]),
            ops in prop::collection::vec((0u8..32, 0u32..16, 0u8..4), 1..400),
        ) {
            let mut twin = Twin::new(capacity, SimDuration::from_millis(ttl_ms), 1);
            for (op, key, payload) in ops {
                twin.step(op, key, payload);
            }
        }
    }

    #[test]
    fn table_matches_the_model_through_index_doublings_and_churn_at_capacity() {
        let mut twin = Twin::new(5_000, SimDuration::from_millis(20), 61);
        let cells = twin.table.index.len();
        let mut rng = TestRng::deterministic("doublings and churn");
        for n in 0..12_000u32 {
            twin.insert(nth_key(n), b"ctx");
            // A flow opened up to 6 000 inserts ago: still cached, evicted,
            // expired below, or (past 5 120 inserts) idle beyond the TTL.
            let earlier = nth_key(n - rng.below(u64::from(n.min(5_999)) + 1) as u32);
            match rng.below(8) {
                0 => twin.expire(earlier),
                1 => twin.probe(earlier, b"another"),
                _ => twin.probe(earlier, b"ctx"),
            }
            if n % 256 == 255 {
                twin.now += SimDuration::from_millis(1);
            }
        }
        twin.table.assert_consistent();
        assert_eq!(twin.table.index.len(), cells * 8, "three doublings");
        let slab = &twin.table.slab;
        assert_eq!(
            (slab.len(), slab.capacity()),
            (5_000, 5_000),
            "full, exactly"
        );
        assert!(twin.evictions > 2_000, "{} evictions", twin.evictions);
    }

    #[test]
    fn backward_shift_keeps_clustered_runs_reachable_across_the_wrap() {
        // 256 index cells from the start, and 96 entries never double them.
        let mut twin = Twin::new(96, SimDuration::ZERO, 1);
        let cells = twin.table.index.len();
        assert_eq!(cells, 256);
        let homed = |home: usize, count: usize| {
            (0..)
                .map(nth_key)
                .filter(move |key| tag_of(key) as usize % cells == home)
                .take(count)
        };
        // 64 keys homed on the last cell, and shorter runs that start just
        // before it and inside its spill past cell 0: more than fit.
        let mut keys: Vec<FlowKey> = homed(cells - 1, 64).collect();
        for home in [cells - 3, cells - 2, 0, 2] {
            keys.extend(homed(home, 16));
        }
        let mut rng = TestRng::deterministic("clustered runs");
        let mut wrapped = false;
        for _ in 0..4 {
            for pass in 0..3 {
                for n in (1..keys.len()).rev() {
                    keys.swap(n, rng.below(n as u64 + 1) as usize);
                }
                for (n, &key) in keys.iter().enumerate() {
                    match pass {
                        // Insert, evicting once 96 are cached.
                        0 => twin.insert(key, b"ctx"),
                        // Remove every other one where it lies; touch the rest.
                        1 if n % 2 == 0 => twin.expire(key),
                        // Whatever the model still has must be found.
                        _ => twin.probe(key, b"ctx"),
                    }
                    let index = &twin.table.index;
                    wrapped |= index[cells - 1] != EMPTY && index[0] != EMPTY;
                }
            }
        }
        assert!(wrapped, "no probe run crossed the end of the index");
        assert_eq!(twin.table.index.len(), cells);
        assert!(twin.evictions > 0);
    }

    #[test]
    fn flood_of_distinct_flows_never_reallocates() {
        let mut t = table(64, SimDuration::ZERO);
        let now = SimDuration::ZERO;
        let storage = |t: &FlowTable| {
            let (slab, index) = (&t.slab, &t.index);
            (
                slab.as_ptr(),
                slab.len(),
                slab.capacity(),
                index.as_ptr(),
                index.len(),
            )
        };
        for n in 0..64 {
            assert_eq!(
                t.insert(nth_key(n), b"ctx", 1, CachedOutcome::Accept, now),
                0
            );
        }
        let full = storage(&t);
        assert_eq!((full.1, full.2, full.4), (64, 64, 128));
        for n in 64..100_000 {
            assert_eq!(t.probe(&nth_key(n), b"ctx", 1, now), FlowProbe::Miss);
            assert_eq!(
                t.insert(nth_key(n), b"ctx", 1, CachedOutcome::Accept, now),
                1
            );
        }
        assert_eq!(storage(&t), full);
        assert_eq!(t.len(), 64);
        t.assert_consistent();
        // The survivors are the last 64, exactly.
        assert_eq!(t.probe(&nth_key(99_935), b"ctx", 1, now), FlowProbe::Miss);
        assert!((99_936..100_000).all(|n| t.probe(&nth_key(n), b"ctx", 1, now).is_hit()));
    }

    #[test]
    fn an_unreachable_capacity_costs_nothing_up_front() {
        let mut t = table(usize::MAX, SimDuration::ZERO);
        // Slot numbers are `u32`, and `NONE` is not one of them.
        assert_eq!(t.config().capacity, NONE as usize);
        assert_eq!((t.slab.capacity(), t.index.len()), (0, 2 * INITIAL_FLOWS));
        for n in 0..3_000 {
            t.insert(
                nth_key(n),
                b"ctx",
                1,
                CachedOutcome::Accept,
                SimDuration::ZERO,
            );
        }
        // Storage follows the flows seen, not the bound.
        assert_eq!((t.len(), t.index.len()), (3_000, 8 * INITIAL_FLOWS));
        assert!(t.slab.capacity() <= 4 * INITIAL_FLOWS);
        t.assert_consistent();
    }
}
