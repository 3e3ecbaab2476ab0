//! The Policy Enforcer (network-side component).
//!
//! The Policy Enforcer consumes packets from an NFQUEUE and performs the three
//! stages of §IV-A3: **extraction** of the app tag and index sequence from
//! `IP_OPTIONS`, **decoding** of indexes back to method signatures through the
//! signature database, and **enforcement** of the policy set.  Packets that
//! violate policy are dropped; conforming packets continue to the Packet
//! Sanitizer.
//!
//! # Architecture: compiled data plane
//!
//! Enforcement state is split into two halves so the hot path scales:
//!
//! * [`EnforcementTables`] — the **immutable, compiled** half: a
//!   [`CompiledSignatureDb`] (per-app tables keyed by the tag's `u64` form,
//!   descriptors pre-parsed) plus a [`CompiledPolicySet`] (targets pre-split
//!   into slice comparisons) plus the [`EnforcerConfig`].  Built once, shared
//!   via `Arc` by every worker.
//! * Per-shard **mutable** state — [`AtomicEnforcerStats`] counters, a
//!   [`DropLog`] ring buffer and a reusable index-decode scratch buffer.
//!
//! [`PolicyEnforcer`] is the single-shard facade with the historical API;
//! [`ShardedEnforcer`] fans packet batches across N shards with merged
//! statistics.  On the accept path the compiled plane performs no signature
//! parsing and no `String` allocation.
//!
//! # Flow-aware enforcement
//!
//! Every shard additionally owns a [`FlowTable`]: a bounded map from the
//! 5-tuple flow key to the cached outcome of the last evaluation, versioned
//! by a hash of the exact context-option payload and by the **epoch** of the
//! compiled tables.  A packet whose flow and payload match hits an O(1)
//! probe and skips decode/resolve/evaluate entirely; any context change
//! re-evaluates, and every table rebuild — a committed
//! [`ControlPlane`](crate::control::ControlPlane) transaction installing a
//! new generation — bumps the epoch so entries cached before a hot swap are
//! lazily invalidated instead of served stale.
//!
//! The flow table doubles as a **replay detector**: the set-once hardened
//! kernel injects the context exactly once per socket, so a payload change
//! on a live flow can only be replayed or injected context.  Such mid-flow
//! context switches are counted ([`EnforcerStats::flow_context_switches`])
//! and, under [`EnforcerConfig::drop_context_switch`], dropped while the
//! flow's legitimate cached context is retained.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use bp_netsim::clock::SimDuration;
use bp_netsim::netfilter::{QueueHandler, Verdict};
use bp_netsim::options::IpOptionKind;
use bp_netsim::packet::Ipv4Packet;

use crate::encoding::ContextEncoding;
use crate::faults::{FaultInjector, HealthState, ShardHealth, ShardHealthSnapshot};
use crate::flow::{CachedOutcome, FlowProbe, FlowTable, FlowTableConfig};
use crate::offline::{CompiledSignatureDb, SignatureDatabase};
use crate::policy::{CompiledPolicySet, CompiledVerdict, Decision, PolicySet};
use crate::runtime::{PacketSource, WorkerPool};
use crate::telemetry::{TelemetryCell, TelemetrySnapshot};
use crate::wire::{self, WireError};

/// Source of the monotonically increasing epoch stamped onto every
/// [`EnforcementTables`] build.  Process-global so that *any* recompilation
/// (a control-plane commit, a policy or database swap, an independently
/// built table set) observes a fresh epoch and flow-table entries cached
/// under older tables can never be mistaken for current.
static NEXT_TABLE_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Configuration of the Policy Enforcer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnforcerConfig {
    /// Drop packets that carry no BorderPatrol context option at all.
    ///
    /// In the paper's deployment model (§VII "Compatibility") every packet
    /// leaving the work profile is tagged, so untagged packets indicate
    /// traffic from outside BorderPatrol's control and are dropped in strict
    /// deployments; permissive deployments let them pass (useful while rolling
    /// the system out).
    pub drop_untagged: bool,
    /// Drop packets whose app tag is not present in the signature database.
    pub drop_unknown_apps: bool,
    /// Drop packets whose context option fails to decode.
    pub drop_malformed_context: bool,
    /// Drop packets whose context payload differs from the one already
    /// cached for their (live, same-epoch) flow.
    ///
    /// The hardened kernel injects the context once per socket (set-once
    /// `setsockopt`, §IV-A2/§VII), so the packets of a live flow can never
    /// legitimately change their context: a mid-flow change is the signature
    /// of verbatim context **replay** or injection riding an established
    /// flow.  Detection requires connection tracking, so it fires only on
    /// the flow-cached path ([`PolicyEnforcer::inspect`] /
    /// [`ShardedEnforcer::inspect_batch`]); the uncached and legacy
    /// baselines have no flow state and cannot observe switches.  Off by
    /// default (a switch is then counted in
    /// [`EnforcerStats::flow_context_switches`] and re-evaluated); enabled
    /// in [`EnforcerConfig::strict`] deployments.
    #[serde(default)]
    pub drop_context_switch: bool,
}

impl Default for EnforcerConfig {
    fn default() -> Self {
        EnforcerConfig {
            drop_untagged: false,
            drop_unknown_apps: true,
            drop_malformed_context: true,
            drop_context_switch: false,
        }
    }
}

impl EnforcerConfig {
    /// The strict deployment described in §VII: untagged packets are dropped,
    /// and so are mid-flow context switches (replayed/injected context on a
    /// live flow).
    pub fn strict() -> Self {
        EnforcerConfig {
            drop_untagged: true,
            drop_unknown_apps: true,
            drop_malformed_context: true,
            drop_context_switch: true,
        }
    }

    /// A permissive configuration that only enforces explicit policies.
    pub fn permissive() -> Self {
        EnforcerConfig {
            drop_untagged: false,
            drop_unknown_apps: false,
            drop_malformed_context: false,
            drop_context_switch: false,
        }
    }
}

/// Counters the enforcer keeps, broken down by outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnforcerStats {
    /// Packets inspected.
    pub packets_inspected: u64,
    /// Packets accepted.
    pub packets_accepted: u64,
    /// Packets dropped because a policy matched.
    pub dropped_by_policy: u64,
    /// Packets dropped because they carried no context option.
    pub dropped_untagged: u64,
    /// Packets dropped because the app tag was unknown.
    pub dropped_unknown_app: u64,
    /// Packets dropped because the context failed to decode.
    pub dropped_malformed: u64,
    /// Packets dropped because they carried more than one context option
    /// (the hardened kernel never emits duplicates, so a second option is a
    /// spoofing attempt riding ahead of the kernel-injected context).
    pub dropped_duplicate_context: u64,
    /// Packets dropped because their context payload differed from the one
    /// cached for their live flow (mid-flow context switch = replayed or
    /// injected context; only charged when
    /// [`EnforcerConfig::drop_context_switch`] is enabled).
    pub dropped_context_switch: u64,
    /// Frames dropped at the byte ingress boundary because they failed wire
    /// decode ([`crate::wire::WireError`]): truncated, corrupt checksum,
    /// unknown protocol or inconsistent option geometry.  Such frames never
    /// reach context decode, so they are charged here (and to
    /// [`EnforcerStats::packets_inspected`]), not to
    /// [`EnforcerStats::dropped_malformed`].
    pub dropped_wire: u64,
    /// Packets failed closed because the worker inspecting their partition
    /// panicked (injected or real): the uninspected remainder of the
    /// partition drops under this counter instead of poisoning the
    /// enforcer.  `serde(default)` so pre-fault snapshots still parse.
    #[serde(default)]
    pub dropped_runtime_fault: u64,
    /// Packets shed fail-closed by the overload guard before inspection
    /// (batch length past the admission watermark).  `serde(default)` so
    /// pre-fault snapshots still parse.
    #[serde(default)]
    pub dropped_overload: u64,
    /// Tagged packets whose verdict was served from the flow table.
    pub flow_hits: u64,
    /// Tagged packets that required a full decode/resolve/evaluate pass.
    pub flow_misses: u64,
    /// Flow-table entries evicted to admit new flows at capacity.
    pub flow_evictions: u64,
    /// Mid-flow context changes observed by the flow table (counted whether
    /// or not [`EnforcerConfig::drop_context_switch`] turns them into
    /// drops): a live, unexpired flow entry saw a packet with different
    /// context payload bytes under the same tables epoch.
    pub flow_context_switches: u64,
    /// [`EnforcerStats::dropped_wire`] broken out per [`WireError`]
    /// variant — `dropped_wire` always equals
    /// [`WireDropStats::total`] of this field.  `serde(default)` so
    /// snapshots serialized before the breakdown existed still parse.
    #[serde(default)]
    pub dropped_wire_by: WireDropStats,
}

/// Wire-decode drops broken out by [`WireError`] variant (one counter per
/// variant, field order matching [`WireError::ALL`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireDropStats {
    /// Frames rejected with [`WireError::TruncatedHeader`].
    pub truncated_header: u64,
    /// Frames rejected with [`WireError::BadVersion`].
    pub bad_version: u64,
    /// Frames rejected with [`WireError::BadIhl`].
    pub bad_ihl: u64,
    /// Frames rejected with [`WireError::TruncatedFrame`].
    pub truncated_frame: u64,
    /// Frames rejected with [`WireError::BadChecksum`].
    pub bad_checksum: u64,
    /// Frames rejected with [`WireError::UnknownProtocol`].
    pub unknown_protocol: u64,
    /// Frames rejected with [`WireError::OptionTruncated`].
    pub option_truncated: u64,
    /// Frames rejected with [`WireError::BadOptionLength`].
    pub bad_option_length: u64,
    /// Frames rejected with [`WireError::OptionOverrun`].
    pub option_overrun: u64,
    /// Frames rejected with [`WireError::LengthMismatch`].
    pub length_mismatch: u64,
}

impl WireDropStats {
    /// The counter for one error variant.
    pub fn get(&self, error: WireError) -> u64 {
        self.to_array()[error.index()]
    }

    /// Sum across every variant (always equals
    /// [`EnforcerStats::dropped_wire`]).
    pub fn total(&self) -> u64 {
        self.to_array().iter().sum()
    }

    /// The counters as an array indexed by [`WireError::index`].
    pub fn to_array(&self) -> [u64; 10] {
        [
            self.truncated_header,
            self.bad_version,
            self.bad_ihl,
            self.truncated_frame,
            self.bad_checksum,
            self.unknown_protocol,
            self.option_truncated,
            self.bad_option_length,
            self.option_overrun,
            self.length_mismatch,
        ]
    }

    /// Rebuild from an array indexed by [`WireError::index`].
    pub fn from_array(counts: [u64; 10]) -> WireDropStats {
        WireDropStats {
            truncated_header: counts[0],
            bad_version: counts[1],
            bad_ihl: counts[2],
            truncated_frame: counts[3],
            bad_checksum: counts[4],
            unknown_protocol: counts[5],
            option_truncated: counts[6],
            bad_option_length: counts[7],
            option_overrun: counts[8],
            length_mismatch: counts[9],
        }
    }

    /// Sum two breakdowns (used when merging shards).
    pub fn merged(&self, other: &WireDropStats) -> WireDropStats {
        let mut counts = self.to_array();
        for (count, add) in counts.iter_mut().zip(other.to_array()) {
            *count += add;
        }
        WireDropStats::from_array(counts)
    }
}

impl EnforcerStats {
    /// Total packets dropped for any reason.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_by_policy
            + self.dropped_untagged
            + self.dropped_unknown_app
            + self.dropped_malformed
            + self.dropped_duplicate_context
            + self.dropped_context_switch
            + self.dropped_wire
            + self.dropped_runtime_fault
            + self.dropped_overload
    }

    /// Sum two snapshots (used when merging shards).
    pub fn merged(&self, other: &EnforcerStats) -> EnforcerStats {
        EnforcerStats {
            packets_inspected: self.packets_inspected + other.packets_inspected,
            packets_accepted: self.packets_accepted + other.packets_accepted,
            dropped_by_policy: self.dropped_by_policy + other.dropped_by_policy,
            dropped_untagged: self.dropped_untagged + other.dropped_untagged,
            dropped_unknown_app: self.dropped_unknown_app + other.dropped_unknown_app,
            dropped_malformed: self.dropped_malformed + other.dropped_malformed,
            dropped_duplicate_context: self.dropped_duplicate_context
                + other.dropped_duplicate_context,
            dropped_context_switch: self.dropped_context_switch + other.dropped_context_switch,
            dropped_wire: self.dropped_wire + other.dropped_wire,
            dropped_runtime_fault: self.dropped_runtime_fault + other.dropped_runtime_fault,
            dropped_overload: self.dropped_overload + other.dropped_overload,
            flow_hits: self.flow_hits + other.flow_hits,
            flow_misses: self.flow_misses + other.flow_misses,
            flow_evictions: self.flow_evictions + other.flow_evictions,
            flow_context_switches: self.flow_context_switches + other.flow_context_switches,
            dropped_wire_by: self.dropped_wire_by.merged(&other.dropped_wire_by),
        }
    }

    /// This snapshot with the flow-cache bookkeeping counters zeroed: the
    /// per-packet outcome counts, which are what cached and uncached (or
    /// legacy) pipelines must agree on regardless of how many probes hit.
    ///
    /// [`EnforcerStats::dropped_context_switch`] is an *outcome* counter and
    /// is **not** zeroed: with [`EnforcerConfig::drop_context_switch`]
    /// enabled the flow-cached path is intentionally stricter than the
    /// stateless baselines (which cannot observe switches), so the
    /// comparison is only meaningful with the knob off.
    pub fn without_flow_counters(&self) -> EnforcerStats {
        EnforcerStats {
            flow_hits: 0,
            flow_misses: 0,
            flow_evictions: 0,
            flow_context_switches: 0,
            ..*self
        }
    }
}

/// Lock-free enforcement counters, readable while shard workers are counting.
#[derive(Debug, Default)]
pub struct AtomicEnforcerStats {
    inspected: AtomicU64,
    accepted: AtomicU64,
    by_policy: AtomicU64,
    untagged: AtomicU64,
    unknown_app: AtomicU64,
    malformed: AtomicU64,
    duplicate_context: AtomicU64,
    context_switch: AtomicU64,
    wire: AtomicU64,
    runtime_fault: AtomicU64,
    overload: AtomicU64,
    flow_hits: AtomicU64,
    flow_misses: AtomicU64,
    flow_evictions: AtomicU64,
    flow_context_switches: AtomicU64,
    wire_by: [AtomicU64; 10],
}

impl AtomicEnforcerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        AtomicEnforcerStats::default()
    }

    /// A consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> EnforcerStats {
        EnforcerStats {
            packets_inspected: self.inspected.load(Ordering::Relaxed),
            packets_accepted: self.accepted.load(Ordering::Relaxed),
            dropped_by_policy: self.by_policy.load(Ordering::Relaxed),
            dropped_untagged: self.untagged.load(Ordering::Relaxed),
            dropped_unknown_app: self.unknown_app.load(Ordering::Relaxed),
            dropped_malformed: self.malformed.load(Ordering::Relaxed),
            dropped_duplicate_context: self.duplicate_context.load(Ordering::Relaxed),
            dropped_context_switch: self.context_switch.load(Ordering::Relaxed),
            dropped_wire: self.wire.load(Ordering::Relaxed),
            dropped_runtime_fault: self.runtime_fault.load(Ordering::Relaxed),
            dropped_overload: self.overload.load(Ordering::Relaxed),
            flow_hits: self.flow_hits.load(Ordering::Relaxed),
            flow_misses: self.flow_misses.load(Ordering::Relaxed),
            flow_evictions: self.flow_evictions.load(Ordering::Relaxed),
            flow_context_switches: self.flow_context_switches.load(Ordering::Relaxed),
            dropped_wire_by: {
                let mut counts = [0u64; 10];
                for (count, counter) in counts.iter_mut().zip(self.wire_by.iter()) {
                    *count = counter.load(Ordering::Relaxed);
                }
                WireDropStats::from_array(counts)
            },
        }
    }

    /// Overwrite every counter from a snapshot.
    pub fn store(&self, stats: EnforcerStats) {
        self.inspected
            .store(stats.packets_inspected, Ordering::Relaxed);
        self.accepted
            .store(stats.packets_accepted, Ordering::Relaxed);
        self.by_policy
            .store(stats.dropped_by_policy, Ordering::Relaxed);
        self.untagged
            .store(stats.dropped_untagged, Ordering::Relaxed);
        self.unknown_app
            .store(stats.dropped_unknown_app, Ordering::Relaxed);
        self.malformed
            .store(stats.dropped_malformed, Ordering::Relaxed);
        self.duplicate_context
            .store(stats.dropped_duplicate_context, Ordering::Relaxed);
        self.context_switch
            .store(stats.dropped_context_switch, Ordering::Relaxed);
        self.wire.store(stats.dropped_wire, Ordering::Relaxed);
        self.runtime_fault
            .store(stats.dropped_runtime_fault, Ordering::Relaxed);
        self.overload
            .store(stats.dropped_overload, Ordering::Relaxed);
        self.flow_hits.store(stats.flow_hits, Ordering::Relaxed);
        self.flow_misses.store(stats.flow_misses, Ordering::Relaxed);
        self.flow_evictions
            .store(stats.flow_evictions, Ordering::Relaxed);
        self.flow_context_switches
            .store(stats.flow_context_switches, Ordering::Relaxed);
        for (counter, count) in self.wire_by.iter().zip(stats.dropped_wire_by.to_array()) {
            counter.store(count, Ordering::Relaxed);
        }
    }

    /// Count one frame that failed wire decode with `error`: inspected,
    /// then dropped at the byte ingress boundary before any enforcement
    /// logic ran — charged to both the aggregate
    /// [`EnforcerStats::dropped_wire`] and the per-variant breakdown.
    pub fn record_wire_drop(&self, error: WireError) {
        self.inspected.fetch_add(1, Ordering::Relaxed);
        self.wire.fetch_add(1, Ordering::Relaxed);
        self.wire_by[error.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one packet failed closed because its partition's worker
    /// panicked: inspected, then dropped without any enforcement logic
    /// having run.
    pub fn record_runtime_fault(&self) {
        self.inspected.fetch_add(1, Ordering::Relaxed);
        self.runtime_fault.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one packet shed fail-closed by the overload guard before
    /// inspection.
    pub fn record_overload(&self) {
        self.inspected.fetch_add(1, Ordering::Relaxed);
        self.overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.store(EnforcerStats::default());
    }
}

/// Default capacity of the drop log ring buffer.
pub const DROP_LOG_CAPACITY: usize = 10_000;

/// Drop-log reason charged to packets failed closed because the worker
/// inspecting their partition panicked ([`EnforcerStats::dropped_runtime_fault`]).
pub const RUNTIME_FAULT_DROP_REASON: &str = "runtime fault: worker panicked; packet failed closed";

/// Drop-log reason charged to packets shed fail-closed by the overload guard
/// ([`EnforcerStats::dropped_overload`]).
pub const OVERLOAD_DROP_REASON: &str =
    "overload: batch past admission watermark; packet shed fail-closed";

/// Why a packet was dropped, as retained by the [`DropLog`].
///
/// The log used to store `String`s, which made every drop clone the reason
/// twice (once into the log, once into the returned
/// [`Verdict::Drop`]).  A `DropReason` is either a `'static` conformance
/// diagnostic (appending it is a pointer copy) or an evaluation diagnostic
/// shared with the flow cache's [`CachedOutcome`] behind an `Arc`
/// (appending it is a refcount bump) — logging never copies string bytes.
/// The human-readable text, rendered on demand by
/// [`DropReason::as_str`] / [`DropLog::to_vec`], is byte-identical to what
/// the `String` log recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropReason {
    /// A fixed conformance diagnostic (§IV-A4 checks, strict-mode untagged
    /// drops, mid-flow context switches).
    Static(&'static str),
    /// A diagnostic rendered during evaluation (malformed context, unknown
    /// app, policy denial), shared with the cached outcome that produced it.
    Rendered(Arc<str>),
}

impl DropReason {
    /// The reason text.
    pub fn as_str(&self) -> &str {
        match self {
            DropReason::Static(reason) => reason,
            DropReason::Rendered(reason) => reason,
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&'static str> for DropReason {
    fn from(reason: &'static str) -> Self {
        DropReason::Static(reason)
    }
}

impl From<String> for DropReason {
    fn from(reason: String) -> Self {
        DropReason::Rendered(reason.into())
    }
}

impl From<&Arc<str>> for DropReason {
    fn from(reason: &Arc<str>) -> Self {
        DropReason::Rendered(Arc::clone(reason))
    }
}

/// Bounded log of drop reasons (most recent last).
///
/// Backed by a `VecDeque` ring buffer: hitting the capacity evicts the oldest
/// entry in O(1), unlike the `Vec::remove(0)` eviction the interpretive
/// prototype used, which shifted the remaining 10,000 entries on every drop
/// past capacity.  Entries are [`DropReason`]s, so recording a drop never
/// copies the reason text.
#[derive(Debug, Clone)]
pub struct DropLog {
    entries: VecDeque<DropReason>,
    capacity: usize,
}

impl Default for DropLog {
    fn default() -> Self {
        DropLog::new(DROP_LOG_CAPACITY)
    }
}

impl DropLog {
    /// An empty log bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        DropLog {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Append a reason, evicting the oldest entry if the log is full.
    pub fn push(&mut self, reason: impl Into<DropReason>) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(reason.into());
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no drops have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterate over retained reasons, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(DropReason::as_str)
    }

    /// Render the retained reasons into a vector, oldest first.
    pub fn to_vec(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|reason| reason.as_str().to_owned())
            .collect()
    }

    /// Discard all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// How the compiled policy half of a generation was obtained — what
/// [`EnforcementTables::next_generation`] reports back to the control plane
/// (and through it to the reuse counters the regression tests observe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyReuse {
    /// The previous generation's compiled set was shared unchanged.
    Shared,
    /// The previous tables were extended in place-sharing fashion.
    Incremental {
        /// Compiled rules carried over without recompilation.
        reused: usize,
        /// Newly compiled rules appended to the tables.
        appended: usize,
    },
    /// The set was recompiled from scratch.
    Full,
}

/// What [`EnforcementTables::next_generation`] reused from the previous
/// generation's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableReuse {
    /// The compiled signature database was shared rather than recompiled.
    pub database_reused: bool,
    /// How the compiled policy set was obtained.
    pub policy: PolicyReuse,
}

/// The control plane's description of how a staged policy set relates to the
/// previously committed one, steering [`EnforcementTables::next_generation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyDelta {
    /// The staged set is identical to the committed one.
    Unchanged,
    /// The staged set equals the committed one plus appended policies.
    Appended {
        /// Position of the first appended policy (= previous set length).
        split: usize,
    },
    /// The staged set removed, replaced or reordered policies.
    Changed,
}

/// The immutable, compiled half of the enforcement plane: compiled signature
/// database + compiled policy set + configuration.  Built once from the
/// interchange forms and shared (via [`Arc`]) by every shard and facade.
///
/// Both compiled halves are individually [`Arc`]-shared so a generation that
/// changes only one of them (or neither — a config-only swap) can reuse the
/// other wholesale; see [`EnforcementTables::next_generation`].
#[derive(Debug, Clone)]
pub struct EnforcementTables {
    database: Arc<CompiledSignatureDb>,
    policies: Arc<CompiledPolicySet>,
    config: EnforcerConfig,
    /// Monotonically increasing build number (process-global).  Flow-table
    /// entries record the epoch they were computed under; a probe against
    /// tables with a different epoch misses, so hot-swapping policies or the
    /// database under concurrent inspection never serves a stale verdict.
    epoch: u64,
}

impl EnforcementTables {
    /// Compile `database` and `policies` into enforcement-ready tables,
    /// stamping a fresh epoch.
    pub fn build(
        database: &SignatureDatabase,
        policies: &PolicySet,
        config: EnforcerConfig,
    ) -> Self {
        EnforcementTables {
            database: Arc::new(CompiledSignatureDb::compile(database)),
            policies: Arc::new(policies.compile()),
            config,
            epoch: NEXT_TABLE_EPOCH.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Like [`EnforcementTables::build`], wrapped for sharing.
    pub fn shared(
        database: &SignatureDatabase,
        policies: &PolicySet,
        config: EnforcerConfig,
    ) -> Arc<Self> {
        Arc::new(Self::build(database, policies, config))
    }

    /// Build the tables for the next control-plane generation, reusing
    /// whatever `prev` already compiled: the signature database is shared
    /// when `database_changed` is false, and the compiled policy set is
    /// shared (delta [`PolicyDelta::Unchanged`]) or extended incrementally
    /// (delta [`PolicyDelta::Appended`], falling back to a full compile when
    /// the accumulated delta grows too large) rather than recompiled.
    ///
    /// A fresh epoch is always stamped, so flow-cache entries from the
    /// previous generation can never satisfy probes against the new one —
    /// reuse changes compile cost, not invalidation semantics.
    pub fn next_generation(
        prev: &EnforcementTables,
        database: &SignatureDatabase,
        database_changed: bool,
        policies: &PolicySet,
        delta: PolicyDelta,
        config: EnforcerConfig,
    ) -> (Arc<Self>, TableReuse) {
        let compiled_db = if database_changed {
            Arc::new(CompiledSignatureDb::compile(database))
        } else {
            Arc::clone(&prev.database)
        };
        let (compiled_policies, policy_reuse) = match delta {
            PolicyDelta::Unchanged => (Arc::clone(&prev.policies), PolicyReuse::Shared),
            PolicyDelta::Appended { split } => {
                match CompiledPolicySet::extend_compile(&prev.policies, policies, split) {
                    Some(extended) => {
                        let appended = extended.len() - split;
                        (
                            Arc::new(extended),
                            PolicyReuse::Incremental {
                                reused: split,
                                appended,
                            },
                        )
                    }
                    None => (Arc::new(policies.compile()), PolicyReuse::Full),
                }
            }
            PolicyDelta::Changed => (Arc::new(policies.compile()), PolicyReuse::Full),
        };
        let tables = Arc::new(EnforcementTables {
            database: compiled_db,
            policies: compiled_policies,
            config,
            epoch: NEXT_TABLE_EPOCH.fetch_add(1, Ordering::Relaxed),
        });
        let reuse = TableReuse {
            database_reused: !database_changed,
            policy: policy_reuse,
        };
        (tables, reuse)
    }

    /// The compiled signature database.
    pub fn database(&self) -> &CompiledSignatureDb {
        &self.database
    }

    /// The compiled policy set.
    pub fn policies(&self) -> &CompiledPolicySet {
        &self.policies
    }

    /// The enforcement configuration.
    pub fn config(&self) -> EnforcerConfig {
        self.config
    }

    /// The epoch stamped onto this build (monotonically increasing across
    /// recompilations; see [`EnforcementTables::build`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stage 2+3 of the pipeline: decode `payload` (into `scratch`), resolve
    /// indexes against the signature database and evaluate the policy set.
    ///
    /// The result is configuration-independent (how a [`CachedOutcome`] maps
    /// to a verdict is decided by [`EnforcementTables::apply_outcome`]) and
    /// depends only on the payload bytes and these tables — which is exactly
    /// what makes it safe to cache per flow, keyed by exact payload and epoch.
    fn evaluate_payload(&self, payload: &[u8], scratch: &mut Vec<u32>) -> CachedOutcome {
        let header = match ContextEncoding::decode_into(payload, scratch) {
            Ok(header) => header,
            Err(e) => {
                return CachedOutcome::Malformed(format!("malformed context option: {e}").into())
            }
        };
        let Some(entry) = self.database.entry(header.app_tag) else {
            return CachedOutcome::UnknownApp(
                format!("unknown application tag {}", header.app_tag).into(),
            );
        };
        if let Err(e) = entry.validate_indexes(scratch) {
            return CachedOutcome::Malformed(format!("undecodable stack indexes: {e}").into());
        }

        // Enforcement over pre-parsed frames (index lookups only).
        let frame = |i: usize| {
            entry
                .signature(scratch[i])
                .expect("indexes validated above")
        };
        match self
            .policies
            .evaluate_frames(header.app_tag, scratch.len(), frame)
        {
            CompiledVerdict::Allow => CachedOutcome::Accept,
            verdict @ CompiledVerdict::Deny { policy, .. } => {
                let decision = self.policies.verdict_to_decision(verdict, frame);
                let Decision::Deny { reason, .. } = decision else {
                    unreachable!("deny verdict renders to deny decision");
                };
                let detail = match policy.and_then(|i| self.policies.policy(i)) {
                    Some(policy) => format!("policy {policy} violated: {reason}"),
                    None => reason,
                };
                CachedOutcome::Deny(detail.into())
            }
        }
    }

    /// Turn an evaluation outcome (fresh or cached) into a verdict, charging
    /// the matching counter and drop-log entry.  Replaying a cached outcome
    /// through this function is indistinguishable from a fresh evaluation.
    fn apply_outcome(
        &self,
        outcome: &CachedOutcome,
        stats: &AtomicEnforcerStats,
        drop_log: &mut DropLog,
    ) -> Verdict {
        match outcome {
            CachedOutcome::Accept => {
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                Verdict::Accept
            }
            CachedOutcome::Malformed(reason) => {
                if self.config.drop_malformed_context {
                    stats.malformed.fetch_add(1, Ordering::Relaxed);
                    record_drop(drop_log, reason.into())
                } else {
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    Verdict::Accept
                }
            }
            CachedOutcome::UnknownApp(reason) => {
                if self.config.drop_unknown_apps {
                    stats.unknown_app.fetch_add(1, Ordering::Relaxed);
                    record_drop(drop_log, reason.into())
                } else {
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    Verdict::Accept
                }
            }
            CachedOutcome::Deny(reason) => {
                stats.by_policy.fetch_add(1, Ordering::Relaxed);
                record_drop(drop_log, reason.into())
            }
        }
    }

    /// Stage 0 + 1: §IV-A4 conformance checks and context extraction.
    ///
    /// Returns the single context option to enforce on, `Ok(None)` for
    /// untagged packets, or the early verdict for non-conforming packets
    /// (duplicate context options, covert data after End-of-List) and
    /// untagged packets in strict deployments.
    #[allow(clippy::type_complexity)]
    fn extract_context<'p>(
        &self,
        packet: &'p Ipv4Packet,
        stats: &AtomicEnforcerStats,
        drop_log: &mut DropLog,
    ) -> Result<Option<&'p bp_netsim::options::IpOption>, Verdict> {
        // A second context option is a spoofing attempt: the hardened kernel
        // emits exactly one, and enforcing on only the first would let the
        // other ride through unchecked.  No legitimate deployment — however
        // permissive — produces duplicates, and in permissive mode deny
        // policies still apply, so this check is unconditional: gating it
        // would hand permissive deployments the exact bypass back (an
        // attacker prepending a benign option to mask a denied context).
        if packet.options().count(IpOptionKind::BorderPatrolContext) > 1 {
            stats.duplicate_context.fetch_add(1, Ordering::Relaxed);
            return Err(record_drop(
                drop_log,
                DropReason::Static("duplicate BorderPatrol context options"),
            ));
        }
        // Non-zero bytes after End-of-List are a covert channel through the
        // options area (paper §IV-A4): treat them as non-conforming.  Unlike
        // duplicates this stays gated — trailing garbage does not change
        // which context is enforced, the sanitizer scrubs it regardless, and
        // permissive rollouts tolerate broken middlebox padding.
        if self.config.drop_malformed_context && packet.options().has_trailing_data() {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            return Err(record_drop(
                drop_log,
                DropReason::Static("non-zero data after end-of-options-list"),
            ));
        }
        let Some(option) = packet.options().find(IpOptionKind::BorderPatrolContext) else {
            if self.config.drop_untagged {
                stats.untagged.fetch_add(1, Ordering::Relaxed);
                return Err(record_drop(
                    drop_log,
                    DropReason::Static("packet carries no BorderPatrol context"),
                ));
            }
            return Ok(None);
        };
        Ok(Some(option))
    }

    /// Inspect one packet against the compiled tables (the three-stage
    /// pipeline), charging counters to `stats`, drop reasons to `drop_log`
    /// and reusing `scratch` for index decoding.
    ///
    /// On the accept path this performs no signature parsing and no `String`
    /// allocation: extraction borrows the option payload, decoding refills
    /// `scratch`, resolution is a `u64` map probe plus slice lookups, and
    /// evaluation works on pre-split targets.
    ///
    /// This is the *uncached* path — every packet pays the full pipeline.
    /// [`EnforcementTables::inspect_flow_cached`] adds the per-flow verdict
    /// cache in front of it.
    pub fn inspect_packet(
        &self,
        packet: &Ipv4Packet,
        scratch: &mut Vec<u32>,
        stats: &AtomicEnforcerStats,
        drop_log: &mut DropLog,
    ) -> Verdict {
        stats.inspected.fetch_add(1, Ordering::Relaxed);
        let option = match self.extract_context(packet, stats, drop_log) {
            Ok(Some(option)) => option,
            Ok(None) => {
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                return Verdict::Accept;
            }
            Err(verdict) => return verdict,
        };
        let outcome = self.evaluate_payload(&option.data, scratch);
        self.apply_outcome(&outcome, stats, drop_log)
    }

    /// Inspect one packet with the per-flow verdict cache in front of the
    /// pipeline.
    ///
    /// A packet whose flow **and** exact context payload were evaluated
    /// before (under these tables' epoch, within `flow`'s TTL measured
    /// against `now`) replays the cached outcome after one O(1) probe —
    /// no decode, no database resolution, no policy evaluation.  An epoch
    /// bump or expiry re-evaluates and refreshes the entry.
    ///
    /// A **context change on a live flow** (the probe reports a
    /// [`FlowProbe::ContextSwitch`]) is counted in
    /// [`EnforcerStats::flow_context_switches`]: the set-once kernel never
    /// re-tags a socket, so a mid-flow change is replayed or injected
    /// context.  With [`EnforcerConfig::drop_context_switch`] enabled the
    /// packet is dropped and the flow's original entry is *kept* (injection
    /// cannot evict the legitimate context); otherwise the packet is
    /// re-evaluated like a miss and the entry is overwritten.
    ///
    /// With `drop_context_switch` off, verdicts, statistics outcome counters
    /// and drop-log entries are byte-identical to
    /// [`EnforcementTables::inspect_packet`].
    pub fn inspect_flow_cached(
        &self,
        packet: &Ipv4Packet,
        flow: &mut FlowTable,
        now: SimDuration,
        scratch: &mut Vec<u32>,
        stats: &AtomicEnforcerStats,
        drop_log: &mut DropLog,
    ) -> Verdict {
        stats.inspected.fetch_add(1, Ordering::Relaxed);
        let option = match self.extract_context(packet, stats, drop_log) {
            Ok(Some(option)) => option,
            Ok(None) => {
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                return Verdict::Accept;
            }
            Err(verdict) => return verdict,
        };

        let key = packet.flow_key();
        match flow.probe(&key, &option.data, self.epoch, now) {
            FlowProbe::Hit(outcome) => {
                stats.flow_hits.fetch_add(1, Ordering::Relaxed);
                return self.apply_outcome(outcome, stats, drop_log);
            }
            FlowProbe::ContextSwitch => {
                stats.flow_context_switches.fetch_add(1, Ordering::Relaxed);
                if self.config.drop_context_switch {
                    stats.context_switch.fetch_add(1, Ordering::Relaxed);
                    return record_drop(
                        drop_log,
                        DropReason::Static(
                            "mid-flow context change (replayed or injected context)",
                        ),
                    );
                }
            }
            FlowProbe::Miss => {}
        }
        stats.flow_misses.fetch_add(1, Ordering::Relaxed);
        let outcome = self.evaluate_payload(&option.data, scratch);
        let evicted = flow.insert(key, &option.data, self.epoch, outcome.clone(), now);
        stats.flow_evictions.fetch_add(evicted, Ordering::Relaxed);
        self.apply_outcome(&outcome, stats, drop_log)
    }
}

/// Log `reason` and return the matching drop verdict.
///
/// The log entry is appended by pointer copy or refcount bump (see
/// [`DropReason`]); the only string the drop path still allocates is the
/// rendering carried by the returned [`Verdict::Drop`] itself — the old
/// `String` log paid that allocation *plus* two clones of the reason.
pub(crate) fn record_drop(drop_log: &mut DropLog, reason: DropReason) -> Verdict {
    let verdict = Verdict::Drop {
        reason: reason.as_str().to_owned(),
    };
    drop_log.push(reason);
    verdict
}

/// The Policy Enforcer NFQUEUE consumer — the single-shard facade over the
/// compiled enforcement plane.
///
/// Retains the interchange [`SignatureDatabase`] / [`PolicySet`] so
/// reconfiguration (§IV "Reconfigurability") recompiles the tables in place.
///
/// # Examples
///
/// ```
/// use bp_core::enforcer::{EnforcerConfig, PolicyEnforcer};
/// use bp_core::offline::SignatureDatabase;
/// use bp_core::policy::PolicySet;
///
/// let enforcer = PolicyEnforcer::new(
///     SignatureDatabase::new(),
///     PolicySet::new(),
///     EnforcerConfig::default(),
/// );
/// assert_eq!(enforcer.stats().packets_inspected, 0);
/// ```
#[derive(Debug)]
pub struct PolicyEnforcer {
    database: SignatureDatabase,
    policies: PolicySet,
    tables: Arc<EnforcementTables>,
    stats: AtomicEnforcerStats,
    drop_log: DropLog,
    scratch: Vec<u32>,
    flow: FlowTable,
    now: SimDuration,
}

impl Clone for PolicyEnforcer {
    fn clone(&self) -> Self {
        let mut clone = PolicyEnforcer::with_flow_config(
            self.database.clone(),
            self.policies.clone(),
            self.tables.config(),
            self.flow.config(),
        );
        clone.drop_log = self.drop_log.clone();
        clone.now = self.now;
        clone.stats.store(self.stats.snapshot());
        clone
    }
}

impl PolicyEnforcer {
    /// Create an enforcer with a signature database, a policy set and a
    /// configuration; compiles the enforcement tables once.
    pub fn new(database: SignatureDatabase, policies: PolicySet, config: EnforcerConfig) -> Self {
        Self::with_flow_config(database, policies, config, FlowTableConfig::default())
    }

    /// Like [`PolicyEnforcer::new`] with explicit flow-table bounds.
    pub fn with_flow_config(
        database: SignatureDatabase,
        policies: PolicySet,
        config: EnforcerConfig,
        flow: FlowTableConfig,
    ) -> Self {
        let tables = EnforcementTables::shared(&database, &policies, config);
        PolicyEnforcer {
            database,
            policies,
            tables,
            stats: AtomicEnforcerStats::new(),
            drop_log: DropLog::default(),
            scratch: Vec::with_capacity(ContextEncoding::max_frames(false)),
            flow: FlowTable::new(flow),
            now: SimDuration::ZERO,
        }
    }

    /// The active policy set (interchange form).
    pub fn policies(&self) -> &PolicySet {
        &self.policies
    }

    /// Adopt a control-plane build: interchange state and pre-compiled
    /// tables together, with no recompilation here.  The control plane is
    /// the only caller — this is how a commit or rollback installs a
    /// generation into the single-shard facade.
    pub(crate) fn adopt(
        &mut self,
        database: SignatureDatabase,
        policies: PolicySet,
        tables: Arc<EnforcementTables>,
    ) {
        self.database = database;
        self.policies = policies;
        self.tables = tables;
    }

    /// The signature database (interchange form).
    pub fn database(&self) -> &SignatureDatabase {
        &self.database
    }

    /// The compiled tables this enforcer currently shares with its callers.
    pub fn tables(&self) -> Arc<EnforcementTables> {
        Arc::clone(&self.tables)
    }

    /// Enforcement statistics.
    pub fn stats(&self) -> EnforcerStats {
        self.stats.snapshot()
    }

    /// Human-readable reasons of the most recent drops (most recent last).
    pub fn drop_log(&self) -> Vec<String> {
        self.drop_log.to_vec()
    }

    /// Reset statistics and the drop log (the flow cache is kept; see
    /// [`PolicyEnforcer::clear_flow_cache`]).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.drop_log.clear();
    }

    /// Advance the enforcer's view of simulated time, used for flow-table
    /// TTL expiry.  Drivers with a clock (the testbed, the network) call
    /// this; standalone users may leave it at zero, which keeps entries
    /// fresh forever.
    pub fn set_now(&mut self, now: SimDuration) {
        self.now = now;
    }

    /// The enforcer's current view of simulated time.
    pub fn now(&self) -> SimDuration {
        self.now
    }

    /// Number of flows currently tracked by the verdict cache.
    pub fn flow_cache_len(&self) -> usize {
        self.flow.len()
    }

    /// Drop every cached flow verdict (statistics are kept).
    pub fn clear_flow_cache(&mut self) {
        self.flow.clear();
    }

    /// Inspect one packet through the compiled plane with the per-flow
    /// verdict cache in front (see
    /// [`EnforcementTables::inspect_flow_cached`]).
    pub fn inspect(&mut self, packet: &Ipv4Packet) -> Verdict {
        self.tables.inspect_flow_cached(
            packet,
            &mut self.flow,
            self.now,
            &mut self.scratch,
            &self.stats,
            &mut self.drop_log,
        )
    }

    /// Inspect one packet through the compiled plane *without* the flow
    /// cache: every packet pays decode + resolution + evaluation.  This is
    /// the baseline the `flow_cache` bench compares the cached path against.
    pub fn inspect_uncached(&mut self, packet: &Ipv4Packet) -> Verdict {
        self.tables
            .inspect_packet(packet, &mut self.scratch, &self.stats, &mut self.drop_log)
    }

    /// Inspect one packet through the original interpretive pipeline: hex-keyed
    /// database lookup, per-frame descriptor *parsing* and string-scanning
    /// policy evaluation.
    ///
    /// Kept as the baseline the `policy_eval` / `enforcer_throughput` benches
    /// compare the compiled plane against; verdicts and statistics match
    /// [`PolicyEnforcer::inspect`].
    pub fn inspect_legacy(&mut self, packet: &Ipv4Packet) -> Verdict {
        self.stats.inspected.fetch_add(1, Ordering::Relaxed);

        // Stage 0: §IV-A4 conformance (mirrors the compiled plane's checks:
        // the duplicate-option spoofing drop is unconditional, the trailing
        // covert-data drop follows the malformed-context knob).
        if packet.options().count(IpOptionKind::BorderPatrolContext) > 1 {
            self.stats.duplicate_context.fetch_add(1, Ordering::Relaxed);
            return record_drop(
                &mut self.drop_log,
                DropReason::Static("duplicate BorderPatrol context options"),
            );
        }
        if self.tables.config().drop_malformed_context && packet.options().has_trailing_data() {
            self.stats.malformed.fetch_add(1, Ordering::Relaxed);
            return record_drop(
                &mut self.drop_log,
                DropReason::Static("non-zero data after end-of-options-list"),
            );
        }

        // Stage 1: extraction.
        let Some(option) = packet.options().find(IpOptionKind::BorderPatrolContext) else {
            if self.tables.config().drop_untagged {
                self.stats.untagged.fetch_add(1, Ordering::Relaxed);
                return record_drop(
                    &mut self.drop_log,
                    DropReason::Static("packet carries no BorderPatrol context"),
                );
            }
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
            return Verdict::Accept;
        };

        // Stage 2: decoding.
        let decoded = match ContextEncoding::decode(&option.data) {
            Ok(decoded) => decoded,
            Err(e) => {
                if self.tables.config().drop_malformed_context {
                    self.stats.malformed.fetch_add(1, Ordering::Relaxed);
                    return record_drop(
                        &mut self.drop_log,
                        format!("malformed context option: {e}").into(),
                    );
                }
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                return Verdict::Accept;
            }
        };
        let stack = match self
            .database
            .resolve_stack(decoded.app_tag, &decoded.frame_indexes)
        {
            Ok(stack) => stack,
            Err(_) if !self.database.contains(decoded.app_tag) => {
                if self.tables.config().drop_unknown_apps {
                    self.stats.unknown_app.fetch_add(1, Ordering::Relaxed);
                    return record_drop(
                        &mut self.drop_log,
                        format!("unknown application tag {}", decoded.app_tag).into(),
                    );
                }
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                return Verdict::Accept;
            }
            Err(e) => {
                if self.tables.config().drop_malformed_context {
                    self.stats.malformed.fetch_add(1, Ordering::Relaxed);
                    return record_drop(
                        &mut self.drop_log,
                        format!("undecodable stack indexes: {e}").into(),
                    );
                }
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                return Verdict::Accept;
            }
        };

        // Stage 3: enforcement.
        match self.policies.evaluate(decoded.app_tag, &stack) {
            Decision::Allow => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                Verdict::Accept
            }
            Decision::Deny { policy, reason } => {
                self.stats.by_policy.fetch_add(1, Ordering::Relaxed);
                let detail = match policy {
                    Some(policy) => format!("policy {policy} violated: {reason}"),
                    None => reason,
                };
                record_drop(&mut self.drop_log, detail.into())
            }
        }
    }
}

impl QueueHandler for PolicyEnforcer {
    fn name(&self) -> &str {
        "policy-enforcer"
    }

    fn handle(&mut self, packet: &mut Ipv4Packet) -> Verdict {
        self.inspect(packet)
    }

    fn handle_wire_batch(&mut self, frames: &[&[u8]], verdicts: &mut Vec<Verdict>) {
        verdicts.clear();
        verdicts.reserve(frames.len());
        for frame in frames {
            verdicts.push(match wire::decode_frame(frame) {
                Ok(packet) => self.inspect(&packet),
                Err(error) => {
                    self.stats.record_wire_drop(error);
                    record_drop(&mut self.drop_log, DropReason::Static(error.drop_reason()))
                }
            });
        }
    }
}

/// One worker shard: private counters, drop log, decode scratch and flow
/// table.  Batch partitioning is by flow, so a flow's packets always land on
/// the same shard and the flow table needs no cross-shard synchronization.
///
/// **Lock order**: every path that takes more than one of these mutexes
/// must acquire them as `scratch` → `drop_log` → `flow` (see
/// [`EnforcerCore::run_partition`] and [`EnforcerCore::inspect`]).  An
/// inline `inspect` and a batch worker routinely contend for the same
/// shard; inconsistent ordering deadlocks them.
#[derive(Debug, Default)]
pub(crate) struct EnforcerShard {
    pub(crate) stats: AtomicEnforcerStats,
    pub(crate) drop_log: Mutex<DropLog>,
    pub(crate) scratch: Mutex<Vec<u32>>,
    pub(crate) flow: Mutex<FlowTable>,
    /// The shard's seqlock-published telemetry snapshot.  Written at
    /// partition/batch end by whichever thread holds the shard's `drop_log`
    /// mutex — that lock is the single-writer guarantee; readers (the
    /// observability collector) spin on the sequence stamp instead of
    /// locking anything.
    pub(crate) telemetry: TelemetryCell,
    /// The shard's health state machine (Healthy → Degraded → Quarantined),
    /// fed by the runtime's panic recovery, respawn and watchdog paths and
    /// published through the telemetry snapshot.
    pub(crate) health: ShardHealth,
}

impl EnforcerShard {
    fn with_flow_config(config: FlowTableConfig) -> Self {
        EnforcerShard {
            flow: Mutex::new(FlowTable::new(config)),
            ..EnforcerShard::default()
        }
    }
}

/// The shared half of a [`ShardedEnforcer`]: the hot-swappable tables, the
/// per-shard mutable state and the simulated clock.
///
/// Split out behind an `Arc` so the persistent worker threads of the
/// [`WorkerPool`](crate::runtime) can hold it across batches — the pool's
/// shutdown join (on enforcer drop) releases the last worker references.
#[derive(Debug)]
pub(crate) struct EnforcerCore {
    /// The active compiled tables.  Behind an `RwLock` so administrators can
    /// hot-swap policies (a control-plane commit installing a new
    /// generation) while workers are mid-batch.  Workers do **not** take
    /// this lock per packet: they cache the `Arc` and revalidate it against
    /// `tables_generation` (one relaxed load of a rarely-written line per
    /// packet), re-reading the lock only when a swap actually happened — so
    /// every packet inspected after the installation returns uses the new
    /// tables and the new epoch, without cross-shard lock or refcount
    /// traffic in the hot loop.
    tables: RwLock<Arc<EnforcementTables>>,
    /// Bumped (release) after each table installation; workers watch it
    /// (acquire) to notice swaps without touching the lock.
    pub(crate) tables_generation: AtomicU64,
    pub(crate) shards: Vec<EnforcerShard>,
    /// Simulated time in microseconds, advanced by the driving clock owner;
    /// used for flow-table TTL expiry.
    now_micros: AtomicU64,
    /// The armed fault injector, if any (first install wins).  Inert cost on
    /// the hot path is one `OnceLock` load per partition.
    pub(crate) faults: OnceLock<Arc<FaultInjector>>,
}

impl EnforcerCore {
    /// Number of worker shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The currently active compiled tables.
    pub(crate) fn tables(&self) -> Arc<EnforcementTables> {
        Arc::clone(&self.tables.read())
    }

    /// The enforcer's current view of simulated time.
    pub(crate) fn now(&self) -> SimDuration {
        SimDuration::from_micros(self.now_micros.load(Ordering::Relaxed))
    }

    /// The shard a packet is routed to: flows stick to shards so per-flow
    /// packet order is preserved within a shard.
    pub(crate) fn shard_for(&self, packet: &Ipv4Packet) -> usize {
        let source = packet.source();
        let octets = source.ip.octets();
        let mut key = u64::from(u32::from_be_bytes(octets));
        key = (key << 16) | u64::from(source.port);
        // Fibonacci hashing spreads sequential addresses across shards.
        let hashed = key.wrapping_mul(0x9E3779B97F4A7C15);
        (hashed >> 32) as usize % self.shards.len()
    }

    /// Inspect one packet inline on its flow's shard (flow-cached),
    /// publishing the shard's telemetry snapshot before the locks drop —
    /// one inline inspect is its own batch.
    pub(crate) fn inspect(&self, packet: &Ipv4Packet) -> Verdict {
        let tables = self.tables();
        let shard = &self.shards[self.shard_for(packet)];
        // Shard lock order: scratch → drop_log → flow, matching
        // `run_partition` — an inline inspect and a batch worker contending
        // for the same shard must never interleave acquisition.
        let mut scratch = shard.scratch.lock();
        let mut drop_log = shard.drop_log.lock();
        let mut flow = shard.flow.lock();
        let verdict = tables.inspect_flow_cached(
            packet,
            &mut flow,
            self.now(),
            &mut scratch,
            &shard.stats,
            &mut drop_log,
        );
        // Sole writer: this thread holds the shard's drop_log mutex.
        shard
            .telemetry
            .publish(&shard.stats, tables.epoch(), &shard.health);
        verdict
    }

    // The batch partition loop, which dereferences borrowed-batch raw
    // pointers (`run_partition`), lives in `crate::runtime`, the one module
    // allowed to contain `unsafe`.
}

/// A sharded Policy Enforcer: one set of compiled [`EnforcementTables`]
/// shared by `N` worker shards, each with private mutable state.
///
/// [`ShardedEnforcer::inspect_batch`] partitions a batch by flow (source
/// endpoint), inspects each partition on a worker owned by that shard and
/// returns per-packet verdicts in input order.  The workers are persistent
/// per-shard threads (see [`crate::runtime`]): each is spawned the first
/// time a batch fans out to its shard, parked when idle and joined on drop;
/// the last busy partition of every batch runs on the submitting thread, so
/// a one-shard enforcer never spawns one.  Statistics merge across shards
/// without stopping the workers.
///
/// # Examples
///
/// ```
/// use bp_core::enforcer::{EnforcerConfig, EnforcementTables, ShardedEnforcer};
/// use bp_core::offline::SignatureDatabase;
/// use bp_core::policy::PolicySet;
///
/// let tables = EnforcementTables::shared(
///     &SignatureDatabase::new(),
///     &PolicySet::new(),
///     EnforcerConfig::default(),
/// );
/// let enforcer = ShardedEnforcer::new(tables, 4);
/// assert_eq!(enforcer.shard_count(), 4);
/// assert_eq!(enforcer.stats().packets_inspected, 0);
/// ```
#[derive(Debug)]
pub struct ShardedEnforcer {
    core: Arc<EnforcerCore>,
    /// The per-shard worker lanes every batch runs through.  Holds no thread
    /// until a batch fans out, so enforcers that never batch cost none.
    /// Dropped — shutdown messages, workers joined — with the enforcer.
    pool: WorkerPool,
    /// Overload-guard admission watermark in packets per batch; `0` means
    /// the guard is off.  Batches longer than the watermark have their tail
    /// shed fail-closed under [`EnforcerStats::dropped_overload`] before
    /// inspection.
    overload_watermark: AtomicUsize,
}

impl ShardedEnforcer {
    /// Create an enforcer fanning out over `shards` workers (at least one).
    pub fn new(tables: Arc<EnforcementTables>, shards: usize) -> Self {
        Self::with_flow_config(tables, shards, FlowTableConfig::default())
    }

    /// Like [`ShardedEnforcer::new`] with explicit per-shard flow-table
    /// bounds.
    pub fn with_flow_config(
        tables: Arc<EnforcementTables>,
        shards: usize,
        flow: FlowTableConfig,
    ) -> Self {
        let core = Arc::new(EnforcerCore {
            tables: RwLock::new(tables),
            tables_generation: AtomicU64::new(0),
            shards: (0..shards.max(1))
                .map(|_| EnforcerShard::with_flow_config(flow))
                .collect(),
            now_micros: AtomicU64::new(0),
            faults: OnceLock::new(),
        });
        ShardedEnforcer {
            pool: WorkerPool::new(&core),
            core,
            overload_watermark: AtomicUsize::new(0),
        }
    }

    /// Convenience constructor compiling the tables from interchange forms.
    pub fn from_parts(
        database: &SignatureDatabase,
        policies: &PolicySet,
        config: EnforcerConfig,
        shards: usize,
    ) -> Self {
        Self::new(
            EnforcementTables::shared(database, policies, config),
            shards,
        )
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }

    /// The currently active compiled tables.
    pub fn tables(&self) -> Arc<EnforcementTables> {
        self.core.tables()
    }

    /// The swap primitive behind the control plane's endpoint installation.
    ///
    /// Safe under concurrent [`ShardedEnforcer::inspect_batch`]: once this
    /// returns, every subsequently inspected packet is evaluated against
    /// `tables`, and flow-table entries cached under the previous epoch can
    /// no longer be served (their probes miss and re-evaluate).  Every
    /// partition observes the swap through the generation counter it
    /// revalidates per packet.
    pub(crate) fn install_tables(&self, tables: Arc<EnforcementTables>) {
        *self.core.tables.write() = tables;
        // Release-publish the swap *after* installation: a worker that
        // observes the new generation (acquire) and re-reads the lock is
        // guaranteed to see the new tables.
        self.core.tables_generation.fetch_add(1, Ordering::Release);
    }

    /// Advance the enforcer's view of simulated time (used for flow-table
    /// TTL expiry).  Callable from the clock owner while workers run.
    pub fn set_now(&self, now: SimDuration) {
        self.core
            .now_micros
            .store(now.as_micros(), Ordering::Relaxed);
    }

    /// The enforcer's current view of simulated time.
    pub fn now(&self) -> SimDuration {
        self.core.now()
    }

    /// Number of flows currently tracked across all shards' verdict caches.
    pub fn flow_cache_len(&self) -> usize {
        self.core.shards.iter().map(|s| s.flow.lock().len()).sum()
    }

    /// Drop every cached flow verdict on every shard (statistics are kept).
    pub fn clear_flow_cache(&self) {
        for shard in &self.core.shards {
            shard.flow.lock().clear();
        }
    }

    /// The shard a packet is routed to: flows stick to shards so per-flow
    /// packet order is preserved within a shard.
    pub fn shard_for(&self, packet: &Ipv4Packet) -> usize {
        self.core.shard_for(packet)
    }

    /// Inspect one packet inline on its flow's shard (flow-cached).
    pub fn inspect(&self, packet: &Ipv4Packet) -> Verdict {
        self.core.inspect(packet)
    }

    /// Inspect a batch of packets, fanning partitions across the shards'
    /// workers, and return verdicts in input order.
    ///
    /// Allocates the returned vector; hot loops that inspect batch after
    /// batch should reuse a buffer through
    /// [`ShardedEnforcer::inspect_batch_into`], which allocates nothing on
    /// the all-accept path.
    pub fn inspect_batch(&self, packets: &[Ipv4Packet]) -> Vec<Verdict> {
        let mut verdicts = Vec::with_capacity(packets.len());
        self.inspect_batch_into(packets, &mut verdicts);
        verdicts
    }

    /// Inspect a batch of packets, writing verdicts (input order, one per
    /// packet) into `verdicts`, which is cleared first.
    ///
    /// With a reused `verdicts` buffer this performs **zero allocations**
    /// per batch on the all-accept path: partitions land in the runtime's
    /// reused index buffers, jobs travel through fixed ring slots, and each
    /// verdict is written in place into its slot.
    pub fn inspect_batch_into(&self, packets: &[Ipv4Packet], verdicts: &mut Vec<Verdict>) {
        self.inspect_source_into(PacketSource::slice(packets), verdicts);
    }

    /// Inspect a batch of raw wire frames and return verdicts in frame
    /// order.  Allocating variant of
    /// [`ShardedEnforcer::inspect_wire_batch_into`].
    pub fn inspect_wire_batch(&self, frames: &[&[u8]]) -> Vec<Verdict> {
        let mut verdicts = Vec::with_capacity(frames.len());
        self.inspect_wire_batch_into(frames, &mut verdicts);
        verdicts
    }

    /// Inspect a batch of raw wire frames: decode each through the byte
    /// ingress boundary ([`crate::wire`]), run the packets that parsed
    /// through [`ShardedEnforcer::inspect_batch_into`], and write one
    /// verdict per frame (frame order) into `verdicts`.
    ///
    /// A frame that fails decode never reaches enforcement: it yields a
    /// fail-closed [`Verdict::Drop`] whose reason is the typed
    /// [`WireError::drop_reason`], counted in
    /// [`EnforcerStats::dropped_wire`] and recorded in the drop log.
    /// Malformed frames are charged to shard 0 — an unparsable frame has no
    /// flow key to hash a shard from.  Never panics on malformed input.
    pub fn inspect_wire_batch_into(&self, frames: &[&[u8]], verdicts: &mut Vec<Verdict>) {
        let mut packets = Vec::with_capacity(frames.len());
        let mut failures: Vec<(usize, WireError)> = Vec::new();
        let injector = self.core.faults.get();
        for (index, frame) in frames.iter().enumerate() {
            let corrupt = injector.is_some_and(|i| i.corrupt_next_frame());
            let result = match (corrupt, frame.first()) {
                (true, Some(_)) => {
                    // Injected wire corruption: flip the version/IHL byte so
                    // the frame fails closed through the ordinary typed
                    // wire-error path, deterministically.
                    let mut bytes = frame.to_vec();
                    bytes[0] ^= 0xFF;
                    wire::decode_frame(&bytes)
                }
                _ => wire::decode_frame(frame),
            };
            match result {
                Ok(packet) => packets.push(packet),
                Err(error) => failures.push((index, error)),
            }
        }
        if failures.is_empty() {
            self.inspect_batch_into(&packets, verdicts);
            return;
        }
        let mut failure_verdicts = Vec::with_capacity(failures.len());
        {
            let shard = &self.core.shards[0];
            let mut drop_log = shard.drop_log.lock();
            for &(index, error) in &failures {
                shard.stats.record_wire_drop(error);
                let verdict = record_drop(&mut drop_log, DropReason::Static(error.drop_reason()));
                failure_verdicts.push((index, verdict));
            }
            // Sole writer: this thread holds shard 0's drop_log mutex.
            shard
                .telemetry
                .publish(&shard.stats, self.core.tables().epoch(), &shard.health);
        }
        let mut decoded_verdicts = Vec::with_capacity(packets.len());
        self.inspect_batch_into(&packets, &mut decoded_verdicts);
        verdicts.clear();
        verdicts.reserve(frames.len());
        let mut failure_iter = failure_verdicts.into_iter().peekable();
        let mut decoded = decoded_verdicts.into_iter();
        for index in 0..frames.len() {
            match failure_iter.peek() {
                Some(&(at, _)) if at == index => {
                    let (_, verdict) = failure_iter.next().expect("peeked entry exists");
                    verdicts.push(verdict);
                }
                _ => verdicts.push(decoded.next().expect("one verdict per decoded packet")),
            }
        }
    }

    /// Shared batch implementation over either batch shape (owned slice or
    /// NFQUEUE reference batch).
    fn inspect_source_into(&self, source: PacketSource, verdicts: &mut Vec<Verdict>) {
        verdicts.clear();
        let len = source.len();
        // Overload guard: admit at most the watermark, shed the tail
        // fail-closed after inspection so verdicts stay in input order.
        let watermark = self.overload_watermark.load(Ordering::Relaxed);
        let admitted = if watermark == 0 {
            len
        } else {
            len.min(watermark)
        };
        // Pre-size the slot array with **fail-closed** placeholders: every
        // slot is overwritten by exactly one partition on the normal path,
        // and a partition that panics has its uninspected slots converted
        // into attributed `dropped_runtime_fault` drops by the recovery
        // path — never silent accepts.  An empty `String` owns no heap, so
        // the resize allocates nothing.
        verdicts.resize(
            admitted,
            Verdict::Drop {
                reason: String::new(),
            },
        );
        self.pool.inspect(source.truncated(admitted), verdicts);
        if admitted < len {
            self.shed_overload(len - admitted, verdicts);
        }
    }

    /// Shed `count` packets fail-closed under the overload guard, appending
    /// their drop verdicts (they are the batch tail).  Charged to shard 0,
    /// like wire-decode failures: a shed packet was never routed.
    fn shed_overload(&self, count: usize, verdicts: &mut Vec<Verdict>) {
        let shard = &self.core.shards[0];
        let mut drop_log = shard.drop_log.lock();
        for _ in 0..count {
            shard.stats.record_overload();
            verdicts.push(record_drop(
                &mut drop_log,
                DropReason::Static(OVERLOAD_DROP_REASON),
            ));
        }
        // Sole writer: this thread holds shard 0's drop_log mutex.
        shard
            .telemetry
            .publish(&shard.stats, self.core.tables().epoch(), &shard.health);
    }

    /// Merged statistics across all shards.
    pub fn stats(&self) -> EnforcerStats {
        self.core
            .shards
            .iter()
            .map(|shard| shard.stats.snapshot())
            .fold(EnforcerStats::default(), |acc, shard| acc.merged(&shard))
    }

    /// Per-shard statistics snapshots.
    pub fn shard_stats(&self) -> Vec<EnforcerStats> {
        self.core
            .shards
            .iter()
            .map(|shard| shard.stats.snapshot())
            .collect()
    }

    /// One shard's latest seqlock-published telemetry snapshot (consistent:
    /// the reader retries until an attempt lands between publications).
    /// Unlike [`ShardedEnforcer::shard_stats`] — whose relaxed counter
    /// reads can tear across counters — a snapshot is exactly one
    /// publication, so cross-counter invariants hold and deltas between
    /// successive snapshots are exact.
    pub fn shard_telemetry(&self, shard: usize) -> TelemetrySnapshot {
        self.core.shards[shard].telemetry.read()
    }

    /// Every shard's latest telemetry snapshot, in shard order.
    pub fn telemetry(&self) -> Vec<TelemetrySnapshot> {
        self.core
            .shards
            .iter()
            .map(|shard| shard.telemetry.read())
            .collect()
    }

    /// Drop reasons across all shards (grouped by shard, oldest first within
    /// each shard).
    pub fn drop_log(&self) -> Vec<String> {
        self.core
            .shards
            .iter()
            .flat_map(|shard| shard.drop_log.lock().to_vec())
            .collect()
    }

    /// Arm a deterministic fault injector on this enforcer's data plane
    /// (worker panics, stalls, wire corruption — see
    /// [`crate::faults::FaultPlan`]).  First install wins; later calls are
    /// ignored.  Without an installed injector the hooks cost one
    /// `OnceLock` load per partition.
    pub fn install_faults(&self, injector: Arc<FaultInjector>) {
        let _ = self.core.faults.set(injector);
    }

    /// The armed fault injector, if any.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.core.faults.get()
    }

    /// Set the overload-guard admission watermark in packets per batch
    /// (`0` disables the guard).  Batches longer than the watermark have
    /// their tail shed fail-closed under
    /// [`EnforcerStats::dropped_overload`] before inspection.
    pub fn set_overload_watermark(&self, watermark: usize) {
        self.overload_watermark.store(watermark, Ordering::Relaxed);
    }

    /// The overload-guard admission watermark (`0` = guard off).
    pub fn overload_watermark(&self) -> usize {
        self.overload_watermark.load(Ordering::Relaxed)
    }

    /// Every shard's current health snapshot, in shard order.
    pub fn shard_health(&self) -> Vec<ShardHealthSnapshot> {
        self.core
            .shards
            .iter()
            .map(|shard| shard.health.snapshot())
            .collect()
    }

    /// True when any shard is [`HealthState::Quarantined`].
    pub fn any_quarantined(&self) -> bool {
        self.core
            .shards
            .iter()
            .any(|shard| shard.health.state() == HealthState::Quarantined)
    }

    /// Reset statistics and drop logs on every shard (flow caches are kept;
    /// see [`ShardedEnforcer::clear_flow_cache`]).
    pub fn reset_stats(&self) {
        for shard in &self.core.shards {
            shard.stats.reset();
            let mut drop_log = shard.drop_log.lock();
            drop_log.clear();
            // Holding drop_log makes this thread the telemetry writer.
            shard.telemetry.reset();
        }
    }
}

impl QueueHandler for ShardedEnforcer {
    fn name(&self) -> &str {
        "sharded-policy-enforcer"
    }

    fn handle(&mut self, packet: &mut Ipv4Packet) -> Verdict {
        ShardedEnforcer::inspect(self, packet)
    }

    fn handle_batch_into(&mut self, packets: &mut [&mut Ipv4Packet], verdicts: &mut Vec<Verdict>) {
        // The enforcer only reads packets; view the reference batch directly
        // instead of collecting an intermediate `Vec<&Ipv4Packet>`.
        self.inspect_source_into(PacketSource::refs(packets), verdicts);
    }

    fn handle_wire_batch(&mut self, frames: &[&[u8]], verdicts: &mut Vec<Verdict>) {
        // Typed ingress: unlike the default trait impl this counts decode
        // failures in `dropped_wire` and the drop log.
        self.inspect_wire_batch_into(frames, verdicts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::OfflineAnalyzer;
    use crate::policy::Policy;
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
        let login =
            ContextEncoding::encode(apk.hash().tag(), &indexes_for("fb-login"), false).unwrap();
        (db, analytics, login)
    }

    #[test]
    fn policy_violations_are_dropped_and_logged() {
        let (db, analytics_payload, login_payload) = solcalendar_fixture();
        let policies = PolicySet::from_policies(vec![Policy::deny(
            EnforcementLevel::Class,
            "com/facebook/appevents",
        )]);
        let mut enforcer = PolicyEnforcer::new(db, policies, EnforcerConfig::default());

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
        let mut permissive =
            PolicyEnforcer::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
        assert!(permissive.inspect(&untagged_packet()).is_accept());
        assert_eq!(permissive.stats().dropped_untagged, 0);

        let mut strict = PolicyEnforcer::new(db, PolicySet::new(), EnforcerConfig::strict());
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

        let mut default =
            PolicyEnforcer::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
        assert!(!default
            .inspect(&tagged_packet(bogus_payload.clone()))
            .is_accept());
        assert_eq!(default.stats().dropped_unknown_app, 1);

        let mut permissive =
            PolicyEnforcer::new(db, PolicySet::new(), EnforcerConfig::permissive());
        assert!(permissive
            .inspect(&tagged_packet(bogus_payload))
            .is_accept());
    }

    #[test]
    fn malformed_context_is_dropped_by_default() {
        let (db, _, _) = solcalendar_fixture();
        let mut enforcer = PolicyEnforcer::new(db, PolicySet::new(), EnforcerConfig::default());
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
        let mut enforcer = PolicyEnforcer::new(db, PolicySet::new(), EnforcerConfig::default());
        assert!(!enforcer.inspect(&tagged_packet(payload)).is_accept());
        assert_eq!(enforcer.stats().dropped_malformed, 1);
    }

    #[test]
    fn reconfiguration_changes_behaviour_without_rebuilding() {
        let (db, analytics_payload, _) = solcalendar_fixture();
        let mut control = crate::control::ControlPlane::new(
            db.clone(),
            PolicySet::new(),
            EnforcerConfig::default(),
        );
        let enforcer = Arc::new(Mutex::new(PolicyEnforcer::new(
            db,
            PolicySet::new(),
            EnforcerConfig::default(),
        )));
        control.register(Arc::clone(&enforcer) as _);
        assert!(enforcer
            .lock()
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
            .lock()
            .inspect(&tagged_packet(analytics_payload))
            .is_accept());
        enforcer.lock().reset_stats();
        assert_eq!(enforcer.lock().stats().packets_inspected, 0);
        assert!(enforcer.lock().drop_log().is_empty());
    }

    #[test]
    fn stats_total_dropped_sums_reasons() {
        let stats = EnforcerStats {
            packets_inspected: 12,
            packets_accepted: 4,
            dropped_by_policy: 3,
            dropped_untagged: 1,
            dropped_unknown_app: 1,
            dropped_malformed: 1,
            dropped_duplicate_context: 1,
            dropped_context_switch: 1,
            ..EnforcerStats::default()
        };
        assert_eq!(stats.total_dropped(), 8);
    }

    #[test]
    fn legacy_and_compiled_paths_agree_on_the_fixture() {
        let (db, analytics_payload, login_payload) = solcalendar_fixture();
        let policies = PolicySet::from_policies(vec![
            Policy::deny(EnforcementLevel::Class, "com/facebook/appevents"),
            Policy::deny(EnforcementLevel::Library, "com/flurry"),
        ]);
        let mut compiled =
            PolicyEnforcer::new(db.clone(), policies.clone(), EnforcerConfig::default());
        let mut legacy = PolicyEnforcer::new(db, policies, EnforcerConfig::default());

        for payload in [analytics_payload, login_payload, vec![1, 2, 3]] {
            let packet = tagged_packet(payload);
            assert_eq!(compiled.inspect(&packet), legacy.inspect_legacy(&packet));
        }
        let untagged = untagged_packet();
        assert_eq!(
            compiled.inspect(&untagged),
            legacy.inspect_legacy(&untagged)
        );
        // Outcome counters must agree; the legacy pipeline has no flow cache,
        // so the hit/miss bookkeeping is excluded from the comparison.
        assert_eq!(
            compiled.stats().without_flow_counters(),
            legacy.stats().without_flow_counters()
        );
        assert_eq!(legacy.stats().flow_misses, 0);
        assert_eq!(compiled.drop_log(), legacy.drop_log());
    }

    #[test]
    fn mid_flow_context_switch_is_counted_and_reevaluated_by_default() {
        let (db, analytics_payload, login_payload) = solcalendar_fixture();
        let mut enforcer = PolicyEnforcer::new(db, PolicySet::new(), EnforcerConfig::default());

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
        let mut enforcer = PolicyEnforcer::new(db, PolicySet::new(), config);

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
        let mut enforcer = PolicyEnforcer::new(db, PolicySet::new(), EnforcerConfig::strict());
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

        let mut single =
            PolicyEnforcer::new(db.clone(), policies.clone(), EnforcerConfig::default());
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

        let mut enforcer = PolicyEnforcer::new(
            db.clone(),
            PolicySet::from_policies(vec![Policy::deny(
                EnforcementLevel::Class,
                "com/facebook/appevents",
            )]),
            EnforcerConfig::default(),
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
        let mut legacy =
            PolicyEnforcer::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
        assert_eq!(legacy.inspect_legacy(&packet), verdict);
        assert_eq!(legacy.stats().dropped_duplicate_context, 1);

        // The drop is unconditional: even permissive deployments (which
        // still apply deny policies) must not enforce on only the first
        // option — that would reopen the bypass for them.
        let mut permissive =
            PolicyEnforcer::new(db.clone(), PolicySet::new(), EnforcerConfig::permissive());
        assert!(!permissive.inspect(&packet).is_accept());
        assert_eq!(permissive.stats().dropped_duplicate_context, 1);
        assert!(!permissive.inspect_legacy(&packet).is_accept());

        // A single context option (the same first one) still passes.
        let mut single = PolicyEnforcer::new(db, PolicySet::new(), EnforcerConfig::default());
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

        let mut enforcer =
            PolicyEnforcer::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
        assert!(!enforcer.inspect(&packet).is_accept());
        assert_eq!(enforcer.stats().dropped_malformed, 1);
        assert!(enforcer.drop_log()[0].contains("end-of-options-list"));

        let mut legacy =
            PolicyEnforcer::new(db.clone(), PolicySet::new(), EnforcerConfig::default());
        assert!(!legacy.inspect_legacy(&packet).is_accept());

        // Permissive deployments (drop_malformed_context = false) still
        // evaluate the context instead of dropping.
        let mut permissive =
            PolicyEnforcer::new(db, PolicySet::new(), EnforcerConfig::permissive());
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
        let mut cached =
            PolicyEnforcer::new(db.clone(), policies.clone(), EnforcerConfig::default());
        let mut uncached = PolicyEnforcer::new(db, policies, EnforcerConfig::default());

        let accept_packet = tagged_packet(login_payload);
        let deny_packet = tagged_packet(analytics_payload);
        for _ in 0..5 {
            assert_eq!(
                cached.inspect(&accept_packet),
                uncached.inspect_uncached(&accept_packet)
            );
            assert_eq!(
                cached.inspect(&deny_packet),
                uncached.inspect_uncached(&deny_packet)
            );
        }

        // Identical outcome counters and drop logs, hit-accelerated.
        assert_eq!(
            cached.stats().without_flow_counters(),
            uncached.stats().without_flow_counters()
        );
        assert_eq!(cached.drop_log(), uncached.drop_log());
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
    fn cached_payload_for(
        port: u16,
        accept_packet: &Ipv4Packet,
        deny_packet: &Ipv4Packet,
    ) -> Vec<u8> {
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
        let mut control = crate::control::ControlPlane::new(
            db.clone(),
            PolicySet::new(),
            EnforcerConfig::default(),
        );
        let enforcer = Arc::new(Mutex::new(PolicyEnforcer::new(
            db,
            PolicySet::new(),
            EnforcerConfig::default(),
        )));
        control.register(Arc::clone(&enforcer) as _);
        let packet = tagged_packet(analytics_payload);

        let epoch_before = enforcer.lock().tables().epoch();
        assert!(enforcer.lock().inspect(&packet).is_accept());
        assert!(enforcer.lock().inspect(&packet).is_accept());
        assert_eq!(enforcer.lock().stats().flow_hits, 1);

        control
            .begin()
            .replace_policies(PolicySet::from_policies(vec![Policy::deny(
                EnforcementLevel::Library,
                "com/facebook",
            )]))
            .commit()
            .unwrap();
        assert!(enforcer.lock().tables().epoch() > epoch_before);

        // The cached accept was computed under the old epoch: it must not be
        // served.  The probe misses, re-evaluates and drops.
        assert!(!enforcer.lock().inspect(&packet).is_accept());
        let stats = enforcer.lock().stats();
        assert_eq!(stats.flow_hits, 1);
        assert_eq!(stats.flow_misses, 2);
        assert_eq!(stats.dropped_by_policy, 1);
    }

    #[test]
    fn flow_cache_evictions_are_counted_and_bounded() {
        let (db, analytics_payload, _) = solcalendar_fixture();
        let mut enforcer = PolicyEnforcer::with_flow_config(
            db,
            PolicySet::new(),
            EnforcerConfig::default(),
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
        let sharded =
            ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 4);
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
        let sharded =
            ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 8);
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
        let sharded =
            ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 4);
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
        let sharded =
            ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::strict(), 4);
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
        let sharded =
            ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 4);
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
        let sharded =
            ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 4);
        let flow = vec![tagged_packet(analytics.clone()); 32];
        for _ in 0..8 {
            assert_eq!(sharded.inspect_batch(&flow).len(), flow.len());
        }
        assert_eq!(sharded.pool.live_workers().load(Ordering::Acquire), 0);

        // One shard, many flows, many batches: the only partition is always
        // the last busy one.
        let single =
            ShardedEnforcer::from_parts(&db, &PolicySet::new(), EnforcerConfig::default(), 1);
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
        let mut enforcer = PolicyEnforcer::new(db, policies, config);

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
}
