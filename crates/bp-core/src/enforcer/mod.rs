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
//! * Per-shard **mutable** state — [`EnforcerCounters`], a [`DropLog`] ring
//!   buffer, a reusable index-decode scratch buffer and the flow table
//!   below — held together behind the shard's **one** mutex.  Whoever
//!   holds it (a batch worker for one partition, an inline `inspect` for
//!   one packet, a statistics reader for one copy) owns the whole shard,
//!   so there is no acquisition order between its parts and the counters
//!   are plain words, not atomics.
//!
//! [`ShardedEnforcer`] is the one enforcer: it fans packet batches across N
//! shards with merged statistics, and with one shard it is the single
//! NFQUEUE consumer the paper describes (it never spawns a thread).
//! [`inspect_legacy`] keeps the interpretive pipeline as a plain function —
//! an oracle and a bench baseline, not a second data plane.  On the accept
//! path the compiled plane performs no signature parsing and no `String`
//! allocation.
//!
//! # Flow-aware enforcement
//!
//! Every shard additionally owns a [`FlowTable`]: a bounded map from the
//! 5-tuple flow key to the cached outcome of the last evaluation, versioned
//! by the exact context-option payload bytes and by the **epoch** of the
//! compiled tables.  A packet whose flow and payload match hits an O(1)
//! probe and skips decode/resolve/evaluate entirely; any context change
//! re-evaluates, and every table rebuild — a committed
//! [`ControlPlane`](crate::control::ControlPlane) transaction installing a
//! new generation — bumps the epoch so entries cached before a hot swap are
//! lazily invalidated instead of served stale.
//!
//! A flow-table **miss** is usually not a new context: an app's sockets
//! share a few dozen (app hash, call stack) payloads.  Behind the flow
//! entries each table keeps a small fixed-size **context memo** (exact
//! payload + epoch → outcome, see [`crate::flow`]) that
//! [`EnforcementTables::inspect_flow_cached`] consults after the probe has
//! missed, so each shard evaluates a context once per generation rather than
//! once per flow; a commit re-evaluates per context, not per flow.  It is
//! not a flow hit — every flow counter reads as it did.
//! `inspect_flow_cached` takes a parsed [`WireFrame`](crate::wire::WireFrame):
//! every [`ShardedEnforcer`] entry point, inline or batched, judges a packet
//! as the frame it encodes to.  [`EnforcementTables::inspect_packet`] is the
//! one path that judges an owned packet, and it never consults the memo:
//! it stays the full pipeline the oracles compare against and the
//! benchmark's `enforcer.slow_path_ns_per_pkt` prices.
//!
//! The flow table doubles as a **replay detector**: the set-once hardened
//! kernel injects the context exactly once per socket, so a payload change
//! on a live flow can only be replayed or injected context.  Such mid-flow
//! context switches are counted ([`EnforcerStats::flow_context_switches`])
//! and, under [`EnforcerConfig::drop_context_switch`], dropped while the
//! flow's legitimate cached context is retained.
//!
//! # File map
//!
//! * `mod.rs` — these docs, [`EnforcerConfig`] and the re-exports that keep
//!   every `bp_core::enforcer::*` path stable.
//! * `tables.rs` — [`EnforcementTables`]: the compiled half and the
//!   extract → decode → evaluate → apply pipeline over it.
//! * `legacy.rs` — [`inspect_legacy`], the interpretive reference path the
//!   oracles and benches compare the compiled plane against.
//! * `sharded.rs` — the per-shard state and the one method that locks it,
//!   the shared core the worker pool holds, and [`ShardedEnforcer`].
//! * [`crate::stats`] — the counter table ([`EnforcerStats`], the live
//!   [`EnforcerCounters`]), the [`DropLog`] and the one function that
//!   charges a drop; re-exported here.
//!
//! [`CompiledSignatureDb`]: crate::offline::CompiledSignatureDb
//! [`CompiledPolicySet`]: crate::policy::CompiledPolicySet
//! [`FlowTable`]: crate::flow::FlowTable

use serde::{Deserialize, Serialize};

mod legacy;
mod sharded;
mod tables;
#[cfg(test)]
mod tests;

pub use legacy::inspect_legacy;
pub use sharded::ShardedEnforcer;
pub(crate) use sharded::{unattributed_drop, EnforcerCore};
pub(crate) use tables::PacketView;
pub use tables::{EnforcementTables, PolicyDelta, PolicyReuse, TableReuse};

// `AtomicEnforcerStats` is `EnforcerCounters`' old name, re-exported only
// for the frozen `benchmark/` package.
pub use crate::stats::{
    AtomicEnforcerStats, DropLog, DropReason, EnforcerCounters, EnforcerStats, WireDropStats,
    DROP_LOG_CAPACITY, OVERLOAD_DROP_REASON, RUNTIME_FAULT_DROP_REASON,
};

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
    /// the flow-cached path ([`ShardedEnforcer::inspect`] /
    /// [`ShardedEnforcer::inspect_batch`]); the uncached
    /// ([`EnforcementTables::inspect_packet`]) and legacy
    /// ([`inspect_legacy`]) baselines have no flow state and cannot observe
    /// switches.  Off by default (a switch is then counted in
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
