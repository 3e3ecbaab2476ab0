//! BorderPatrol core: the paper's primary contribution.
//!
//! BorderPatrol augments the network traffic of BYOD-provisioned devices with
//! fine-grained execution context (the Java call stack at socket-connect time)
//! and enforces company policies against that context at the network
//! perimeter.  This crate implements the four system components of §IV plus
//! the policy extractor extension of §V-E:
//!
//! * [`offline`] — the **Offline Analyzer**: extracts every method signature
//!   from an apk, assigns deterministic indexes and stores the per-app tables
//!   in a JSON [`offline::SignatureDatabase`] keyed by the apk's MD5 hash.
//! * [`encoding`] — the compact wire format that fits an app tag plus a stack
//!   of method indexes into the 40-byte `IP_OPTIONS` budget, with the 2-byte /
//!   3-byte variable-length frame encoding for multi-dex apps (§VII).
//! * [`context`] — the **Context Manager**: an on-device hook that captures the
//!   call stack after connect, maps frames to indexes through the same
//!   deterministic table and injects the encoded context into `IP_OPTIONS`.
//! * [`policy`] — the policy grammar `{[action][level][target]}` and the
//!   evaluation semantics over decoded stack traces.
//! * [`enforcer`] — the **Policy Enforcer**: an NFQUEUE consumer that extracts,
//!   decodes and evaluates the context of every packet and drops violations.
//! * [`control`] — the transactional control plane: staged policy/database
//!   rollout with dry-run validation, atomic hot-swap of every registered
//!   enforcement endpoint, and generation-based rollback.
//! * [`flow`] — connection tracking for the enforcer: a bounded per-shard
//!   flow table caching verdicts per (flow, context payload, tables epoch),
//!   so the packets of a long-lived flow skip decode/resolve/evaluate.
//! * [`runtime`] — the data-plane batch runtime, the one path every batch
//!   takes: persistent per-shard workers fed through bounded SPSC rings
//!   (spawned on first fan-out, so small batches cost a wake/park handshake,
//!   not OS thread creation), the last busy partition run on the submitter.
//!   A panicked partition fails closed and the worker is respawned under a
//!   bounded backoff budget; shards that exhaust the budget are quarantined
//!   to the submitting thread.
//! * [`faults`] — deterministic fault injection ([`faults::FaultPlan`],
//!   [`faults::FaultInjector`]) and the per-shard health state machine
//!   (Healthy → Degraded → Quarantined) chaos runs exercise.
//! * [`sanitizer`] — the **Packet Sanitizer**: strips the context option from
//!   conforming packets before they leave the enterprise perimeter.
//! * [`stats`] — the counter schema: one table defines every enforcement
//!   counter and drop class, and generates the stats struct, its live
//!   counter lanes, merge/delta and the telemetry word order; also the drop log and
//!   the one function that charges a drop.
//! * [`telemetry`] — the seqlock-published per-shard telemetry snapshot the
//!   observability plane (`bp-obs`) polls: the hot path stamps a sequence
//!   word around plain relaxed stores, readers retry on torn reads, and the
//!   writer never takes a lock or blocks.
//! * [`policy_extractor`] — the differential profiling tool that helps
//!   administrators derive policies from a baseline run and an
//!   undesired-functionality run.
//!
//! # Examples
//!
//! ```
//! use bp_core::policy::{Policy, PolicyAction, PolicySet};
//! use bp_types::EnforcementLevel;
//!
//! // Paper Snippet 1, Example 1: prevent ad library connections.
//! let policy: Policy = r#"{[deny][library]["com/flurry"]}"#.parse()?;
//! assert_eq!(policy.action(), PolicyAction::Deny);
//! assert_eq!(policy.level(), EnforcementLevel::Library);
//! let set = PolicySet::from_policies(vec![policy]);
//! assert_eq!(set.len(), 1);
//! # Ok::<(), bp_types::Error>(())
//! ```

// `unsafe` is denied crate-wide rather than forbidden: the data-plane worker
// runtime ([`runtime`]) opts back in for one audited borrowed-batch handoff
// protocol (see its module docs); every other module remains unsafe-free.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod context;
pub mod control;
pub mod encoding;
pub mod enforcer;
pub mod faults;
pub mod flow;
pub mod offline;
pub mod policy;
pub mod policy_extractor;
mod policy_index;
pub mod runtime;
pub mod sanitizer;
pub mod stats;
pub mod telemetry;
pub mod wire;

pub use context::{ContextManager, ContextManagerConfig, ContextManagerStats};
pub use control::{
    ControlPlane, EnforcementEndpoint, GenerationId, GenerationRecord, RolloutError, RolloutPlan,
    RolloutValidation, RolloutWarning, Transaction,
};
pub use encoding::{ContextEncoding, DecodedHeader, EncodedContext, MAX_CONTEXT_PAYLOAD};
// `AtomicEnforcerStats` is `EnforcerCounters`' old name, re-exported only
// for the frozen `benchmark/` package.
pub use enforcer::{
    AtomicEnforcerStats, DropLog, DropReason, EnforcementTables, EnforcerConfig, EnforcerCounters,
    EnforcerStats, PolicyDelta, PolicyReuse, ShardedEnforcer, TableReuse, WireDropStats,
    OVERLOAD_DROP_REASON, RUNTIME_FAULT_DROP_REASON,
};
pub use faults::{
    FaultInjector, FaultPlan, HealthState, ShardHealthSnapshot, WorkerPanic, WorkerStall,
};
pub use flow::{CachedOutcome, FlowProbe, FlowTable, FlowTableConfig};
pub use offline::{
    CompiledAppEntry, CompiledSignatureDb, OfflineAnalyzer, SignatureDatabase, TagCollision,
};
pub use policy::{CompiledPolicySet, CompiledVerdict, Decision, Policy, PolicyAction, PolicySet};
pub use policy_extractor::{PolicyExtractor, ProfileRun};
pub use sanitizer::PacketSanitizer;
pub use stats::{Counter, CounterKind, STATS_WORDS};
pub use telemetry::{GenerationCounters, TelemetryCell, TelemetrySnapshot, GENERATION_SLOTS};
pub use wire::{CaptureHeader, CaptureReader, CaptureWriter, WireDecoder, WireError};
