//! The immutable, compiled half of the enforcement plane and the
//! three-stage pipeline (extract → decode/resolve → evaluate) over it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bp_netsim::clock::SimDuration;
use bp_netsim::netfilter::Verdict;
use bp_netsim::options::{IpOption, IpOptionKind};
use bp_netsim::packet::Ipv4Packet;

use super::EnforcerConfig;
use crate::encoding::ContextEncoding;
use crate::flow::{CachedOutcome, FlowProbe, FlowTable};
use crate::offline::{CompiledSignatureDb, SignatureDatabase};
use crate::policy::{CompiledPolicySet, CompiledVerdict, Decision, PolicySet};
use crate::stats::{charge_drop, charge_fixed_drop, AtomicEnforcerStats, Counter, DropLog};

/// Source of the monotonically increasing epoch stamped onto every
/// [`EnforcementTables`] build.  Process-global so that *any* recompilation
/// (a control-plane commit, a policy or database swap, an independently
/// built table set) observes a fresh epoch and flow-table entries cached
/// under older tables can never be mistaken for current.
static NEXT_TABLE_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Drop-log reason for covert bytes after End-of-List: the second fixed text
/// charged to `dropped_malformed`, shared with the legacy reference path.
pub(super) const TRAILING_DATA_DROP_REASON: &str = "non-zero data after end-of-options-list";

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
        let (class, reason) = match outcome {
            CachedOutcome::Malformed(reason) if self.config.drop_malformed_context => {
                (Counter::Malformed, reason)
            }
            CachedOutcome::UnknownApp(reason) if self.config.drop_unknown_apps => {
                (Counter::UnknownApp, reason)
            }
            CachedOutcome::Deny(reason) => (Counter::ByPolicy, reason),
            CachedOutcome::Accept | CachedOutcome::Malformed(_) | CachedOutcome::UnknownApp(_) => {
                stats.add(Counter::Accepted, 1);
                return Verdict::Accept;
            }
        };
        charge_drop(stats, drop_log, class, reason.into())
    }

    /// Stage 0 + 1: §IV-A4 conformance checks and context extraction.
    ///
    /// Returns the single context option to enforce on, `Ok(None)` for
    /// untagged packets, or the early verdict for non-conforming packets
    /// (duplicate context options, covert data after End-of-List) and
    /// untagged packets in strict deployments.
    fn extract_context<'p>(
        &self,
        packet: &'p Ipv4Packet,
        stats: &AtomicEnforcerStats,
        drop_log: &mut DropLog,
    ) -> Result<Option<&'p IpOption>, Verdict> {
        // A second context option is a spoofing attempt: the hardened kernel
        // emits exactly one, and enforcing on only the first would let the
        // other ride through unchecked.  No legitimate deployment — however
        // permissive — produces duplicates, and in permissive mode deny
        // policies still apply, so this check is unconditional: gating it
        // would hand permissive deployments the exact bypass back (an
        // attacker prepending a benign option to mask a denied context).
        if packet.options().count(IpOptionKind::BorderPatrolContext) > 1 {
            return Err(charge_fixed_drop(
                stats,
                drop_log,
                Counter::DuplicateContext,
            ));
        }
        // Non-zero bytes after End-of-List are a covert channel through the
        // options area (paper §IV-A4): treat them as non-conforming.  Unlike
        // duplicates this stays gated — trailing garbage does not change
        // which context is enforced, the sanitizer scrubs it regardless, and
        // permissive rollouts tolerate broken middlebox padding.
        if self.config.drop_malformed_context && packet.options().has_trailing_data() {
            return Err(charge_drop(
                stats,
                drop_log,
                Counter::Malformed,
                TRAILING_DATA_DROP_REASON.into(),
            ));
        }
        let Some(option) = packet.options().find(IpOptionKind::BorderPatrolContext) else {
            if self.config.drop_untagged {
                return Err(charge_fixed_drop(stats, drop_log, Counter::Untagged));
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
        stats.add(Counter::Inspected, 1);
        let option = match self.extract_context(packet, stats, drop_log) {
            Ok(Some(option)) => option,
            Ok(None) => {
                stats.add(Counter::Accepted, 1);
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
    /// [`EnforcerStats::flow_context_switches`](crate::stats::EnforcerStats::flow_context_switches):
    /// the set-once kernel never re-tags a socket, so a mid-flow change is
    /// replayed or injected context.  With
    /// [`EnforcerConfig::drop_context_switch`] enabled the packet is dropped
    /// and the flow's original entry is *kept* (injection cannot evict the
    /// legitimate context); otherwise the packet is re-evaluated like a miss
    /// and the entry is overwritten.
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
        stats.add(Counter::Inspected, 1);
        let option = match self.extract_context(packet, stats, drop_log) {
            Ok(Some(option)) => option,
            Ok(None) => {
                stats.add(Counter::Accepted, 1);
                return Verdict::Accept;
            }
            Err(verdict) => return verdict,
        };

        let key = packet.flow_key();
        match flow.probe(&key, &option.data, self.epoch, now) {
            FlowProbe::Hit(outcome) => {
                stats.add(Counter::FlowHits, 1);
                return self.apply_outcome(outcome, stats, drop_log);
            }
            FlowProbe::ContextSwitch => {
                stats.add(Counter::FlowContextSwitches, 1);
                if self.config.drop_context_switch {
                    return charge_fixed_drop(stats, drop_log, Counter::ContextSwitch);
                }
            }
            FlowProbe::Miss => {}
        }
        stats.add(Counter::FlowMisses, 1);
        let outcome = self.evaluate_payload(&option.data, scratch);
        let evicted = flow.insert(key, &option.data, self.epoch, outcome.clone(), now);
        stats.add(Counter::FlowEvictions, evicted);
        self.apply_outcome(&outcome, stats, drop_log)
    }
}
