//! The immutable, compiled half of the enforcement plane and the
//! three-stage pipeline (extract → decode/resolve → evaluate) over it.

use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bp_netsim::clock::SimDuration;
use bp_netsim::netfilter::Verdict;
use bp_netsim::options::IpOptionKind;
use bp_netsim::packet::{FlowKey, Ipv4Packet};
use bp_types::wire::OPT_BP_CONTEXT;

use super::EnforcerConfig;
use crate::encoding::ContextEncoding;
use crate::flow::{CachedOutcome, FlowProbe, FlowTable};
use crate::offline::{CompiledSignatureDb, SignatureDatabase};
use crate::policy::{CompiledPolicySet, CompiledVerdict, PolicySet};
use crate::stats::{charge_drop, charge_fixed_drop, Counter, DropLog, EnforcerCounters};
use crate::wire::WireFrame;

/// Source of the monotonically increasing epoch stamped onto every
/// [`EnforcementTables`] build.  Process-global so that *any* recompilation
/// (a control-plane commit, a policy or database swap, an independently
/// built table set) observes a fresh epoch and flow-table entries cached
/// under older tables can never be mistaken for current.
static NEXT_TABLE_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Drop-log reason for covert bytes after End-of-List: the second fixed text
/// charged to `dropped_malformed`, shared with the legacy reference path.
pub(super) const TRAILING_DATA_DROP_REASON: &str = "non-zero data after end-of-options-list";

/// Everything the pipeline reads of one packet, borrowed from wherever the
/// packet lives: an owned [`Ipv4Packet`] or the bytes of a parsed
/// [`WireFrame`].  Building one allocates nothing, which is what lets the
/// byte ingress inspect frames in place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PacketView<'p> {
    flow_key: FlowKey,
    /// Payload of the first BorderPatrol context option, if any.
    context: Option<&'p [u8]>,
    /// Whether a second context option follows the first.
    duplicate_context: bool,
    /// Non-zero bytes after End-of-List (see `IpOptions::has_trailing_data`).
    trailing_data: bool,
}

impl<'p> PacketView<'p> {
    fn new(
        flow_key: FlowKey,
        mut contexts: impl Iterator<Item = &'p [u8]>,
        trailing_data: bool,
    ) -> Self {
        PacketView {
            flow_key,
            context: contexts.next(),
            duplicate_context: contexts.next().is_some(),
            trailing_data,
        }
    }

    /// The view of an owned packet.
    pub(crate) fn of_packet(packet: &'p Ipv4Packet) -> Self {
        let options = packet.options();
        let contexts = options
            .iter()
            .filter(|option| option.kind == IpOptionKind::BorderPatrolContext)
            .map(|option| option.data.as_slice());
        PacketView::new(packet.flow_key(), contexts, options.has_trailing_data())
    }

    /// The view of a parsed wire frame: the same fields
    /// [`WireFrame::to_packet`] would copy out, read in place.
    pub(crate) fn of_frame(frame: &WireFrame<'p>) -> Self {
        let (source, destination) = (frame.source(), frame.destination());
        let flow_key = FlowKey {
            src_ip: source.ip,
            src_port: source.port,
            dst_ip: destination.ip,
            dst_port: destination.port,
            protocol: frame.protocol(),
        };
        let contexts = frame
            .options()
            .filter(|&(type_byte, _)| type_byte == OPT_BP_CONTEXT)
            .map(|(_, data)| data);
        PacketView::new(flow_key, contexts, frame.has_trailing_data())
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
/// interchange forms and shared (via [`Arc`]) by every shard.
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
    /// what makes it safe to cache per flow, and to remember per context
    /// across flows, keyed by exact payload and epoch.
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
                // Rendered once, into one buffer sized for a typical detail.
                let mut detail = String::with_capacity(192);
                if let Some(policy) = policy.and_then(|i| self.policies.policy(i)) {
                    write!(detail, "policy {policy} violated: ")
                        .expect("writing to a String cannot fail");
                }
                verdict.write_reason(frame, &mut detail);
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
        stats: &EnforcerCounters,
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
    /// Returns the payload of the single context option to enforce on,
    /// `Ok(None)` for untagged packets, or the early verdict for
    /// non-conforming packets (duplicate context options, covert data after
    /// End-of-List) and untagged packets in strict deployments.
    fn extract_context<'p>(
        &self,
        packet: &PacketView<'p>,
        stats: &EnforcerCounters,
        drop_log: &mut DropLog,
    ) -> Result<Option<&'p [u8]>, Verdict> {
        // A second context option is a spoofing attempt: the hardened kernel
        // emits exactly one, and enforcing on only the first would let the
        // other ride through unchecked.  No legitimate deployment — however
        // permissive — produces duplicates, and in permissive mode deny
        // policies still apply, so this check is unconditional: gating it
        // would hand permissive deployments the exact bypass back (an
        // attacker prepending a benign option to mask a denied context).
        if packet.duplicate_context {
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
        if self.config.drop_malformed_context && packet.trailing_data {
            return Err(charge_drop(
                stats,
                drop_log,
                Counter::Malformed,
                TRAILING_DATA_DROP_REASON.into(),
            ));
        }
        if packet.context.is_none() && self.config.drop_untagged {
            return Err(charge_fixed_drop(stats, drop_log, Counter::Untagged));
        }
        Ok(packet.context)
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
    /// This is the *uncached* path — every packet pays the full pipeline,
    /// and no flow table or context memo is consulted.
    /// [`EnforcementTables::inspect_flow_cached`] adds both in front of it.
    pub fn inspect_packet(
        &self,
        packet: &Ipv4Packet,
        scratch: &mut Vec<u32>,
        stats: &EnforcerCounters,
        drop_log: &mut DropLog,
    ) -> Verdict {
        stats.add(Counter::Inspected, 1);
        let context = match self.extract_context(&PacketView::of_packet(packet), stats, drop_log) {
            Ok(Some(context)) => context,
            Ok(None) => {
                stats.add(Counter::Accepted, 1);
                return Verdict::Accept;
            }
            Err(verdict) => return verdict,
        };
        let outcome = self.evaluate_payload(context, scratch);
        self.apply_outcome(&outcome, stats, drop_log)
    }

    /// Inspect one packet with the per-flow verdict cache in front of the
    /// pipeline.
    ///
    /// A packet whose flow **and** exact context payload were evaluated
    /// before (under these tables' epoch, within `flow`'s TTL measured
    /// against `now`) replays the cached outcome after one O(1) probe —
    /// no decode, no database resolution, no policy evaluation.  An epoch
    /// bump or expiry refreshes the entry — from `flow`'s context memo when
    /// this shard already evaluated the same payload under this epoch on
    /// another flow, by evaluating (and remembering) it otherwise.
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
        stats: &EnforcerCounters,
        drop_log: &mut DropLog,
    ) -> Verdict {
        self.inspect_view(
            &PacketView::of_packet(packet),
            flow,
            now,
            scratch,
            stats,
            drop_log,
        )
    }

    /// The body of [`EnforcementTables::inspect_flow_cached`], over the
    /// borrowed view every batch partition hands it — of a packet or of a
    /// wire frame inspected in place.
    pub(crate) fn inspect_view(
        &self,
        packet: &PacketView<'_>,
        flow: &mut FlowTable,
        now: SimDuration,
        scratch: &mut Vec<u32>,
        stats: &EnforcerCounters,
        drop_log: &mut DropLog,
    ) -> Verdict {
        stats.add(Counter::Inspected, 1);
        let context = match self.extract_context(packet, stats, drop_log) {
            Ok(Some(context)) => context,
            Ok(None) => {
                stats.add(Counter::Accepted, 1);
                return Verdict::Accept;
            }
            Err(verdict) => return verdict,
        };

        let key = packet.flow_key;
        match flow.probe(&key, context, self.epoch, now) {
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
        // A context this shard already evaluated under this epoch — on any
        // flow — is not evaluated again.
        let outcome = flow.remembered_or(context, self.epoch, || {
            self.evaluate_payload(context, scratch)
        });
        let evicted = flow.insert(key, context, self.epoch, outcome.clone(), now);
        stats.add(Counter::FlowEvictions, evicted);
        self.apply_outcome(&outcome, stats, drop_log)
    }
}
