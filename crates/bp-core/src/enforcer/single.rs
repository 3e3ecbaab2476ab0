//! [`PolicyEnforcer`]: the single-shard facade over the compiled plane, plus
//! the uncached and interpretive (legacy) reference paths.

use std::sync::Arc;

use bp_netsim::clock::SimDuration;
use bp_netsim::netfilter::{QueueHandler, Verdict};
use bp_netsim::options::IpOptionKind;
use bp_netsim::packet::Ipv4Packet;

use super::tables::TRAILING_DATA_DROP_REASON;
use super::{EnforcementTables, EnforcerConfig};
use crate::encoding::ContextEncoding;
use crate::flow::{FlowTable, FlowTableConfig};
use crate::offline::SignatureDatabase;
use crate::policy::{Decision, PolicySet};
use crate::stats::{
    charge_drop, charge_fixed_drop, charge_wire_drop, Counter, DropLog, EnforcerCounters,
    EnforcerStats,
};
use crate::wire;

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
    stats: EnforcerCounters,
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
            stats: EnforcerCounters::new(),
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
        let config = self.tables.config();
        let (stats, drop_log) = (&self.stats, &mut self.drop_log);
        stats.add(Counter::Inspected, 1);

        // Stage 0: §IV-A4 conformance (mirrors the compiled plane's checks:
        // the duplicate-option spoofing drop is unconditional, the trailing
        // covert-data drop follows the malformed-context knob).
        if packet.options().count(IpOptionKind::BorderPatrolContext) > 1 {
            return charge_fixed_drop(stats, drop_log, Counter::DuplicateContext);
        }
        if config.drop_malformed_context && packet.options().has_trailing_data() {
            return charge_drop(
                stats,
                drop_log,
                Counter::Malformed,
                TRAILING_DATA_DROP_REASON.into(),
            );
        }

        // Stage 1: extraction.
        let Some(option) = packet.options().find(IpOptionKind::BorderPatrolContext) else {
            if config.drop_untagged {
                return charge_fixed_drop(stats, drop_log, Counter::Untagged);
            }
            stats.add(Counter::Accepted, 1);
            return Verdict::Accept;
        };

        // Stage 2: decoding.
        let decoded = match ContextEncoding::decode(&option.data) {
            Ok(decoded) => decoded,
            Err(e) => {
                if config.drop_malformed_context {
                    let detail = format!("malformed context option: {e}");
                    return charge_drop(stats, drop_log, Counter::Malformed, detail.into());
                }
                stats.add(Counter::Accepted, 1);
                return Verdict::Accept;
            }
        };
        let stack = match self
            .database
            .resolve_stack(decoded.app_tag, &decoded.frame_indexes)
        {
            Ok(stack) => stack,
            Err(_) if !self.database.contains(decoded.app_tag) => {
                if config.drop_unknown_apps {
                    let detail = format!("unknown application tag {}", decoded.app_tag);
                    return charge_drop(stats, drop_log, Counter::UnknownApp, detail.into());
                }
                stats.add(Counter::Accepted, 1);
                return Verdict::Accept;
            }
            Err(e) => {
                if config.drop_malformed_context {
                    let detail = format!("undecodable stack indexes: {e}");
                    return charge_drop(stats, drop_log, Counter::Malformed, detail.into());
                }
                stats.add(Counter::Accepted, 1);
                return Verdict::Accept;
            }
        };

        // Stage 3: enforcement.
        match self.policies.evaluate(decoded.app_tag, &stack) {
            Decision::Allow => {
                stats.add(Counter::Accepted, 1);
                Verdict::Accept
            }
            Decision::Deny { policy, reason } => {
                let detail = match policy {
                    Some(policy) => format!("policy {policy} violated: {reason}"),
                    None => reason,
                };
                charge_drop(stats, drop_log, Counter::ByPolicy, detail.into())
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
                Err(error) => charge_wire_drop(&self.stats, &mut self.drop_log, error),
            });
        }
    }
}
