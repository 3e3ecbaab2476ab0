//! The interpretive reference path: the original extract → decode → enforce
//! pipeline over the interchange forms, kept as the oracle the compiled
//! plane is checked against and the baseline the benches price it against.

use bp_netsim::netfilter::Verdict;
use bp_netsim::options::IpOptionKind;
use bp_netsim::packet::Ipv4Packet;

use super::tables::TRAILING_DATA_DROP_REASON;
use super::EnforcerConfig;
use crate::encoding::ContextEncoding;
use crate::offline::SignatureDatabase;
use crate::policy::{Decision, PolicySet};
use crate::stats::{charge_drop, charge_fixed_drop, Counter, DropLog, EnforcerCounters};

/// Inspect one packet through the original interpretive pipeline: hex-keyed
/// database lookup, per-frame descriptor *parsing* and string-scanning
/// policy evaluation, charging `counters` and `drop_log`.
///
/// Verdicts, outcome counters and drop-log lines match
/// [`EnforcementTables::inspect_packet`](super::EnforcementTables::inspect_packet)
/// on tables compiled from the same `database`, `policies` and `config`.
/// There is no flow state, so mid-flow context switches are never observed.
///
/// # Examples
///
/// ```
/// use bp_core::enforcer::{inspect_legacy, DropLog, EnforcerConfig, EnforcerCounters};
/// use bp_core::offline::SignatureDatabase;
/// use bp_core::policy::PolicySet;
/// use bp_netsim::addr::Endpoint;
/// use bp_netsim::packet::Ipv4Packet;
///
/// let (counters, mut drop_log) = (EnforcerCounters::new(), DropLog::default());
/// let untagged = Ipv4Packet::new(
///     Endpoint::new([10, 0, 0, 4], 40_001),
///     Endpoint::new([31, 13, 71, 36], 443),
///     b"GET / HTTP/1.1".to_vec(),
/// );
/// let verdict = inspect_legacy(
///     &SignatureDatabase::new(),
///     &PolicySet::new(),
///     EnforcerConfig::strict(),
///     &untagged,
///     &counters,
///     &mut drop_log,
/// );
/// assert!(!verdict.is_accept());
/// assert_eq!(counters.snapshot().dropped_untagged, 1);
/// ```
pub fn inspect_legacy(
    database: &SignatureDatabase,
    policies: &PolicySet,
    config: EnforcerConfig,
    packet: &Ipv4Packet,
    counters: &EnforcerCounters,
    drop_log: &mut DropLog,
) -> Verdict {
    counters.add(Counter::Inspected, 1);

    // Stage 0: §IV-A4 conformance (mirrors the compiled plane's checks: the
    // duplicate-option spoofing drop is unconditional, the trailing
    // covert-data drop follows the malformed-context knob).
    if packet.options().count(IpOptionKind::BorderPatrolContext) > 1 {
        return charge_fixed_drop(counters, drop_log, Counter::DuplicateContext);
    }
    if config.drop_malformed_context && packet.options().has_trailing_data() {
        let reason = TRAILING_DATA_DROP_REASON.into();
        return charge_drop(counters, drop_log, Counter::Malformed, reason);
    }

    // Stage 1: extraction.
    let Some(option) = packet.options().find(IpOptionKind::BorderPatrolContext) else {
        if config.drop_untagged {
            return charge_fixed_drop(counters, drop_log, Counter::Untagged);
        }
        counters.add(Counter::Accepted, 1);
        return Verdict::Accept;
    };

    // Stage 2: decoding.
    let decoded = match ContextEncoding::decode(&option.data) {
        Ok(decoded) => decoded,
        Err(e) => {
            if config.drop_malformed_context {
                let detail = format!("malformed context option: {e}");
                return charge_drop(counters, drop_log, Counter::Malformed, detail.into());
            }
            counters.add(Counter::Accepted, 1);
            return Verdict::Accept;
        }
    };
    let stack = match database.resolve_stack(decoded.app_tag, &decoded.frame_indexes) {
        Ok(stack) => stack,
        Err(_) if !database.contains(decoded.app_tag) => {
            if config.drop_unknown_apps {
                let detail = format!("unknown application tag {}", decoded.app_tag);
                return charge_drop(counters, drop_log, Counter::UnknownApp, detail.into());
            }
            counters.add(Counter::Accepted, 1);
            return Verdict::Accept;
        }
        Err(e) => {
            if config.drop_malformed_context {
                let detail = format!("undecodable stack indexes: {e}");
                return charge_drop(counters, drop_log, Counter::Malformed, detail.into());
            }
            counters.add(Counter::Accepted, 1);
            return Verdict::Accept;
        }
    };

    // Stage 3: enforcement.
    match policies.evaluate(decoded.app_tag, &stack) {
        Decision::Allow => {
            counters.add(Counter::Accepted, 1);
            Verdict::Accept
        }
        Decision::Deny { policy, reason } => {
            let detail = match policy {
                Some(policy) => format!("policy {policy} violated: {reason}"),
                None => reason,
            };
            charge_drop(counters, drop_log, Counter::ByPolicy, detail.into())
        }
    }
}
