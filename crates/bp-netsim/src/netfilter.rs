//! iptables-style packet filtering and NFQUEUE verdict handlers.
//!
//! The BorderPatrol prototype routes packets originating from provisioned
//! devices into netfilter queues consumed by the user-space Policy Enforcer
//! and Packet Sanitizer (paper §V-C/§V-D).  This module models the rule
//! table, the queues, and the verdict mechanism.

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::packet::{Ipv4Packet, Protocol};

/// Why a packet was dropped: the text a [`Verdict::Drop`] carries.
///
/// Every verdict producer hands the same reason to its caller and to its own
/// drop log, on every dropped packet — under attack, on most packets.  A
/// `DropReason` makes both hand-offs free of heap traffic: it is either a
/// `'static` diagnostic (cloning it is a pointer copy) or a diagnostic
/// rendered once and shared behind an `Arc` (cloning it is a refcount bump).
/// It lives beside [`Verdict`] because the verdict is where the text leaves
/// the component that produced it.
///
/// To its readers it behaves like the `String` it replaces: it derefs to
/// `str`, compares by text with `str`, `&str` and `String` on either side
/// (so `Static("x") == Rendered("x")`), prints and debug-prints as the text,
/// and serializes as a plain string.
#[derive(Clone)]
pub enum DropReason {
    /// A fixed diagnostic.
    Static(&'static str),
    /// A diagnostic rendered at run time, shared with whatever cached it.
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

impl std::ops::Deref for DropReason {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for DropReason {
    fn eq(&self, other: &DropReason) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for DropReason {}

/// Text equality with the string types on either side, as `String` has.
macro_rules! drop_reason_eq {
    ($($text:ty),*) => {$(
        impl PartialEq<$text> for DropReason {
            fn eq(&self, other: &$text) -> bool {
                self.as_str() == &other[..]
            }
        }

        impl PartialEq<DropReason> for $text {
            fn eq(&self, other: &DropReason) -> bool {
                &self[..] == other.as_str()
            }
        }
    )*};
}

drop_reason_eq!(str, &str, String);

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

// Hand-written: the wire form is the bare text, exactly what the `String`
// field serialized as.
impl Serialize for DropReason {
    fn to_value(&self) -> serde::Value {
        self.as_str().to_value()
    }
}

impl Deserialize for DropReason {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        String::from_value(value).map(DropReason::from)
    }
}

/// The verdict a queue handler returns for one packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Let the (possibly modified) packet continue along the chain.
    Accept,
    /// Drop the packet; `reason` is recorded for diagnostics.
    Drop {
        /// Human-readable reason recorded by the dropping component.
        reason: DropReason,
    },
}

impl Verdict {
    /// Convenience constructor for a drop verdict.
    pub fn drop(reason: impl Into<DropReason>) -> Self {
        Verdict::Drop {
            reason: reason.into(),
        }
    }

    /// True if this verdict accepts the packet.
    pub fn is_accept(&self) -> bool {
        matches!(self, Verdict::Accept)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Accept => write!(f, "ACCEPT"),
            Verdict::Drop { reason } => write!(f, "DROP ({reason})"),
        }
    }
}

/// A user-space consumer attached to an NFQUEUE: it inspects (and may modify)
/// each packet and returns a [`Verdict`].
///
/// Handlers see decoded packets only.  Raw wire frames have one entry point,
/// the Policy Enforcer's own byte ingress (`bp_core`'s
/// `ShardedEnforcer::inspect_wire_batch_into`), which inspects frames in
/// place and charges each decode failure to a typed, counted drop.
pub trait QueueHandler: Send {
    /// Short name used in chain diagnostics (e.g. `policy-enforcer`).
    fn name(&self) -> &str;

    /// Inspect one packet and decide its fate.  Handlers may mutate the packet
    /// (the Packet Sanitizer strips options here).
    fn handle(&mut self, packet: &mut Ipv4Packet) -> Verdict;

    /// Inspect a batch of packets, writing one verdict per packet (input
    /// order) into `verdicts`, which is cleared first.
    ///
    /// This is the primary batch entry point:
    /// [`FilterChain::process_batch`] drains queues through it, so handlers
    /// that can parallelize or amortize per-packet work (e.g. a sharded
    /// Policy Enforcer with its persistent worker pool) override **this**
    /// method; the default simply loops over [`QueueHandler::handle`].
    /// Taking the caller's buffer lets such handlers run allocation-free on
    /// the accept path.
    fn handle_batch_into(&mut self, packets: &mut [&mut Ipv4Packet], verdicts: &mut Vec<Verdict>) {
        verdicts.clear();
        verdicts.reserve(packets.len());
        for packet in packets.iter_mut() {
            verdicts.push(self.handle(packet));
        }
    }
}

/// A pass-through handler that accepts every packet unmodified — the
/// "empty policy" consumer used by the Fig. 4 `default-tap-nfqueue`
/// configuration.
#[derive(Debug, Default, Clone)]
pub struct PassthroughHandler {
    handled: u64,
}

impl PassthroughHandler {
    /// Create a new pass-through handler.
    pub fn new() -> Self {
        PassthroughHandler { handled: 0 }
    }

    /// Number of packets this handler has seen.
    pub fn handled(&self) -> u64 {
        self.handled
    }
}

impl QueueHandler for PassthroughHandler {
    fn name(&self) -> &str {
        "passthrough"
    }

    fn handle(&mut self, _packet: &mut Ipv4Packet) -> Verdict {
        self.handled += 1;
        Verdict::Accept
    }
}

/// Match criteria of one iptables-like rule.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleMatch {
    /// Match only packets from this source address.
    pub source_ip: Option<Ipv4Addr>,
    /// Match only packets to this destination address.
    pub destination_ip: Option<Ipv4Addr>,
    /// Match only packets to this destination port.
    pub destination_port: Option<u16>,
    /// Match only this transport protocol.
    pub protocol: Option<Protocol>,
}

impl RuleMatch {
    /// A rule match that matches every packet.
    pub fn any() -> Self {
        RuleMatch::default()
    }

    /// Whether `packet` satisfies all present criteria.
    pub fn matches(&self, packet: &Ipv4Packet) -> bool {
        self.source_ip.is_none_or(|ip| packet.source().ip == ip)
            && self
                .destination_ip
                .is_none_or(|ip| packet.destination().ip == ip)
            && self
                .destination_port
                .is_none_or(|p| packet.destination().port == p)
            && self.protocol.is_none_or(|proto| packet.protocol() == proto)
    }
}

/// The action of an iptables-like rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuleAction {
    /// Accept the packet immediately (skip later rules).
    Accept,
    /// Drop the packet immediately.
    Drop,
    /// Divert the packet to the NFQUEUE with the given number.
    Queue(u16),
}

/// One rule in a filter chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IptablesRule {
    /// Match criteria.
    pub matcher: RuleMatch,
    /// Action taken when the criteria match.
    pub action: RuleAction,
}

/// Statistics of one NFQUEUE.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Packets delivered to the handler.
    pub received: u64,
    /// Packets accepted by the handler.
    pub accepted: u64,
    /// Packets dropped by the handler.
    pub dropped: u64,
}

/// An NFQUEUE: a numbered queue with an attached user-space handler.
pub struct NfQueue {
    number: u16,
    handler: Arc<Mutex<dyn QueueHandler>>,
    stats: QueueStats,
}

impl fmt::Debug for NfQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NfQueue")
            .field("number", &self.number)
            .field("handler", &self.handler.lock().name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl NfQueue {
    /// Create a queue with the given number and handler.
    pub fn new(number: u16, handler: Arc<Mutex<dyn QueueHandler>>) -> Self {
        NfQueue {
            number,
            handler,
            stats: QueueStats::default(),
        }
    }

    /// The queue number.
    pub fn number(&self) -> u16 {
        self.number
    }

    /// Statistics for this queue.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Deliver one packet to the handler and return its verdict.
    pub fn deliver(&mut self, packet: &mut Ipv4Packet) -> Verdict {
        self.stats.received += 1;
        let verdict = self.handler.lock().handle(packet);
        match &verdict {
            Verdict::Accept => self.stats.accepted += 1,
            Verdict::Drop { .. } => self.stats.dropped += 1,
        }
        verdict
    }

    /// Deliver a batch to the handler's batch entry point and return
    /// per-packet verdicts in input order.
    pub fn deliver_batch(&mut self, packets: &mut [&mut Ipv4Packet]) -> Vec<Verdict> {
        let mut verdicts = Vec::with_capacity(packets.len());
        self.deliver_batch_into(packets, &mut verdicts);
        verdicts
    }

    /// Deliver a batch to the handler's
    /// [`QueueHandler::handle_batch_into`] entry point, writing per-packet
    /// verdicts (input order) into `verdicts`, which is cleared first.
    /// Reusing the buffer across deliveries keeps the queue → handler path
    /// allocation-free.
    pub fn deliver_batch_into(
        &mut self,
        packets: &mut [&mut Ipv4Packet],
        verdicts: &mut Vec<Verdict>,
    ) {
        self.stats.received += packets.len() as u64;
        self.handler.lock().handle_batch_into(packets, verdicts);
        debug_assert_eq!(
            verdicts.len(),
            packets.len(),
            "handler returned wrong verdict count"
        );
        for verdict in verdicts.iter() {
            match verdict {
                Verdict::Accept => self.stats.accepted += 1,
                Verdict::Drop { .. } => self.stats.dropped += 1,
            }
        }
    }
}

/// Outcome of pushing a packet through a [`FilterChain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainOutcome {
    /// The packet traversed the chain and may leave the network.
    Accepted {
        /// Number of NFQUEUEs the packet traversed.
        queues_traversed: usize,
    },
    /// The packet was dropped.
    Dropped {
        /// Name of the component (rule or handler) that dropped it.
        by: String,
        /// Reason recorded by that component.
        reason: String,
    },
}

impl ChainOutcome {
    /// True if the packet was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, ChainOutcome::Accepted { .. })
    }
}

/// An ordered iptables-like chain with attached NFQUEUEs.
///
/// Packets are evaluated against the rules in order.  A `Queue` action sends
/// the packet to the numbered queue; if the handler accepts, evaluation
/// continues with the *next* rule (this is how the enforcer → sanitizer
/// pipeline is expressed).  If no rule matches, the chain's default policy
/// (accept) applies.
#[derive(Debug, Default)]
pub struct FilterChain {
    rules: Vec<IptablesRule>,
    queues: BTreeMap<u16, NfQueue>,
}

impl FilterChain {
    /// An empty chain with no rules or queues (accept-all).
    pub fn new() -> Self {
        FilterChain::default()
    }

    /// Append a rule to the end of the chain.
    pub fn add_rule(&mut self, rule: IptablesRule) {
        self.rules.push(rule);
    }

    /// Register an NFQUEUE handler under `queue_number`.
    pub fn register_queue(&mut self, queue_number: u16, handler: Arc<Mutex<dyn QueueHandler>>) {
        self.queues
            .insert(queue_number, NfQueue::new(queue_number, handler));
    }

    /// Statistics of the queue with the given number.
    pub fn queue_stats(&self, queue_number: u16) -> Option<QueueStats> {
        self.queues.get(&queue_number).map(NfQueue::stats)
    }

    /// Number of rules installed.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Push a batch of packets through the chain, draining each NFQUEUE with
    /// its handler's batch entry point ([`QueueHandler::handle_batch_into`]).
    ///
    /// Outcomes are returned in input order and match what per-packet
    /// [`FilterChain::process`] calls would produce: rules are evaluated in
    /// order, each queue sees its matching packets in input order, and
    /// dropped packets leave the batch.
    pub fn process_batch(&mut self, packets: &mut [Ipv4Packet]) -> Vec<ChainOutcome> {
        let mut outcomes: Vec<Option<ChainOutcome>> = vec![None; packets.len()];
        let mut queues_traversed = vec![0usize; packets.len()];
        let mut alive: Vec<usize> = (0..packets.len()).collect();
        let mut verdicts: Vec<Verdict> = Vec::new();

        for rule in &self.rules {
            if alive.is_empty() {
                break;
            }
            let (matching, rest): (Vec<usize>, Vec<usize>) = alive
                .iter()
                .partition(|&&index| rule.matcher.matches(&packets[index]));
            match &rule.action {
                RuleAction::Accept => {
                    for index in matching {
                        outcomes[index] = Some(ChainOutcome::Accepted {
                            queues_traversed: queues_traversed[index],
                        });
                    }
                    alive = rest;
                }
                RuleAction::Drop => {
                    for index in matching {
                        outcomes[index] = Some(ChainOutcome::Dropped {
                            by: "iptables".to_string(),
                            reason: "matched DROP rule".to_string(),
                        });
                    }
                    alive = rest;
                }
                RuleAction::Queue(number) => {
                    if matching.is_empty() {
                        continue;
                    }
                    let Some(queue) = self.queues.get_mut(number) else {
                        for index in matching {
                            outcomes[index] = Some(ChainOutcome::Dropped {
                                by: "iptables".to_string(),
                                reason: format!("NFQUEUE {number} has no listener"),
                            });
                        }
                        alive = rest;
                        continue;
                    };
                    let mut in_matching = vec![false; packets.len()];
                    for &index in &matching {
                        queues_traversed[index] += 1;
                        in_matching[index] = true;
                    }
                    let mut batch: Vec<&mut Ipv4Packet> = packets
                        .iter_mut()
                        .enumerate()
                        .filter_map(|(index, packet)| in_matching[index].then_some(packet))
                        .collect();
                    queue.deliver_batch_into(&mut batch, &mut verdicts);
                    let by = queue.handler.lock().name().to_string();
                    let mut survivors = Vec::with_capacity(matching.len());
                    for (index, verdict) in matching.iter().zip(verdicts.drain(..)) {
                        match verdict {
                            Verdict::Accept => survivors.push(*index),
                            Verdict::Drop { reason } => {
                                outcomes[*index] = Some(ChainOutcome::Dropped {
                                    by: by.clone(),
                                    reason: reason.to_string(),
                                });
                            }
                        }
                    }
                    // Restore input order across the merged survivor sets.
                    alive = rest;
                    alive.extend(survivors);
                    alive.sort_unstable();
                }
            }
        }

        for index in alive {
            outcomes[index] = Some(ChainOutcome::Accepted {
                queues_traversed: queues_traversed[index],
            });
        }
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every packet received an outcome"))
            .collect()
    }

    /// Push one packet through the chain.
    pub fn process(&mut self, packet: &mut Ipv4Packet) -> ChainOutcome {
        let mut queues_traversed = 0;
        for rule in &self.rules {
            if !rule.matcher.matches(packet) {
                continue;
            }
            match &rule.action {
                RuleAction::Accept => return ChainOutcome::Accepted { queues_traversed },
                RuleAction::Drop => {
                    return ChainOutcome::Dropped {
                        by: "iptables".to_string(),
                        reason: "matched DROP rule".to_string(),
                    }
                }
                RuleAction::Queue(number) => {
                    let Some(queue) = self.queues.get_mut(number) else {
                        // Mirroring netfilter behaviour with no queue bound:
                        // the packet is dropped.
                        return ChainOutcome::Dropped {
                            by: "iptables".to_string(),
                            reason: format!("NFQUEUE {number} has no listener"),
                        };
                    };
                    queues_traversed += 1;
                    match queue.deliver(packet) {
                        Verdict::Accept => {}
                        Verdict::Drop { reason } => {
                            let by = queue.handler.lock().name().to_string();
                            return ChainOutcome::Dropped {
                                by,
                                reason: reason.to_string(),
                            };
                        }
                    }
                }
            }
        }
        ChainOutcome::Accepted { queues_traversed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Endpoint;
    use serde::Value;

    fn packet_to(dst: [u8; 4], port: u16) -> Ipv4Packet {
        Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 4], 40000),
            Endpoint::new(dst, port),
            vec![1, 2, 3],
        )
    }

    struct DropOdd {
        seen: u64,
    }

    impl QueueHandler for DropOdd {
        fn name(&self) -> &str {
            "drop-odd"
        }

        fn handle(&mut self, _packet: &mut Ipv4Packet) -> Verdict {
            self.seen += 1;
            if self.seen % 2 == 1 {
                Verdict::drop("odd packet")
            } else {
                Verdict::Accept
            }
        }
    }

    #[test]
    fn rule_match_criteria() {
        let pkt = packet_to([1, 2, 3, 4], 443);
        assert!(RuleMatch::any().matches(&pkt));
        assert!(RuleMatch {
            destination_ip: Some(Ipv4Addr::new(1, 2, 3, 4)),
            ..RuleMatch::default()
        }
        .matches(&pkt));
        assert!(!RuleMatch {
            destination_ip: Some(Ipv4Addr::new(9, 9, 9, 9)),
            ..RuleMatch::default()
        }
        .matches(&pkt));
        assert!(RuleMatch {
            destination_port: Some(443),
            ..RuleMatch::default()
        }
        .matches(&pkt));
        assert!(!RuleMatch {
            destination_port: Some(80),
            ..RuleMatch::default()
        }
        .matches(&pkt));
        assert!(RuleMatch {
            protocol: Some(Protocol::Tcp),
            ..RuleMatch::default()
        }
        .matches(&pkt));
        assert!(!RuleMatch {
            protocol: Some(Protocol::Udp),
            ..RuleMatch::default()
        }
        .matches(&pkt));
    }

    #[test]
    fn empty_chain_accepts_everything() {
        let mut chain = FilterChain::new();
        let mut pkt = packet_to([1, 2, 3, 4], 80);
        assert!(chain.process(&mut pkt).is_accepted());
    }

    #[test]
    fn drop_rule_terminates_chain() {
        let mut chain = FilterChain::new();
        chain.add_rule(IptablesRule {
            matcher: RuleMatch {
                destination_ip: Some(Ipv4Addr::new(5, 5, 5, 5)),
                ..RuleMatch::default()
            },
            action: RuleAction::Drop,
        });
        let mut blocked = packet_to([5, 5, 5, 5], 80);
        let mut allowed = packet_to([6, 6, 6, 6], 80);
        assert!(!chain.process(&mut blocked).is_accepted());
        assert!(chain.process(&mut allowed).is_accepted());
    }

    #[test]
    fn queue_handler_verdicts_are_respected_and_counted() {
        let mut chain = FilterChain::new();
        chain.add_rule(IptablesRule {
            matcher: RuleMatch::any(),
            action: RuleAction::Queue(1),
        });
        chain.register_queue(1, Arc::new(Mutex::new(DropOdd { seen: 0 })));

        let mut first = packet_to([1, 1, 1, 1], 80);
        let mut second = packet_to([1, 1, 1, 1], 80);
        let outcome1 = chain.process(&mut first);
        let outcome2 = chain.process(&mut second);
        assert!(!outcome1.is_accepted());
        assert!(outcome2.is_accepted());
        if let ChainOutcome::Dropped { by, reason } = outcome1 {
            assert_eq!(by, "drop-odd");
            assert_eq!(reason, "odd packet");
        }
        let stats = chain.queue_stats(1).unwrap();
        assert_eq!(stats.received, 2);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.accepted, 1);
    }

    #[test]
    fn queue_without_listener_drops() {
        let mut chain = FilterChain::new();
        chain.add_rule(IptablesRule {
            matcher: RuleMatch::any(),
            action: RuleAction::Queue(7),
        });
        let mut pkt = packet_to([1, 1, 1, 1], 80);
        let outcome = chain.process(&mut pkt);
        assert!(!outcome.is_accepted());
    }

    #[test]
    fn multiple_queues_form_a_pipeline() {
        let mut chain = FilterChain::new();
        chain.add_rule(IptablesRule {
            matcher: RuleMatch::any(),
            action: RuleAction::Queue(1),
        });
        chain.add_rule(IptablesRule {
            matcher: RuleMatch::any(),
            action: RuleAction::Queue(2),
        });
        chain.register_queue(1, Arc::new(Mutex::new(PassthroughHandler::new())));
        chain.register_queue(2, Arc::new(Mutex::new(PassthroughHandler::new())));
        let mut pkt = packet_to([1, 1, 1, 1], 80);
        match chain.process(&mut pkt) {
            ChainOutcome::Accepted { queues_traversed } => assert_eq!(queues_traversed, 2),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn accept_rule_short_circuits_later_queues() {
        let mut chain = FilterChain::new();
        chain.add_rule(IptablesRule {
            matcher: RuleMatch {
                destination_port: Some(22),
                ..RuleMatch::default()
            },
            action: RuleAction::Accept,
        });
        chain.add_rule(IptablesRule {
            matcher: RuleMatch::any(),
            action: RuleAction::Queue(1),
        });
        chain.register_queue(1, Arc::new(Mutex::new(DropOdd { seen: 0 })));
        let mut ssh = packet_to([1, 1, 1, 1], 22);
        match chain.process(&mut ssh) {
            ChainOutcome::Accepted { queues_traversed } => assert_eq!(queues_traversed, 0),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn process_batch_matches_sequential_processing() {
        let build_chain = || {
            let mut chain = FilterChain::new();
            chain.add_rule(IptablesRule {
                matcher: RuleMatch {
                    destination_port: Some(22),
                    ..RuleMatch::default()
                },
                action: RuleAction::Accept,
            });
            chain.add_rule(IptablesRule {
                matcher: RuleMatch {
                    destination_ip: Some(Ipv4Addr::new(5, 5, 5, 5)),
                    ..RuleMatch::default()
                },
                action: RuleAction::Drop,
            });
            chain.add_rule(IptablesRule {
                matcher: RuleMatch::any(),
                action: RuleAction::Queue(1),
            });
            chain.register_queue(1, Arc::new(Mutex::new(DropOdd { seen: 0 })));
            chain
        };
        let build_packets = || {
            vec![
                packet_to([1, 1, 1, 1], 80),
                packet_to([1, 1, 1, 1], 22),
                packet_to([5, 5, 5, 5], 80),
                packet_to([2, 2, 2, 2], 443),
                packet_to([3, 3, 3, 3], 80),
            ]
        };

        let mut sequential_chain = build_chain();
        let mut expected = Vec::new();
        for packet in &mut build_packets() {
            expected.push(sequential_chain.process(packet));
        }

        let mut batch_chain = build_chain();
        let mut packets = build_packets();
        let outcomes = batch_chain.process_batch(&mut packets);
        assert_eq!(outcomes, expected);
        assert_eq!(batch_chain.queue_stats(1), sequential_chain.queue_stats(1));
    }

    #[test]
    fn process_batch_on_empty_chain_accepts_everything() {
        let mut chain = FilterChain::new();
        let mut packets = vec![packet_to([1, 1, 1, 1], 80), packet_to([2, 2, 2, 2], 80)];
        let outcomes = chain.process_batch(&mut packets);
        assert!(outcomes.iter().all(ChainOutcome::is_accepted));
    }

    #[test]
    fn default_handle_batch_into_loops_over_handle() {
        let mut handler = DropOdd { seen: 0 };
        let mut a = packet_to([1, 1, 1, 1], 80);
        let mut b = packet_to([1, 1, 1, 1], 81);
        let mut c = packet_to([1, 1, 1, 1], 82);
        let mut batch: Vec<&mut Ipv4Packet> = vec![&mut a, &mut b, &mut c];
        // Seed with a stale drop to prove every slot gets overwritten.
        let mut verdicts = vec![Verdict::drop("stale")];
        handler.handle_batch_into(&mut batch, &mut verdicts);
        assert_eq!(verdicts.len(), 3);
        assert!(!verdicts[0].is_accept());
        assert!(verdicts[1].is_accept());
        assert!(!verdicts[2].is_accept());
        assert_eq!(handler.seen, 3);
    }

    #[test]
    fn deliver_batch_counts_queue_stats() {
        let mut queue = NfQueue::new(3, Arc::new(Mutex::new(DropOdd { seen: 0 })));
        let mut a = packet_to([1, 1, 1, 1], 80);
        let mut b = packet_to([1, 1, 1, 1], 81);
        let mut batch: Vec<&mut Ipv4Packet> = vec![&mut a, &mut b];
        let verdicts = queue.deliver_batch(&mut batch);
        assert_eq!(verdicts.len(), 2);
        let stats = queue.stats();
        assert_eq!(stats.received, 2);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.accepted, 1);
    }

    #[test]
    fn drop_reason_compares_by_text_with_every_string_type() {
        let fixed = DropReason::Static("policy");
        let shared = DropReason::Rendered(Arc::from("policy"));
        let other = DropReason::from(String::from("untagged"));
        assert_eq!(fixed, shared);
        assert_ne!(fixed, other);
        // `str`, `&str` and `String`, on either side.
        assert!(fixed == *"policy" && *"policy" == shared);
        assert!(shared == "policy" && "policy" == fixed);
        let owned = String::from("policy");
        assert!(fixed == owned && owned == shared);
        assert!(other != "policy");
        assert!("policy" != other);
        // The shape the suites match on: `&DropReason` against a `&str` const.
        const REASON: &str = "policy";
        assert!(matches!(&Verdict::drop(REASON), Verdict::Drop { reason } if reason == REASON));
        assert_eq!(Verdict::drop("policy"), Verdict::Drop { reason: shared });
    }

    #[test]
    fn drop_reason_reads_and_prints_like_the_string_it_replaces() {
        let text = "quote \" and newline \n";
        for reason in [DropReason::Static(text), DropReason::from(text.to_owned())] {
            assert_eq!(reason.as_str(), text);
            // Deref: `str` methods apply directly.
            assert_eq!(reason.len(), text.len());
            assert!(reason.starts_with("quote"));
            assert_eq!(reason.to_string(), text);
            assert_eq!(format!("{reason:?}"), format!("{text:?}"));
            assert_eq!(
                format!("{:?}", Verdict::Drop { reason }),
                format!("Drop {{ reason: {text:?} }}")
            );
        }
    }

    #[test]
    fn drop_reason_conversions_keep_the_cheap_representation() {
        assert!(matches!(
            DropReason::from("fixed"),
            DropReason::Static("fixed")
        ));
        assert!(matches!(
            DropReason::from(String::from("rendered")),
            DropReason::Rendered(_)
        ));
        let cached: Arc<str> = Arc::from("cached");
        let DropReason::Rendered(shared) = DropReason::from(&cached) else {
            panic!("an Arc converts to the shared representation");
        };
        assert!(Arc::ptr_eq(&shared, &cached), "no text copy");
        // Cloning a shared reason bumps the refcount; it does not copy.
        let reason = DropReason::Rendered(shared);
        let clone = reason.clone();
        assert_eq!(Arc::strong_count(&cached), 3);
        assert_eq!(clone, reason);
    }

    #[test]
    fn drop_reason_serializes_as_a_bare_string() {
        let text = Value::Str("policy".to_owned());
        for reason in [
            DropReason::Static("policy"),
            DropReason::from("policy".to_owned()),
        ] {
            assert_eq!(reason.to_value(), text);
        }
        let parsed = DropReason::from_value(&text).unwrap();
        assert!(matches!(&parsed, DropReason::Rendered(_)));
        assert_eq!(parsed, "policy");
        assert!(DropReason::from_value(&Value::Bool(true)).is_err());

        // So `Verdict` keeps the shape it had with a `String` field.
        let verdict = Verdict::drop("policy");
        let value = verdict.to_value();
        assert_eq!(
            value
                .get_field("Drop")
                .and_then(|drop| drop.get_field("reason")),
            Some(&text)
        );
        assert_eq!(Verdict::from_value(&value).unwrap(), verdict);
        let accept = Verdict::Accept.to_value();
        assert_eq!(Verdict::from_value(&accept).unwrap(), Verdict::Accept);
    }

    #[test]
    fn verdict_is_no_larger_than_with_a_string_reason() {
        assert!(std::mem::size_of::<Verdict>() <= std::mem::size_of::<String>());
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Accept.to_string(), "ACCEPT");
        assert_eq!(Verdict::drop("policy").to_string(), "DROP (policy)");
        assert!(Verdict::Accept.is_accept());
        assert!(!Verdict::drop("x").is_accept());
    }
}
