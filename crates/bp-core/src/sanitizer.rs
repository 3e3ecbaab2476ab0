//! The Packet Sanitizer.
//!
//! Packets leaving the enterprise perimeter must not carry the BorderPatrol
//! context: routers on the open Internet drop packets with unexpected IP
//! options (RFC 7126), and the option leaks execution-context information the
//! company has no reason to publish (paper §IV-A4).  The sanitizer runs as the
//! last NFQUEUE consumer and strips the option from every conforming packet.

use serde::{Deserialize, Serialize};

use bp_netsim::netfilter::{QueueHandler, Verdict};
use bp_netsim::options::IpOptionKind;
use bp_netsim::packet::Ipv4Packet;

/// Counters the sanitizer keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SanitizerStats {
    /// Packets inspected.
    pub packets_processed: u64,
    /// Packets from which a context option was removed.
    pub options_stripped: u64,
    /// Packets that also carried a legacy security option that was removed.
    pub security_options_stripped: u64,
    /// Packets whose options area carried non-zero bytes after End-of-List —
    /// a covert channel (paper §IV-A4) — that were scrubbed.
    pub trailing_data_scrubbed: u64,
}

/// The Packet Sanitizer NFQUEUE consumer.
///
/// # Examples
///
/// ```
/// use bp_core::sanitizer::PacketSanitizer;
/// let sanitizer = PacketSanitizer::new();
/// assert_eq!(sanitizer.stats().packets_processed, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PacketSanitizer {
    stats: SanitizerStats,
    /// Also strip RFC 1108 security options (the option class the kernel patch
    /// additionally permits).
    strip_security_options: bool,
}

impl PacketSanitizer {
    /// Create a sanitizer that strips BorderPatrol context options and legacy
    /// security options.
    pub fn new() -> Self {
        PacketSanitizer {
            stats: SanitizerStats::default(),
            strip_security_options: true,
        }
    }

    /// Create a sanitizer that only strips the BorderPatrol context option.
    pub fn context_only() -> Self {
        PacketSanitizer {
            stats: SanitizerStats::default(),
            strip_security_options: false,
        }
    }

    /// Counters.
    pub fn stats(&self) -> SanitizerStats {
        self.stats
    }

    /// Reset counters.
    pub fn reset_stats(&mut self) {
        self.stats = SanitizerStats::default();
    }

    /// Strip context (and optionally security) options from a packet in
    /// place, and scrub any non-conforming data riding after the
    /// End-of-List marker (a covert channel past the perimeter, §IV-A4).
    pub fn sanitize(&mut self, packet: &mut Ipv4Packet) {
        self.stats.packets_processed += 1;
        let removed = packet
            .options_mut()
            .remove(IpOptionKind::BorderPatrolContext);
        if removed > 0 {
            self.stats.options_stripped += 1;
        }
        if self.strip_security_options {
            let removed = packet.options_mut().remove(IpOptionKind::Security);
            if removed > 0 {
                self.stats.security_options_stripped += 1;
            }
        }
        if packet.options_mut().clear_trailing_data() {
            self.stats.trailing_data_scrubbed += 1;
        }
    }

    /// Strip a whole batch in place.
    ///
    /// Equivalent to calling [`PacketSanitizer::sanitize`] on each packet in
    /// order — same packets, same statistics — but reached through one
    /// [`QueueHandler::handle_batch_into`] dispatch, so the batched filter
    /// chain pays one queue delivery (and one handler lock) per batch
    /// instead of per packet.
    pub fn sanitize_batch(&mut self, packets: &mut [&mut Ipv4Packet]) {
        for packet in packets {
            self.sanitize(packet);
        }
    }
}

impl QueueHandler for PacketSanitizer {
    fn name(&self) -> &str {
        "packet-sanitizer"
    }

    fn handle(&mut self, packet: &mut Ipv4Packet) -> Verdict {
        self.sanitize(packet);
        Verdict::Accept
    }

    fn handle_batch_into(&mut self, packets: &mut [&mut Ipv4Packet], verdicts: &mut Vec<Verdict>) {
        self.sanitize_batch(packets);
        verdicts.clear();
        // bp-lint: allow(fail-closed) the sanitizer mutates in place, never filters
        verdicts.resize(packets.len(), Verdict::Accept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_netsim::addr::Endpoint;
    use bp_netsim::options::IpOption;

    fn packet_with_options() -> Ipv4Packet {
        let mut packet = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 2], 40000),
            Endpoint::new([1, 1, 1, 1], 443),
            b"payload".to_vec(),
        );
        packet
            .options_mut()
            .push(
                IpOption::new(
                    IpOptionKind::BorderPatrolContext,
                    vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
                )
                .unwrap(),
            )
            .unwrap();
        packet
            .options_mut()
            .push(IpOption::new(IpOptionKind::Security, vec![0xAB, 0xCD]).unwrap())
            .unwrap();
        packet
            .options_mut()
            .push(IpOption::new(IpOptionKind::Timestamp, vec![0; 4]).unwrap())
            .unwrap();
        packet
    }

    #[test]
    fn strips_context_and_security_but_preserves_other_options() {
        let mut sanitizer = PacketSanitizer::new();
        let mut packet = packet_with_options();
        sanitizer.sanitize(&mut packet);
        assert!(!packet.has_context_option());
        assert!(packet.options().find(IpOptionKind::Security).is_none());
        assert!(packet.options().find(IpOptionKind::Timestamp).is_some());
        let stats = sanitizer.stats();
        assert_eq!(stats.packets_processed, 1);
        assert_eq!(stats.options_stripped, 1);
        assert_eq!(stats.security_options_stripped, 1);
    }

    #[test]
    fn context_only_mode_leaves_security_options() {
        let mut sanitizer = PacketSanitizer::context_only();
        let mut packet = packet_with_options();
        sanitizer.sanitize(&mut packet);
        assert!(!packet.has_context_option());
        assert!(packet.options().find(IpOptionKind::Security).is_some());
    }

    #[test]
    fn sanitize_is_idempotent_and_counts_only_real_strips() {
        let mut sanitizer = PacketSanitizer::new();
        let mut packet = packet_with_options();
        sanitizer.sanitize(&mut packet);
        sanitizer.sanitize(&mut packet);
        let stats = sanitizer.stats();
        assert_eq!(stats.packets_processed, 2);
        assert_eq!(stats.options_stripped, 1);
    }

    #[test]
    fn untagged_packets_pass_untouched() {
        let mut sanitizer = PacketSanitizer::new();
        let mut packet = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 2], 40000),
            Endpoint::new([1, 1, 1, 1], 443),
            b"plain".to_vec(),
        );
        let before = packet.clone();
        sanitizer.sanitize(&mut packet);
        assert_eq!(packet, before);
        assert_eq!(sanitizer.stats().options_stripped, 0);
    }

    #[test]
    fn queue_handler_always_accepts() {
        let mut sanitizer = PacketSanitizer::new();
        let mut packet = packet_with_options();
        assert!(sanitizer.handle(&mut packet).is_accept());
        assert_eq!(sanitizer.name(), "packet-sanitizer");
    }

    #[test]
    fn batch_and_sequential_sanitization_agree_on_packets_and_stats() {
        let make_batch = || -> Vec<Ipv4Packet> {
            let mut packets = vec![
                packet_with_options(),
                Ipv4Packet::new(
                    Endpoint::new([10, 0, 0, 3], 40001),
                    Endpoint::new([2, 2, 2, 2], 443),
                    b"untagged".to_vec(),
                ),
                packet_with_options(),
            ];
            // One packet with covert trailing data in the options area.
            let mut covert = packet_with_options();
            let mut wire = covert.options().wire_bytes();
            wire.push(0); // End-of-List
            wire.push(0x5A);
            *covert.options_mut() = bp_netsim::options::IpOptions::parse(&wire).unwrap();
            packets.push(covert);
            packets
        };

        let mut sequential = PacketSanitizer::new();
        let mut expected = make_batch();
        for packet in &mut expected {
            sequential.sanitize(packet);
        }

        let mut batched = PacketSanitizer::new();
        let mut packets = make_batch();
        let mut refs: Vec<&mut Ipv4Packet> = packets.iter_mut().collect();
        let mut verdicts = Vec::new();
        batched.handle_batch_into(&mut refs, &mut verdicts);

        assert!(verdicts.iter().all(Verdict::is_accept));
        assert_eq!(verdicts.len(), expected.len());
        assert_eq!(packets, expected);
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(batched.stats().packets_processed, 4);
        assert_eq!(batched.stats().trailing_data_scrubbed, 1);
    }

    #[test]
    fn trailing_covert_data_is_scrubbed() {
        // A packet whose options area smuggles bytes after End-of-List.
        let mut packet = packet_with_options();
        let mut wire = packet.options().wire_bytes();
        wire.push(0); // End-of-List
        wire.extend_from_slice(&[0xDE, 0xAD]);
        *packet.options_mut() = bp_netsim::options::IpOptions::parse(&wire).unwrap();
        assert!(packet.options().has_trailing_data());

        let mut sanitizer = PacketSanitizer::new();
        sanitizer.sanitize(&mut packet);
        assert!(!packet.options().has_trailing_data());
        assert_eq!(sanitizer.stats().trailing_data_scrubbed, 1);

        // Idempotent: a second pass scrubs nothing further.
        sanitizer.sanitize(&mut packet);
        assert_eq!(sanitizer.stats().trailing_data_scrubbed, 1);
    }

    #[test]
    fn sanitized_packet_still_serializes_with_valid_checksum() {
        let mut sanitizer = PacketSanitizer::new();
        let mut packet = packet_with_options();
        sanitizer.sanitize(&mut packet);
        let parsed = crate::wire::decode_frame(&crate::wire::encode(&packet)).unwrap();
        assert!(!parsed.has_context_option());
        assert_eq!(parsed.payload(), b"payload");
    }
}
