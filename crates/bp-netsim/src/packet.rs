//! IPv4 packets with an options area.
//!
//! The simulation keeps the parts of the IPv4 header BorderPatrol and its
//! baselines reason about: addresses, protocol, identification, TTL, the
//! options area (where the context travels) and the payload length.  A header
//! checksum is computed over the serialized header exactly as RFC 791
//! specifies, so tampering tests and sanitizer recomputation are meaningful.

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use bp_types::wire::rfc1071_checksum;
use bp_types::PacketId;

use crate::addr::Endpoint;
use crate::options::{IpOptionKind, IpOptions};

/// Transport protocol carried by a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

impl Protocol {
    /// The IP protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        }
    }

    /// Map an IP protocol number to a [`Protocol`].
    pub fn from_number(n: u8) -> Option<Self> {
        match n {
            6 => Some(Protocol::Tcp),
            17 => Some(Protocol::Udp),
            _ => None,
        }
    }
}

/// The 5-tuple equivalence class on-network appliances use to group packets
/// into flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowKey {
    /// Source address.
    pub src_ip: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination address.
    pub dst_ip: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl serde::SerdeKey for FlowKey {
    fn to_key(&self) -> String {
        format!(
            "{}:{}->{}:{}/{}",
            self.src_ip,
            self.src_port,
            self.dst_ip,
            self.dst_port,
            self.protocol.number()
        )
    }

    fn from_key(key: &str) -> Result<Self, serde::DeError> {
        let invalid = || serde::DeError::custom(format!("invalid flow key {key:?}"));
        let (flow, proto) = key.rsplit_once('/').ok_or_else(invalid)?;
        let (src, dst) = flow.split_once("->").ok_or_else(invalid)?;
        let parse_endpoint = |text: &str| -> Result<(Ipv4Addr, u16), serde::DeError> {
            let (ip, port) = text.rsplit_once(':').ok_or_else(invalid)?;
            Ok((
                ip.parse().map_err(|_| invalid())?,
                port.parse().map_err(|_| invalid())?,
            ))
        };
        let (src_ip, src_port) = parse_endpoint(src)?;
        let (dst_ip, dst_port) = parse_endpoint(dst)?;
        let protocol = proto
            .parse::<u8>()
            .ok()
            .and_then(Protocol::from_number)
            .ok_or_else(invalid)?;
        Ok(FlowKey {
            src_ip,
            src_port,
            dst_ip,
            dst_port,
            protocol,
        })
    }
}

/// A simulated IPv4 packet.
///
/// # Examples
///
/// ```
/// use bp_netsim::packet::Ipv4Packet;
/// use bp_netsim::addr::Endpoint;
/// let pkt = Ipv4Packet::new(
///     Endpoint::new([10, 0, 0, 5], 51000),
///     Endpoint::new([172, 217, 16, 14], 443),
///     vec![0u8; 297],
/// );
/// assert_eq!(pkt.payload().len(), 297);
///
/// // Its wire form: header, the two ports, payload — checksummed.
/// let bytes = pkt.wire_bytes();
/// assert_eq!(bytes.len(), pkt.total_len() + 4);
/// assert_eq!(bp_types::wire::rfc1071_checksum(&bytes[..pkt.header_len()]), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Packet {
    id: PacketId,
    identification: u16,
    ttl: u8,
    protocol: Protocol,
    source: Endpoint,
    destination: Endpoint,
    options: IpOptions,
    payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Base IPv4 header size without options, in bytes.
    pub const BASE_HEADER_LEN: usize = 20;

    /// Create a TCP packet with default TTL and no options.
    pub fn new(source: Endpoint, destination: Endpoint, payload: Vec<u8>) -> Self {
        Ipv4Packet {
            id: PacketId::new(0),
            identification: 0,
            ttl: 64,
            protocol: Protocol::Tcp,
            source,
            destination,
            options: IpOptions::new(),
            payload,
        }
    }

    /// Create a packet with an explicit protocol.
    pub fn with_protocol(
        source: Endpoint,
        destination: Endpoint,
        protocol: Protocol,
        payload: Vec<u8>,
    ) -> Self {
        let mut p = Ipv4Packet::new(source, destination, payload);
        p.protocol = protocol;
        p
    }

    /// The simulation-assigned packet identifier.
    pub fn id(&self) -> PacketId {
        self.id
    }

    /// Set the simulation-assigned packet identifier.
    pub fn set_id(&mut self, id: PacketId) {
        self.id = id;
    }

    /// The IPv4 identification field.
    pub fn identification(&self) -> u16 {
        self.identification
    }

    /// Set the IPv4 identification field.
    pub fn set_identification(&mut self, identification: u16) {
        self.identification = identification;
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.ttl
    }

    /// Set the time-to-live (the wire decoder restores the on-wire value;
    /// simulated routers use [`Ipv4Packet::decrement_ttl`]).
    pub fn set_ttl(&mut self, ttl: u8) {
        self.ttl = ttl;
    }

    /// Decrement TTL (routers do this per hop); returns the new value.
    pub fn decrement_ttl(&mut self) -> u8 {
        self.ttl = self.ttl.saturating_sub(1);
        self.ttl
    }

    /// Transport protocol.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Source endpoint.
    pub fn source(&self) -> Endpoint {
        self.source
    }

    /// Destination endpoint.
    pub fn destination(&self) -> Endpoint {
        self.destination
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Immutable access to the options area.
    pub fn options(&self) -> &IpOptions {
        &self.options
    }

    /// Mutable access to the options area (the Context Manager and the Packet
    /// Sanitizer both modify it).
    pub fn options_mut(&mut self) -> &mut IpOptions {
        &mut self.options
    }

    /// Whether this packet carries a BorderPatrol context option.
    pub fn has_context_option(&self) -> bool {
        self.options
            .find(IpOptionKind::BorderPatrolContext)
            .is_some()
    }

    /// The flow key (5-tuple) of this packet.
    pub fn flow_key(&self) -> FlowKey {
        FlowKey {
            src_ip: self.source.ip,
            src_port: self.source.port,
            dst_ip: self.destination.ip,
            dst_port: self.destination.port,
            protocol: self.protocol,
        }
    }

    /// Total header length including options and padding.
    pub fn header_len(&self) -> usize {
        Self::BASE_HEADER_LEN + self.options.padded_len()
    }

    /// Total packet length (header + payload).
    pub fn total_len(&self) -> usize {
        self.header_len() + self.payload.len()
    }

    /// Serialize the packet's wire form: the RFC 791 header (options area
    /// from [`IpOptions::write_wire`], checksum filled in), the abbreviated
    /// transport header (source and destination ports) and the payload.
    ///
    /// This is the one encoder: the byte ingress boundary, the capture
    /// format and the struct batch entry points all frame packets through
    /// it, and `bp-core`'s `WireFrame::parse` is its one parser.  A set
    /// trailing-data flag reappears as post-EOL non-zero padding
    /// (checksummed like any other header byte), so parsing the result
    /// reproduces the packet including the covert-channel conformance flag.
    /// A packet the wire cannot carry is written as the nearest frame it
    /// can: see [`IpOptions::write_wire`] for the options area; a total
    /// length past 65 535 is truncated to 16 bits, which the parser rejects
    /// as a length mismatch.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_wire_bytes(&mut out);
        out
    }

    /// Write the wire form into `out` (cleared first) — the reusable-buffer
    /// variant of [`Ipv4Packet::wire_bytes`] for encode loops that frame
    /// packet after packet.  Once `out` has held a frame as long, it
    /// allocates nothing.
    pub fn write_wire_bytes(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(Self::BASE_HEADER_LEN + self.options.wire_len() + 4 + self.payload.len());
        out.extend_from_slice(&[0x40, 0]); // version 4 + IHL (below), DSCP/ECN
        out.extend_from_slice(&[0, 0]); // total length (below)
        out.extend_from_slice(&self.identification.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // flags + fragment offset
        out.push(self.ttl);
        out.push(self.protocol.number());
        out.extend_from_slice(&[0, 0]); // checksum (below)
        out.extend_from_slice(&self.source.ip.octets());
        out.extend_from_slice(&self.destination.ip.octets());
        self.options.write_wire(out);
        let header_len = out.len();
        out[0] |= (header_len / 4) as u8;
        let total_len = (header_len + self.payload.len()) as u16;
        out[2..4].copy_from_slice(&total_len.to_be_bytes());
        let checksum = rfc1071_checksum(&out[..header_len]);
        out[10..12].copy_from_slice(&checksum.to_be_bytes());

        out.extend_from_slice(&self.source.port.to_be_bytes());
        out.extend_from_slice(&self.destination.port.to_be_bytes());
        out.extend_from_slice(&self.payload);
    }
}

impl fmt::Display for Ipv4Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} ({:?}, {} bytes payload, {} option bytes)",
            self.source,
            self.destination,
            self.protocol,
            self.payload.len(),
            self.options.encoded_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{IpOption, IpOptionKind};

    fn sample_packet() -> Ipv4Packet {
        let mut p = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 2], 40001),
            Endpoint::new([162, 125, 4, 1], 443),
            b"GET / HTTP/1.1".to_vec(),
        );
        p.set_identification(0x1234);
        p.options_mut()
            .push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![1, 2, 3, 4, 5, 6]).unwrap())
            .unwrap();
        p
    }

    /// The header fields of a wire form, read back by hand (the parser
    /// proper lives in `bp-core::wire`): IHL in bytes, total length,
    /// identification, TTL, protocol number, source and destination
    /// endpoints, the options area and the payload.
    #[allow(clippy::type_complexity)]
    fn fields(bytes: &[u8]) -> (usize, u16, u16, u8, u8, Endpoint, Endpoint, &[u8], &[u8]) {
        let header_len = usize::from(bytes[0] & 0x0f) * 4;
        let word = |at: usize| u16::from_be_bytes([bytes[at], bytes[at + 1]]);
        let ip = |at: usize| [bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]];
        (
            header_len,
            word(2),
            word(4),
            bytes[8],
            bytes[9],
            Endpoint::new(ip(12), word(header_len)),
            Endpoint::new(ip(16), word(header_len + 2)),
            &bytes[Ipv4Packet::BASE_HEADER_LEN..header_len],
            &bytes[header_len + 4..],
        )
    }

    #[test]
    fn roundtrip_with_options() {
        let p = sample_packet();
        let bytes = p.wire_bytes();
        assert_eq!(bytes[0] >> 4, 4);
        let (
            header_len,
            total_len,
            identification,
            ttl,
            protocol,
            source,
            destination,
            area,
            payload,
        ) = fields(&bytes);
        assert_eq!(header_len, p.header_len());
        assert_eq!(usize::from(total_len), p.total_len());
        assert_eq!(identification, 0x1234);
        assert_eq!((ttl, protocol), (64, Protocol::Tcp.number()));
        assert_eq!((source, destination), (p.source(), p.destination()));
        assert_eq!(payload, p.payload());
        let options = IpOptions::parse(area).unwrap();
        assert_eq!(&options, p.options());
        assert_eq!(
            options
                .find(IpOptionKind::BorderPatrolContext)
                .unwrap()
                .data,
            vec![1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn roundtrip_without_options() {
        let p = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 2], 40001),
            Endpoint::new([8, 8, 8, 8], 53),
            vec![],
        );
        let bytes = p.wire_bytes();
        let (header_len, total_len, .., area, payload) = fields(&bytes);
        assert_eq!(header_len, Ipv4Packet::BASE_HEADER_LEN);
        assert_eq!(usize::from(total_len), Ipv4Packet::BASE_HEADER_LEN);
        assert!(area.is_empty());
        assert!(payload.is_empty());
    }

    #[test]
    fn wire_bytes_preserves_trailing_data_through_parse() {
        let mut p = sample_packet();
        p.options_mut().mark_trailing_data();
        // The flag reappears on the wire as post-EOL bytes, with a valid
        // checksum over the trailer bytes.
        let bytes = p.wire_bytes();
        let (header_len, .., area, payload) = fields(&bytes);
        assert_eq!(rfc1071_checksum(&bytes[..header_len]), 0);
        let options = IpOptions::parse(area).unwrap();
        assert!(options.has_trailing_data());
        assert_eq!(&options, p.options());
        assert_eq!(payload, p.payload());
    }

    #[test]
    fn wire_bytes_allocates_the_frame_exactly() {
        let mut p = sample_packet();
        for trailing in [false, true] {
            if trailing {
                p.options_mut().mark_trailing_data();
            }
            let bytes = p.wire_bytes();
            assert_eq!(bytes.capacity(), bytes.len(), "trailing data: {trailing}");
        }
    }

    #[test]
    fn write_wire_bytes_clears_and_reuses_the_buffer() {
        let p = sample_packet();
        let mut reused = vec![0xAA; 3];
        p.write_wire_bytes(&mut reused);
        assert_eq!(reused, p.wire_bytes());
        // The buffer is cleared on reuse, not appended to, and a warm one
        // does not grow.
        let capacity = reused.capacity();
        p.write_wire_bytes(&mut reused);
        assert_eq!(reused, p.wire_bytes());
        assert_eq!(reused.capacity(), capacity);
    }

    #[test]
    fn set_ttl_round_trips_on_the_wire() {
        let mut p = sample_packet();
        p.set_ttl(7);
        let (_, _, _, ttl, ..) = fields(&p.wire_bytes());
        assert_eq!(ttl, 7);
    }

    #[test]
    fn checksum_detects_corruption() {
        let p = sample_packet();
        let mut bytes = p.wire_bytes();
        bytes[13] ^= 0x01; // flip a bit in the source address
        assert_ne!(rfc1071_checksum(&bytes[..p.header_len()]), 0);
    }

    #[test]
    fn total_length_past_the_field_wraps() {
        let p = Ipv4Packet::new(
            Endpoint::new([10, 0, 0, 2], 40001),
            Endpoint::new([8, 8, 8, 8], 53),
            vec![0; 70_000],
        );
        let bytes = p.wire_bytes();
        let (_, total_len, ..) = fields(&bytes);
        assert_eq!(usize::from(total_len), p.total_len() % 65_536);
        assert_eq!(bytes.len(), p.total_len() + 4);
    }

    #[test]
    fn flow_key_groups_by_five_tuple() {
        let a = sample_packet();
        let b = sample_packet();
        assert_eq!(a.flow_key(), b.flow_key());
        let mut c = Ipv4Packet::new(a.source(), Endpoint::new([1, 1, 1, 1], 443), vec![]);
        c.set_identification(9);
        assert_ne!(a.flow_key(), c.flow_key());
    }

    #[test]
    fn header_len_accounts_for_options_padding() {
        let p = sample_packet();
        // 6 data bytes + 2 header bytes = 8, already 4-aligned.
        assert_eq!(p.header_len(), 28);
        assert_eq!(p.total_len(), 28 + p.payload().len());
    }

    #[test]
    fn ttl_decrements_and_saturates() {
        let mut p = sample_packet();
        assert_eq!(p.ttl(), 64);
        p.decrement_ttl();
        assert_eq!(p.ttl(), 63);
        for _ in 0..100 {
            p.decrement_ttl();
        }
        assert_eq!(p.ttl(), 0);
    }

    #[test]
    fn verify_checksum_on_constructed_packets() {
        let p = sample_packet();
        assert_eq!(rfc1071_checksum(&p.wire_bytes()[..p.header_len()]), 0);
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(Protocol::Tcp.number(), 6);
        assert_eq!(Protocol::Udp.number(), 17);
        assert_eq!(Protocol::from_number(6), Some(Protocol::Tcp));
        assert_eq!(Protocol::from_number(17), Some(Protocol::Udp));
        assert_eq!(Protocol::from_number(1), None);
    }
}
