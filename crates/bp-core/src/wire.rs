//! Byte-level ingress boundary: wire codec and replayable captures.
//!
//! Everything upstream of the enforcement plane in this workspace trades in
//! structured [`Ipv4Packet`]s, but the appliance the paper describes sits on
//! a wire: what arrives is bytes, and every malformed frame is an attack
//! surface.  This module is the single crossing point between the two
//! worlds:
//!
//! * [`encode`] / [`encode_into`] — serialize a packet to its RFC 791 wire
//!   form (delegating to [`Ipv4Packet::write_wire_bytes`]), preserving the
//!   non-conforming shapes adversarial traffic needs: duplicate context
//!   options and non-zero data trailing the End-of-List marker.
//! * [`WireFrame`] — a zero-copy validated view over a `&[u8]` frame.  All
//!   header, checksum and option-geometry validation happens against the
//!   borrowed bytes, and the enforcer inspects the frame through the same
//!   view ([`ShardedEnforcer::inspect_wire_batch_into`] reads the flow key
//!   and the context option in place), so the byte ingress allocates
//!   nothing.  [`WireFrame::to_packet`] / [`decode_frame`] /
//!   [`WireDecoder`] materialize an owned packet for captures and tools.
//! * [`WireError`] — the typed, frame-ordered decode failure taxonomy
//!   (re-exported from `bp-types`).  Malformed bytes never panic and never
//!   pass: the enforcer turns each failure into a fail-closed drop verdict
//!   whose reason is [`WireError::drop_reason`], counted in
//!   `EnforcerStats::dropped_wire`.
//! * [`CaptureWriter`] / [`CaptureReader`] — a length-prefixed capture
//!   format (seed + clock header, then per-tick tagged frames) so scenario
//!   traffic records once and replays as raw bytes through the same ingress
//!   path, byte-identically, on any shard count.
//!
//! # Examples
//!
//! Round trip through the codec:
//!
//! ```
//! use bp_core::wire;
//! use bp_netsim::addr::Endpoint;
//! use bp_netsim::packet::Ipv4Packet;
//!
//! let packet = Ipv4Packet::new(
//!     Endpoint::new([10, 0, 0, 1], 40_000),
//!     Endpoint::new([198, 51, 100, 7], 443),
//!     b"hello".to_vec(),
//! );
//! let bytes = wire::encode(&packet);
//! assert_eq!(wire::decode_frame(&bytes).unwrap(), packet);
//! ```
//!
//! Malformed bytes fail closed with a typed reason:
//!
//! ```
//! use bp_core::wire::{self, WireError};
//!
//! assert_eq!(wire::decode_frame(&[0u8; 10]), Err(WireError::TruncatedHeader));
//! ```
//!
//! [`ShardedEnforcer::inspect_wire_batch_into`]: crate::enforcer::ShardedEnforcer::inspect_wire_batch_into

use std::io::{self, Read, Write};

use bp_netsim::addr::Endpoint;
use bp_netsim::options::IpOptions;
use bp_netsim::packet::{Ipv4Packet, Protocol};
use bp_types::wire::OptionWalk;
pub use bp_types::wire::{rfc1071_checksum, WireError, MAX_OPTIONS_AREA};

/// Minimum decodable frame: 20-byte base header plus the abbreviated 4-byte
/// transport header (source and destination ports).
pub const MIN_FRAME_LEN: usize = Ipv4Packet::BASE_HEADER_LEN + 4;

/// Serialize `packet` to its wire form.
///
/// A set trailing-data flag is preserved as post-EOL non-zero padding, so
/// `decode_frame(encode(p)) == p` holds for every expressible packet,
/// including the covert-channel and duplicate-option adversarial shapes.
/// A shape the wire cannot carry is written as the nearest frame it can
/// (see [`Ipv4Packet::write_wire_bytes`]).
pub fn encode(packet: &Ipv4Packet) -> Vec<u8> {
    packet.wire_bytes()
}

/// Serialize `packet` into `out` (cleared first) — the reusable-buffer
/// variant of [`encode`] for recording loops and the struct batch entry
/// points.  Once `out` has held a frame as long, it allocates nothing.
pub fn encode_into(packet: &Ipv4Packet, out: &mut Vec<u8>) {
    packet.write_wire_bytes(out);
}

/// A zero-copy validated view over one wire frame.
///
/// [`WireFrame::parse`] runs every check the ingress boundary needs —
/// geometry, checksum, protocol, option layout — against the borrowed bytes
/// without allocating.  A parsed frame is guaranteed materializable:
/// [`WireFrame::to_packet`] cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFrame<'a> {
    frame: &'a [u8],
    header_len: usize,
    protocol: Protocol,
    trailing_data: bool,
}

impl<'a> WireFrame<'a> {
    /// Validate `frame` as one wire packet.
    ///
    /// Checks run in frame order and the first failure wins, so every
    /// malformed input maps to exactly one [`WireError`] — the attribution
    /// the malformed-bytes corpus pins down:
    ///
    /// 1. shorter than [`MIN_FRAME_LEN`] → [`WireError::TruncatedHeader`]
    /// 2. version nibble ≠ 4 → [`WireError::BadVersion`]
    /// 3. IHL outside 20..=60 bytes → [`WireError::BadIhl`]
    /// 4. frame shorter than IHL + ports → [`WireError::TruncatedFrame`]
    /// 5. header checksum mismatch → [`WireError::BadChecksum`]
    /// 6. protocol not TCP/UDP → [`WireError::UnknownProtocol`]
    /// 7. option missing its length byte → [`WireError::OptionTruncated`],
    ///    length byte < 2 → [`WireError::BadOptionLength`], length past the
    ///    area end → [`WireError::OptionOverrun`]
    /// 8. total-length field disagreeing with the frame →
    ///    [`WireError::LengthMismatch`]
    ///
    /// Non-zero bytes after an End-of-List marker are *not* an error: RFC
    /// 791 calls them padding, BorderPatrol calls them a covert channel
    /// (paper §IV-A4).  They decode into the trailing-data conformance flag
    /// and the *enforcement* layer decides their fate.
    ///
    /// # Errors
    ///
    /// The first failing check above; never panics on any input.
    pub fn parse(frame: &'a [u8]) -> Result<Self, WireError> {
        if frame.len() < MIN_FRAME_LEN {
            return Err(WireError::TruncatedHeader);
        }
        if frame[0] >> 4 != 4 {
            return Err(WireError::BadVersion);
        }
        let header_len = ((frame[0] & 0x0f) as usize) * 4;
        if !(Ipv4Packet::BASE_HEADER_LEN..=Ipv4Packet::BASE_HEADER_LEN + MAX_OPTIONS_AREA)
            .contains(&header_len)
        {
            return Err(WireError::BadIhl);
        }
        if frame.len() < header_len + 4 {
            return Err(WireError::TruncatedFrame);
        }
        if rfc1071_checksum(&frame[..header_len]) != 0 {
            return Err(WireError::BadChecksum);
        }
        let protocol = Protocol::from_number(frame[9]).ok_or(WireError::UnknownProtocol)?;
        let mut walk = OptionWalk::new(&frame[Ipv4Packet::BASE_HEADER_LEN..header_len]);
        while walk.next_option()?.is_some() {}
        let trailing_data = walk.trailing_data();
        let total_len = u16::from_be_bytes([frame[2], frame[3]]) as usize;
        if total_len != frame.len() - 4 {
            // The abbreviated transport header (4 port bytes) is not part of
            // the IP total-length accounting; see Ipv4Packet::write_wire_bytes.
            return Err(WireError::LengthMismatch);
        }
        Ok(WireFrame {
            frame,
            header_len,
            protocol,
            trailing_data,
        })
    }

    /// Header length in bytes (20 plus the options area).
    pub fn header_len(&self) -> usize {
        self.header_len
    }

    /// Transport protocol.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// IP identification field.
    pub fn identification(&self) -> u16 {
        u16::from_be_bytes([self.frame[4], self.frame[5]])
    }

    /// Time-to-live field.
    pub fn ttl(&self) -> u8 {
        self.frame[8]
    }

    /// Source endpoint (IP header address + abbreviated transport port).
    pub fn source(&self) -> Endpoint {
        Endpoint::new(
            [
                self.frame[12],
                self.frame[13],
                self.frame[14],
                self.frame[15],
            ],
            u16::from_be_bytes([self.frame[self.header_len], self.frame[self.header_len + 1]]),
        )
    }

    /// Destination endpoint.
    pub fn destination(&self) -> Endpoint {
        Endpoint::new(
            [
                self.frame[16],
                self.frame[17],
                self.frame[18],
                self.frame[19],
            ],
            u16::from_be_bytes([
                self.frame[self.header_len + 2],
                self.frame[self.header_len + 3],
            ]),
        )
    }

    /// The raw options area (between the base header and the ports).
    pub fn options_area(&self) -> &'a [u8] {
        &self.frame[Ipv4Packet::BASE_HEADER_LEN..self.header_len]
    }

    /// Whether non-zero bytes ride after the End-of-List marker — the
    /// covert-channel conformance signal.
    pub fn has_trailing_data(&self) -> bool {
        self.trailing_data
    }

    /// Payload bytes after the abbreviated transport header.
    pub fn payload(&self) -> &'a [u8] {
        &self.frame[self.header_len + 4..]
    }

    /// Iterate the options as `(type_byte, data)` pairs, skipping No-Op
    /// padding and stopping at End-of-List: the one RFC 791 walk
    /// ([`OptionWalk`]), over the area [`WireFrame::parse`] already walked
    /// without error, so no step here can fail.
    pub fn options(&self) -> impl Iterator<Item = (u8, &'a [u8])> {
        let mut walk = OptionWalk::new(self.options_area());
        std::iter::from_fn(move || walk.next_option().unwrap_or(None))
    }

    /// The frame's bytes, as [`WireFrame::parse`] was given them.
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.frame
    }

    /// What [`WireFrame::parse`] established about the frame, without the
    /// borrow: kept per frame across the hand-off to a shard worker, which
    /// re-attaches it with [`FrameDescriptor::over`] instead of parsing the
    /// frame a second time.
    pub(crate) fn descriptor(&self) -> FrameDescriptor {
        FrameDescriptor {
            // At most 60: `parse` bounds the IHL.
            header_len: self.header_len as u8,
            protocol: self.protocol,
            trailing_data: self.trailing_data,
        }
    }

    /// Materialize the borrowed frame into an owned [`Ipv4Packet`] — the
    /// structured form captures, tools and the struct-path entry points
    /// trade in.  Infallible: every check already ran in
    /// [`WireFrame::parse`].
    pub fn to_packet(&self) -> Ipv4Packet {
        let options = IpOptions::parse(self.options_area())
            .expect("`WireFrame::parse` validated the area with the same walk");
        let mut packet = Ipv4Packet::with_protocol(
            self.source(),
            self.destination(),
            self.protocol,
            self.payload().to_vec(),
        );
        packet.set_identification(self.identification());
        packet.set_ttl(self.ttl());
        *packet.options_mut() = options;
        packet
    }
}

/// The lifetime-free half of a parsed [`WireFrame`] (see
/// [`WireFrame::descriptor`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameDescriptor {
    header_len: u8,
    protocol: Protocol,
    trailing_data: bool,
}

impl FrameDescriptor {
    /// Fills the batch slot of a frame that did not parse (or was not
    /// admitted); such a frame is never inspected, so the value is never
    /// attached to its bytes.
    pub(crate) const UNPARSED: FrameDescriptor = FrameDescriptor {
        header_len: 0,
        protocol: Protocol::Tcp,
        trailing_data: false,
    };

    /// The parsed view of `frame`, which must be the bytes this descriptor
    /// was taken from.  Over any other bytes the view's accessors may read
    /// the wrong fields or panic on a short slice — never anything worse.
    pub(crate) fn over(self, frame: &[u8]) -> WireFrame<'_> {
        WireFrame {
            frame,
            header_len: usize::from(self.header_len),
            protocol: self.protocol,
            trailing_data: self.trailing_data,
        }
    }
}

/// What [`WireFrame::parse`] reports for `frame` once injected corruption
/// ([`FaultInjector::corrupt_next_frame`]) has inverted its version/IHL
/// byte — decided from the borrowed bytes, without copying the frame to
/// flip the byte.  An inverted version nibble is 4 only if it was `0xB`, so
/// the length check aside a corrupted frame is a [`WireError::BadVersion`];
/// a frame that already carried version `0xB` keeps that error rather than
/// being re-validated as the different frame the flip would make of it.
///
/// [`FaultInjector::corrupt_next_frame`]: crate::faults::FaultInjector::corrupt_next_frame
pub(crate) fn corrupted_frame_error(frame: &[u8]) -> WireError {
    if frame.len() < MIN_FRAME_LEN {
        WireError::TruncatedHeader
    } else {
        WireError::BadVersion
    }
}

/// Decode one frame straight to an owned packet — [`WireFrame::parse`]
/// followed by [`WireFrame::to_packet`].
///
/// # Errors
///
/// Propagates the typed [`WireError`] of the first failing check.
pub fn decode_frame(frame: &[u8]) -> Result<Ipv4Packet, WireError> {
    WireFrame::parse(frame).map(|f| f.to_packet())
}

/// A decode failure inside a batch: which frame, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFailure {
    /// Index of the offending frame within the batch.
    pub index: usize,
    /// The typed decode failure.
    pub error: WireError,
}

/// Reusable batch decoder: splits a batch of raw frames into decoded
/// packets and typed failures, reusing its buffers across batches.
///
/// # Examples
///
/// ```
/// use bp_core::wire::{self, WireDecoder, WireError};
/// use bp_netsim::addr::Endpoint;
/// use bp_netsim::packet::Ipv4Packet;
///
/// let good = wire::encode(&Ipv4Packet::new(
///     Endpoint::new([10, 0, 0, 1], 40_000),
///     Endpoint::new([198, 51, 100, 7], 443),
///     vec![],
/// ));
/// let mut decoder = WireDecoder::new();
/// let (packets, failures) = decoder.decode_batch(&[&good, &[0u8; 3]]);
/// assert_eq!(packets.len(), 1);
/// assert_eq!(failures, [wire::WireFailure { index: 1, error: WireError::TruncatedHeader }]);
/// ```
#[derive(Debug, Default)]
pub struct WireDecoder {
    packets: Vec<Ipv4Packet>,
    failures: Vec<WireFailure>,
}

impl WireDecoder {
    /// A decoder with empty scratch buffers.
    pub fn new() -> Self {
        WireDecoder::default()
    }

    /// Decode `frames`, returning the packets that parsed (in frame order)
    /// and the typed failures (in frame order).  Never panics; a batch of
    /// garbage simply yields an empty packet slice and one failure per
    /// frame.
    pub fn decode_batch(&mut self, frames: &[&[u8]]) -> (&[Ipv4Packet], &[WireFailure]) {
        self.packets.clear();
        self.failures.clear();
        for (index, frame) in frames.iter().enumerate() {
            match decode_frame(frame) {
                Ok(packet) => self.packets.push(packet),
                Err(error) => self.failures.push(WireFailure { index, error }),
            }
        }
        (&self.packets, &self.failures)
    }
}

// ---------------------------------------------------------------------------
// Replayable captures
// ---------------------------------------------------------------------------

/// Magic bytes opening every capture stream.
pub const CAPTURE_MAGIC: [u8; 6] = *b"BPCAP\0";

/// Capture format version this build writes and reads.
pub const CAPTURE_VERSION: u16 = 1;

/// Fixed-size capture header: enough to reproduce the recorded run.
///
/// `seed` and `tick_millis` pin the scenario's deterministic inputs;
/// `ticks` pins its length, so a replayer can drive the virtual clock
/// through exactly the recorded schedule even for ticks that carried no
/// frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureHeader {
    /// RNG seed the recorded scenario ran with.
    pub seed: u64,
    /// Virtual milliseconds per tick.
    pub tick_millis: u64,
    /// Number of ticks the recorded run executed.
    pub ticks: u32,
}

const CAPTURE_HEADER_LEN: usize = 6 + 2 + 8 + 8 + 4;
const FRAME_PREFIX_LEN: usize = 4 + 1 + 4;

/// Streaming capture writer: header up front, then length-prefixed tagged
/// frames.
///
/// Each record is `[tick: u32 LE][tag: u8][len: u32 LE][len frame bytes]`.
/// The tag attributes the frame to its traffic source (`0` = legitimate,
/// `k` = the scenario's `k-1`-th adversary) so a replayer can rebuild
/// per-adversary outcome accounting without re-running synthesis.
#[derive(Debug)]
pub struct CaptureWriter<W: Write> {
    sink: W,
    frames: u64,
}

impl<W: Write> CaptureWriter<W> {
    /// Write the capture header and return the writer.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn new(mut sink: W, header: CaptureHeader) -> io::Result<Self> {
        sink.write_all(&CAPTURE_MAGIC)?;
        sink.write_all(&CAPTURE_VERSION.to_le_bytes())?;
        sink.write_all(&header.seed.to_le_bytes())?;
        sink.write_all(&header.tick_millis.to_le_bytes())?;
        sink.write_all(&header.ticks.to_le_bytes())?;
        Ok(CaptureWriter { sink, frames: 0 })
    }

    /// Append one frame observed at `tick`, attributed by `tag`.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn record(&mut self, tick: u32, tag: u8, frame: &[u8]) -> io::Result<()> {
        self.sink.write_all(&tick.to_le_bytes())?;
        self.sink.write_all(&[tag])?;
        self.sink.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.sink.write_all(frame)?;
        self.frames += 1;
        Ok(())
    }

    /// Number of frames recorded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Flush and return the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Why a capture stream failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureError {
    /// The stream does not start with [`CAPTURE_MAGIC`].
    BadMagic,
    /// The stream's version is not [`CAPTURE_VERSION`].
    UnsupportedVersion(u16),
    /// The stream ended inside the header or a frame record.
    Truncated,
    /// A frame record names a tick at or past the header's tick count.
    TickOutOfRange {
        /// The offending record's tick.
        tick: u32,
        /// The header's tick count.
        ticks: u32,
    },
    /// Frame records are not sorted by tick (replay walks them in order).
    OutOfOrder,
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::BadMagic => write!(f, "not a BPCAP capture (bad magic)"),
            CaptureError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported capture version {v} (expected {CAPTURE_VERSION})"
                )
            }
            CaptureError::Truncated => write!(f, "capture truncated mid-header or mid-frame"),
            CaptureError::TickOutOfRange { tick, ticks } => {
                write!(f, "frame at tick {tick} but capture declares {ticks} ticks")
            }
            CaptureError::OutOfOrder => write!(f, "frame records not sorted by tick"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// One frame pulled out of a parsed capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureFrame<'a> {
    /// Tick the frame was observed at.
    pub tick: u32,
    /// Traffic-source tag (`0` = legitimate, `k` = adversary `k-1`).
    pub tag: u8,
    /// The raw wire bytes.
    pub bytes: &'a [u8],
}

struct FrameEntry {
    tick: u32,
    tag: u8,
    start: usize,
    len: usize,
}

/// A fully parsed capture: header plus an index over the frame bytes, which
/// stay in one arena so iteration is allocation-free.
pub struct CaptureReader {
    header: CaptureHeader,
    data: Vec<u8>,
    index: Vec<FrameEntry>,
}

impl CaptureReader {
    /// Parse a capture from an in-memory byte stream.
    ///
    /// # Errors
    ///
    /// Returns a [`CaptureError`] describing the first structural problem;
    /// never panics on any input.
    pub fn parse(bytes: &[u8]) -> Result<Self, CaptureError> {
        if bytes.len() < CAPTURE_HEADER_LEN {
            return Err(if bytes.len() >= 6 && bytes[..6] != CAPTURE_MAGIC {
                CaptureError::BadMagic
            } else {
                CaptureError::Truncated
            });
        }
        if bytes[..6] != CAPTURE_MAGIC {
            return Err(CaptureError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[6], bytes[7]]);
        if version != CAPTURE_VERSION {
            return Err(CaptureError::UnsupportedVersion(version));
        }
        let seed = u64::from_le_bytes(bytes[8..16].try_into().expect("fixed-width header slice"));
        let tick_millis =
            u64::from_le_bytes(bytes[16..24].try_into().expect("fixed-width header slice"));
        let ticks = u32::from_le_bytes(bytes[24..28].try_into().expect("fixed-width header slice"));
        let header = CaptureHeader {
            seed,
            tick_millis,
            ticks,
        };

        let data = bytes[CAPTURE_HEADER_LEN..].to_vec();
        let mut index = Vec::new();
        let mut pos = 0;
        let mut last_tick = 0u32;
        while pos < data.len() {
            if data.len() - pos < FRAME_PREFIX_LEN {
                return Err(CaptureError::Truncated);
            }
            let tick =
                u32::from_le_bytes(data[pos..pos + 4].try_into().expect("fixed-width prefix"));
            let tag = data[pos + 4];
            let len = u32::from_le_bytes(
                data[pos + 5..pos + 9]
                    .try_into()
                    .expect("fixed-width prefix"),
            ) as usize;
            pos += FRAME_PREFIX_LEN;
            if data.len() - pos < len {
                return Err(CaptureError::Truncated);
            }
            if tick >= ticks {
                return Err(CaptureError::TickOutOfRange { tick, ticks });
            }
            if tick < last_tick {
                return Err(CaptureError::OutOfOrder);
            }
            last_tick = tick;
            index.push(FrameEntry {
                tick,
                tag,
                start: pos,
                len,
            });
            pos += len;
        }
        Ok(CaptureReader {
            header,
            data,
            index,
        })
    }

    /// Read and parse a capture from any reader (e.g. a file).
    ///
    /// # Errors
    ///
    /// I/O errors from the reader; parse failures surface as
    /// [`io::ErrorKind::InvalidData`] wrapping the [`CaptureError`].
    pub fn from_reader<R: Read>(mut reader: R) -> io::Result<Self> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        CaptureReader::parse(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The capture header.
    pub fn header(&self) -> CaptureHeader {
        self.header
    }

    /// Number of frames in the capture.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the capture holds no frames.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterate the recorded frames in capture order.
    pub fn frames(&self) -> impl Iterator<Item = CaptureFrame<'_>> {
        self.index.iter().map(|e| CaptureFrame {
            tick: e.tick,
            tag: e.tag,
            bytes: &self.data[e.start..e.start + e.len],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_netsim::options::{IpOption, IpOptionKind};
    use bp_types::wire::OPT_NOOP;

    fn sample_packet() -> Ipv4Packet {
        let mut packet = Ipv4Packet::with_protocol(
            Endpoint::new([10, 1, 2, 3], 33_000),
            Endpoint::new([198, 51, 100, 7], 443),
            Protocol::Udp,
            b"query".to_vec(),
        );
        packet.set_identification(0x1234);
        packet.set_ttl(17);
        packet
            .options_mut()
            .push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![1, 2, 3, 4]).unwrap())
            .unwrap();
        packet
    }

    #[test]
    fn codec_round_trips_a_tagged_packet() {
        let packet = sample_packet();
        let bytes = encode(&packet);
        let frame = WireFrame::parse(&bytes).unwrap();
        assert_eq!(frame.protocol(), Protocol::Udp);
        assert_eq!(frame.ttl(), 17);
        assert_eq!(frame.identification(), 0x1234);
        assert_eq!(frame.payload(), b"query");
        assert!(!frame.has_trailing_data());
        assert_eq!(frame.to_packet(), packet);
    }

    #[test]
    fn codec_round_trips_trailing_data_and_duplicates() {
        let mut packet = sample_packet();
        packet
            .options_mut()
            .push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![9, 9]).unwrap())
            .unwrap();
        packet.options_mut().mark_trailing_data();
        let bytes = encode(&packet);
        let decoded = decode_frame(&bytes).unwrap();
        assert!(decoded.options().has_trailing_data());
        assert_eq!(
            decoded.options().count(IpOptionKind::BorderPatrolContext),
            2
        );
        assert_eq!(decoded, packet);
    }

    #[test]
    fn encode_into_reuses_the_buffer() {
        let packet = sample_packet();
        let mut buf = vec![0xAA; 3];
        encode_into(&packet, &mut buf);
        assert_eq!(buf, encode(&packet));
    }

    #[test]
    fn each_error_variant_is_reachable() {
        let good = encode(&sample_packet());

        assert_eq!(WireFrame::parse(&[]), Err(WireError::TruncatedHeader));
        assert_eq!(
            WireFrame::parse(&good[..MIN_FRAME_LEN - 1]),
            Err(WireError::TruncatedHeader)
        );

        let mut bad = good.clone();
        bad[0] = 0x65; // version 6
        assert_eq!(WireFrame::parse(&bad), Err(WireError::BadVersion));

        let mut bad = good.clone();
        bad[0] = 0x44; // IHL 16 bytes < base header
        assert_eq!(WireFrame::parse(&bad), Err(WireError::BadIhl));

        let mut bad = good.clone();
        bad[0] = 0x4f; // IHL 60 bytes, frame too short for it
        assert_eq!(WireFrame::parse(&bad), Err(WireError::TruncatedFrame));

        let mut bad = good.clone();
        bad[8] ^= 0xff; // corrupt TTL without repairing the checksum
        assert_eq!(WireFrame::parse(&bad), Err(WireError::BadChecksum));

        let mut bad = good.clone();
        bad[9] = 89; // OSPF; repair the checksum so only the protocol is wrong
        patch_checksum(&mut bad);
        assert_eq!(WireFrame::parse(&bad), Err(WireError::UnknownProtocol));

        let mut bad = good.clone();
        let area_start = Ipv4Packet::BASE_HEADER_LEN;
        bad[area_start + 1] = 0; // context option claims zero length
        patch_checksum(&mut bad);
        assert_eq!(WireFrame::parse(&bad), Err(WireError::BadOptionLength));

        let mut bad = good.clone();
        bad[area_start + 1] = 41; // context option overruns the area
        patch_checksum(&mut bad);
        assert_eq!(WireFrame::parse(&bad), Err(WireError::OptionOverrun));

        let mut bad = good.clone();
        let header_len = ((bad[0] & 0x0f) as usize) * 4;
        for b in &mut bad[area_start..header_len] {
            *b = OPT_NOOP;
        }
        bad[header_len - 1] = bp_types::wire::OPT_TIMESTAMP; // final byte: option with no length byte
        patch_checksum(&mut bad);
        assert_eq!(WireFrame::parse(&bad), Err(WireError::OptionTruncated));

        let mut bad = good.clone();
        let total = u16::from_be_bytes([bad[2], bad[3]]) + 1;
        bad[2..4].copy_from_slice(&total.to_be_bytes());
        patch_checksum(&mut bad);
        assert_eq!(WireFrame::parse(&bad), Err(WireError::LengthMismatch));
    }

    fn patch_checksum(frame: &mut [u8]) {
        let header_len = ((frame[0] & 0x0f) as usize) * 4;
        frame[10] = 0;
        frame[11] = 0;
        let ck = rfc1071_checksum(&frame[..header_len]);
        frame[10..12].copy_from_slice(&ck.to_be_bytes());
    }

    #[test]
    fn decoder_splits_batches_and_reuses_buffers() {
        let good = encode(&sample_packet());
        let mut decoder = WireDecoder::new();
        let (packets, failures) = decoder.decode_batch(&[&good, &[0u8; 2], &good]);
        assert_eq!(packets.len(), 2);
        assert_eq!(
            failures,
            [WireFailure {
                index: 1,
                error: WireError::TruncatedHeader
            }]
        );
        let (packets, failures) = decoder.decode_batch(&[&good]);
        assert_eq!(packets.len(), 1);
        assert!(failures.is_empty());
    }

    #[test]
    fn capture_round_trips_header_and_frames() {
        let frame_a = encode(&sample_packet());
        let header = CaptureHeader {
            seed: 0xdead_beef,
            tick_millis: 250,
            ticks: 4,
        };
        let mut writer = CaptureWriter::new(Vec::new(), header).unwrap();
        writer.record(0, 0, &frame_a).unwrap();
        writer.record(0, 1, &[1, 2, 3]).unwrap();
        writer.record(3, 0, &frame_a).unwrap();
        assert_eq!(writer.frames(), 3);
        let bytes = writer.finish().unwrap();

        let reader = CaptureReader::parse(&bytes).unwrap();
        assert_eq!(reader.header(), header);
        assert_eq!(reader.len(), 3);
        let frames: Vec<_> = reader.frames().collect();
        assert_eq!(frames[0].tick, 0);
        assert_eq!(frames[0].tag, 0);
        assert_eq!(frames[0].bytes, &frame_a[..]);
        assert_eq!(frames[1].tag, 1);
        assert_eq!(frames[1].bytes, &[1, 2, 3]);
        assert_eq!(frames[2].tick, 3);
    }

    #[test]
    fn capture_parse_fails_closed_on_malformed_streams() {
        let header = CaptureHeader {
            seed: 7,
            tick_millis: 100,
            ticks: 2,
        };
        let mut writer = CaptureWriter::new(Vec::new(), header).unwrap();
        writer.record(1, 0, &[5, 6, 7]).unwrap();
        let bytes = writer.finish().unwrap();

        assert_eq!(
            CaptureReader::parse(&[]).err(),
            Some(CaptureError::Truncated)
        );
        assert_eq!(
            CaptureReader::parse(b"NOTCAP--------------------------").err(),
            Some(CaptureError::BadMagic)
        );
        let mut bad = bytes.clone();
        bad[6] = 9; // version 9
        assert_eq!(
            CaptureReader::parse(&bad).err(),
            Some(CaptureError::UnsupportedVersion(9))
        );
        let mut bad = bytes.clone();
        bad.truncate(bytes.len() - 1);
        assert_eq!(
            CaptureReader::parse(&bad).err(),
            Some(CaptureError::Truncated)
        );
        let mut bad = bytes.clone();
        bad[CAPTURE_HEADER_LEN] = 2; // tick 2 >= declared 2 ticks
        assert_eq!(
            CaptureReader::parse(&bad).err(),
            Some(CaptureError::TickOutOfRange { tick: 2, ticks: 2 })
        );

        let mut writer = CaptureWriter::new(Vec::new(), header).unwrap();
        writer.record(1, 0, &[]).unwrap();
        writer.record(0, 0, &[]).unwrap();
        let bytes = writer.finish().unwrap();
        assert_eq!(
            CaptureReader::parse(&bytes).err(),
            Some(CaptureError::OutOfOrder)
        );
    }
}
