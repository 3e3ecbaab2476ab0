//! The IPv4 options area (RFC 791).
//!
//! IP packet headers may carry up to 40 bytes of options; each option has a
//! one-byte type, a one-byte length (covering type + length + data) and its
//! data.  BorderPatrol transports its compressed call-stack context in a
//! dedicated option kind, and the Packet Sanitizer strips that option before
//! packets leave the enterprise perimeter (RFC 7126 recommends dropping
//! packets with unexpected options on the open Internet).

use std::fmt;

use serde::{Deserialize, Serialize};

use bp_types::wire::{
    OptionWalk, WireError, OPT_BP_CONTEXT, OPT_END_OF_LIST, OPT_NOOP, OPT_SECURITY, OPT_TIMESTAMP,
};
use bp_types::Error;

/// Maximum total size of the options area in bytes (RFC 791).
pub const MAX_OPTIONS_LEN: usize = bp_types::wire::MAX_OPTIONS_AREA;

/// The non-zero byte the wire encoder places after the End-of-List marker
/// when a packet's [`IpOptions::has_trailing_data`] flag is set — the
/// covert-channel shape the §IV-A4 conformance checks exist to catch,
/// reproducible on demand for adversarial traffic and round-trip tests.
pub const TRAILING_DATA_MARKER: u8 = 0xBE;

/// Option kinds understood by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IpOptionKind {
    /// End-of-options-list marker (type 0).
    EndOfList,
    /// No-operation padding (type 1).
    NoOp,
    /// Internet timestamp option (type 68), as used by `ping -T`.
    Timestamp,
    /// RFC 1108 basic security option (type 130); the kernel patch in the
    /// paper permits user space to set options of the *security* class.
    Security,
    /// The BorderPatrol context option carrying the app tag and stack indexes.
    /// We use type 0x9e (copied-flag set, option class 0, experimental number 30).
    BorderPatrolContext,
    /// Any other option type, preserved verbatim.
    Other(u8),
}

impl IpOptionKind {
    /// The on-wire option type byte.
    pub fn type_byte(self) -> u8 {
        match self {
            IpOptionKind::EndOfList => OPT_END_OF_LIST,
            IpOptionKind::NoOp => OPT_NOOP,
            IpOptionKind::Timestamp => OPT_TIMESTAMP,
            IpOptionKind::Security => OPT_SECURITY,
            IpOptionKind::BorderPatrolContext => OPT_BP_CONTEXT,
            IpOptionKind::Other(t) => t,
        }
    }

    /// Map an on-wire type byte back to a kind.
    pub fn from_type_byte(byte: u8) -> Self {
        match byte {
            OPT_END_OF_LIST => IpOptionKind::EndOfList,
            OPT_NOOP => IpOptionKind::NoOp,
            OPT_TIMESTAMP => IpOptionKind::Timestamp,
            OPT_SECURITY => IpOptionKind::Security,
            OPT_BP_CONTEXT => IpOptionKind::BorderPatrolContext,
            other => IpOptionKind::Other(other),
        }
    }
}

impl fmt::Display for IpOptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpOptionKind::EndOfList => write!(f, "eol"),
            IpOptionKind::NoOp => write!(f, "nop"),
            IpOptionKind::Timestamp => write!(f, "timestamp"),
            IpOptionKind::Security => write!(f, "security"),
            IpOptionKind::BorderPatrolContext => write!(f, "bp-context"),
            IpOptionKind::Other(t) => write!(f, "option-{t}"),
        }
    }
}

/// A single IP option: kind plus data bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IpOption {
    /// The option kind.
    pub kind: IpOptionKind,
    /// The option data (excluding the type and length bytes).
    pub data: Vec<u8>,
}

impl IpOption {
    /// Create an option; the data must fit the 40-byte area together with the
    /// 2-byte type/length header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CapacityExceeded`] if the option alone would exceed
    /// the RFC 791 budget.
    pub fn new(kind: IpOptionKind, data: Vec<u8>) -> Result<Self, Error> {
        let total = data.len() + 2;
        if total > MAX_OPTIONS_LEN {
            return Err(Error::capacity("ip option", total, MAX_OPTIONS_LEN));
        }
        Ok(IpOption { kind, data })
    }

    /// Total encoded length in bytes (type + length + data).
    pub fn encoded_len(&self) -> usize {
        match self.kind {
            IpOptionKind::EndOfList | IpOptionKind::NoOp => 1,
            _ => 2 + self.data.len(),
        }
    }
}

/// The options area of one packet: an ordered list of options bounded by the
/// 40-byte budget.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IpOptions {
    options: Vec<IpOption>,
    /// Whether the parsed wire form carried non-zero bytes after the
    /// End-of-List marker.  RFC 791 requires post-EOL padding to be zero, and
    /// the hardened kernel never emits anything else — non-zero trailing bytes
    /// are a covert channel riding the options area past the sanitizer
    /// (paper §IV-A4), so parsing surfaces them instead of silently dropping
    /// them.  The wire writer ([`IpOptions::write_wire`]) re-emits the flag
    /// as such bytes whenever the area has room for them.
    #[serde(default)]
    trailing_data: bool,
}

impl IpOptions {
    /// An empty options area.
    pub fn new() -> Self {
        IpOptions::default()
    }

    /// Current encoded size (excluding padding to a 4-byte boundary).
    pub fn encoded_len(&self) -> usize {
        self.options.iter().map(IpOption::encoded_len).sum()
    }

    /// Encoded size including padding to the next 4-byte boundary, which is
    /// what actually occupies header space.
    pub fn padded_len(&self) -> usize {
        (self.encoded_len() + 3) & !3
    }

    /// Number of options present.
    pub fn len(&self) -> usize {
        self.options.len()
    }

    /// True if there are no options.
    pub fn is_empty(&self) -> bool {
        self.options.is_empty()
    }

    /// Append an option.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CapacityExceeded`] if adding the option would overflow
    /// the 40-byte area (after padding).
    pub fn push(&mut self, option: IpOption) -> Result<(), Error> {
        let new_len = self.encoded_len() + option.encoded_len();
        if new_len > MAX_OPTIONS_LEN {
            return Err(Error::capacity("ip options", new_len, MAX_OPTIONS_LEN));
        }
        self.options.push(option);
        Ok(())
    }

    /// Iterate over the options in order.
    pub fn iter(&self) -> impl Iterator<Item = &IpOption> {
        self.options.iter()
    }

    /// Find the first option of `kind`.
    pub fn find(&self, kind: IpOptionKind) -> Option<&IpOption> {
        self.options.iter().find(|o| o.kind == kind)
    }

    /// Number of options of `kind` present.
    pub fn count(&self, kind: IpOptionKind) -> usize {
        self.options.iter().filter(|o| o.kind == kind).count()
    }

    /// Whether the parsed wire form carried non-zero bytes after the
    /// End-of-List marker (see the field documentation on [`IpOptions`]).
    pub fn has_trailing_data(&self) -> bool {
        self.trailing_data
    }

    /// Clear the trailing-data marker (the Packet Sanitizer does this when it
    /// scrubs the options area); returns whether it was set.
    pub fn clear_trailing_data(&mut self) -> bool {
        std::mem::take(&mut self.trailing_data)
    }

    /// Set the trailing-data marker, as parsing a wire form with non-zero
    /// bytes after the End-of-List option would.  Used by the wire decoder
    /// (which parses the options area itself to attribute typed errors) and
    /// by tests constructing the covert-channel shape directly; the flag is
    /// re-emitted by [`IpOptions::write_wire`] so the shape survives an
    /// encode → decode round trip.
    pub fn mark_trailing_data(&mut self) {
        self.trailing_data = true;
    }

    /// Remove every option of `kind`, returning how many were removed.
    pub fn remove(&mut self, kind: IpOptionKind) -> usize {
        let before = self.options.len();
        self.options.retain(|o| o.kind != kind);
        before - self.options.len()
    }

    /// Remove all options (and any trailing-data marker).
    pub fn clear(&mut self) {
        self.options.clear();
        self.trailing_data = false;
    }

    /// Append the options area's wire form to `out`: every option in
    /// order, padded to a 4-byte boundary with No-Ops.  A set
    /// trailing-data flag is written as an End-of-List marker followed by
    /// one non-zero byte ([`TRAILING_DATA_MARKER`]) and zero padding — the
    /// §IV-A4 covert-channel shape, byte-exact — which
    /// [`IpOptions::parse`] turns back into the flag.
    ///
    /// The marker needs an EOL byte plus one trailer inside the 40-byte
    /// area; when fewer than 2 bytes remain the flag is not written
    /// (normalized).  An [`IpOptionKind::EndOfList`] entry mid-list is
    /// written where it stands, so whatever follows it on the wire is
    /// post-EOL data.
    ///
    /// Writes into `out`'s spare capacity: once `out` has held an area as
    /// long, this allocates nothing.
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        let start = out.len();
        for opt in &self.options {
            out.push(opt.kind.type_byte());
            if !matches!(opt.kind, IpOptionKind::EndOfList | IpOptionKind::NoOp) {
                out.push((opt.data.len() + 2) as u8);
                out.extend_from_slice(&opt.data);
            }
        }
        let mut padding = OPT_NOOP;
        if self.writes_marker(out.len() - start) {
            out.extend_from_slice(&[OPT_END_OF_LIST, TRAILING_DATA_MARKER]);
            padding = 0;
        }
        while (out.len() - start) % 4 != 0 {
            out.push(padding);
        }
    }

    /// Whether [`IpOptions::write_wire`] writes the trailing-data marker
    /// after `used` bytes of options: the flag is set and the area has the
    /// 2 bytes the marker takes.
    fn writes_marker(&self, used: usize) -> bool {
        self.trailing_data && used + 2 <= MAX_OPTIONS_LEN
    }

    /// Length of the area [`IpOptions::write_wire`] writes, padding
    /// included.
    pub(crate) fn wire_len(&self) -> usize {
        let used = self.encoded_len();
        let used = if self.writes_marker(used) {
            used + 2
        } else {
            used
        };
        (used + 3) & !3
    }

    /// The options area's wire form (see [`IpOptions::write_wire`]).
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_wire(&mut out);
        out
    }

    /// Parse an options area with the one RFC 791 walker
    /// ([`OptionWalk`]), the walk the frame parser validates with: No-Op
    /// padding is dropped and End-of-List ends the list.
    ///
    /// Bytes after an End-of-List marker are padding and must be zero
    /// (RFC 791); non-zero trailers are preserved as a conformance signal via
    /// [`IpOptions::has_trailing_data`] so the Policy Enforcer and Packet
    /// Sanitizer can treat them as non-conforming rather than silently
    /// letting data ride the options area (paper §IV-A4).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] if the area exceeds 40 bytes, or naming
    /// the walker's [`WireError`] if an option is truncated or its length is
    /// inconsistent.
    pub fn parse(data: &[u8]) -> Result<Self, Error> {
        if data.len() > MAX_OPTIONS_LEN {
            return Err(Error::malformed(
                "ip options",
                "options area exceeds 40 bytes",
            ));
        }
        let malformed = |error: WireError| Error::malformed("ip options", error.tag());
        let mut walk = OptionWalk::new(data);
        let mut options = Vec::new();
        while let Some((type_byte, data)) = walk.next_option().map_err(malformed)? {
            options.push(IpOption {
                kind: IpOptionKind::from_type_byte(type_byte),
                data: data.to_vec(),
            });
        }
        Ok(IpOptions {
            options,
            trailing_data: walk.trailing_data(),
        })
    }
}

impl FromIterator<IpOption> for IpOptions {
    fn from_iter<T: IntoIterator<Item = IpOption>>(iter: T) -> Self {
        IpOptions {
            options: iter.into_iter().collect(),
            trailing_data: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_kind_roundtrip() {
        for kind in [
            IpOptionKind::EndOfList,
            IpOptionKind::NoOp,
            IpOptionKind::Timestamp,
            IpOptionKind::Security,
            IpOptionKind::BorderPatrolContext,
            IpOptionKind::Other(77),
        ] {
            assert_eq!(IpOptionKind::from_type_byte(kind.type_byte()), kind);
        }
    }

    #[test]
    fn options_roundtrip_with_padding() {
        let mut opts = IpOptions::new();
        opts.push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![1, 2, 3, 4, 5]).unwrap())
            .unwrap();
        let bytes = opts.wire_bytes();
        assert_eq!(bytes.len() % 4, 0);
        let parsed = IpOptions::parse(&bytes).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(
            parsed.find(IpOptionKind::BorderPatrolContext).unwrap().data,
            vec![1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn budget_enforced() {
        // A single oversized option is rejected at construction.
        assert!(IpOption::new(IpOptionKind::BorderPatrolContext, vec![0; 39]).is_err());
        // Exactly at budget (38 data + 2 header = 40) is allowed.
        let max = IpOption::new(IpOptionKind::BorderPatrolContext, vec![0; 38]).unwrap();
        let mut opts = IpOptions::new();
        opts.push(max).unwrap();
        assert_eq!(opts.encoded_len(), 40);
        // No room for anything else.
        assert!(opts
            .push(IpOption::new(IpOptionKind::NoOp, vec![]).unwrap())
            .is_err());
    }

    #[test]
    fn cumulative_budget_enforced() {
        let mut opts = IpOptions::new();
        opts.push(IpOption::new(IpOptionKind::Security, vec![0; 18]).unwrap())
            .unwrap();
        opts.push(IpOption::new(IpOptionKind::Timestamp, vec![0; 16]).unwrap())
            .unwrap();
        // 20 + 18 = 38 used; a 4-byte option would exceed 40.
        let overflow = IpOption::new(IpOptionKind::BorderPatrolContext, vec![0; 2]).unwrap();
        assert!(opts.push(overflow).is_err());
    }

    #[test]
    fn remove_strips_only_matching_kind() {
        let mut opts = IpOptions::new();
        opts.push(IpOption::new(IpOptionKind::Timestamp, vec![9]).unwrap())
            .unwrap();
        opts.push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![1, 2]).unwrap())
            .unwrap();
        assert_eq!(opts.remove(IpOptionKind::BorderPatrolContext), 1);
        assert_eq!(opts.len(), 1);
        assert!(opts.find(IpOptionKind::Timestamp).is_some());
        assert_eq!(opts.remove(IpOptionKind::BorderPatrolContext), 0);
    }

    #[test]
    fn parse_rejects_malformed() {
        // Length byte smaller than 2.
        assert!(IpOptions::parse(&[0x9e, 1, 0, 0]).is_err());
        // Length byte pointing past the buffer.
        assert!(IpOptions::parse(&[0x9e, 10, 1]).is_err());
        // Truncated header.
        assert!(IpOptions::parse(&[0x9e]).is_err());
        // Oversized area.
        assert!(IpOptions::parse(&[1u8; 41]).is_err());
    }

    #[test]
    fn parse_stops_at_end_of_list() {
        let bytes = [1, 1, 0, 0x9e];
        let parsed = IpOptions::parse(&bytes).unwrap();
        // NOPs are skipped, EOL stops parsing, but non-zero trailing bytes
        // are surfaced as a conformance violation rather than ignored.
        assert!(parsed.is_empty());
        assert!(parsed.has_trailing_data());
    }

    #[test]
    fn zero_padding_after_end_of_list_is_conforming() {
        let bytes = [1, 0, 0, 0];
        let parsed = IpOptions::parse(&bytes).unwrap();
        assert!(parsed.is_empty());
        assert!(!parsed.has_trailing_data());
    }

    #[test]
    fn trailing_data_flag_clears_and_resets() {
        let mut parsed = IpOptions::parse(&[0, 0xAB, 0xCD, 0]).unwrap();
        assert!(parsed.has_trailing_data());
        assert!(parsed.clear_trailing_data());
        assert!(!parsed.has_trailing_data());
        assert!(!parsed.clear_trailing_data());

        let mut parsed = IpOptions::parse(&[0, 0xAB, 0, 0]).unwrap();
        assert!(parsed.has_trailing_data());
        parsed.clear();
        assert!(!parsed.has_trailing_data());
    }

    #[test]
    fn wire_bytes_round_trips_the_trailing_data_flag() {
        let mut opts = IpOptions::new();
        opts.push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![1, 2, 3]).unwrap())
            .unwrap();
        opts.mark_trailing_data();
        let bytes = opts.wire_bytes();
        assert_eq!(bytes.len() % 4, 0);
        assert!(bytes.contains(&TRAILING_DATA_MARKER));
        let parsed = IpOptions::parse(&bytes).unwrap();
        assert!(parsed.has_trailing_data());
        assert_eq!(parsed, opts);
    }

    #[test]
    fn wire_bytes_without_flag_pads_with_noops() {
        let mut opts = IpOptions::new();
        opts.push(IpOption::new(IpOptionKind::Security, vec![9, 9]).unwrap())
            .unwrap();
        assert_eq!(opts.wire_bytes(), [OPT_SECURITY, 4, 9, 9]);
        opts.push(IpOption::new(IpOptionKind::NoOp, vec![]).unwrap())
            .unwrap();
        assert_eq!(
            opts.wire_bytes(),
            [OPT_SECURITY, 4, 9, 9, OPT_NOOP, 1, 1, 1]
        );
    }

    #[test]
    fn write_wire_appends_and_reuses_the_buffer() {
        let mut opts = IpOptions::new();
        opts.push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![1, 2, 3]).unwrap())
            .unwrap();
        opts.mark_trailing_data();
        let mut out = vec![0xAA];
        opts.write_wire(&mut out);
        assert_eq!(out[0], 0xAA);
        assert_eq!(out[1..], opts.wire_bytes());
        assert_eq!(out.len() - 1, opts.wire_len());
        let capacity = out.capacity();
        out.clear();
        opts.write_wire(&mut out);
        assert_eq!(out, opts.wire_bytes());
        assert_eq!(out.capacity(), capacity, "a warm buffer does not grow");
    }

    #[test]
    fn mid_list_end_of_list_turns_what_follows_into_trailing_data() {
        let mut opts = IpOptions::new();
        opts.push(IpOption::new(IpOptionKind::EndOfList, vec![]).unwrap())
            .unwrap();
        opts.push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![7]).unwrap())
            .unwrap();
        let parsed = IpOptions::parse(&opts.wire_bytes()).unwrap();
        assert!(parsed.is_empty());
        assert!(parsed.has_trailing_data());
    }

    #[test]
    fn wire_bytes_normalizes_when_no_room_for_the_marker() {
        let mut opts = IpOptions::new();
        opts.push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![0; 38]).unwrap())
            .unwrap();
        opts.mark_trailing_data();
        // 40 bytes used: no room for EOL + marker, so the flag normalizes.
        let parsed = IpOptions::parse(&opts.wire_bytes()).unwrap();
        assert!(!parsed.has_trailing_data());
    }

    #[test]
    fn count_tallies_options_of_one_kind() {
        let mut opts = IpOptions::new();
        assert_eq!(opts.count(IpOptionKind::BorderPatrolContext), 0);
        opts.push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![1, 2]).unwrap())
            .unwrap();
        opts.push(IpOption::new(IpOptionKind::Timestamp, vec![0; 4]).unwrap())
            .unwrap();
        opts.push(IpOption::new(IpOptionKind::BorderPatrolContext, vec![3]).unwrap())
            .unwrap();
        assert_eq!(opts.count(IpOptionKind::BorderPatrolContext), 2);
        assert_eq!(opts.count(IpOptionKind::Timestamp), 1);
        assert_eq!(opts.count(IpOptionKind::Security), 0);
    }

    #[test]
    fn empty_options_serialize_to_nothing() {
        let opts = IpOptions::new();
        assert!(opts.wire_bytes().is_empty());
        assert_eq!(opts.padded_len(), 0);
        assert_eq!(IpOptions::parse(&[]).unwrap(), opts);
    }
}
