//! Wire-level vocabulary: IP option type bytes and the typed decode errors
//! of the byte ingress boundary.
//!
//! A deployed Policy Enforcer sits on an NFQUEUE and sees raw IPv4 frames,
//! not in-repo packet structs.  The shapes a frame can arrive in — which
//! option type byte carries the BorderPatrol context, what the options
//! budget is, and every way a frame can fail to decode — are shared
//! vocabulary between the packet simulator (`bp-netsim`), the codec and
//! enforcement plane (`bp-core`) and the test corpus, so they live here.
//!
//! [`WireError`] is deliberately a closed, typed enum rather than a string:
//! the enforcement plane's fail-closed contract is that **every** malformed
//! frame produces a drop verdict with an attributable reason, and the
//! malformed-bytes corpus pins each fixture to one exact variant.

use std::fmt;

/// On-wire type byte of the End-of-Options-List marker (RFC 791).
pub const OPT_END_OF_LIST: u8 = 0;

/// On-wire type byte of the No-Operation padding option (RFC 791).
pub const OPT_NOOP: u8 = 1;

/// On-wire type byte of the Internet timestamp option.
pub const OPT_TIMESTAMP: u8 = 68;

/// On-wire type byte of the RFC 1108 basic security option — the option
/// *class* the paper's hardened kernel permits user space to set.
pub const OPT_SECURITY: u8 = 130;

/// On-wire type byte of the BorderPatrol context option (copied-flag set,
/// option class 0, experimental number 30).
pub const OPT_BP_CONTEXT: u8 = 0x9e;

/// Maximum total size of the IPv4 options area in bytes (RFC 791).
pub const MAX_OPTIONS_AREA: usize = 40;

/// RFC 1071 ones-complement checksum over `bytes` as they appear on the
/// wire.  A header with a correct embedded checksum field sums to zero; a
/// header whose checksum field is zero sums to the value that belongs there.
///
/// The one checksum of the workspace: the encoder in `bp-netsim` writes it,
/// the frame parser in `bp-core::wire` verifies it, and tampering tests and
/// fixture generators forge or repair it.  `#[inline]` so the parser, one
/// crate over, keeps it in its per-frame loop.
#[inline]
pub fn rfc1071_checksum(bytes: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = bytes.chunks_exact(2);
    for pair in &mut chunks {
        sum += u32::from(u16::from_be_bytes([pair[0], pair[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Why a byte frame failed to decode into a packet.
///
/// Produced by the zero-copy wire decoder in `bp-core::wire`; every variant
/// turns into a fail-closed drop verdict charged to the enforcer's
/// `dropped_wire` counter.  The discriminants are ordered by where in the
/// frame the defect sits (outer header first, options area last).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireError {
    /// The frame is shorter than the minimum IPv4 header plus the
    /// abbreviated 4-byte transport header.
    TruncatedHeader,
    /// The version nibble is not 4.
    BadVersion,
    /// The IHL field encodes a header shorter than 20 or longer than 60
    /// bytes.
    BadIhl,
    /// The frame ends before the header length (plus transport ports) the
    /// IHL field promises.
    TruncatedFrame,
    /// The RFC 791 ones-complement header checksum does not verify.
    BadChecksum,
    /// The protocol field carries a number the enforcement plane does not
    /// model (only TCP and UDP exist on the testbed).
    UnknownProtocol,
    /// An option's type byte is the last byte of the header: its mandatory
    /// length byte is missing.
    OptionTruncated,
    /// An option carries a length below the 2-byte minimum (a zero- or
    /// one-length option encodes an infinite loop for naive parsers).
    BadOptionLength,
    /// An option's length byte points past the end of the options area.
    OptionOverrun,
    /// The total-length field disagrees with the actual frame length.
    LengthMismatch,
}

impl WireError {
    /// Every variant, in frame order — the malformed-bytes corpus iterates
    /// this to prove each one is attributable.
    pub const ALL: [WireError; 10] = [
        WireError::TruncatedHeader,
        WireError::BadVersion,
        WireError::BadIhl,
        WireError::TruncatedFrame,
        WireError::BadChecksum,
        WireError::UnknownProtocol,
        WireError::OptionTruncated,
        WireError::BadOptionLength,
        WireError::OptionOverrun,
        WireError::LengthMismatch,
    ];

    /// This variant's position in [`WireError::ALL`] — the stable index the
    /// enforcer's per-variant wire-drop counters and the telemetry snapshot
    /// layout are keyed by.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable tag (used in drop reasons and corpus
    /// fixture names).
    pub fn tag(self) -> &'static str {
        match self {
            WireError::TruncatedHeader => "truncated-header",
            WireError::BadVersion => "bad-version",
            WireError::BadIhl => "bad-ihl",
            WireError::TruncatedFrame => "truncated-frame",
            WireError::BadChecksum => "bad-checksum",
            WireError::UnknownProtocol => "unknown-protocol",
            WireError::OptionTruncated => "option-truncated",
            WireError::BadOptionLength => "bad-option-length",
            WireError::OptionOverrun => "option-overrun",
            WireError::LengthMismatch => "length-mismatch",
        }
    }

    /// The drop-log reason for a frame rejected with this error.  `'static`
    /// so logging a wire drop never allocates.
    pub fn drop_reason(self) -> &'static str {
        match self {
            WireError::TruncatedHeader => {
                "wire: truncated-header — frame shorter than minimum header"
            }
            WireError::BadVersion => "wire: bad-version — version nibble is not 4",
            WireError::BadIhl => "wire: bad-ihl — header length outside 20..=60 bytes",
            WireError::TruncatedFrame => {
                "wire: truncated-frame — frame ends before promised header"
            }
            WireError::BadChecksum => "wire: bad-checksum — header checksum mismatch",
            WireError::UnknownProtocol => "wire: unknown-protocol — protocol number not modeled",
            WireError::OptionTruncated => "wire: option-truncated — option missing its length byte",
            WireError::BadOptionLength => "wire: bad-option-length — option length below 2",
            WireError::OptionOverrun => "wire: option-overrun — option length exceeds header",
            WireError::LengthMismatch => {
                "wire: length-mismatch — total-length field disagrees with frame"
            }
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_reasons_carry_them() {
        let mut seen = std::collections::HashSet::new();
        for err in WireError::ALL {
            assert!(seen.insert(err.tag()), "duplicate tag {}", err.tag());
            assert!(
                err.drop_reason().contains(err.tag()),
                "drop reason for {err} must embed its tag for log attribution"
            );
            assert!(err.drop_reason().starts_with("wire: "));
        }
        assert_eq!(seen.len(), WireError::ALL.len());
    }

    #[test]
    fn display_matches_tag() {
        assert_eq!(WireError::BadChecksum.to_string(), "bad-checksum");
    }

    #[test]
    fn index_agrees_with_all_order() {
        for (position, err) in WireError::ALL.iter().enumerate() {
            assert_eq!(err.index(), position, "{err}");
        }
    }

    #[test]
    fn option_constants_match_rfc791() {
        assert_eq!(OPT_END_OF_LIST, 0);
        assert_eq!(OPT_NOOP, 1);
        assert_eq!(OPT_BP_CONTEXT, 0x9e);
        assert_eq!(MAX_OPTIONS_AREA, 40);
    }
}
