//! MD5 digest and the truncated application tag used in packet headers.
//!
//! The BorderPatrol Offline Analyzer keys its per-application method-signature
//! tables by the MD5 digest of the apk file, and the Context Manager embeds a
//! *truncated* 8-byte prefix of that digest into the `IP_OPTIONS` field so the
//! Policy Enforcer can select the right table.  This module provides a small,
//! dependency-free MD5 implementation ([`md5_digest`]), the full digest newtype
//! [`ApkHash`] and the truncated [`AppTag`].

use std::fmt;

use serde::{Deserialize, Serialize};

/// Number of bytes of the MD5 digest carried on the wire (paper §VII,
/// "Hash collision": an 8-byte truncated hash).
pub const APP_TAG_LEN: usize = 8;

/// Full 16-byte MD5 digest of an application package.
///
/// # Examples
///
/// ```
/// use bp_types::ApkHash;
/// let h = ApkHash::digest(b"com.dropbox.android-1.0.apk");
/// assert_eq!(h.to_hex().len(), 32);
/// assert_eq!(h, ApkHash::from_hex(&h.to_hex()).unwrap());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ApkHash([u8; 16]);

impl ApkHash {
    /// Compute the MD5 digest of `data`.
    pub fn digest(data: &[u8]) -> Self {
        ApkHash(md5_digest(data))
    }

    /// Construct from raw digest bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        ApkHash(bytes)
    }

    /// Borrow the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// The truncated 8-byte tag that travels inside `IP_OPTIONS`.
    pub fn tag(&self) -> AppTag {
        let mut t = [0u8; APP_TAG_LEN];
        t.copy_from_slice(&self.0[..APP_TAG_LEN]);
        AppTag(t)
    }

    /// Render as a lowercase hexadecimal string (32 characters).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Parse from a 32-character hexadecimal string.
    ///
    /// # Errors
    ///
    /// Returns `None` if the input is not exactly 32 hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        from_hex(s).map(ApkHash)
    }
}

impl fmt::Debug for ApkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ApkHash({})", self.to_hex())
    }
}

impl fmt::Display for ApkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Truncated (8-byte) application identifier embedded in packet headers.
///
/// # Examples
///
/// ```
/// use bp_types::ApkHash;
/// let tag = ApkHash::digest(b"sample").tag();
/// assert_eq!(tag.as_bytes().len(), 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AppTag([u8; APP_TAG_LEN]);

impl AppTag {
    /// Construct from raw bytes.
    pub fn from_bytes(bytes: [u8; APP_TAG_LEN]) -> Self {
        AppTag(bytes)
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8; APP_TAG_LEN] {
        &self.0
    }

    /// The tag as a big-endian `u64` — the key the compiled enforcement
    /// tables index by, avoiding hex-string rendering on the packet path.
    pub fn as_u64(&self) -> u64 {
        u64::from_be_bytes(self.0)
    }

    /// Reconstruct a tag from its big-endian `u64` form.
    pub fn from_u64(raw: u64) -> Self {
        AppTag(raw.to_be_bytes())
    }

    /// Render as a lowercase hexadecimal string (16 characters).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Parse from a 16-character hexadecimal string.
    pub fn from_hex(s: &str) -> Option<Self> {
        from_hex(s).map(AppTag)
    }
}

impl fmt::Debug for AppTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AppTag({})", self.to_hex())
    }
}

impl fmt::Display for AppTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<ApkHash> for AppTag {
    fn from(value: ApkHash) -> Self {
        value.tag()
    }
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble in range"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble in range"));
    }
    s
}

/// The value of every ASCII hex digit (either case); `0xff` for every other
/// byte.
const HEX_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        table[b"0123456789ABCDEF"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Decode exactly `2 * N` hex digits (either case) into `N` bytes, in place:
/// any other length, or any byte that is not an ASCII hex digit, is `None`.
fn from_hex<const N: usize>(s: &str) -> Option<[u8; N]> {
    let digits = s.as_bytes();
    if digits.len() != 2 * N {
        return None;
    }
    let mut out = [0u8; N];
    // A non-digit's `0xff` survives into `invalid`'s high nibble.
    let mut invalid = 0u8;
    for (byte, pair) in out.iter_mut().zip(digits.chunks_exact(2)) {
        let (high, low) = (HEX_VALUE[pair[0] as usize], HEX_VALUE[pair[1] as usize]);
        invalid |= high | low;
        *byte = (high << 4) | low;
    }
    (invalid < 0x10).then_some(out)
}

// ---------------------------------------------------------------------------
// MD5 (RFC 1321) implementation
// ---------------------------------------------------------------------------

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Compute the MD5 digest of `data`, returning the raw 16-byte digest.
///
/// This is a compact, self-contained implementation of RFC 1321 used only for
/// application-package identification (not for any security purpose), mirroring
/// the paper's use of the apk md5 as a database key.
pub fn md5_digest(data: &[u8]) -> [u8; 16] {
    let mut a0: u32 = 0x67452301;
    let mut b0: u32 = 0xefcdab89;
    let mut c0: u32 = 0x98badcfe;
    let mut d0: u32 = 0x10325476;

    // Padding: append 0x80, then zeros, then the 64-bit little-endian bit length.
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_le_bytes());

    for chunk in msg.chunks_exact(64) {
        let mut m = [0u32; 16];
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        }
        let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
        for i in 0..64 {
            let (f, g) = match i {
                0..=15 => ((b & c) | (!b & d), i),
                16..=31 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let f = f.wrapping_add(a).wrapping_add(K[i]).wrapping_add(m[g]);
            a = d;
            d = c;
            c = b;
            b = b.wrapping_add(f.rotate_left(S[i]));
        }
        a0 = a0.wrapping_add(a);
        b0 = b0.wrapping_add(b);
        c0 = c0.wrapping_add(c);
        d0 = d0.wrapping_add(d);
    }

    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&a0.to_le_bytes());
    out[4..8].copy_from_slice(&b0.to_le_bytes());
    out[8..12].copy_from_slice(&c0.to_le_bytes());
    out[12..16].copy_from_slice(&d0.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        to_hex(&md5_digest(data))
    }

    #[test]
    fn rfc1321_test_vectors() {
        assert_eq!(hex(b""), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hex(b"a"), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(hex(b"abc"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(hex(b"message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
        assert_eq!(
            hex(b"abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            hex(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            hex(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            ),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    #[test]
    fn digest_around_block_boundaries() {
        // Padding edge cases: lengths 55, 56, 57, 63, 64, 65 bytes.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 121] {
            let data = vec![0xabu8; len];
            let d = md5_digest(&data);
            // Deterministic and 16 bytes; recompute to ensure purity.
            assert_eq!(d, md5_digest(&data), "len {len}");
        }
    }

    #[test]
    fn apk_hash_roundtrip_hex() {
        let h = ApkHash::digest(b"com.box.android");
        let parsed = ApkHash::from_hex(&h.to_hex()).unwrap();
        assert_eq!(h, parsed);
        assert_eq!(format!("{h}"), h.to_hex());
    }

    #[test]
    fn apk_hash_rejects_bad_hex() {
        assert!(ApkHash::from_hex("zz").is_none());
        assert!(ApkHash::from_hex("abcd").is_none());
        assert!(ApkHash::from_hex(&"a".repeat(33)).is_none());
        assert!(AppTag::from_hex("0011223344556677").is_some());
        assert!(AppTag::from_hex("001122334455667").is_none(), "odd length");
        assert!(AppTag::from_hex("00112233445566778").is_none());
        assert!(AppTag::from_hex("00112233445566g7").is_none());
        // Two-byte characters: 16 bytes, but not 16 hex digits.
        assert!(AppTag::from_hex("éé112233445566").is_none());
        assert_eq!(
            AppTag::from_hex("DA6880AB1F991974"),
            AppTag::from_hex("da6880ab1f991974")
        );
    }

    #[test]
    fn tag_is_prefix_of_hash() {
        let h = ApkHash::digest(b"net.daum.android.solcalendar");
        let tag = h.tag();
        assert_eq!(&h.as_bytes()[..8], tag.as_bytes());
        assert_eq!(tag, AppTag::from(h));
        assert_eq!(AppTag::from_hex(&tag.to_hex()), Some(tag));
    }

    #[test]
    fn distinct_inputs_distinct_tags() {
        let a = ApkHash::digest(b"app-a").tag();
        let b = ApkHash::digest(b"app-b").tag();
        assert_ne!(a, b);
    }

    #[test]
    fn tag_u64_roundtrip_preserves_identity_and_order_of_bytes() {
        let tag = ApkHash::digest(b"com.dropbox.android").tag();
        assert_eq!(AppTag::from_u64(tag.as_u64()), tag);
        assert_eq!(AppTag::from_u64(tag.as_u64()).to_hex(), tag.to_hex());
        assert_ne!(tag.as_u64(), ApkHash::digest(b"other").tag().as_u64());
    }

    #[test]
    fn debug_contains_hex() {
        let h = ApkHash::digest(b"x");
        assert!(format!("{h:?}").contains(&h.to_hex()));
        let t = h.tag();
        assert!(format!("{t:?}").contains(&t.to_hex()));
    }
}
