//! Bit-exact Packet Re-cycling header field.
//!
//! The paper's whole pitch is header frugality (§6): one **PR bit**
//! selecting the forwarding mode, plus **DD bits** carrying the
//! distance discriminator stamped at the failure point — about
//! `log2(d)` bits for a hop-count discriminator on a network of
//! diameter `d`. It suggests carrying them in pool 2 of the DSCP field
//! (the `xxxx11` experimental/local-use codepoints of RFC 2474), which
//! leaves four assignable bits per packet.
//!
//! This module implements the field exactly: [`HeaderCodec`] packs a
//! [`PrHeader`] into the minimal number of whole bytes (PR bit first,
//! then the DD value MSB-first) and unpacks it again, so overhead
//! accounting in the experiments is measured on real encoded bits, not
//! estimated.

use serde::{Deserialize, Serialize};

/// The in-packet PR state: the PR bit and the distance-discriminator
/// value (meaningful only while the PR bit is set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrHeader {
    /// `true` while the packet is in cycle-following mode (§4.2).
    pub pr: bool,
    /// Distance discriminator stamped by the router that started the
    /// current cycle-following episode (§4.3). Zero in basic mode.
    pub dd: u64,
}

/// Errors from header encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// The DD value does not fit the configured field width.
    DdOverflow {
        /// The value that was too large.
        dd: u64,
        /// Configured field width in bits.
        bits: u8,
    },
    /// The byte buffer is shorter than the encoded field.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::DdOverflow { dd, bits } => {
                write!(f, "distance discriminator {dd} does not fit in {bits} DD bits")
            }
            HeaderError::Truncated { needed, got } => {
                write!(f, "header truncated: need {needed} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for HeaderError {}

/// An encoded PR header field: the whole bytes [`HeaderCodec::encode`]
/// packed, held inline (the widest field, 1 + 64 bits, is nine bytes)
/// and read as a byte slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedHeader {
    bytes: [u8; EncodedHeader::CAPACITY],
    len: u8,
}

impl EncodedHeader {
    /// Bytes of the widest field: ⌈(1 + 64) / 8⌉.
    const CAPACITY: usize = 9;
}

impl std::ops::Deref for EncodedHeader {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// Encoder/decoder for the PR header field at a fixed DD width.
///
/// The width is a network-wide constant chosen at table-compilation
/// time from the worst-case discriminator value (see
/// [`HeaderCodec::for_max_dd`]), exactly as the paper sizes its field
/// from the network diameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeaderCodec {
    dd_bits: u8,
}

impl HeaderCodec {
    /// Number of assignable information bits when tunnelling the field
    /// through DSCP pool 2 (`xxxx11` codepoints leave 4 free bits).
    pub const DSCP_POOL2_BITS: u8 = 4;

    /// A codec with an explicit DD field width (0–64 bits).
    pub fn new(dd_bits: u8) -> HeaderCodec {
        assert!(dd_bits <= 64, "DD field cannot exceed 64 bits");
        HeaderCodec { dd_bits }
    }

    /// The minimal codec able to carry discriminators up to `max_dd` —
    /// `ceil(log2(max_dd + 1))` bits, the paper's `log2(d)` sizing rule
    /// generalised to any discriminator function.
    pub fn for_max_dd(max_dd: u64) -> HeaderCodec {
        let bits = 64 - max_dd.leading_zeros() as u8;
        HeaderCodec { dd_bits: bits }
    }

    /// Width of the DD field in bits.
    pub fn dd_bits(self) -> u8 {
        self.dd_bits
    }

    /// Total field width in bits (PR bit + DD bits).
    pub fn total_bits(self) -> u8 {
        1 + self.dd_bits
    }

    /// Encoded size in whole bytes.
    pub fn encoded_len(self) -> usize {
        (usize::from(self.total_bits())).div_ceil(8)
    }

    /// `true` if the whole field fits in the four assignable bits of
    /// DSCP pool 2, the deployment vehicle §6 suggests.
    pub fn fits_in_dscp_pool2(self) -> bool {
        self.total_bits() <= Self::DSCP_POOL2_BITS
    }

    /// Packs `header` into bytes: PR bit first (MSB of the first byte),
    /// then the DD value MSB-first, then zero padding to a byte
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`HeaderError::DdOverflow`] if `header.dd` needs more than
    /// [`dd_bits`](Self::dd_bits) bits.
    pub fn encode(self, header: PrHeader) -> Result<EncodedHeader, HeaderError> {
        if self.dd_bits < 64 && header.dd >> self.dd_bits != 0 {
            return Err(HeaderError::DdOverflow { dd: header.dd, bits: self.dd_bits });
        }
        // Assemble into a u128 bit accumulator: PR in the top bit, DD
        // right below it, then shift left so the field is MSB-aligned.
        let total = u32::from(self.total_bits());
        let mut acc: u128 = 0;
        if header.pr {
            acc |= 1;
        }
        acc = (acc << self.dd_bits) | u128::from(header.dd);
        let pad = self.encoded_len() as u32 * 8 - total;
        acc <<= pad;
        let len = self.encoded_len();
        let mut bytes = [0; EncodedHeader::CAPACITY];
        for (byte, i) in bytes.iter_mut().zip((0..len).rev()) {
            *byte = (acc >> (i * 8)) as u8;
        }
        Ok(EncodedHeader { bytes, len: len as u8 })
    }

    /// Unpacks a header previously produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`HeaderError::Truncated`] if `bytes` is shorter than
    /// [`encoded_len`](Self::encoded_len).
    pub fn decode(self, bytes: &[u8]) -> Result<PrHeader, HeaderError> {
        let needed = self.encoded_len();
        if bytes.len() < needed {
            return Err(HeaderError::Truncated { needed, got: bytes.len() });
        }
        let mut acc: u128 = 0;
        for &b in &bytes[..needed] {
            acc = (acc << 8) | u128::from(b);
        }
        let total = u32::from(self.total_bits());
        let pad = needed as u32 * 8 - total;
        acc >>= pad;
        let dd_mask: u128 = if self.dd_bits == 0 { 0 } else { (1u128 << self.dd_bits) - 1 };
        let dd = (acc & dd_mask) as u64;
        let pr = (acc >> self.dd_bits) & 1 == 1;
        Ok(PrHeader { pr, dd })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_rule_matches_paper() {
        // Hop diameter 5 (Abilene-like): discriminators 0..=5 need 3
        // bits; with the PR bit the field is 4 bits — exactly DSCP
        // pool 2 capacity.
        let codec = HeaderCodec::for_max_dd(5);
        assert_eq!(codec.dd_bits(), 3);
        assert_eq!(codec.total_bits(), 4);
        assert!(codec.fits_in_dscp_pool2());
        // Diameter 8 needs 4 DD bits: one bit over pool 2.
        let codec = HeaderCodec::for_max_dd(8);
        assert_eq!(codec.dd_bits(), 4);
        assert!(!codec.fits_in_dscp_pool2());
    }

    #[test]
    fn zero_max_dd_needs_no_dd_bits() {
        let codec = HeaderCodec::for_max_dd(0);
        assert_eq!(codec.dd_bits(), 0);
        assert_eq!(codec.total_bits(), 1);
        let bytes = codec.encode(PrHeader { pr: true, dd: 0 }).unwrap();
        assert_eq!(bytes.len(), 1);
        assert_eq!(codec.decode(&bytes).unwrap(), PrHeader { pr: true, dd: 0 });
    }

    #[test]
    fn roundtrip_all_values_small_field() {
        let codec = HeaderCodec::new(5);
        for pr in [false, true] {
            for dd in 0..32u64 {
                let h = PrHeader { pr, dd };
                let bytes = codec.encode(h).unwrap();
                assert_eq!(bytes.len(), 1);
                assert_eq!(codec.decode(&bytes).unwrap(), h);
            }
        }
    }

    #[test]
    fn overflow_detected() {
        let codec = HeaderCodec::new(3);
        assert_eq!(
            codec.encode(PrHeader { pr: false, dd: 8 }),
            Err(HeaderError::DdOverflow { dd: 8, bits: 3 })
        );
        assert!(codec.encode(PrHeader { pr: true, dd: 7 }).is_ok());
    }

    #[test]
    fn truncation_detected() {
        let codec = HeaderCodec::new(20);
        assert_eq!(codec.encoded_len(), 3);
        let bytes = codec.encode(PrHeader { pr: true, dd: 0xABCDE & 0xFFFFF }).unwrap();
        assert_eq!(codec.decode(&bytes[..2]), Err(HeaderError::Truncated { needed: 3, got: 2 }));
    }

    #[test]
    fn pr_bit_is_msb_of_first_byte() {
        let codec = HeaderCodec::new(3);
        let set = codec.encode(PrHeader { pr: true, dd: 0 }).unwrap();
        let clear = codec.encode(PrHeader { pr: false, dd: 0 }).unwrap();
        assert_eq!(set[0] & 0x80, 0x80);
        assert_eq!(clear[0] & 0x80, 0x00);
    }

    #[test]
    fn encoding_is_msb_first_and_padded() {
        // pr=1, dd=0b101 with 3 dd bits → bits 1101 then 4 zero pad →
        // 0b1101_0000.
        let codec = HeaderCodec::new(3);
        let bytes = codec.encode(PrHeader { pr: true, dd: 0b101 }).unwrap();
        assert_eq!(bytes.as_ref(), &[0b1101_0000]);
    }

    #[test]
    fn wide_field_roundtrip() {
        let codec = HeaderCodec::new(33);
        assert_eq!(codec.encoded_len(), 5);
        for dd in [0u64, 1, (1 << 33) - 1, 0x1_2345_6789 & ((1 << 33) - 1)] {
            for pr in [false, true] {
                let h = PrHeader { pr, dd };
                let bytes = codec.encode(h).unwrap();
                assert_eq!(codec.decode(&bytes).unwrap(), h);
            }
        }
    }

    #[test]
    fn error_display() {
        let e = HeaderError::DdOverflow { dd: 9, bits: 3 };
        assert!(e.to_string().contains("9"));
        let e = HeaderError::Truncated { needed: 2, got: 1 };
        assert!(e.to_string().contains("truncated"));
    }
}
