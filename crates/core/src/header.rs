//! The Packet Re-cycling header field and its width.
//!
//! The paper's whole pitch is header frugality (§6): one **PR bit**
//! selecting the forwarding mode, plus **DD bits** carrying the
//! distance discriminator stamped at the failure point — about
//! `log2(d)` bits for a hop-count discriminator on a network of
//! diameter `d`. It suggests carrying them in pool 2 of the DSCP field
//! (the `xxxx11` experimental/local-use codepoints of RFC 2474), which
//! leaves four assignable bits per packet.
//!
//! [`HeaderCodec`] sizes the field: the PR bit plus the fewest DD bits
//! that carry the worst-case discriminator, the width the overhead
//! accounting of the experiments and the claims ledger's header rows
//! read. No product path puts a header on a wire, so nothing here
//! packs one into bytes.

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

/// The width of the PR header field: the PR bit and a fixed number of
/// DD bits.
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

    /// `true` if the whole field fits in the four assignable bits of
    /// DSCP pool 2, the deployment vehicle §6 suggests.
    pub fn fits_in_dscp_pool2(self) -> bool {
        self.total_bits() <= Self::DSCP_POOL2_BITS
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
    }
}
