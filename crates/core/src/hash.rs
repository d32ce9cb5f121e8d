//! The one FNV-1a: the 64-bit hash behind every deterministic table index,
//! fingerprint and trace signature in the workspace.
//!
//! `std`'s default hasher is randomly keyed per process; seeded runs must
//! be bit-identical, so anything that hashes simulated state uses this
//! instead. Not collision-resistant against crafted input — use it for
//! state the simulator itself produced.

use std::hash::Hasher;

/// Streaming 64-bit FNV-1a; starts at the offset basis.
#[derive(Debug, Clone)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The FNV-1a 64-bit offset basis: the hash of no bytes.
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
}

impl Default for Fnv1a64 {
    fn default() -> Fnv1a64 {
        Fnv1a64(Fnv1a64::OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over a byte slice.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a test vectors, and streaming equals one-shot.
    #[test]
    fn matches_reference_vectors_and_streams() {
        assert_eq!(fnv1a64(b""), Fnv1a64::OFFSET_BASIS);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a64::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}
