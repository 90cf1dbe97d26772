//! The one FNV-1a (64-bit) encoder behind every cache key in the suite:
//! option fingerprints, the network content hash, sparsity pattern
//! fingerprints and the composite solver-cache parameters.
//!
//! Two ways to feed it, chosen by the shape of the stream:
//!
//! - **Fixed-width streams** — a known sequence of scalars, e.g. the
//!   fields of an options struct or of the network model, the index
//!   arrays of a CSR pattern — use the raw writers [`Fnv1a::bytes`] /
//!   [`Fnv1a::u64`]. Every value occupies a fixed number of bytes at a
//!   fixed position, so distinct field tuples can only collide through
//!   the hash itself.
//! - **Variable-width streams** — names, encoded scenario sets — use
//!   [`Fnv1a::field`], which prefixes the bytes with their length so two
//!   adjacent fields can never trade bytes across their boundary
//!   (`["ab","c"]` vs `["a","bc"]`).
//!
//! The writers are `#[inline]`: the sparse pattern fingerprints sit on
//! the factorize hot path.

/// Incremental FNV-1a hasher over a canonical byte stream.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Feeds raw bytes, no framing.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds one fixed-width scalar as its 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Feeds one variable-width field: a 4-byte little-endian length
    /// prefix, then the bytes.
    #[inline]
    pub fn field(&mut self, bytes: &[u8]) {
        self.bytes(&(bytes.len() as u32).to_le_bytes());
        self.bytes(bytes);
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(bytes);
        h.finish()
    }

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn scalars_and_fields_are_their_documented_byte_streams() {
        let mut h = Fnv1a::new();
        h.u64(0x0102_0304_0506_0708);
        h.field(b"ab");
        assert_eq!(
            h.finish(),
            of(&[8, 7, 6, 5, 4, 3, 2, 1, 2, 0, 0, 0, b'a', b'b'])
        );
    }
}
