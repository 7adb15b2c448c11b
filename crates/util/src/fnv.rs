//! FNV-1a 64-bit hashing.
//!
//! A stable content hash for program digests and pinned test digests.
//! FNV-1a is tiny and has no seed or platform dependence (unlike
//! `std`'s `DefaultHasher`, whose output is explicitly unstable across
//! releases), so a digest pinned in a test stays valid.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher in its initial state (the FNV offset basis).
    #[must_use]
    pub fn new() -> Self {
        Fnv1a {
            state: OFFSET_BASIS,
        }
    }

    /// Absorbs bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// One-shot convenience.
    #[must_use]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(Fnv1a::hash(b""), 0xcbf29ce484222325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv1a::hash(b"foobar"));
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        assert_ne!(Fnv1a::hash(b"cell-1"), Fnv1a::hash(b"cell-2"));
    }
}
