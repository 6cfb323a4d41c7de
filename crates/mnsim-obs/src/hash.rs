//! 64-bit FNV-1a, the one hash behind every persisted fingerprint: campaign
//! and cache keys hash canonical description strings byte by byte, and the
//! circuit fingerprints mix whole `u64` words. Both are stable across
//! platforms and builds (pure arithmetic), unlike `std`'s hasher, so
//! checkpoints and caches keyed by them survive a rebuild.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a state. One mixing step XORs a value into the state and
/// multiplies by the FNV prime; [`Fnv64::bytes`] takes one step per byte,
/// [`Fnv64::word`] one step per whole `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv64(OFFSET)
    }

    /// Mixes each byte of `bytes`.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.word(u64::from(byte));
        }
        self
    }

    /// Mixes `word` in one step.
    #[inline]
    pub fn word(&mut self, word: u64) -> &mut Self {
        self.0 = (self.0 ^ word).wrapping_mul(PRIME);
        self
    }

    /// The hash of everything mixed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// 64-bit FNV-1a over `bytes`.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::new().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_byte_is_one_word_step() {
        let by_bytes = Fnv64::new().bytes(b"ab").finish();
        let by_words = Fnv64::new()
            .word(u64::from(b'a'))
            .word(u64::from(b'b'))
            .finish();
        assert_eq!(by_bytes, by_words);
    }
}
