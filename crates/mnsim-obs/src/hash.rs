//! 64-bit FNV-1a, the one hash behind every persisted fingerprint:
//! campaign, sweep and cache keys hash canonical description strings byte
//! by byte. It is stable across platforms and builds (pure arithmetic),
//! unlike `std`'s hasher, so checkpoints and caches keyed by it survive a
//! rebuild.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(OFFSET, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(PRIME)
    })
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
}
