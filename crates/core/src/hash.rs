//! The workspace's fixed hash and mixing primitives.
//!
//! Every fingerprint (sub-model cache keys, serve domains, checkpoint WAL
//! identities, generated campaign seeds) folds bytes with [`fnv1a`], and
//! every identity-derived seed or draw stream mixes with SplitMix64
//! ([`mix64`], [`splitmix64`]). Both are fixed forever: changing either
//! would silently change result bytes and orphan existing checkpoints.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds `bytes` into an FNV-1a running state (start from [`FNV_OFFSET`]).
#[must_use]
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// SplitMix64 increment (the "golden gamma").
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step from state `z`: [`mix64`] of `z + GOLDEN_GAMMA`.
#[must_use]
pub fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding is incremental: split input hashes like whole input.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn splitmix64_known_vector() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
