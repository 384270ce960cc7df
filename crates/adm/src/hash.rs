//! The two deterministic hashes every seeded decision in the workspace is
//! derived from — fault and latency draws, drift, audit sampling, request
//! ids, quarantine fingerprints: FNV-1a over bytes, and the splitmix64
//! finaliser. Neither reads a per-process random state, so a seeded run
//! repeats bit for bit.

/// FNV-1a (64-bit) over `bytes`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The splitmix64 finaliser: a bijective 64-bit mix with full avalanche.
/// The input is the caller's own: most add splitmix64's golden-ratio
/// increment `0x9e37_79b9_7f4a_7c15` first, as its generator step does.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_published_values() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325, "the offset basis");
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar".bytes()), 0x8594_4171_f739_67e8);
        // splitmix64's first output from seed 0.
        assert_eq!(mix64(0x9e37_79b9_7f4a_7c15), 0xe220_a839_7b1d_cdaf);
    }
}
