//! Checksums for page and log-record integrity.
//!
//! A cryptographic hash would be overkill: the threat model is torn or
//! stale simulated I/O, not an adversary. [`fnv1a`] (byte-serial) seals the
//! `[len][fnv1a]` frame header of the WAL, the work journal and the acceptor
//! log — payloads ≤ 100 bytes, bytes on disk under `--wal-dir`. `page_sum`
//! (word-wise, four independent lanes) seals 4 KB page images, where
//! FNV-1a's 4 072 dependent multiplies were most of a buffer-pool miss.
//! Both are allocation-free and dependency-free.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Compute the 64-bit FNV-1a checksum of `data`.
#[inline]
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

const LANES: usize = 4;
/// Odd multipliers (splitmix64 / xxhash constants) and distinct seeds: a
/// lane step `h ← rotl((h ^ w) · M, 29)` is a bijection of `h` for a fixed
/// word and of the word for a fixed `h`, so one changed word always
/// changes its lane, and the order of words within a lane matters.
const LANE_SEED: [u64; LANES] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xc2b2_ae3d_27d4_eb4f,
];
const LANE_MUL: u64 = 0x9e37_79b1_85eb_ca87;

#[inline(always)]
fn lane_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(LANE_MUL).rotate_left(29)
}

/// Checksum of a page body: little-endian 8-byte words dealt round-robin
/// onto four lanes that advance independently (the multiplies pipeline
/// instead of chaining), folded with distinct rotations and avalanched.
///
/// # Panics
/// When `data` is not a whole number of words (a page body is 509).
pub(crate) fn page_sum(data: &[u8]) -> u64 {
    assert_eq!(data.len() % 8, 0, "page body is whole 8-byte words");
    let mut lanes = LANE_SEED;
    let mut blocks = data.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks_exact(8)) {
        *lane = lane_step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let folded = lanes[0]
        ^ lanes[1].rotate_left(16)
        ^ lanes[2].rotate_left(32)
        ^ lanes[3].rotate_left(48)
        ^ data.len() as u64;
    // splitmix64 finalizer: a bijection, so a one-lane difference survives.
    let mut z = folded;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"the quick brown fox".to_vec();
        let base = fnv1a(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(fnv1a(&corrupted), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    /// A pseudo-random page body (509 words).
    fn body(seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..509)
            .flat_map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()
            })
            .collect()
    }

    #[test]
    fn zero_body_does_not_sum_to_zero() {
        // A zeroed disk block must not pass for a sealed empty page.
        assert_ne!(page_sum(&[0u8; 4072]), 0);
    }

    proptest! {
        #[test]
        fn page_sum_detects_any_single_bit_flip(seed in any::<u64>(), at in 0usize..4072 * 8) {
            let mut data = body(seed);
            let base = page_sum(&data);
            data[at / 8] ^= 1 << (at % 8);
            prop_assert!(page_sum(&data) != base);
        }

        /// Lane and position sensitivity: the sum is not a bag of words.
        #[test]
        fn page_sum_detects_swapping_two_distinct_words(
            seed in any::<u64>(),
            i in 0usize..509,
            j in 0usize..509,
        ) {
            let mut data = body(seed);
            let (a, b) = (i * 8, j * 8);
            let base = page_sum(&data);
            for k in 0..8 {
                data.swap(a + k, b + k);
            }
            let distinct = data[a..a + 8] != data[b..b + 8];
            prop_assert_eq!(page_sum(&data) != base, distinct);
        }
    }
}
