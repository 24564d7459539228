//! The workspace's one integer mixer and one cheap hasher, `#[inline]`
//! throughout: they sit on hot paths and the release profile has no LTO.

use std::hash::Hasher;

/// SplitMix64's output function, a bijection of `u64`. Each caller keeps
/// its own keying and state (a Weyl counter, a folded tuple, a checksum's
/// lanes) and mixes the result here.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A multiplicative scramble folded over a key's integer words, where
/// SipHash would build a keyed state per lookup: the lock manager's stripe
/// index and the page store's directories. A key crafted to collide costs
/// sharing a stripe or a bucket chain, nothing worse.
#[derive(Default)]
pub struct Scramble(u64);

impl Hasher for Scramble {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|b| self.write_u64(u64::from(*b)));
    }
    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    /// The published SplitMix64 stream for seed 0: the mixer applied to
    /// successive Weyl steps of the golden gamma.
    #[test]
    fn the_mixer_is_splitmix64s_output_function() {
        let gamma = 0x9E37_79B9_7F4A_7C15u64;
        let stream: Vec<u64> = (1..=3).map(|n| splitmix64(gamma.wrapping_mul(n))).collect();
        assert_eq!(
            stream,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    /// A `u32` key hashes as its widened `u64`: an id is one word either
    /// way.
    #[test]
    fn a_narrow_word_hashes_as_its_widened_word() {
        let hash = |key: &dyn Fn(&mut Scramble)| {
            let mut h = Scramble::default();
            key(&mut h);
            h.finish()
        };
        assert_eq!(hash(&|h| 7u32.hash(h)), hash(&|h| 7u64.hash(h)));
        assert_ne!(hash(&|h| 7u64.hash(h)), hash(&|h| 8u64.hash(h)));
    }
}
