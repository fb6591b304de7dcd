//! The CRC-32 engine behind every checksum in the workspace: `.cube`
//! footers, `.cubec` section and page CRCs, salvage and `cube fsck`.
//!
//! The checksum is CRC-32/IEEE (reflected polynomial `0xEDB88320`,
//! init and xor-out `0xFFFFFFFF`), the one gzip and PNG use. Two paths
//! compute it, and both give the same value for every input:
//!
//! * on x86_64 CPUs with PCLMULQDQ, a carry-less-multiply folding
//!   kernel: four 128-bit lanes fold 64 bytes per step, then fold into
//!   one lane and a Barrett reduction leaves the 32-bit remainder;
//! * everywhere else, for inputs too short to fold, and under Miri, a
//!   portable slicing-by-16 table loop.
//!
//! CPU feature detection is the only dispatch; nothing configures it.
//! The bytewise table loop the engine replaced survives in the tests
//! below as the oracle both paths are checked against.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC register contribution of byte `b`
/// followed by `k` zero bytes; `TABLES[0]` is the classic bytewise
/// table.
static TABLES: [[u32; 256]; 16] = make_tables();

const fn make_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// Advances the CRC register `state` (not yet inverted) over `bytes`,
/// on the fastest path this CPU supports.
pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU supports PCLMULQDQ (checked just above), and
        // SSE2 is part of the x86_64 baseline.
        return unsafe { pclmul::update(state, bytes) };
    }
    portable(state, bytes)
}

/// Slicing-by-16: one table lookup per byte of each 16-byte block,
/// all independent of each other, then the bytewise loop over the
/// tail.
pub(super) fn portable(mut state: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let reg = state.to_le_bytes();
        state = 0;
        for (k, &byte) in block.iter().enumerate() {
            let byte = if k < 4 { byte ^ reg[k] } else { byte };
            state ^= TABLES[15 - k][byte as usize];
        }
    }
    for &byte in blocks.remainder() {
        state = TABLES[0][((state ^ byte as u32) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

/// PCLMULQDQ folding after Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in
/// its bit-reflected form.
#[cfg(all(target_arch = "x86_64", not(miri)))]
pub(super) mod pclmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel folds; shorter ones go to the
    /// portable loop, which wins below a couple of fold steps.
    const MIN_LEN: usize = 128;

    // Fold constants: `x^n mod P(x)` bit-reflected and shifted left
    // once, for the fold distance `n` named on each line. The tests
    // derive every one of them from the polynomial.
    pub(crate) const K1: i64 = 0x1_5444_2bd4; // n = 4·128 + 32: the 64-byte main loop
    pub(crate) const K2: i64 = 0x1_c6e4_1596; // n = 4·128 − 32
    pub(crate) const K3: i64 = 0x1_7519_97d0; // n = 128 + 32: lane merge, 16-byte tail
    pub(crate) const K4: i64 = 0x0_ccaa_009e; // n = 128 − 32
    pub(crate) const K5: i64 = 0x1_63cd_6124; // n = 64: 96 → 64 bits
    /// The polynomial reflected over its 33 bits, and Barrett's
    /// `mu = floor(x^64 / P(x))` reflected the same way.
    pub(crate) const P_REFLECTED: i64 = 0x1_db71_0641;
    pub(crate) const MU: i64 = 0x1_f701_1641;

    /// The first 16 bytes of `block` as one vector; the slice index
    /// panics rather than reads past a shorter block.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn load(block: &[u8]) -> __m128i {
        _mm_loadu_si128(block[..16].as_ptr().cast())
    }

    /// `next ^ lane·x^k`: carries `lane` forward over the distance the
    /// constant pair `keys` encodes and adds it to the data there.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    /// Advances the CRC register `state` over `bytes` with carry-less
    /// multiplication. Inputs shorter than [`MIN_LEN`] take the
    /// portable loop.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    pub(crate) unsafe fn update(state: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < MIN_LEN {
            return super::portable(state, bytes);
        }
        let (first, rest) = bytes.split_at(64);
        let mut lines = rest.chunks_exact(64);
        let mut x0 = _mm_xor_si128(load(first), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&first[16..]);
        let mut x2 = load(&first[32..]);
        let mut x3 = load(&first[48..]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        for line in &mut lines {
            x0 = fold(x0, load(line), k1k2);
            x1 = fold(x1, load(&line[16..]), k1k2);
            x2 = fold(x2, load(&line[32..]), k1k2);
            x3 = fold(x3, load(&line[48..]), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, x1, k3k4);
        x = fold(x, x2, k3k4);
        x = fold(x, x3, k3k4);
        let mut blocks = lines.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold(x, load(block), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: 64 → 32 bits; the reflected remainder sits in the
        // second 32-bit word.
        let pu = _mm_set_epi64x(MU, P_REFLECTED);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let reg = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
        super::portable(reg, blocks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop: the engine's oracle.
    fn bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = TABLES[0][((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
        }
        state
    }

    /// Deterministic splitmix64 bytes, so failures reproduce by seed.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..len).map(|_| next() as u8).collect()
    }

    type Update = fn(u32, &[u8]) -> u32;

    /// Every path this CPU can run, by name.
    fn paths() -> Vec<(&'static str, Update)> {
        let mut paths: Vec<(&'static str, Update)> =
            vec![("portable", portable), ("dispatched", update)];
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: PCLMULQDQ is present (checked above).
            paths.push(("pclmul", |s, b| unsafe { pclmul::update(s, b) }));
        }
        paths
    }

    #[cfg(not(miri))]
    const MAX_SHORT: usize = 1024;
    #[cfg(miri)]
    const MAX_SHORT: usize = 160;
    #[cfg(not(miri))]
    const MAX_RANDOM: usize = 4 << 20;
    #[cfg(miri)]
    const MAX_RANDOM: usize = 4 << 10;

    #[test]
    fn check_vector_on_every_path() {
        for (name, f) in paths() {
            assert_eq!(!f(!0, b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(!f(!0, b""), 0, "{name}");
            // Long enough to take the folding kernel where present.
            let long = b"123456789".repeat(40);
            assert_eq!(f(!0, &long), bytewise(!0, &long), "{name}");
        }
    }

    #[test]
    fn every_short_length_at_every_offset_matches_the_oracle() {
        let buf = seeded_bytes(7, MAX_SHORT + 16);
        for (name, f) in paths() {
            for offset in 0..16 {
                for len in 0..=MAX_SHORT {
                    let bytes = &buf[offset..offset + len];
                    assert_eq!(
                        f(0x1234_5678, bytes),
                        bytewise(0x1234_5678, bytes),
                        "{name} len {len} offset {offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_random_buffers_match_the_oracle() {
        for seed in 0..6u64 {
            let len = match seed {
                0 => MAX_RANDOM,
                _ => (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % (MAX_RANDOM + 1),
            };
            let bytes = seeded_bytes(seed, len);
            let expected = bytewise(!0, &bytes);
            for (name, f) in paths() {
                assert_eq!(f(!0, &bytes), expected, "{name} seed {seed} len {len}");
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        // The IEEE polynomial in normal (MSB-first) form, x^32 included.
        const P: u64 = 0x1_04C1_1DB7;
        let xpow_mod = |n: u32| {
            (0..n).fold(1u32, |r, _| {
                let carry = r & 0x8000_0000 != 0;
                (r << 1) ^ if carry { P as u32 } else { 0 }
            })
        };
        let key = |n: u32| ((xpow_mod(n).reverse_bits() as u64) << 1) as i64;
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        // floor(x^64 / P(x)) by long division.
        let (mut rem, mut q) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem & (1u128 << bit) != 0 {
                rem ^= (P as u128) << (bit - 32);
                q |= 1 << (bit - 32);
            }
        }
        assert_eq!(pclmul::K1, key(4 * 128 + 32));
        assert_eq!(pclmul::K2, key(4 * 128 - 32));
        assert_eq!(pclmul::K3, key(128 + 32));
        assert_eq!(pclmul::K4, key(128 - 32));
        assert_eq!(pclmul::K5, key(64));
        assert_eq!(pclmul::P_REFLECTED, reflect33(P));
        assert_eq!(pclmul::MU, reflect33(q));
    }
}
