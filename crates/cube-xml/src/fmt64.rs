//! Fast shortest-round-trip `f64` formatting for severity rows.
//!
//! Severity sections dominate `.cube` files, and formatting their
//! values is most of the streaming write's cost. [`push_f64`] is
//! byte-identical to `write!(out, "{v}")` and runs a two-tier cascade:
//!
//! 1. a fixed-notation path for values that are exact multiples of
//!    10⁻⁶ below 2³² (`push_fixed_micro`) — measurement data
//!    quantized at timer resolution lands here almost always, and the
//!    value reduces to one integer itoa;
//! 2. Ryu (Adams, PLDI 2018) for every other finite value: the
//!    value's rounding interval is scaled to a decimal power with
//!    128-bit multiplies by a power of five, and digits are removed
//!    while the interval still contains a shorter decimal. Ryu is
//!    exact, so no fallback tier exists; non-finite values print as
//!    `inf`, `-inf` and `NaN`.
//!
//! **Ties round up.** When the shortest decimal sits exactly halfway
//! between two candidates (`2⁻²⁵` needs a 17th digit that is a 5
//! followed by nothing), `{}` rounds up. The reference Ryu rounds such
//! ties to even; this one drops that adjustment, and with it the
//! bookkeeping of whether the removed digits were all zero, which only
//! that adjustment read.
//!
//! **Tables.** Ryu multiplies by 125-bit approximations of `5^i`
//! (top bits, truncated) and of `2^L / 5^i` (`L` = bit length of `5^i`
//! plus 124; floor plus one). They are not baked in: both are generated
//! once per process with short arithmetic on a fixed-width bignum —
//! `5^i` by multiplying by five, and `⌊2^N / 5^i⌋` by dividing the
//! previous quotient by five, which is exact because
//! `⌊⌊x/a⌋/b⌋ = ⌊x/(ab)⌋`. A right shift then yields each inverse
//! entry, exact by the same identity. Only the entries `f64` reaches
//! are built (291 inverse, 326 direct).
//!
//! The format stability golden test and the differential tests below
//! and in `tests/streaming_roundtrip.rs` pin the byte-for-byte
//! guarantee against the standard library's formatter.

use std::sync::OnceLock;

/// Appends `v` to `out`, byte-identical to `write!(out, "{v}")`.
pub fn push_f64(out: &mut String, v: f64) {
    if v == 0.0 {
        // Covers -0.0 too: `{}` prints the sign of a negative zero.
        out.push_str(if v.is_sign_negative() { "-0" } else { "0" });
        return;
    }
    if push_fixed_micro(out, v) {
        return;
    }
    if !v.is_finite() {
        // `{}` never signs a NaN.
        out.push_str(if v.is_nan() {
            "NaN"
        } else if v > 0.0 {
            "inf"
        } else {
            "-inf"
        });
        return;
    }
    let (mantissa, exp) = shortest(v.to_bits());
    render(out, v < 0.0, mantissa, exp);
}

/// Fast path for measurement-like values: exactly a multiple of 10⁻⁶
/// after double rounding, with magnitude below 2³². Profilers quantize
/// timestamps at timer resolution, so real severity data lands here
/// almost always; uniform random doubles almost never do.
///
/// Correctness: let `r = round(v·10⁶)` (as doubles). The guard
/// `r / 10⁶ == v` certifies that the real number `r·10⁻⁶` rounds to
/// `v`, i.e. lies within half an ulp of it. For `|v| < 2³²` an ulp is
/// below 10⁻⁶, so that interval contains exactly **one** multiple of
/// 10⁻⁶ — and every decimal with at most six fractional digits is such
/// a multiple, while one with seven or more has a strictly longer
/// significand than `r` (which has at most six). Hence `r·10⁻⁶`, with
/// trailing fractional zeros stripped, is the unique shortest decimal
/// that round-trips: byte-for-byte what `{}` prints. Returns `false`
/// (emitting nothing) for every value outside the class, including
/// NaN, infinities, and exact zero.
fn push_fixed_micro(out: &mut String, v: f64) -> bool {
    let a = v.abs();
    // Zero and NaN are the caller's cases.
    if a.is_nan() || a >= 4_294_967_296.0 || a == 0.0 {
        return false;
    }
    // Round to nearest by the 2⁵² trick (exact below 2⁵²; here the
    // product is below 2⁵²): `f64::round` is a libm call on baseline
    // x86_64. Halfway products cannot pass the guard below anyway.
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let r = (a * 1e6 + TWO_52) - TWO_52;
    if r / 1e6 != a || r == 0.0 {
        return false;
    }
    let n = r as u64; // < 2³²·10⁶ < 2⁵³, exact

    // Sign, up to 10 integer digits, '.', six fraction digits whose
    // trailing zeros are then dropped.
    let mut tmp = [0u8; 18];
    let mut start = write_digits(n / 1_000_000, &mut tmp[..11]);
    if v < 0.0 {
        start -= 1;
        tmp[start] = b'-';
    }
    let mut end = 11;
    let frac = (n % 1_000_000) as usize;
    if frac != 0 {
        tmp[11] = b'.';
        for (at, pair) in [
            (12, frac / 10_000),
            (14, frac / 100 % 100),
            (16, frac % 100),
        ] {
            tmp[at..at + 2].copy_from_slice(&DIGIT_PAIRS[2 * pair..2 * pair + 2]);
        }
        end = 18;
        while tmp[end - 1] == b'0' {
            end -= 1;
        }
    }
    // SAFETY: `tmp[start..end]` holds only ASCII bytes written above.
    out.push_str(unsafe { std::str::from_utf8_unchecked(&tmp[start..end]) });
    true
}

/// Renders `m × 10^k` positionally, matching `{}`: no exponent form,
/// no trailing `.0`, leading `0.` for pure fractions. `m` has no
/// trailing zeros.
///
/// The common case (every severity-like magnitude) is assembled — sign
/// included — in one stack buffer and appended with a single
/// `push_str`; extreme exponents take the general path below. The
/// digits sit right-aligned at index 20 of a `0`-padded buffer, so
/// fixed 20-byte copies place them without a `memmove` call: the bytes
/// a copy carries past the digits are `0` characters, which are the
/// trailing zeros of an integer or get overwritten.
fn render(out: &mut String, neg: bool, m: u64, k: i32) {
    let mut digits = [b'0'; 40];
    let from = write_digits(m, &mut digits[..20]);
    let n = 20 - from;
    let point = n as i32 + k;
    let sign = usize::from(neg);
    let total = sign
        + if k >= 0 {
            n + k as usize
        } else if point > 0 {
            n + 1
        } else {
            n + 2 + (-point) as usize
        };
    if total <= 40 {
        let mut tmp = [b'0'; 64];
        if neg {
            tmp[0] = b'-';
        }
        if point <= 0 {
            tmp[sign + 1] = b'.'; // after the leading `0`
            let at = total - n;
            tmp[at..at + 20].copy_from_slice(&digits[from..from + 20]);
        } else {
            tmp[sign..sign + 20].copy_from_slice(&digits[from..from + 20]);
            if k < 0 {
                // The fraction digits move one place right of the '.'.
                let p = point as usize;
                tmp[sign + p] = b'.';
                tmp[sign + p + 1..sign + p + 21].copy_from_slice(&digits[from + p..from + p + 20]);
            }
        }
        // SAFETY: every byte in `tmp[..total]` is ASCII: `-`, `.`, the
        // `0` fill, or a digit from `write_digits`.
        out.push_str(unsafe { std::str::from_utf8_unchecked(&tmp[..total]) });
        return;
    }

    if neg {
        out.push('-');
    }
    if k >= 0 {
        push_u64(out, m);
        for _ in 0..k {
            out.push('0');
        }
    } else {
        debug_assert!(point <= 0, "long mid-point forms fit the fast path");
        out.push_str("0.");
        for _ in 0..-point {
            out.push('0');
        }
        push_u64(out, m);
    }
}

/// Appends `n` in decimal, byte-identical to `write!(out, "{n}")`.
pub(crate) fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let start = write_digits(n, &mut buf);
    // SAFETY: `write_digits` fills `buf[start..]` with ASCII digits.
    out.push_str(unsafe { std::str::from_utf8_unchecked(&buf[start..]) });
}

/// Writes the decimal digits of `m` so that they end at `buf.len()`,
/// and returns the index of the first.
fn write_digits(mut m: u64, buf: &mut [u8]) -> usize {
    let mut i = buf.len();
    // Eight digits per 64-bit division, then 32-bit pairs.
    while m >= 100_000_000 {
        let mut low = (m % 100_000_000) as u32;
        m /= 100_000_000;
        for _ in 0..4 {
            i -= 2;
            let pair = 2 * (low % 100) as usize;
            buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
            low /= 100;
        }
    }
    let mut m = m as u32;
    while m >= 100 {
        i -= 2;
        let pair = 2 * (m % 100) as usize;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        m /= 100;
    }
    if m >= 10 {
        let pair = 2 * m as usize;
        buf[i - 2..i].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        i - 2
    } else {
        buf[i - 1] = b'0' + m as u8;
        i - 1
    }
}

/// ASCII digit pairs `"00" … "99"` for two-at-a-time emission.
static DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

// ---------------------------------------------------------------------------
// Ryu
// ---------------------------------------------------------------------------

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bit width of every table entry's significant part.
const POW5_BITS: i32 = 125;
/// Entries `f64` reaches: `q ≤ 290` for `2^e2` with `e2 ≥ 0`, and
/// `i ≤ 325` for `e2 < 0`.
const POW5_INV_LEN: usize = 291;
const POW5_LEN: usize = 326;

/// Shortest decimal `mantissa × 10^exp` of a finite, nonzero `f64`
/// given by its bits (sign ignored): the fewest digits that parse back
/// to the same value, and among those the closest, ties rounded up.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // The value is m2 · 2^e2; the extra -2 makes room for the
    // interval's half-ulp bounds as integers (4·m2 ± 2).
    let (m2, e2) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2)
    } else {
        (
            ieee_mantissa | 1 << MANTISSA_BITS,
            ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
        )
    };
    // Round-half-even parsing accepts the bounds of an even mantissa.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower gap halves at a power of two (except subnormals).
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale the interval [mm, mp] around mv to a decimal power 10^e10,
    // truncating: vm, vr, vp. For e2 ≥ 0 that divides by 5^q (times a
    // power of two), for e2 < 0 it multiplies by 5^-(e2+q).
    let t = tables();
    let (q, mul, j, e10) = if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        let k = POW5_BITS + pow5_bits(q as i32) - 1;
        (q, t.inv[q as usize], -e2 + q as i32 + k, q as i32)
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS;
        (q, t.pow[i as usize], q as i32 - k, q as i32 + e2)
    };
    let mut vr = mul_shift(mv, mul, j);
    let mut vp = mul_shift(mv + 2, mul, j);
    let mut vm = mul_shift(mv - 1 - mm_shift, mul, j);
    // Whether the lower bound was exact before truncation, i.e. is a
    // candidate itself; an exact upper bound is excluded outright.
    let mut vm_exact = false;
    if e2 >= 0 {
        // Dividing by 5^q was exact iff the bound has q factors of
        // five; at most one of mm, mv, mp is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_exact = pow5_factor(mv - 1 - mm_shift) >= q;
            } else {
                vp -= u64::from(pow5_factor(mv + 2) >= q);
            }
        }
    } else if q <= 1 {
        // Dividing by 2^q: mp = mv + 2 always has one trailing zero
        // bit, mm has one iff mm_shift is 1.
        if accept_bounds {
            vm_exact = mm_shift == 1;
        } else {
            vp -= 1;
        }
    }

    // Remove digits while the interval still holds a shorter decimal,
    // then round the last removed digit (half up, as `{}` does).
    let mut removed = 0;
    let output = if vm_exact {
        // Rare: the lower bound is a candidate, so track whether every
        // digit removed from it was zero.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_exact &= vm.is_multiple_of(10);
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_exact {
            while vm.is_multiple_of(10) {
                last = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_exact) || last >= 5)
    } else {
        // Common: removability is monotone in the digit count, so
        // halving steps find it in five tries (derived means are short
        // decimals, removing ~10 of ~17 digits). The last step taken
        // holds the most significant removed digit, which rounds.
        let mut round_up = false;
        for (div, digits) in [
            (10_000_000_000_000_000, 16),
            (100_000_000, 8),
            (10_000, 4),
            (100, 2),
            (10, 1),
        ] {
            if vp / div > vm / div {
                round_up = vr % div >= div / 2;
                (vr, vp, vm) = (vr / div, vp / div, vm / div);
                removed += digits;
            }
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `⌊m · mul / 2^j⌋` for a 55-bit `m` and a 126-bit `mul` (`j > 64`).
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(m) * (mul & u128::from(u64::MAX));
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// Bit length of `5^e` (1 for `e = 0`); exact for `0 ≤ e ≤ 3528`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊e · log10(2)⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊e · log10(5)⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Multiplicity of the factor 5 in a nonzero `v`.
fn pow5_factor(mut v: u64) -> u32 {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

// ---------------------------------------------------------------------------
// power-of-five tables
// ---------------------------------------------------------------------------

struct Tables {
    /// `⌊2^(pow5_bits(i) - 1 + 125) / 5^i⌋ + 1`.
    inv: [u128; POW5_INV_LEN],
    /// The top 125 bits of `5^i`, truncated.
    pow: [u128; POW5_LEN],
}

/// `2^INV_TOP` is divided by five down the table; it must reach the
/// largest inverse entry's numerator.
const INV_TOP: usize = (pow5_bits(POW5_INV_LEN as i32 - 1) - 1 + POW5_BITS) as usize;
/// u32 limbs holding both `2^INV_TOP` and `5^(POW5_LEN - 1)`.
const LIMBS: usize = INV_TOP / 32 + 1;

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(Tables::build)
}

impl Tables {
    fn build() -> Tables {
        let mut pow5 = [0u32; LIMBS];
        pow5[0] = 1;
        let mut quot = [0u32; LIMBS];
        quot[INV_TOP / 32] = 1 << (INV_TOP % 32);
        let mut t = Tables {
            inv: [0; POW5_INV_LEN],
            pow: [0; POW5_LEN],
        };
        for i in 0..POW5_INV_LEN.max(POW5_LEN) {
            // Invariants: pow5 = 5^i and quot = ⌊2^INV_TOP / 5^i⌋.
            let bits = pow5_bits(i as i32);
            if i < POW5_LEN {
                t.pow[i] = if bits <= POW5_BITS {
                    bits_from(&pow5, 0) << (POW5_BITS - bits)
                } else {
                    bits_from(&pow5, (bits - POW5_BITS) as usize)
                };
            }
            if i < POW5_INV_LEN {
                let top = (bits - 1 + POW5_BITS) as usize;
                t.inv[i] = bits_from(&quot, INV_TOP - top) + 1;
            }
            let mut carry = 0u64;
            for limb in &mut pow5 {
                let p = u64::from(*limb) * 5 + carry;
                *limb = p as u32;
                carry = p >> 32;
            }
            let mut rem = 0u64;
            for limb in quot.iter_mut().rev() {
                let cur = rem << 32 | u64::from(*limb);
                *limb = (cur / 5) as u32;
                rem = cur % 5;
            }
        }
        t
    }
}

/// `⌊n / 2^shift⌋` of a little-endian limb number, which the caller
/// guarantees fits in 128 bits.
fn bits_from(n: &[u32; LIMBS], shift: usize) -> u128 {
    let (word, bit) = (shift / 32, shift % 32);
    let limb = |k: usize| u128::from(n.get(word + k).copied().unwrap_or(0));
    let low = limb(0) | limb(1) << 32 | limb(2) << 64 | limb(3) << 96;
    if bit == 0 {
        low
    } else {
        low >> bit | limb(4) << (128 - bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        s
    }

    /// Miri interprets every step, so the loops shrink under it.
    const STRIDE: usize = if cfg!(miri) { 97 } else { 1 };

    fn n(full: usize) -> usize {
        full / STRIDE
    }

    #[track_caller]
    fn check(v: f64) {
        assert_eq!(fast(v), format!("{v}"), "bits {:#018x}", v.to_bits());
    }

    #[test]
    fn matches_std_on_corner_cases() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            0.1,
            0.3,
            1.5,
            3.0,
            10.0,
            100.0,
            0.25,
            -2.375,
            1e16,
            1e17 - 2.0,
            1e23, // classic shortest-representation stress value
            1e300,
            1e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),               // smallest subnormal
            f64::from_bits(0xfffffffffffff), // largest subnormal
            (1u64 << 53) as f64 - 1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            2f64.powi(-1022),
            123_456_789.123_456_79,
            0.000001,
            0.0000001,
        ] {
            check(v);
        }
        // Exact decimal ties at the shortest length: `{}` rounds them
        // up, where the reference Ryu rounds to even.
        for (bits, want) in [
            (0x3e60_0000_0000_0000, "0.000000029802322387695313"),
            (0x431f_003b_d0f7_0bad, "2181495296738027.3"),
        ] {
            let v = f64::from_bits(bits);
            assert_eq!(fast(v), want, "bits {bits:#018x}");
            check(v);
        }
        // Powers of ten and of two across the whole range.
        for p in (-308..=308).step_by(STRIDE) {
            check(format!("1e{p}").parse::<f64>().unwrap());
        }
        for p in (-1074..=1023).step_by(STRIDE) {
            check(2f64.powi(p));
            check(1.5 * 2f64.powi(p));
        }
    }

    #[test]
    fn push_u64_matches_std() {
        for n in [0, 1, 9, 10, 99, 100, 12_345_678, 123_456_789, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, n);
            assert_eq!(s, n.to_string());
        }
    }

    #[test]
    fn matches_std_on_random_bit_patterns() {
        // Deterministic xorshift over raw bit patterns: every exponent
        // class, subnormals and negatives included.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut checked = 0;
        while checked < n(50_000) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = f64::from_bits(x);
            if v.is_nan() {
                continue;
            }
            check(v);
            checked += 1;
        }
    }

    /// Values whose shortest decimal lands on an exact tie: small
    /// odd multiples of every power of two, and integers plus a quarter
    /// fraction in `[2^50, 2^53)` (where the quarter needs a 17th digit
    /// that is exactly a 5).
    fn tie_dense(seed: u64, quarters: usize) -> impl Iterator<Item = f64> {
        let powers = (1..64u32).flat_map(|m| {
            (-1074..=1023)
                .step_by(STRIDE)
                .map(move |p| f64::from(m) * 2f64.powi(p))
        });
        let mut x = seed;
        let quarter = (0..quarters).map(move |_| {
            x = splitmix(x);
            let n = (1u64 << 50) + (x >> 14) % ((1 << 53) - (1 << 50));
            n as f64 + [0.25, 0.5, 0.75][(x & 3) as usize % 3]
        });
        powers.filter(|v| v.is_finite()).chain(quarter)
    }

    fn splitmix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_std_on_tie_dense_values() {
        for v in tie_dense(7, n(20_000)) {
            check(v);
            check(-v);
        }
    }

    #[test]
    fn matches_std_on_severity_like_values() {
        // The shapes the writers actually emit: full-precision values
        // from arithmetic, plus eighth-steps from the property tests.
        let mut state = 1u64;
        for i in 0..n(20_000) as i32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            check(unit * 10.0 - 2.0);
            check(f64::from(i % 400 - 200) * 0.125);
            // Quantized to timer resolution: the fixed-notation class.
            check((unit * 10.0 - 2.0) * 1e6_f64.recip() * 1e6);
            check(((unit * 10.0 - 2.0) * 1e6).round() / 1e6);
            check(((unit * 1e10).round() / 1e6) * if i % 2 == 0 { 1.0 } else { -1.0 });
        }
    }

    #[test]
    fn matches_std_around_fixed_path_boundaries() {
        // Magnitude gate (2³²), resolution gate (multiples of 10⁻⁶),
        // and values straddling both.
        let mut cases = vec![
            1e-6,
            -1e-6,
            2e-6,
            9.9e-5,
            0.000001,
            0.999999,
            1.000001,
            123456.654321,
            4294967295.999999,
            4294967296.0,
            4294967296.000001,
            4294967297.5,
            8589934592.25,
            1e15 + 0.5,
            0.1,
            0.5,
            3.0,
            -2.75,
        ];
        for i in 0..n(5000) as u64 {
            // Dense walk over the 10⁻⁶ grid and its neighbors in ulps.
            let g = i as f64 / 1e6;
            cases.push(g);
            cases.push(-g);
            cases.push(g.next_up());
            cases.push(g.next_down());
            cases.push((i as f64 * 4096.0 + 0.33) / 1e6);
        }
        for v in cases {
            check(v);
        }
    }

    #[test]
    fn tables_match_exact_powers_of_five() {
        // Checked by multiplication, independently of the short
        // division that built them: pow[i] is the truncated top of 5^i,
        // and inv[i] - 1 = ⌊2^L / 5^i⌋.
        let t = tables();
        let mut pow5 = big(1);
        for i in 0..POW5_INV_LEN.max(POW5_LEN) {
            let bits = pow5_bits(i as i32);
            if i < POW5_LEN {
                let s = bits - POW5_BITS;
                if s <= 0 {
                    let exact = shl(&pow5, (-s) as usize);
                    let entry = big(t.pow[i]);
                    assert!(le(&entry, &exact) && le(&exact, &entry), "pow[{i}]");
                } else {
                    let s = s as usize;
                    assert!(le(&shl(&big(t.pow[i]), s), &pow5), "pow[{i}]");
                    assert!(!le(&shl(&big(t.pow[i] + 1), s), &pow5), "pow[{i}]");
                }
            }
            if i < POW5_INV_LEN {
                let two_l = shl(&big(1), (bits - 1 + POW5_BITS) as usize);
                assert!(le(&mul(&big(t.inv[i] - 1), &pow5), &two_l), "inv[{i}]");
                assert!(!le(&mul(&big(t.inv[i]), &pow5), &two_l), "inv[{i}]");
            }
            pow5 = mul(&pow5, &big(5));
        }
        // Spot values from the reference implementation's tables.
        assert_eq!(t.inv[0], (1 << 125) + 1);
        assert_eq!(
            t.inv[1],
            u128::from(1_844_674_407_370_955_161u64) << 64 | 11_068_046_444_225_730_970
        );
        assert_eq!(t.pow[1], u128::from(1_441_151_880_758_558_720u64) << 64);
    }

    fn big(x: u128) -> Vec<u32> {
        (0..4).map(|k| (x >> (32 * k)) as u32).collect()
    }

    fn mul(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut r = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let cur = u64::from(r[i + j]) + u64::from(x) * u64::from(y) + carry;
                r[i + j] = cur as u32;
                carry = cur >> 32;
            }
            r[i + b.len()] = carry as u32;
        }
        r
    }

    fn shl(a: &[u32], s: usize) -> Vec<u32> {
        let mut pow2 = vec![0u32; s / 32 + 1];
        pow2[s / 32] = 1 << (s % 32);
        mul(a, &pow2)
    }

    /// `a ≤ b` for little-endian limb numbers of any lengths.
    fn le(a: &[u32], b: &[u32]) -> bool {
        for k in (0..a.len().max(b.len())).rev() {
            let (x, y) = (a.get(k).unwrap_or(&0), b.get(k).unwrap_or(&0));
            if x != y {
                return x < y;
            }
        }
        true
    }

    /// The long differential sweep, run in release mode by the CI test
    /// stage: `cargo test --release -p cube-xml --lib
    /// fmt64::tests::sweep -- --ignored`. About 20M values: raw bit
    /// patterns (NaNs included), the tie-dense set, and means of six
    /// timer-quantized values, the shape `mean` writes back.
    #[test]
    #[ignore = "long; run in release mode"]
    fn sweep_matches_std_on_20m_values() {
        use std::fmt::Write as _;
        let (mut got, mut want) = (String::new(), String::new());
        let mut count = 0u64;
        let mut compare = |v: f64| {
            got.clear();
            want.clear();
            push_f64(&mut got, v);
            write!(want, "{v}").unwrap();
            assert_eq!(got, want, "bits {:#018x}", v.to_bits());
            count += 1;
        };
        let mut x = 0x5eed_f10a7;
        for _ in 0..n(10_000_000) {
            x = splitmix(x);
            compare(f64::from_bits(x));
        }
        for v in tie_dense(11, n(4_000_000)) {
            compare(v);
        }
        for _ in 0..n(6_000_000) {
            let mut sum = 0.0;
            for _ in 0..6 {
                x = splitmix(x);
                sum += (x >> 28) as f64 / 1e6;
            }
            compare(sum / 6.0);
        }
        assert!(count >= n(20_000_000) as u64, "swept {count} values");
    }
}
