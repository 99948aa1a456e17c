//! IEEE 754 binary16 ("half precision") implemented in software.
//!
//! Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
//! All arithmetic is performed by converting to `f32`, computing, and
//! rounding back with round-to-nearest-even — this matches the behaviour
//! of scalar half-precision conversion hardware and is exact for the
//! conversions themselves (every `f16` is exactly representable in `f32`).

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An IEEE 754 binary16 floating-point number.
///
/// ```
/// use mc_types::F16;
/// let x = F16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// assert_eq!((x + x).to_f32(), 3.0);
/// ```
#[derive(Clone, Copy, Default, PartialEq)]
pub struct F16(u16);

const MAN_BITS: u32 = 10;
const EXP_BIAS: i32 = 15;
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;
const SIGN_MASK: u16 = 0x8000;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, -65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Machine epsilon, 2^-10.
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates a half from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values whose magnitude exceeds 65504 after rounding become
    /// infinities; tiny values round into the subnormal range or to zero.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN. Preserve NaN-ness (quiet, with payload msb kept).
            return if man == 0 {
                F16(sign | EXP_MASK)
            } else {
                // Keep the top 10 mantissa bits; force quiet bit so the
                // result is never an infinity-by-truncation.
                let payload = ((man >> 13) as u16) & MAN_MASK;
                F16(sign | EXP_MASK | payload | 0x0200)
            };
        }

        // Unbiased exponent of the f32 value.
        let unbiased = exp - 127;
        let half_exp = unbiased + EXP_BIAS;

        if half_exp >= 0x1F {
            // Overflow to infinity.
            return F16(sign | EXP_MASK);
        }

        if half_exp <= 0 {
            // Subnormal (or zero) in f16.
            if half_exp < -10 {
                // Too small even for the largest subnormal: rounds to zero,
                // except exactly-halfway cases can't occur below 2^-25.
                return F16(sign);
            }
            // Add the implicit leading 1 (if the source was normal).
            let man_with_hidden = if exp == 0 { man } else { man | 0x0080_0000 };
            // We must shift right by (14 + (-half_exp) + 13 - ... ). The
            // mantissa currently has 23 fraction bits; a subnormal half has
            // 10 fraction bits and effective exponent -14. Total shift:
            let shift = (13 + 1 - half_exp) as u32; // in [14, 24]
            let halfway = 1u32 << (shift - 1);
            let mask = (1u32 << shift) - 1;
            let mut result = (man_with_hidden >> shift) as u16;
            let rem = man_with_hidden & mask;
            if rem > halfway || (rem == halfway && (result & 1) == 1) {
                result += 1; // may carry into the normal range, which is correct
            }
            return F16(sign | result);
        }

        // Normal case: round 23-bit mantissa to 10 bits.
        let shift = 13u32;
        let halfway = 1u32 << (shift - 1);
        let mask = (1u32 << shift) - 1;
        let mut out = ((half_exp as u16) << MAN_BITS) | ((man >> shift) as u16);
        let rem = man & mask;
        if rem > halfway || (rem == halfway && (out & 1) == 1) {
            out += 1; // mantissa carry propagates into the exponent correctly
        }
        if (out & EXP_MASK) == EXP_MASK && (out & MAN_MASK) != 0 {
            // Rounding pushed us past the largest finite value into what
            // would be a NaN pattern; clamp to infinity.
            out = EXP_MASK;
        }
        F16(sign | out)
    }

    /// Converts an `f64` to binary16 (through `f32`; double rounding cannot
    /// produce an incorrectly rounded f16 here because f32 has more than
    /// 2×(10+2) mantissa bits of headroom for all representable halves).
    pub fn from_f64(value: f64) -> Self {
        Self::from_f32(value as f32)
    }

    /// Converts to `f32` exactly (every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & SIGN_MASK) << 16;
        let exp = (self.0 & EXP_MASK) >> MAN_BITS;
        let man = u32::from(self.0 & MAN_MASK);

        let bits = match exp {
            0 => {
                if man == 0 {
                    sign // signed zero
                } else {
                    // Subnormal: value = man * 2^-24. Normalize by placing
                    // the leading set bit of `man` at bit 10 (just above the
                    // 10-bit fraction field), then rebias the exponent.
                    let lz = man.leading_zeros() - 21; // zeros within the 11-bit window
                    let frac = (man << lz) & u32::from(MAN_MASK);
                    let exp = (127 - EXP_BIAS + 1) as u32 - lz;
                    sign | (exp << 23) | (frac << 13)
                }
            }
            0x1F => {
                if man == 0 {
                    sign | 0x7F80_0000
                } else {
                    sign | 0x7F80_0000 | (man << 13) | 0x0040_0000
                }
            }
            _ => {
                let exp = u32::from(exp) as i32 - EXP_BIAS + 127;
                sign | ((exp as u32) << 23) | (man << 13)
            }
        };
        f32::from_bits(bits)
    }

    /// Converts to `f64` exactly.
    pub fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }

    /// Returns `true` if this value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) == 0
    }

    /// Returns `true` if this value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// Returns `true` if the sign bit is set (including -0.0 and NaNs).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & SIGN_MASK) != 0
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & !SIGN_MASK)
    }

    /// Fused multiply-add computed in `f32` then rounded once to binary16.
    ///
    /// This mirrors the Matrix Core FP16 datapath, which multiplies halves
    /// exactly and accumulates in single precision before an optional final
    /// down-conversion.
    pub fn mul_add(self, b: F16, c: F16) -> F16 {
        F16::from_f32(self.to_f32().mul_add(b.to_f32(), c.to_f32()))
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> f32 {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(x: F16) -> f64 {
        x.to_f64()
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for F16 {
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, +);
impl_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_binop!(Div, div, DivAssign, div_assign, /);

impl Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1.5, 100.0, -0.25, 65504.0] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn constants_are_correct() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::from_bits(0x0001).to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_sign_negative());
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite());
        assert!(F16::from_f32(1e10).is_infinite());
        assert!(F16::from_f32(-1e10).is_infinite());
        assert!(F16::from_f32(-1e10).is_sign_negative());
        // 65504 + just-under-half-ulp stays finite.
        assert_eq!(F16::from_f32(65519.0).to_f32(), 65504.0);
    }

    #[test]
    fn underflow_and_subnormals() {
        // Largest subnormal: (1023/1024) * 2^-14.
        let largest_sub = (1023.0 / 1024.0) * 2.0f32.powi(-14);
        let x = F16::from_f32(largest_sub);
        assert_eq!(x.to_bits(), 0x03FF);
        assert_eq!(x.to_f32(), largest_sub);
        // Below half the smallest subnormal rounds to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)).to_bits(), 0);
        // Exactly half the smallest subnormal: ties-to-even -> zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-25)).to_bits(), 0);
        // Just above half rounds up to the smallest subnormal.
        let just_above = f32::from_bits(2.0f32.powi(-25).to_bits() + 1);
        assert_eq!(F16::from_f32(just_above).to_bits(), 0x0001);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; ties to even -> 1.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; ties to even -> 1+2^-9.
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway_up).to_f32(), 1.0 + 2.0f32.powi(-9));
        // Just above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn nan_propagates_through_conversion() {
        let q = F16::from_f32(f32::NAN);
        assert!(q.is_nan());
        assert!(q.to_f32().is_nan());
        // A signalling-ish payload must not collapse to infinity.
        let payload_nan = f32::from_bits(0x7F80_0001);
        assert!(F16::from_f32(payload_nan).is_nan());
    }

    #[test]
    fn arithmetic_rounds_correctly() {
        let a = F16::from_f32(1.0);
        let eps = F16::EPSILON;
        assert_eq!((a + eps).to_f32(), 1.0 + 2.0f32.powi(-10));
        // 2048 + 1 is not representable (ulp at 2048 is 2): ties-to-even keeps 2048.
        let big = F16::from_f32(2048.0);
        assert_eq!((big + F16::ONE).to_f32(), 2048.0);
        // 2048 + 3 rounds to 2052? ulp=2, 2051 -> nearest even multiple: 2052.
        assert_eq!((big + F16::from_f32(3.0)).to_f32(), 2052.0);
    }

    #[test]
    fn neg_flips_sign_only() {
        assert_eq!((-F16::ZERO).to_bits(), 0x8000);
        assert_eq!((-F16::ONE).to_f32(), -1.0);
        assert!((-F16::NAN).is_nan());
    }

    #[test]
    fn mul_add_single_rounding() {
        // With separate rounding, 255.875*257 would round differently than fused.
        let a = F16::from_f32(255.875);
        let b = F16::from_f32(257.0);
        let c = F16::from_f32(-65504.0);
        let fused = a.mul_add(b, c).to_f32();
        let expect = F16::from_f32(255.875f32.mul_add(257.0, -65504.0)).to_f32();
        assert_eq!(fused, expect);
    }

    #[test]
    fn ordering_matches_f32() {
        let vals = [-2.0f32, -0.5, 0.0, 0.25, 1.0, 3.5];
        for &x in &vals {
            for &y in &vals {
                assert_eq!(
                    F16::from_f32(x).partial_cmp(&F16::from_f32(y)),
                    x.partial_cmp(&y)
                );
            }
        }
        assert_eq!(F16::NAN.partial_cmp(&F16::ONE), None);
    }

    #[test]
    fn exhaustive_roundtrip_through_f32() {
        // Every one of the 65536 bit patterns must survive f16 -> f32 -> f16,
        // with NaNs allowed to canonicalize but required to stay NaN.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(back.is_nan(), "bits {bits:#06x} lost NaN-ness");
            } else {
                assert_eq!(back.to_bits(), bits, "bits {bits:#06x} changed");
            }
        }
    }
}
