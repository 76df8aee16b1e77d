//! Deterministic single-precision transcendental math.
//!
//! [`tanh`] is a port of fdlibm's `tanhf` and the `expm1f` it calls
//! (`s_tanhf.c`, `s_expm1f.c`) as glibc 2.36 ships them for x86-64: the
//! same constants, thresholds and IEEE single-precision operations in the
//! same order, with no fused multiply-add and no reassociation. It returns
//! the bits glibc 2.36's `tanhf` returns for every one of the 2^32 inputs
//! (an `#[ignore]`d exhaustive test checks this on such a host), and it
//! returns the same bits on every other host, so the activation does not
//! depend on the platform's libm. `exp` and `ln` still go through libm.
//!
//! [`tanh_in_place`] evaluates the same function over a slice with a
//! branch-free per-lane body (`tanh_lane`). Every lane runs each
//! `expm1f` path below its huge-argument filter with the scalar operation
//! sequence, and a mask selects the one the scalar code would have taken,
//! so the loop vectorises without changing a bit. The body is
//! instantiated per SIMD tier through the matmul kernels' dispatch
//! (`tiered_kernel!` in [`crate::matrix`]); the tiers differ only in speed.

use crate::matrix::tiered_kernel;
use simd::Isa;

const ONE: f32 = 1.0;
const TWO: f32 = 2.0;
const TINY: f32 = 1.0e-30;
const HUGE: f32 = 1.0e30;
/// 88.721679688, above which `expm1f` overflows.
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
/// High part of ln 2 (6.9313812256e-01); `k * LN2_HI` is exact for the
/// `k` the reduction produces.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// Low part of ln 2 (9.0580006145e-06).
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// 1 / ln 2 (1.4426950216e+00).
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
// fdlibm's scaled coefficients of the rational `expm1` approximation.
const Q1: f32 = f32::from_bits(0xbd08_8889); // -3.3333335072e-02
const Q2: f32 = f32::from_bits(0x3ad0_0d01); // 1.5873016091e-03
const Q3: f32 = f32::from_bits(0xb8a6_70cd); // -7.9365076090e-05
const Q4: f32 = f32::from_bits(0x3686_7e54); // 4.0082177293e-06
const Q5: f32 = f32::from_bits(0xb457_edbb); // -2.0109921195e-07

/// `e^x - 1`: fdlibm `expm1f`, operation for operation.
fn expm1f(mut x: f32) -> f32 {
    let mut hx = x.to_bits();
    let xsb = hx & 0x8000_0000;
    hx &= 0x7fff_ffff;

    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        // |x| >= 27 ln2
        if hx >= 0x42b1_7218 {
            // |x| >= 88.721...
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if xsb == 0 { x } else { -1.0 };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if xsb != 0 {
            return TINY - ONE; // x < -27 ln2: -1 with inexact
        }
    }

    // Argument reduction: x = hi - lo = k ln2 + (x - k ln2), c the
    // rounding error of hi - lo.
    let k: i32;
    let mut c = 0.0;
    if hx > 0x3eb1_7218 {
        // |x| > 0.5 ln2
        let (hi, lo);
        if hx < 0x3f85_1592 {
            // and |x| < 1.5 ln2
            if xsb == 0 {
                hi = x - LN2_HI;
                lo = LN2_LO;
                k = 1;
            } else {
                hi = x + LN2_HI;
                lo = -LN2_LO;
                k = -1;
            }
        } else {
            k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI;
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: x itself (with inexact when x != 0).
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        k = 0;
    }

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = ONE + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    let twopk = f32::from_bits(((0x7f + k) as u32) << 23);
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            ONE + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        // exp(x) - 1 suffices.
        let y = ONE - (e - x);
        let y = if k == 128 {
            y * 2.0 * f32::from_bits(0x7f00_0000) // 2^127
        } else {
            y * twopk
        };
        return y - ONE;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 - 2^-k
        (t - (e - x)) * twopk
    } else {
        let t = f32::from_bits(((0x7f - k) as u32) << 23); // 2^-k
        let y = x - (e + t);
        (y + ONE) * twopk
    }
}

/// Hyperbolic tangent: fdlibm `tanhf` (glibc 2.36), operation for
/// operation, so it is bit-identical to that libm's `tanhf` on every input
/// and independent of the host's.
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;

    // tanh(±inf) = ±1, tanh(NaN) = NaN.
    if ix >= 0x7f80_0000 {
        return if jx >= 0 {
            ONE / x + ONE
        } else {
            ONE / x - ONE
        };
    }

    let z;
    if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x; // ±0
        }
        if ix < 0x2400_0000 {
            return x * (ONE + x); // |x| < 2^-55: tanh(x) = x
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1f(TWO * x.abs());
            z = ONE - TWO / (t + TWO);
        } else {
            let t = expm1f(-TWO * x.abs());
            z = -t / (t + TWO);
        }
    } else {
        z = ONE - TINY; // |x| >= 22: ±1 with inexact
    }
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// `e^a - 1` for the arguments [`tanh`] passes `expm1f`, branch-free:
/// `a` in `[2, 44)` or `(-2, -2^-54]`, where the huge-argument filter
/// returns nothing and `k` stays in `[-3, 63]`. Every path below that
/// filter runs with the scalar operation sequence (`k = 1` included,
/// though it needs `0.5 ln2 < a < 1.5 ln2`, which tanh never passes);
/// integer arithmetic on the lanes a mask discards wraps instead of
/// panicking.
#[inline(always)]
fn expm1_lane(a: f32) -> f32 {
    let hx = a.to_bits() & 0x7fff_ffff;
    let neg = a.is_sign_negative();

    // Reduction. Between 0.5 ln2 and 1.5 ln2 the scalar code takes
    // k = ±1 with hi = a ∓ LN2_HI, lo = ±LN2_LO; those are exactly
    // a - t * LN2_HI and t * LN2_LO at t = ±1, so one formula serves both.
    // The scalar code's `as i32` truncates; `trunc` and then the
    // `1.5·2^23` add give that integer exactly for every |v| < 2^22, which
    // covers each lane whose result is kept (|v| < 64), and unlike the
    // saturating cast they vectorise. Other lanes get a wrapped `k`.
    let v = (INVLN2 * a + if neg { -0.5 } else { 0.5 }).trunc();
    let k_round = ((v + 12_582_912.0).to_bits() as i32).wrapping_sub(0x4b40_0000);
    let k_reduced = if hx < 0x3f85_1592 {
        if neg {
            -1
        } else {
            1
        }
    } else {
        k_round
    };
    let reduce = hx > 0x3eb1_7218;
    let k = if reduce { k_reduced } else { 0 };
    let t = k_reduced as f32;
    let hi = a - t * LN2_HI;
    let lo = t * LN2_LO;
    let reduced = hi - lo;
    let x = if reduce { reduced } else { a };
    let c = (hi - reduced) - lo;

    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = ONE + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e0 = hxs * ((r1 - t) / (6.0 - x * t));
    let y_k0 = x - (x * e0 - hxs);

    let twopk = f32::from_bits((k.wrapping_add(0x7f) as u32) << 23);
    let e = x * (e0 - c) - c;
    let e = e - hxs;
    let y_km1 = 0.5 * (x - e) - 0.5;
    let y_k1 = if x < -0.25 {
        -2.0 * (e - (x + 0.5))
    } else {
        ONE + 2.0 * (x - e)
    };
    // k = 128 (the scalar code's 2^127 split) needs a >= 88.38.
    let y_far = (ONE - (e - x)) * twopk - ONE;
    let t_lo = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32));
    let y_lo = (t_lo - (e - x)) * twopk;
    let t_hi = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32) << 23);
    let y_hi = ((x - (e + t_hi)) + ONE) * twopk;

    let y = if k < 23 { y_lo } else { y_hi };
    let y = if k <= -2 || k > 56 { y_far } else { y };
    let y = if k == 1 { y_k1 } else { y };
    let y = if k == -1 { y_km1 } else { y };
    let y = if k == 0 { y_k0 } else { y };
    if hx < 0x3300_0000 {
        let t = HUGE + a;
        a - (t - (HUGE + a))
    } else {
        y
    }
}

/// [`tanh`] as one branch-free lane: every path is computed and a mask
/// selects the scalar code's. The `tanhf` divisions share one divide:
/// `2 / (t + 2)` for |x| >= 1, `-t / (t + 2)` below, and `1 / x` for
/// ±inf and NaN, whose `1/x ∓ 1` is `1/x + (±1)` (IEEE subtraction is
/// addition of the negation).
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let sign = jx & 0x8000_0000;
    let ax = f32::from_bits(ix);
    let nonfinite = ix >= 0x7f80_0000;
    let big = ix >= 0x3f80_0000;

    let t = expm1_lane(if big { TWO * ax } else { -TWO * ax });
    let num = if nonfinite {
        ONE
    } else if big {
        TWO
    } else {
        -t
    };
    let q = num / if nonfinite { x } else { t + TWO };
    let z = if big { ONE - q } else { q };
    let z = if ix < 0x41b0_0000 { z } else { ONE - TINY };
    let z = f32::from_bits(z.to_bits() ^ sign); // -z for negative x

    let r = if nonfinite {
        q + f32::from_bits(ONE.to_bits() | sign)
    } else {
        z
    };
    let r = if ix < 0x2400_0000 { x * (ONE + x) } else { r };
    if ix == 0 {
        x
    } else {
        r
    }
}

/// The per-lane [`tanh`] loop. `I` selects only the `#[target_feature]`
/// instantiation `tiered_kernel!` wraps it in: the body is plain scalar
/// code with no branches on the data, which LLVM vectorises at that
/// tier's width.
#[inline(always)]
#[allow(clippy::extra_unused_type_parameters)] // the tier marker, see above
fn tanh_in_place_body<I: Isa>(xs: &mut [f32]) {
    for v in xs.iter_mut() {
        *v = tanh_lane(*v);
    }
}

tiered_kernel! {
    /// Applies [`tanh`] to every element of `xs`, bit for bit, on the
    /// fastest available SIMD tier.
    pub fn tanh_in_place / tanh_in_place_body(xs: &mut [f32])
}
