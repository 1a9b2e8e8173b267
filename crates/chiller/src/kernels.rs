//! Branch-free scalar kernels for the Box–Muller noise generator.
//!
//! The noise loop maps two uniform draws to two normal ones through
//! `ln u₁` and `sin_cos(2πu₂)`. Both arguments have a known range, so
//! neither kernel needs the special cases a general libm function
//! carries (zero, negatives, subnormals, infinities, large-argument
//! reduction), and both run without a data-dependent branch. A branch
//! on the quadrant of `u₂` is random by construction, so it would
//! mispredict about every other draw. Both agree with `std` to within a
//! few ulp over their domains (DESIGN.md §10.6).

/// `ln 2` to 32 significant bits, so that `k·LN2_HI` is exact for every
/// `|k| ≤ 1024`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// Bit pattern of `√½`; the mantissa is reduced into `[√½, √2)`.
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
/// Added to a bit pattern, carries into the exponent exactly when the
/// mantissa is at least `√2`.
const REDUCE: u64 = 0x3ff0_0000_0000_0000 - SQRT_HALF_BITS;
/// Bits of an `f64`'s fraction field.
const FRACTION: u64 = (1 << 52) - 1;

/// `ln u` for a normal, positive, finite `u` (the Box–Muller radius
/// draw, `u ∈ [ε, 1)`).
///
/// Write `u = 2^k·m` with `m ∈ [√½, √2)`, found by integer arithmetic
/// on the bits (`REDUCE`). With
/// `f = m − 1` and `s = f/(2 + f)`, `ln m = 2·atanh s`, and `|s| ≤ 0.172`,
/// so nine terms of the series `2s(1 + s²/3 + s⁴/5 + …)` reach full
/// precision. The sum is arranged as `f − f²/2 + s(f²/2 + R)`, which
/// keeps `f` exact when `u` is close to 1.
#[inline]
pub(crate) fn ln(u: f64) -> f64 {
    let ix = u.to_bits() + REDUCE;
    let k = ((ix >> 52) as i64 - 0x3ff) as f64;
    let m = f64::from_bits((ix & FRACTION) + SQRT_HALF_BITS);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    // R = 2(z/3 + z²/5 + … + z⁹/19), so that ln m = 2s + s·R.
    let r = z
        * (2.0 / 3.0
            + z * (2.0 / 5.0
                + z * (2.0 / 7.0
                    + z * (2.0 / 9.0
                        + z * (2.0 / 11.0
                            + z * (2.0 / 13.0
                                + z * (2.0 / 15.0 + z * (2.0 / 17.0 + z * (2.0 / 19.0)))))))));
    let hfsq = 0.5 * f * f;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `(sin 2πu, cos 2πu)` for `u ∈ [0, 1)`.
///
/// `4u` is exact, and so is its distance `r` to the nearest integer `q`,
/// so the angle splits as `q·π/2 + θ` with `θ = r·π/2 ∈ [−π/4, π/4]`
/// and one rounding. `sin θ` and `cos θ` are their Taylor series to
/// `θ¹⁷` and `θ¹⁶`, and the quadrant `q mod 4` swaps and negates them
/// through bit masks, not a branch.
#[inline]
pub(crate) fn sin_cos_turn(u: f64) -> (f64, f64) {
    let x = 4.0 * u;
    let q = (x + 0.5) as u64;
    let theta = (x - q as f64) * std::f64::consts::FRAC_PI_2;
    let t2 = theta * theta;
    let sin = theta
        + theta
            * t2
            * (-1.0 / 6.0
                + t2 * (1.0 / 120.0
                    + t2 * (-1.0 / 5_040.0
                        + t2 * (1.0 / 362_880.0
                            + t2 * (-1.0 / 39_916_800.0
                                + t2 * (1.0 / 6_227_020_800.0
                                    + t2 * (-1.0 / 1_307_674_368_000.0
                                        + t2 * (1.0 / 355_687_428_096_000.0))))))));
    let hz = 0.5 * t2;
    let cos = 1.0 - hz
        + t2 * t2
            * (1.0 / 24.0
                + t2 * (-1.0 / 720.0
                    + t2 * (1.0 / 40_320.0
                        + t2 * (-1.0 / 3_628_800.0
                            + t2 * (1.0 / 479_001_600.0
                                + t2 * (-1.0 / 87_178_291_200.0
                                    + t2 * (1.0 / 20_922_789_888_000.0)))))));
    // Odd quadrants swap the pair; quadrants 2 and 3 negate the sine,
    // quadrants 1 and 2 the cosine.
    let swap = (q & 1).wrapping_neg();
    let (s, c) = (sin.to_bits(), cos.to_bits());
    let sin_bits = (s & !swap) | (c & swap);
    let cos_bits = (c & !swap) | (s & swap);
    (
        f64::from_bits(sin_bits ^ ((q & 2) << 62)),
        f64::from_bits(cos_bits ^ (((q + 1) & 2) << 62)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    /// Distance in units in the last place of `want`.
    fn ulps(got: f64, want: f64) -> f64 {
        let ulp = f64::from_bits(want.abs().to_bits() + 1) - want.abs();
        (got - want).abs() / ulp
    }

    /// The largest uniform draw, `1 − 2⁻⁵³`.
    const TOP: f64 = 1.0 - f64::EPSILON / 2.0;

    /// Every 53-bit uniform grid point `j·2⁻⁵³` for `j` in a stride
    /// across the whole range, plus its neighbours.
    fn grid(stride: u64) -> impl Iterator<Item = f64> {
        (0..(1u64 << 53))
            .step_by(stride as usize)
            .flat_map(|j| [j, j + 1, j.saturating_sub(1)])
            .filter(|&j| j < (1 << 53))
            .map(|j| j as f64 / (1u64 << 53) as f64)
    }

    #[test]
    fn ln_matches_std_at_the_edges() {
        for u in [
            f64::EPSILON,
            2.0 * f64::EPSILON,
            TOP,
            1.0 - f64::EPSILON,
            0.5,
            0.25,
            0.75,
            std::f64::consts::FRAC_1_SQRT_2,
            f64::from_bits(SQRT_HALF_BITS - 1),
            f64::from_bits(SQRT_HALF_BITS + 1),
        ] {
            let (got, want) = (ln(u), u.ln());
            assert!(ulps(got, want) <= 1.0, "ln({u:e}) = {got:e}, std {want:e}");
        }
        assert_eq!(ln(0.5), -std::f64::consts::LN_2);
    }

    #[test]
    fn ln_matches_std_on_the_uniform_grid() {
        let mut worst = 0.0f64;
        for u in grid((1 << 53) / 200_003).filter(|&u| u >= f64::EPSILON) {
            worst = worst.max(ulps(ln(u), u.ln()));
        }
        println!("worst ln error on the grid: {worst:.2} ulp");
        assert!(worst <= 2.0, "worst ln error {worst} ulp");
    }

    #[test]
    fn sin_cos_turn_matches_std_at_the_quadrant_edges() {
        for u in [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, TOP] {
            for v in [u, f64::from_bits(u.to_bits().saturating_sub(1))] {
                let (s, c) = sin_cos_turn(v);
                let (ws, wc) = (2.0 * PI * v).sin_cos();
                assert!(
                    (s - ws).abs() <= 4.0 * f64::EPSILON,
                    "sin 2π·{v:e}: {s:e} vs {ws:e}"
                );
                assert!(
                    (c - wc).abs() <= 4.0 * f64::EPSILON,
                    "cos 2π·{v:e}: {c:e} vs {wc:e}"
                );
            }
        }
        // The quadrant edges themselves are exact.
        assert_eq!(sin_cos_turn(0.0), (0.0, 1.0));
        assert_eq!(sin_cos_turn(0.25), (1.0, 0.0));
        assert_eq!(sin_cos_turn(0.5), (0.0, -1.0));
        assert_eq!(sin_cos_turn(0.75), (-1.0, 0.0));
    }

    #[test]
    fn sin_cos_turn_matches_std_on_the_uniform_grid() {
        // `std` rounds the product 2πu before it reduces it, which moves
        // its result by up to one ulp of 2π times the cosine; both sides
        // are compared in absolute terms on that scale.
        let mut worst = 0.0f64;
        for u in grid((1 << 53) / 200_003) {
            let (s, c) = sin_cos_turn(u);
            let (ws, wc) = (2.0 * PI * u).sin_cos();
            worst = worst.max((s - ws).abs()).max((c - wc).abs());
        }
        println!("worst sin_cos_turn error on the grid: {worst:.2e}");
        assert!(worst <= 4.0 * f64::EPSILON, "worst sin_cos error {worst:e}");
    }

    proptest! {
        #[test]
        fn ln_is_within_two_ulp_of_std(j in 1u64..(1u64 << 53)) {
            let u = (j as f64 / (1u64 << 53) as f64).max(f64::EPSILON);
            prop_assert!(ulps(ln(u), u.ln()) <= 2.0);
        }

        #[test]
        fn sin_cos_turn_is_within_a_few_ulp_of_std(j in 0u64..(1u64 << 53)) {
            let u = j as f64 / (1u64 << 53) as f64;
            let (s, c) = sin_cos_turn(u);
            let (ws, wc) = (2.0 * PI * u).sin_cos();
            prop_assert!((s - ws).abs() <= 4.0 * f64::EPSILON);
            prop_assert!((c - wc).abs() <= 4.0 * f64::EPSILON);
            prop_assert!((s * s + c * c - 1.0).abs() <= 4.0 * f64::EPSILON);
        }
    }
}
