//! Special functions: log-gamma, error function, the regularized incomplete
//! gamma and beta functions, and the inverse of the incomplete beta.
//!
//! These are the numerical primitives behind every distribution in
//! [`crate::dist`]. The implementations follow the classical series /
//! continued-fraction decompositions (Lanczos approximation for `ln Γ`,
//! Lentz's algorithm for the continued fractions) and are validated in the
//! unit tests against published reference values to at least `1e-10`
//! absolute accuracy in the well-conditioned regions.

use crate::{Result, StatsError};

/// Machine-epsilon-scale tolerance used by the iterative routines.
const EPS: f64 = 1e-15;
/// Smallest representable scale used to guard divisions in Lentz's algorithm.
const FPMIN: f64 = 1e-300;
/// Iteration cap for series / continued-fraction evaluations.
const MAX_ITER: usize = 500;

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with g = 7 and a 9-term coefficient set,
/// which yields ~15 significant digits over the positive real axis.
///
/// # Panics
///
/// Does not panic; returns `f64::NAN` for non-positive or non-finite input.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 7, n = 9).
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];

    if !x.is_finite() || x <= 0.0 {
        return f64::NAN;
    }
    if x < 0.5 {
        // Reflection formula: Γ(x) Γ(1-x) = π / sin(πx).
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        return std::f64::consts::PI.ln() - sin_pi_x.ln() - ln_gamma(1.0 - x);
    }

    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of the beta function `ln B(a, b)` for `a, b > 0`.
#[must_use]
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// The error function `erf(x)`.
///
/// Computed through the regularized lower incomplete gamma function
/// `P(1/2, x²)`, which keeps all accuracy in one code path.
#[must_use]
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    let p = reg_lower_gamma(0.5, x * x).unwrap_or(f64::NAN);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// For large positive `x` this uses the upper incomplete gamma function
/// directly so that the result does not lose accuracy to cancellation.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x >= 0.0 {
        reg_upper_gamma(0.5, x * x).unwrap_or(f64::NAN)
    } else {
        1.0 + erf(-x).abs()
    }
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] if `a <= 0` or `x < 0`, and
/// [`StatsError::ConvergenceFailure`] if the series/continued fraction does
/// not converge (practically unreachable for valid input).
pub fn reg_lower_gamma(a: f64, x: f64) -> Result<f64> {
    check_gamma_args(a, x)?;
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        // Series representation converges quickly here.
        gamma_series(a, x)
    } else {
        // Use the continued fraction for Q and complement.
        Ok(1.0 - gamma_continued_fraction(a, x)?)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// # Errors
///
/// Same conditions as [`reg_lower_gamma`].
pub fn reg_upper_gamma(a: f64, x: f64) -> Result<f64> {
    check_gamma_args(a, x)?;
    if x == 0.0 {
        return Ok(1.0);
    }
    if x < a + 1.0 {
        Ok(1.0 - gamma_series(a, x)?)
    } else {
        gamma_continued_fraction(a, x)
    }
}

fn check_gamma_args(a: f64, x: f64) -> Result<()> {
    if !(a > 0.0) || !a.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "a",
            value: a,
            constraint: "shape parameter must be positive and finite",
        });
    }
    if !(x >= 0.0) || !x.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
            constraint: "argument must be non-negative and finite",
        });
    }
    Ok(())
}

/// Series expansion of P(a, x), valid and fast for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> Result<f64> {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            return Ok(sum * (-x + a * x.ln() - ln_gamma(a)).exp());
        }
    }
    Err(StatsError::ConvergenceFailure {
        routine: "gamma_series",
        iterations: MAX_ITER,
    })
}

/// Continued-fraction expansion of Q(a, x), valid and fast for `x >= a + 1`.
fn gamma_continued_fraction(a: f64, x: f64) -> Result<f64> {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return Ok((-x + a * x.ln() - ln_gamma(a)).exp() * h);
        }
    }
    Err(StatsError::ConvergenceFailure {
        routine: "gamma_continued_fraction",
        iterations: MAX_ITER,
    })
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// # Errors
///
/// Returns an error if `a <= 0`, `b <= 0`, or `x` is outside `[0, 1]`, or if
/// the continued fraction fails to converge.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> Result<f64> {
    reg_inc_beta_given_ln_beta(a, b, x, ln_beta(a, b))
}

/// [`reg_inc_beta`] with `ln B(a, b)` supplied by the caller, so that
/// [`inv_reg_inc_beta`] computes it once per inversion instead of once per
/// Newton step. Same operations in the same order, hence the same bits.
fn reg_inc_beta_given_ln_beta(a: f64, b: f64, x: f64, ln_beta_ab: f64) -> Result<f64> {
    if !(a > 0.0) || !a.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "a",
            value: a,
            constraint: "shape parameter must be positive and finite",
        });
    }
    if !(b > 0.0) || !b.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "b",
            value: b,
            constraint: "shape parameter must be positive and finite",
        });
    }
    if !(0.0..=1.0).contains(&x) {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
            constraint: "argument must lie in [0, 1]",
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }

    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta_ab;
    let front = ln_front.exp();

    // The continued fraction converges fastest for x < (a + 1) / (a + b + 2);
    // otherwise evaluate the symmetric complement.
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok(front * beta_continued_fraction(a, b, x)? / a)
    } else {
        Ok(1.0 - front * beta_continued_fraction(b, a, 1.0 - x)? / b)
    }
}

/// Lentz continued-fraction evaluation for the incomplete beta function.
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> Result<f64> {
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return Ok(h);
        }
    }
    Err(StatsError::ConvergenceFailure {
        routine: "beta_continued_fraction",
        iterations: MAX_ITER,
    })
}

/// Inverse of the regularized incomplete beta function: finds `x` such that
/// `I_x(a, b) = p`.
///
/// Starts from Abramowitz & Stegun 26.5.22, which maps the normal quantile
/// at `1 − p` to `x` when `a, b > 1` (a power-law tail estimate otherwise),
/// and takes Newton steps inside a bisection bracket; a step that leaves
/// the bracket is replaced by the bracket's midpoint. The search stops when
/// a step moves `x` by less than `1e-14` (tested before the bracket, since
/// a step that rounds back to `x` lands on the bracket end `x` just became)
/// or when the bracket is narrower than that. From this start an F quantile
/// at OPTWIN's confidences costs about three evaluations of `I_x(a, b)`.
///
/// A crate-private entry of the same loop takes the caller's start instead:
/// [`crate::dist::StudentsT`] seeds it from Hill's approximation.
///
/// # Errors
///
/// Returns an error for invalid shape parameters or `p` outside `[0, 1]`.
pub fn inv_reg_inc_beta(a: f64, b: f64, p: f64) -> Result<f64> {
    inv_reg_inc_beta_from(a, b, p, f64::NAN)
}

/// [`inv_reg_inc_beta`] started at `seed`. A seed outside `(0, 1)`, NaN
/// included, falls back to the A&S 26.5.22 start.
pub(crate) fn inv_reg_inc_beta_from(a: f64, b: f64, p: f64, seed: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidProbability { value: p });
    }
    if p == 0.0 {
        return Ok(0.0);
    }
    if p == 1.0 {
        return Ok(1.0);
    }

    let mut x = if seed > 0.0 && seed < 1.0 {
        seed
    } else {
        abramowitz_stegun_start(a, b, p)
    }
    .clamp(1e-300, 1.0 - 1e-16);

    // Bisection bracket maintained alongside Newton.
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    let ln_beta_ab = ln_beta(a, b);
    let afac = -ln_beta_ab;
    for _ in 0..100 {
        count_evaluation();
        let err = reg_inc_beta_given_ln_beta(a, b, x, ln_beta_ab)? - p;
        if err > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        let ln_pdf = (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln() + afac;
        let pdf = ln_pdf.exp();
        let mut next = if pdf > 0.0 { x - err / pdf } else { f64::NAN };
        // Converged, even if the step rounded back onto the bracket end `x`.
        if (next - x).abs() < 1e-14 {
            return Ok(next.clamp(lo, hi));
        }
        if !next.is_finite() || next <= lo || next >= hi {
            next = 0.5 * (lo + hi);
        }
        let dx = (next - x).abs();
        x = next;
        if dx < 1e-14 || (hi - lo) < 1e-14 {
            return Ok(x);
        }
    }
    // Newton/bisection always makes progress; reaching this point means the
    // tolerance was not hit but the estimate is still inside the bracket.
    Ok(x)
}

/// The Abramowitz & Stegun 26.5.22 approximation to `x` with
/// `I_x(a, b) = p`, as in Numerical Recipes' `invbetai`.
fn abramowitz_stegun_start(a: f64, b: f64, p: f64) -> f64 {
    if a > 1.0 && b > 1.0 {
        // `y` is the normal quantile at 1 − p (A&S 26.2.22), so a small p
        // maps to a small x.
        let pp = if p < 0.5 { p } else { 1.0 - p };
        let t = (-2.0 * pp.ln()).sqrt();
        let mut y = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t;
        if p < 0.5 {
            y = -y;
        }
        let al = (y * y - 3.0) / 6.0;
        let h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0));
        let w = y * (al + h).sqrt() / h
            - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h));
        a / (a + b * (2.0 * w).exp())
    } else {
        let lna = (a / (a + b)).ln();
        let lnb = (b / (a + b)).ln();
        let t = (a * lna).exp() / a;
        let u = (b * lnb).exp() / b;
        let w = t + u;
        if p < t / w {
            (a * w * p).powf(1.0 / a)
        } else {
            1.0 - (b * w * (1.0 - p)).powf(1.0 / b)
        }
    }
}

/// Counts one evaluation of `I_x(a, b)` by the inversion loop in
/// `INVERSION_EVALUATIONS` when built for tests; does nothing otherwise.
fn count_evaluation() {
    #[cfg(test)]
    INVERSION_EVALUATIONS.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
thread_local! {
    /// Evaluations of `I_x(a, b)` made by [`inv_reg_inc_beta_from`] on this
    /// thread, so that tests can pin how fast an inversion converges.
    pub(crate) static INVERSION_EVALUATIONS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(3) = 2, Γ(4) = 6, Γ(5) = 24
        assert!((ln_gamma(1.0) - 0.0).abs() < TOL);
        assert!((ln_gamma(2.0) - 0.0).abs() < TOL);
        assert!((ln_gamma(3.0) - 2.0_f64.ln()).abs() < TOL);
        assert!((ln_gamma(4.0) - 6.0_f64.ln()).abs() < TOL);
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < TOL);
        // Γ(0.5) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < TOL);
        // Γ(10.5) = 9.5 · 8.5 · … · 0.5 · Γ(0.5); compare in log space.
        let expected =
            (0..10).map(|i| (0.5 + i as f64).ln()).sum::<f64>() + std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(10.5) - expected).abs() < 1e-9);
    }

    #[test]
    fn ln_gamma_reflection_small_values() {
        // Γ(0.25) = 3.62561 (ln = 1.28802252469807745...)
        assert!((ln_gamma(0.25) - 1.288_022_524_698_077_4).abs() < 1e-8);
    }

    #[test]
    fn ln_gamma_invalid_inputs_are_nan() {
        assert!(ln_gamma(0.0).is_nan());
        assert!(ln_gamma(-1.0).is_nan());
        assert!(ln_gamma(f64::NAN).is_nan());
        assert!(ln_gamma(f64::INFINITY).is_nan());
    }

    #[test]
    fn ln_beta_symmetric() {
        assert!((ln_beta(2.5, 3.5) - ln_beta(3.5, 2.5)).abs() < TOL);
        // B(1,1) = 1
        assert!((ln_beta(1.0, 1.0)).abs() < TOL);
        // B(2,3) = 1/12
        assert!((ln_beta(2.0, 3.0) - (1.0_f64 / 12.0).ln()).abs() < TOL);
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun.
        assert!((erf(0.0)).abs() < TOL);
        assert!((erf(0.5) - 0.520_499_877_813_046_5).abs() < 1e-9);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-9);
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-9);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-9);
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[-2.0, -0.7, 0.0, 0.3, 1.1, 2.5] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12, "x = {x}");
        }
        // Tail accuracy: erfc(3) = 2.20904969985854e-5
        assert!((erfc(3.0) - 2.209_049_699_858_54e-5).abs() < 1e-12);
    }

    #[test]
    fn reg_gamma_basic_identities() {
        // P(a, 0) = 0, Q(a, 0) = 1
        assert_eq!(reg_lower_gamma(2.0, 0.0).unwrap(), 0.0);
        assert_eq!(reg_upper_gamma(2.0, 0.0).unwrap(), 1.0);
        // P + Q = 1
        for &(a, x) in &[(0.5, 0.3), (1.0, 2.0), (3.0, 2.5), (10.0, 12.0)] {
            let p = reg_lower_gamma(a, x).unwrap();
            let q = reg_upper_gamma(a, x).unwrap();
            assert!((p + q - 1.0).abs() < 1e-12, "a={a} x={x}");
        }
        // P(1, x) = 1 - exp(-x)
        for &x in &[0.1, 1.0, 3.0] {
            assert!((reg_lower_gamma(1.0, x).unwrap() - (1.0 - (-x).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn reg_gamma_rejects_invalid() {
        assert!(reg_lower_gamma(-1.0, 1.0).is_err());
        assert!(reg_lower_gamma(1.0, -1.0).is_err());
        assert!(reg_upper_gamma(0.0, 1.0).is_err());
    }

    #[test]
    fn reg_inc_beta_reference_values() {
        // I_x(a, b) reference values (computed with high-precision software).
        // I_{0.5}(2, 2) = 0.5
        assert!((reg_inc_beta(2.0, 2.0, 0.5).unwrap() - 0.5).abs() < 1e-12);
        // I_{0.25}(2, 3) = 0.26171875
        assert!((reg_inc_beta(2.0, 3.0, 0.25).unwrap() - 0.261_718_75).abs() < 1e-10);
        // I_{0.1}(0.5, 0.5) = (2/pi) asin(sqrt(0.1)) = 0.204832764699133...
        assert!((reg_inc_beta(0.5, 0.5, 0.1).unwrap() - 0.204_832_764_699_133_6).abs() < 1e-9);
        // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (7.5, 2.25, 0.65), (0.5, 3.0, 0.12)] {
            let lhs = reg_inc_beta(a, b, x).unwrap();
            let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x).unwrap();
            assert!((lhs - rhs).abs() < 1e-10, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn reg_inc_beta_edges_and_errors() {
        assert_eq!(reg_inc_beta(2.0, 3.0, 0.0).unwrap(), 0.0);
        assert_eq!(reg_inc_beta(2.0, 3.0, 1.0).unwrap(), 1.0);
        assert!(reg_inc_beta(0.0, 3.0, 0.5).is_err());
        assert!(reg_inc_beta(2.0, -3.0, 0.5).is_err());
        assert!(reg_inc_beta(2.0, 3.0, 1.5).is_err());
    }

    #[test]
    fn inv_reg_inc_beta_round_trip() {
        for &(a, b) in &[
            (0.5, 0.5),
            (1.0, 3.0),
            (2.0, 2.0),
            (5.0, 10.0),
            (50.0, 30.0),
        ] {
            for &p in &[0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999] {
                let x = inv_reg_inc_beta(a, b, p).unwrap();
                let back = reg_inc_beta(a, b, x).unwrap();
                assert!(
                    (back - p).abs() < 1e-8,
                    "a={a} b={b} p={p} x={x} back={back}"
                );
            }
        }
    }

    #[test]
    fn inv_reg_inc_beta_edges() {
        assert_eq!(inv_reg_inc_beta(2.0, 3.0, 0.0).unwrap(), 0.0);
        assert_eq!(inv_reg_inc_beta(2.0, 3.0, 1.0).unwrap(), 1.0);
        assert!(inv_reg_inc_beta(2.0, 3.0, -0.5).is_err());
        assert!(inv_reg_inc_beta(2.0, 3.0, 2.0).is_err());
    }

    #[test]
    fn inc_beta_is_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..100 {
            let x = i as f64 / 100.0;
            let v = reg_inc_beta(3.0, 7.0, x).unwrap();
            assert!(v >= prev, "not monotone at x={x}");
            prev = v;
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn inc_beta_in_unit_interval(a in 0.1f64..50.0, b in 0.1f64..50.0, x in 0.0f64..=1.0) {
            let v = reg_inc_beta(a, b, x).unwrap();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }

        #[test]
        fn inv_beta_round_trip(a in 0.2f64..30.0, b in 0.2f64..30.0, p in 0.001f64..0.999) {
            let x = inv_reg_inc_beta(a, b, p).unwrap();
            prop_assert!((0.0..=1.0).contains(&x));
            let back = reg_inc_beta(a, b, x).unwrap();
            prop_assert!((back - p).abs() < 1e-6, "a={} b={} p={} back={}", a, b, p, back);
        }

        #[test]
        fn gamma_p_plus_q_is_one(a in 0.1f64..100.0, x in 0.0f64..200.0) {
            let p = reg_lower_gamma(a, x).unwrap();
            let q = reg_upper_gamma(a, x).unwrap();
            prop_assert!((p + q - 1.0).abs() < 1e-10);
        }

        #[test]
        fn erf_is_odd_and_bounded(x in -5.0f64..5.0) {
            let v = erf(x);
            prop_assert!((-1.0..=1.0).contains(&v));
            prop_assert!((erf(-x) + v).abs() < 1e-12);
        }

        #[test]
        fn ln_gamma_recurrence(x in 0.5f64..50.0) {
            // Γ(x+1) = x Γ(x)  =>  lnΓ(x+1) = ln x + lnΓ(x)
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            prop_assert!((lhs - rhs).abs() < 1e-9);
        }
    }
}
