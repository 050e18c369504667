//! Probability distributions with `pdf` / `cdf` / `ppf`.
//!
//! OPTWIN's optimal-cut computation needs the probability point functions
//! (inverse CDFs) of the Student's *t*- and Fisher *F*-distributions; the
//! baselines additionally use the normal distribution (STEPD's two-proportion
//! z-test, ECDD's EWMA chart, the Wilcoxon normal approximation). Everything
//! is evaluated through the regularized incomplete gamma/beta functions of
//! [`crate::special`], so the quantile accuracy is inherited from their
//! inverses (absolute error well below `1e-8` across the parameter ranges
//! exercised by the workspace).

use crate::special::{
    erfc, inv_reg_inc_beta, inv_reg_inc_beta_from, ln_beta, ln_gamma, reg_inc_beta,
};
use crate::{Result, StatsError};

/// Checks that `p` is a valid interior probability for a quantile lookup.
fn check_probability(p: f64) -> Result<()> {
    if !(p > 0.0 && p < 1.0 && p.is_finite()) {
        return Err(StatsError::InvalidProbability { value: p });
    }
    Ok(())
}

/// Common interface of the continuous distributions in this module.
pub trait ContinuousDistribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Probability point function (inverse CDF): the `x` with `cdf(x) = p`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] when `p` is not strictly
    /// inside `(0, 1)`, or a convergence error from the underlying special
    /// function inversion (practically unreachable).
    fn ppf(&self, p: f64) -> Result<f64>;
}

// ---------------------------------------------------------------------------
// Normal
// ---------------------------------------------------------------------------

/// The standard normal distribution `N(0, 1)`, as associated functions: the
/// baselines need only its CDF and quantile.
#[derive(Debug, Clone, Copy)]
pub struct Normal;

impl Normal {
    /// Standard normal CDF `Φ(z)` — the form the baselines call directly.
    #[must_use]
    pub fn std_cdf(z: f64) -> f64 {
        0.5 * erfc(-z / std::f64::consts::SQRT_2)
    }

    /// Standard normal quantile `Φ⁻¹(p)`.
    ///
    /// Acklam's rational approximation (|relative error| < 1.15e-9) refined
    /// with one Halley step against [`Normal::std_cdf`], giving accuracy at
    /// the limit of double precision.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `0 < p < 1`.
    pub fn std_ppf(p: f64) -> Result<f64> {
        check_probability(p)?;

        const A: [f64; 6] = [
            -3.969683028665376e+01,
            2.209460984245205e+02,
            -2.759285104469687e+02,
            1.383_577_518_672_69e2,
            -3.066479806614716e+01,
            2.506628277459239e+00,
        ];
        const B: [f64; 5] = [
            -5.447609879822406e+01,
            1.615858368580409e+02,
            -1.556989798598866e+02,
            6.680131188771972e+01,
            -1.328068155288572e+01,
        ];
        const C: [f64; 6] = [
            -7.784894002430293e-03,
            -3.223964580411365e-01,
            -2.400758277161838e+00,
            -2.549732539343734e+00,
            4.374664141464968e+00,
            2.938163982698783e+00,
        ];
        const D: [f64; 4] = [
            7.784695709041462e-03,
            3.224671290700398e-01,
            2.445134137142996e+00,
            3.754408661907416e+00,
        ];
        const P_LOW: f64 = 0.02425;

        let x = if p < P_LOW {
            let q = (-2.0 * p.ln()).sqrt();
            (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        } else if p <= 1.0 - P_LOW {
            let q = p - 0.5;
            let r = q * q;
            (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
                / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
        } else {
            let q = (-2.0 * (1.0 - p).ln()).sqrt();
            -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        };

        // One Halley refinement step against the high-accuracy CDF.
        let e = Self::std_cdf(x) - p;
        let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
        Ok(x - u / (1.0 + x * u / 2.0))
    }
}

// ---------------------------------------------------------------------------
// Student's t
// ---------------------------------------------------------------------------

/// Student's *t*-distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentsT {
    df: f64,
}

impl StudentsT {
    /// Creates a *t*-distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `df` is positive and
    /// finite.
    pub fn new(df: f64) -> Result<Self> {
        if !(df > 0.0) || !df.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "df",
                value: df,
                constraint: "degrees of freedom must be positive and finite",
            });
        }
        Ok(Self { df })
    }

    /// The degrees of freedom.
    #[must_use]
    pub fn df(&self) -> f64 {
        self.df
    }

    /// Two-sided p-value `P(|T| >= |t|)`.
    #[must_use]
    pub fn two_sided_p_value(&self, t: f64) -> f64 {
        if t == 0.0 {
            return 1.0;
        }
        // P(|T| >= |t|) = I_{df/(df + t²)}(df/2, 1/2).
        let x = self.df / (self.df + t * t);
        reg_inc_beta(self.df / 2.0, 0.5, x)
            .unwrap_or(f64::NAN)
            .clamp(0.0, 1.0)
    }
}

impl ContinuousDistribution for StudentsT {
    fn pdf(&self, x: f64) -> f64 {
        let df = self.df;
        let ln_norm = ln_gamma((df + 1.0) / 2.0)
            - ln_gamma(df / 2.0)
            - 0.5 * (df * std::f64::consts::PI).ln();
        (ln_norm - 0.5 * (df + 1.0) * (1.0 + x * x / df).ln()).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        let tail = 0.5 * self.two_sided_p_value(x);
        if x >= 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }

    fn ppf(&self, p: f64) -> Result<f64> {
        check_probability(p)?;
        if (p - 0.5).abs() < 1e-16 {
            return Ok(0.0);
        }
        // Invert the two-sided tail: for p > 0.5 the upper tail mass is
        // 2(1 − p) and x = df/(df + t²) follows from the incomplete-beta
        // representation above.
        let tail = 2.0 * if p > 0.5 { 1.0 - p } else { p };
        let seed = if self.df >= 2.1 {
            1.0 / (1.0 + hill_t_squared_over_df(self.df, tail))
        } else {
            f64::NAN
        };
        let x = inv_reg_inc_beta_from(self.df / 2.0, 0.5, tail, seed)?;
        let t = (self.df * (1.0 - x) / x.max(f64::MIN_POSITIVE)).sqrt();
        Ok(if p > 0.5 { t } else { -t })
    }
}

/// Hill's approximation (CACM Algorithm 396, 1970; the start of R's `qt`)
/// to `t²/df`, where `t` is the t quantile with two-sided tail mass `tail`
/// at `df ≥ 2.1` degrees of freedom. Its relative error in `t` measured
/// at most 5e-4 (at df = 2.1) and below 2e-5 from df = 3 on, which leaves
/// the Newton loop one or two steps.
fn hill_t_squared_over_df(df: f64, tail: f64) -> f64 {
    let a = 1.0 / (df - 0.5);
    let b = 48.0 / (a * a);
    let mut c = ((20_700.0 * a / b - 98.0) * a - 16.0) * a + 96.36;
    let d = ((94.5 / (b + c) - 3.0) / b + 1.0) * (a * std::f64::consts::FRAC_PI_2).sqrt() * df;
    let y = (d * tail).powf(2.0 / df);
    if y > 0.05 + a {
        // Asymptotic inverse expansion about the normal quantile.
        let x = Normal::std_ppf(0.5 * tail).unwrap_or(f64::NAN);
        if df < 5.0 {
            c += 0.3 * (df - 4.5) * (x + 0.6);
        }
        c += (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b;
        let y = x * x;
        let y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x;
        (a * y * y).exp_m1()
    } else {
        ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
            + 0.5 / (df + 4.0))
            * y
            - 1.0)
            * (df + 1.0)
            / (df + 2.0)
            + 1.0 / y
    }
}

// ---------------------------------------------------------------------------
// Fisher F
// ---------------------------------------------------------------------------

/// Fisher–Snedecor *F*-distribution with `(df1, df2)` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FisherF {
    df1: f64,
    df2: f64,
}

impl FisherF {
    /// Creates an *F*-distribution with numerator (`df1`) and denominator
    /// (`df2`) degrees of freedom.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless both are positive and
    /// finite.
    pub fn new(df1: f64, df2: f64) -> Result<Self> {
        for (name, value) in [("df1", df1), ("df2", df2)] {
            if !(value > 0.0) || !value.is_finite() {
                return Err(StatsError::InvalidParameter {
                    name,
                    value,
                    constraint: "degrees of freedom must be positive and finite",
                });
            }
        }
        Ok(Self { df1, df2 })
    }

    /// Numerator degrees of freedom.
    #[must_use]
    pub fn df1(&self) -> f64 {
        self.df1
    }

    /// Denominator degrees of freedom.
    #[must_use]
    pub fn df2(&self) -> f64 {
        self.df2
    }
}

impl ContinuousDistribution for FisherF {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let (d1, d2) = (self.df1, self.df2);
        let ln_pdf = 0.5 * (d1 * (d1 * x).ln() + d2 * d2.ln() - (d1 + d2) * (d1 * x + d2).ln())
            - x.ln()
            - ln_beta(d1 / 2.0, d2 / 2.0);
        ln_pdf.exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let arg = self.df1 * x / (self.df1 * x + self.df2);
        reg_inc_beta(self.df1 / 2.0, self.df2 / 2.0, arg)
            .unwrap_or(f64::NAN)
            .clamp(0.0, 1.0)
    }

    fn ppf(&self, p: f64) -> Result<f64> {
        check_probability(p)?;
        let y = inv_reg_inc_beta(self.df1 / 2.0, self.df2 / 2.0, p)?;
        if y >= 1.0 {
            return Ok(f64::INFINITY);
        }
        Ok(self.df2 * y / (self.df1 * (1.0 - y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::INVERSION_EVALUATIONS;

    /// Published reference quantiles (R / scipy, 4+ significant digits).
    #[test]
    fn students_t_reference_quantiles() {
        let t10 = StudentsT::new(10.0).unwrap();
        assert!((t10.ppf(0.975).unwrap() - 2.2281).abs() < 1e-3);
        assert!((t10.ppf(0.95).unwrap() - 1.8125).abs() < 1e-3);
        let t1 = StudentsT::new(1.0).unwrap();
        assert!((t1.ppf(0.975).unwrap() - 12.7062).abs() < 1e-2);
        let t100 = StudentsT::new(100.0).unwrap();
        assert!((t100.ppf(0.99).unwrap() - 2.3642).abs() < 1e-3);
        // Symmetry.
        assert!((t10.ppf(0.25).unwrap() + t10.ppf(0.75).unwrap()).abs() < 1e-9);
        assert_eq!(t10.ppf(0.5).unwrap(), 0.0);
    }

    #[test]
    fn students_t_cdf_and_p_values() {
        let t = StudentsT::new(5.8823529).unwrap();
        // Two-sided p for |t| = 1.8974 at df ≈ 5.88 is ≈ 0.1073 (the Welch
        // test's hand-computed example).
        let p = t.two_sided_p_value(1.8973666);
        assert!((p - 0.107).abs() < 5e-3, "p = {p}");
        assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!(t.cdf(100.0) > 0.999999);
        assert!(t.cdf(-100.0) < 1e-6);
        assert_eq!(t.two_sided_p_value(0.0), 1.0);
    }

    #[test]
    fn students_t_round_trip() {
        let t = StudentsT::new(7.3).unwrap();
        for &p in &[0.01, 0.2, 0.5, 0.7, 0.975, 0.999] {
            let x = t.ppf(p).unwrap();
            assert!((t.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
    }

    /// Evaluations of `I_x(a, b)` that one `ppf` call makes.
    fn evaluations(ppf: impl FnOnce() -> Result<f64>) -> usize {
        let count = || INVERSION_EVALUATIONS.with(std::cell::Cell::get);
        let before = count();
        ppf().unwrap();
        count() - before
    }

    /// Quantiles the paper-default cut table inverts, at the drift and the
    /// warning δ', converge in a few evaluations. Each of these once took
    /// 7–55 at one of the two, through a start on the wrong side of the
    /// median or a converged step mistaken for a bracket escape. Three of
    /// the t dfs are the table's Welch df at |W| = 30, 25 000 and 100.
    #[test]
    fn cut_table_quantiles_converge_in_a_few_evaluations() {
        for delta_prime in [0.99_f64.powf(0.25), 0.95_f64.powf(0.25)] {
            for (df1, df2) in [
                (55.0, 24_943.0),
                (55.0, 300.0),
                (49.0, 49.0),
                (14.0, 14.0),
                (1.0, 27.0),
            ] {
                let f = FisherF::new(df1, df2).unwrap();
                let n = evaluations(|| f.ppf(delta_prime));
                assert!(
                    n <= 6,
                    "F({df1}, {df2}) at δ' = {delta_prime}: {n} evaluations"
                );
            }
            for df in [
                19.430_063_667_250_2,
                21.1704,
                55.152_577_490_013_044,
                85.231_749_705_378_5,
                2_247.862,
            ] {
                let t = StudentsT::new(df).unwrap();
                let n = evaluations(|| t.ppf(delta_prime));
                assert!(n <= 6, "t({df}) at δ' = {delta_prime}: {n} evaluations");
            }
        }
    }

    /// Round trips on both sides of every switch in the t quantile's start:
    /// the A&S start below df = 2.1 and Hill's above it, Hill's small-df
    /// correction below df = 5, and Hill's two expansions, which the tails
    /// from 1e-6 to 0.9 both reach at df 2.1–5 (from df = 30 on, only the
    /// one about the normal quantile).
    #[test]
    fn students_t_round_trip_across_hill_branch_points() {
        for df in [1.0, 1.5, 2.0, 2.05, 2.1, 3.0, 4.9, 5.0, 30.0, 1e4] {
            let t = StudentsT::new(df).unwrap();
            for tail in [1e-6, 1e-3, 0.005, 0.025, 0.2, 0.9] {
                for p in [0.5 * tail, 1.0 - 0.5 * tail] {
                    let x = t.ppf(p).unwrap();
                    assert!(
                        x.is_finite() && (x > 0.0) == (p > 0.5),
                        "df={df} p={p}: {x}"
                    );
                    let back = t.cdf(x);
                    let err = (back - p).abs() / (0.5 * tail);
                    assert!(err <= 1e-9, "df={df} p={p}: cdf({x}) = {back}");
                }
            }
        }
    }

    #[test]
    fn fisher_f_reference_quantiles() {
        let f = FisherF::new(5.0, 10.0).unwrap();
        assert!((f.ppf(0.95).unwrap() - 3.3258).abs() < 1e-3);
        let f = FisherF::new(1.0, 1.0).unwrap();
        assert!((f.ppf(0.95).unwrap() - 161.4476).abs() < 0.1);
        let f = FisherF::new(29.0, 29.0).unwrap();
        assert!((f.ppf(0.975).unwrap() - 2.1010).abs() < 1e-3);
    }

    #[test]
    fn fisher_f_round_trip() {
        let f = FisherF::new(9.0, 9.0).unwrap();
        for &p in &[0.05, 0.5, 0.9, 0.99] {
            let x = f.ppf(p).unwrap();
            assert!((f.cdf(x) - p).abs() < 1e-8, "p = {p}");
        }
    }

    #[test]
    fn normal_reference_values() {
        assert!((Normal::std_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((Normal::std_cdf(1.959964) - 0.975).abs() < 1e-6);
        assert!((Normal::std_cdf(-1.959964) - 0.025).abs() < 1e-6);
        assert!((Normal::std_ppf(0.975).unwrap() - 1.959964).abs() < 1e-6);
        assert!((Normal::std_ppf(0.5).unwrap()).abs() < 1e-9);
        assert!((Normal::std_ppf(1e-6).unwrap() + 4.753424).abs() < 1e-4);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(StudentsT::new(0.0).is_err());
        assert!(StudentsT::new(f64::NAN).is_err());
        assert!(FisherF::new(-1.0, 5.0).is_err());
        assert!(FisherF::new(5.0, 0.0).is_err());
    }

    #[test]
    fn invalid_probabilities_rejected() {
        let t = StudentsT::new(5.0).unwrap();
        assert!(t.ppf(0.0).is_err());
        assert!(t.ppf(1.0).is_err());
        assert!(t.ppf(-0.5).is_err());
        assert!(t.ppf(f64::NAN).is_err());
        assert!(Normal::std_ppf(1.5).is_err());
    }

    #[test]
    fn pdf_integrates_to_one_numerically() {
        // Trapezoidal check over a generous support for each distribution.
        let integrate = |pdf: &dyn Fn(f64) -> f64, lo: f64, hi: f64| -> f64 {
            let n = 20_000;
            let h = (hi - lo) / n as f64;
            let mut acc = 0.5 * (pdf(lo) + pdf(hi));
            for i in 1..n {
                acc += pdf(lo + i as f64 * h);
            }
            acc * h
        };
        let t = StudentsT::new(8.0).unwrap();
        assert!((integrate(&|x| t.pdf(x), -60.0, 60.0) - 1.0).abs() < 1e-4);
        let f = FisherF::new(6.0, 14.0).unwrap();
        assert!((integrate(&|x| f.pdf(x), 1e-9, 120.0) - 1.0).abs() < 1e-3);
    }
}
