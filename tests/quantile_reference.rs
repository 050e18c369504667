//! The F and t quantiles behind the paper-default cut table (δ = 0.99,
//! warning δ = 0.95, ρ = 0.5, `w_max` = 25 000), checked against references
//! computed independently at 70 significant digits.
//!
//! Each row is one window length |W| at one confidence δ' = δ^¼: the
//! F-test's degrees of freedom `(|W_new| − 1, |W_hist| − 1)` at the table's
//! split, the Welch–Satterthwaite df that Equation 2 derives from that F
//! quantile, and both quantiles at δ'. |W| = 30 and 100 lie below the proof
//! window (the ν = 0.5 fallback split), 181 is the proof window, 186 lies
//! just above it, and 24 719 is where the table's F quantile moves most
//! with the solver. The
//! references come from mpmath 1.3.0, with `p` the exact binary value of
//! the `f64` δ' and each quantile solved on the incomplete beta function,
//! as the crate does (`I_y(df1/2, df2/2) = p`, `F = df2·y / (df1·(1 − y))`;
//! `I_x(df/2, 1/2) = 2(1 − p)`, `t = √(df·(1 − x)/x)`):
//!
//! ```text
//! def inv_beta(a, b, p):  # mpmath: bisection at 30 digits, Newton at 70
//!     mp.dps = 30; lo, hi = mpf(0), mpf(1)
//!     for _ in range(60):
//!         mid = (lo + hi) / 2
//!         lo, hi = (mid, hi) if betainc(a, b, 0, mid, regularized=True) < p else (lo, mid)
//!     mp.dps = 70; y = (lo + hi) / 2
//!     for _ in range(30):
//!         y -= (betainc(a, b, 0, y, regularized=True) - p) \
//!              / exp((a - 1) * log(y) + (b - 1) * log(1 - y) - log(beta(a, b)))
//!     return y  # |I_y(a, b) − p| < 1e-60 was checked for every row
//! ```

use optwin::stats::dist::{ContinuousDistribution, FisherF, StudentsT};

/// The `f64` values of 0.99^¼ and 0.95^¼, the drift and warning δ' the cut
/// table uses.
const DRIFT: f64 = 0.997_490_569_933_681_1;
const WARNING: f64 = 0.987_258_544_901_433_8;

/// `(|W|, δ', df1, df2, F quantile, Welch df, t quantile)`.
type Row = (usize, f64, f64, f64, f64, f64, f64);

#[rustfmt::skip]
const PAPER_TABLE: [Row; 20] = [
    (30, DRIFT, 14.0, 14.0, 4.9546465488942, 19.4300636672502, 3.163029846917066),
    (30, WARNING, 14.0, 14.0, 3.499486546452777, 21.397147773047383, 2.4014769178372766),
    (100, DRIFT, 49.0, 49.0, 2.2628990150488684, 85.2317497053785, 2.880640956140268),
    (100, WARNING, 49.0, 49.0, 1.909873550627798, 89.2717368474254, 2.2720949708012124),
    (181, DRIFT, 93.0, 86.0, 1.8268796092817325, 170.89358268784017, 2.8426829009269587),
    (181, WARNING, 93.0, 86.0, 1.6132519358542803, 174.59676073380618, 2.253325081745477),
    (186, DRIFT, 86.0, 98.0, 1.79928752003319, 157.54213432642257, 2.845848067507228),
    (186, WARNING, 86.0, 98.0, 1.5950042448215902, 163.3555639427559, 2.2546665508020043),
    (256, DRIFT, 68.0, 186.0, 1.71081804580449, 98.81473675855, 2.870139564474685),
    (256, WARNING, 68.0, 186.0, 1.5359976316958521, 102.4335435618805, 2.2671310178268347),
    (1_000, DRIFT, 57.0, 941.0, 1.637257291437466, 61.362468289079224, 2.910742200340956),
    (1_000, WARNING, 57.0, 941.0, 1.4862538678586852, 61.81408208117415, 2.2894159835162897),
    (2_250, DRIFT, 56.0, 2_192.0, 1.6255440425944157, 57.804774522044475, 2.9174344321242853),
    (2_250, WARNING, 56.0, 2_192.0, 1.4781692981716716, 57.986239028889614, 2.2931662215607203),
    (10_000, DRIFT, 55.0, 9_943.0, 1.6214245757722052, 55.38271210056767, 2.9225009150631633),
    (10_000, WARNING, 55.0, 9_943.0, 1.4754533520856055, 55.42064673646441, 2.295977381262364),
    (24_719, DRIFT, 55.0, 24_662.0, 1.6196752225653148, 55.154315837612366, 2.923002501665246),
    (24_719, WARNING, 55.0, 24_662.0, 1.4742141885028537, 55.16955390628613, 2.2962669243351654),
    (25_000, DRIFT, 55.0, 24_943.0, 1.6196619090303612, 55.152577490013044, 2.923006335824001),
    (25_000, WARNING, 55.0, 24_943.0, 1.4742047563539522, 55.16764346845369, 2.2962691376905835),
];

/// Largest relative error allowed. The F quantiles of the longest windows
/// come closest, at up to 1.1e-12 (1.3e-12 with the solver that bisected);
/// the t quantiles stay within 1e-14 (1.1e-13 then).
const TOLERANCE: f64 = 5e-12;

#[test]
fn paper_table_quantiles_match_high_precision_references() {
    for (w, delta_prime, df1, df2, f_ref, welch_df, t_ref) in PAPER_TABLE {
        let f = FisherF::new(df1, df2).unwrap().ppf(delta_prime).unwrap();
        let t = StudentsT::new(welch_df).unwrap().ppf(delta_prime).unwrap();
        let (f_err, t_err) = ((f - f_ref).abs() / f_ref, (t - t_ref).abs() / t_ref);
        assert!(
            f_err <= TOLERANCE,
            "|W|={w} δ'={delta_prime}: F({df1}, {df2}) = {f}, reference {f_ref} (rel. error {f_err:.1e})"
        );
        assert!(
            t_err <= TOLERANCE,
            "|W|={w} δ'={delta_prime}: t({welch_df}) = {t}, reference {t_ref} (rel. error {t_err:.1e})"
        );
    }
}
