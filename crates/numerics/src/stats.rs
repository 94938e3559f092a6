//! Summary statistics and distribution helpers.
//!
//! Besides the usual mean/variance utilities used by Monte-Carlo estimators,
//! this module carries the geometric-distribution facts on which the paper's
//! Section-9 patch-shuffling feasibility proof rests: a repeat-until-success
//! injection is a geometric random variable, and the proof bounds the number
//! of trials by `E[X] + σ[X]`.

/// Arithmetic mean of a slice. Returns `NaN` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(eftq_numerics::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance. Returns `0.0` for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation (square root of [`variance`]).
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Standard error of the mean.
pub fn standard_error(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Geometric mean of strictly positive values. Returns `NaN` if any value is
/// non-positive or the slice is empty. Used for averaging the γ relative
/// improvements, which are ratios.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A geometric distribution over the number of trials until first success
/// (support {1, 2, ...}) with success probability `p_success`.
///
/// This is the distribution of repeat-until-success magic-state injection
/// attempts, and of the number of `Rz` consumption attempts (where
/// `p_success = 1/2`, giving the paper's `E[g] = 2`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p_success <= 1`.
    pub fn new(p_success: f64) -> Self {
        assert!(
            p_success > 0.0 && p_success <= 1.0,
            "success probability must be in (0, 1], got {p_success}"
        );
        Geometric { p: p_success }
    }

    /// Success probability per trial.
    pub fn p_success(&self) -> f64 {
        self.p
    }

    /// Expected number of trials `E[X] = 1/p`.
    pub fn expectation(&self) -> f64 {
        1.0 / self.p
    }

    /// Variance `(1-p)/p²`.
    pub fn variance(&self) -> f64 {
        (1.0 - self.p) / (self.p * self.p)
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The paper's trial budget `N_trials = E[X] + σ[X]
    /// = (1 + sqrt(1-p)) / p` (Section 9).
    pub fn trials_to_one_sigma(&self) -> f64 {
        (1.0 + (1.0 - self.p).sqrt()) / self.p
    }

    /// The "high probability" of the paper's Section-9 proof:
    /// `P[X ≤ E[X] + σ[X]]` computed with the *real-valued* exponent
    /// `1 - (1-p)^{N_trials}` exactly as Equation (5)'s surrounding text does
    /// (the paper does not floor the exponent; at d = 11, p_phys = 1e-3 this
    /// evaluates to 0.9391).
    pub fn prob_within_one_sigma(&self) -> f64 {
        1.0 - (1.0 - self.p).powf(self.trials_to_one_sigma())
    }
}

/// Minimum of a slice (`NaN`-free input assumed). Returns `NaN` when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .fold(f64::NAN, |a, b| if a < b { a } else { b })
}

/// Maximum of a slice (`NaN`-free input assumed). Returns `NaN` when empty.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .fold(f64::NAN, |a, b| if a > b { a } else { b })
}

/// Linearly spaced grid of `n ≥ 2` points from `a` to `b` inclusive.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn linspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    let step = (b - a) / (n - 1) as f64;
    (0..n).map(|i| a + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert!(mean(&[]).is_nan());
        assert_eq!(variance(&[1.0]), 0.0);
        assert!(standard_error(&[]).is_nan());
        assert!(min(&[]).is_nan());
        assert!(max(&[]).is_nan());
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[1.0, -1.0]).is_nan());
    }

    #[test]
    fn geometric_distribution_basics() {
        let g = Geometric::new(0.5);
        assert_eq!(g.expectation(), 2.0);
        assert_eq!(g.variance(), 2.0);
    }

    /// The exact numbers quoted in Section 9 of the paper for d = 11 and
    /// p_phys = 1e-3: p_pass = 1 − 2p(1−p)(d²−1) = 0.760240,
    /// N_trials = 1.959, P[X ≤ N_trials] = 0.9391.
    #[test]
    fn section9_numbers() {
        let p: f64 = 1e-3;
        let d = 11.0f64;
        let p_pass = 1.0 - 2.0 * p * (1.0 - p) * (d * d - 1.0);
        let g = Geometric::new(p_pass);
        assert!(
            (g.trials_to_one_sigma() - 1.959).abs() < 2e-3,
            "{}",
            g.trials_to_one_sigma()
        );
        assert!(
            (g.prob_within_one_sigma() - 0.9391).abs() < 2e-3,
            "{}",
            g.prob_within_one_sigma()
        );
    }

    #[test]
    fn rz_consumption_expected_attempts_is_two() {
        // Paper §4.4: E[g] = 2 for p_succ = p_fail = 0.5.
        let g = Geometric::new(0.5);
        assert_eq!(g.expectation(), 2.0);
    }

    #[test]
    #[should_panic(expected = "success probability")]
    fn geometric_rejects_zero() {
        let _ = Geometric::new(0.0);
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let xs = linspace(0.0, 1.0, 5);
        assert_eq!(xs.len(), 5);
        assert_eq!(xs[0], 0.0);
        assert_eq!(xs[4], 1.0);
        assert!((xs[1] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -1.0, 2.0];
        assert_eq!(min(&xs), -1.0);
        assert_eq!(max(&xs), 3.0);
    }
}
