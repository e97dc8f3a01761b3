//! Gaussian kernel density estimation.
//!
//! MD's *normal profile* (paper §IV-C2) is the KDE-smoothed
//! distribution of the summed window standard deviations `s_t`; the
//! anomaly threshold is the `(100 − α)`-th percentile of the estimated
//! cumulative distribution `Ŝ`. [`GaussianKde`] provides the density,
//! the exact smoothed CDF (a mixture of normal CDFs), and its inverse.

use std::f64::consts::{PI, SQRT_2};

/// Kernel reach in bandwidths: [`phi`] is exactly 1.0 for `z ≥ 8.5`
/// and exactly 0.0 for `z ≤ −8.5`, so samples farther than this from
/// `x` contribute a constant to the mixture CDF and need no `erf`.
const KERNEL_REACH: f64 = 9.0;

/// Standard normal CDF via `erf`.
fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / SQRT_2))
}

/// Abramowitz–Stegun 7.1.26 rational approximation of `erf`
/// (|error| ≤ 1.5e-7, ample for percentile thresholds).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// A Gaussian kernel density estimate over a sample of `f64` values.
///
/// # Examples
///
/// ```
/// use fadewich_stats::kde::GaussianKde;
///
/// let data: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
/// let kde = GaussianKde::fit(&data).unwrap();
/// let p99 = kde.quantile(0.99);
/// assert!(p99 > 8.0 && p99 < 12.0);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianKde {
    /// Sorted ascending, so [`GaussianKde::cdf`] can binary-search the
    /// samples within [`KERNEL_REACH`] bandwidths of `x`.
    samples: Vec<f64>,
    bandwidth: f64,
}

/// Error fitting a KDE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitKdeError {
    /// No samples were provided.
    Empty,
    /// Samples contained NaN or infinity.
    NonFinite,
}

impl std::fmt::Display for FitKdeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitKdeError::Empty => write!(f, "cannot fit a density to an empty sample"),
            FitKdeError::NonFinite => write!(f, "sample contains non-finite values"),
        }
    }
}

impl std::error::Error for FitKdeError {}

impl GaussianKde {
    /// Fits a KDE with Silverman's rule-of-thumb bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`FitKdeError::Empty`] for an empty sample and
    /// [`FitKdeError::NonFinite`] if any value is NaN/∞.
    pub fn fit(samples: &[f64]) -> Result<Self, FitKdeError> {
        let bw = silverman_bandwidth(samples)?;
        Ok(GaussianKde { samples: sorted(samples), bandwidth: bw })
    }

    /// Fits with an explicit bandwidth.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GaussianKde::fit`]; additionally rejects a
    /// non-positive or non-finite bandwidth as [`FitKdeError::NonFinite`].
    pub fn fit_with_bandwidth(samples: &[f64], bandwidth: f64) -> Result<Self, FitKdeError> {
        if samples.is_empty() {
            return Err(FitKdeError::Empty);
        }
        if samples.iter().any(|x| !x.is_finite()) || !(bandwidth > 0.0) || !bandwidth.is_finite() {
            return Err(FitKdeError::NonFinite);
        }
        Ok(GaussianKde { samples: sorted(samples), bandwidth })
    }

    /// The kernel bandwidth `h`.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the KDE has no samples (never true for a fitted KDE).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Estimated probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((self.samples.len() as f64) * h * (2.0 * PI).sqrt());
        self.samples
            .iter()
            .map(|&xi| {
                let z = (x - xi) / h;
                (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            * norm
    }

    /// Estimated cumulative distribution at `x` (exact mixture CDF).
    ///
    /// Only the samples within `KERNEL_REACH` bandwidths of `x` go
    /// through `erf`; those below count exactly 1.0 and those above
    /// exactly 0.0, which is what `phi` returns for them anyway.
    pub fn cdf(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let z = |xi: f64| (x - xi) / h;
        // `z` is non-increasing along the sorted samples, so both
        // predicates hold on a prefix.
        let below = self.samples.partition_point(|&xi| z(xi) >= KERNEL_REACH);
        let near = self.samples[below..].partition_point(|&xi| z(xi) > -KERNEL_REACH);
        self.samples[below..below + near]
            .iter()
            .fold(below as f64, |sum, &xi| sum + phi(z(xi)))
            / self.samples.len() as f64
    }

    /// Inverse CDF by bisection: the smallest `x` with `cdf(x) ≥ q`.
    ///
    /// Stops once a step would leave `lo`/`hi` unchanged: every later
    /// step would then repeat it, so the result is that of running all
    /// 80 steps.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile level {q} must be in (0,1)");
        // The mixture's tails extend a few bandwidths past the data.
        let mut lo = self.samples[0] - 10.0 * self.bandwidth;
        let mut hi = self.samples[self.samples.len() - 1] + 10.0 * self.bandwidth;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                if mid == lo {
                    break;
                }
                lo = mid;
            } else {
                if mid == hi {
                    break;
                }
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Silverman's rule-of-thumb bandwidth `0.9 · min(σ̂, IQR/1.34) · n^(−1/5)`.
///
/// Falls back to a small positive constant for (near-)degenerate
/// samples so that a constant profile still yields a usable KDE.
///
/// # Errors
///
/// Returns [`FitKdeError::Empty`]/[`FitKdeError::NonFinite`] under the
/// same conditions as [`GaussianKde::fit`].
pub fn silverman_bandwidth(samples: &[f64]) -> Result<f64, FitKdeError> {
    if samples.is_empty() {
        return Err(FitKdeError::Empty);
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return Err(FitKdeError::NonFinite);
    }
    let n = samples.len() as f64;
    let sd = crate::descriptive::std_dev(samples);
    let iqr = if samples.len() >= 4 {
        crate::descriptive::percentile(samples, 75.0) - crate::descriptive::percentile(samples, 25.0)
    } else {
        0.0
    };
    let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
    let h = 0.9 * spread * n.powf(-0.2);
    Ok(if h > 1e-9 { h } else { 1e-3 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn erf_reference_values() {
        // The A&S 7.1.26 approximation has ~1.5e-7 absolute error.
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn phi_saturates_beyond_the_kernel_reach() {
        // The windowed `cdf` is exact only because these hold bitwise.
        for z in [KERNEL_REACH, 12.0, 40.0, f64::INFINITY] {
            assert_eq!(phi(z), 1.0, "phi({z})");
            assert_eq!(phi(-z), 0.0, "phi(-{z})");
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        let mut rng = Rng::seed_from_u64(4);
        let data: Vec<f64> = (0..200).map(|_| rng.normal_with(10.0, 2.0)).collect();
        let kde = GaussianKde::fit(&data).unwrap();
        // Trapezoidal integration over a wide range.
        let (a, b, steps) = (-10.0, 30.0, 4000);
        let dx = (b - a) / steps as f64;
        let integral: f64 = (0..=steps)
            .map(|i| {
                let x = a + i as f64 * dx;
                let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
                w * kde.pdf(x)
            })
            .sum::<f64>()
            * dx;
        assert!((integral - 1.0).abs() < 1e-3, "integral = {integral}");
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let data = [1.0, 2.0, 2.5, 3.0, 10.0];
        let kde = GaussianKde::fit(&data).unwrap();
        let mut prev = 0.0;
        for i in 0..200 {
            let x = -5.0 + i as f64 * 0.1;
            let c = kde.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c + 1e-12 >= prev, "CDF not monotone at {x}");
            prev = c;
        }
        assert!(kde.cdf(-100.0) < 1e-6);
        assert!(kde.cdf(100.0) > 1.0 - 1e-6);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let mut rng = Rng::seed_from_u64(8);
        let data: Vec<f64> = (0..500).map(|_| rng.normal_with(0.0, 1.0)).collect();
        let kde = GaussianKde::fit(&data).unwrap();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let x = kde.quantile(q);
            assert!((kde.cdf(x) - q).abs() < 1e-9, "q = {q}");
        }
    }

    #[test]
    fn quantile_of_standard_normal_sample() {
        let mut rng = Rng::seed_from_u64(15);
        let data: Vec<f64> = (0..5000).map(|_| rng.normal()).collect();
        let kde = GaussianKde::fit(&data).unwrap();
        // True 99th percentile of N(0,1) is ~2.326.
        let q99 = kde.quantile(0.99);
        assert!((q99 - 2.326).abs() < 0.25, "q99 = {q99}");
    }

    #[test]
    fn constant_sample_still_fits() {
        let kde = GaussianKde::fit(&[5.0; 50]).unwrap();
        assert!(kde.bandwidth() > 0.0);
        let q = kde.quantile(0.99);
        assert!((q - 5.0).abs() < 0.1, "q = {q}");
    }

    #[test]
    fn fit_errors() {
        assert_eq!(GaussianKde::fit(&[]).unwrap_err(), FitKdeError::Empty);
        assert_eq!(
            GaussianKde::fit(&[1.0, f64::NAN]).unwrap_err(),
            FitKdeError::NonFinite
        );
        assert_eq!(
            GaussianKde::fit_with_bandwidth(&[1.0], 0.0).unwrap_err(),
            FitKdeError::NonFinite
        );
        assert!(!format!("{}", FitKdeError::Empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "must be in (0,1)")]
    fn quantile_rejects_invalid_level() {
        GaussianKde::fit(&[1.0, 2.0]).unwrap().quantile(1.0);
    }
}
