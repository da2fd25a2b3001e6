//! Job-duration models (Table 9).
//!
//! Two models drive the simulation experiments:
//!
//! * **Alibaba** — the empirical distribution of the production trace:
//!   median 0.2 h, P80 1.0 h, P95 5.2 h, mean 9.1 h (half the jobs last
//!   under ~11 minutes, yet the mean is dominated by a heavy tail). We
//!   reproduce it with a piecewise log-uniform inverse CDF through the
//!   published quantiles, with the tail endpoint chosen so the overall mean
//!   lands on 9.1 h.
//! * **Gavel** — durations of `10^x` minutes with `x ~ U[1.5, 3]` with
//!   probability 0.8 and `x ~ U[3, 4]` with probability 0.2, reproducing
//!   mean 16.7 h / median 4.5 h / P80 16.4 h / P95 96.6 h.

use rand::Rng;

use eva_types::SimDuration;

/// Anything that can sample a job duration.
pub trait DurationSampler {
    /// Draws one job duration.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration;
}

/// Uniform duration in `[min_hours, max_hours]` — the synthetic physical
/// traces use 0.5–3 h (§6.1), the multi-task micro-benchmark 0.5–16 h.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformHours {
    /// Lower bound (hours).
    pub min_hours: f64,
    /// Upper bound (hours).
    pub max_hours: f64,
}

impl UniformHours {
    /// Builds the sampler; swaps bounds if given in the wrong order.
    pub fn new(min_hours: f64, max_hours: f64) -> Self {
        let (lo, hi) = if min_hours <= max_hours {
            (min_hours, max_hours)
        } else {
            (max_hours, min_hours)
        };
        UniformHours {
            min_hours: lo.max(0.0),
            max_hours: hi.max(0.0),
        }
    }
}

impl DurationSampler for UniformHours {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let h = rng.gen_range(self.min_hours..=self.max_hours);
        SimDuration::from_hours_f64(h)
    }
}

/// The Alibaba empirical duration model.
///
/// Piecewise log-uniform through `(quantile, hours)` knots:
/// `(0, 0.003) – (0.5, 0.2) – (0.8, 1.0) – (0.95, 5.2) – (1.0, TAIL)`,
/// with `TAIL = 880 h` chosen so the mean is ≈ 9.1 h.
///
/// # Examples
///
/// ```
/// use eva_workloads::{AlibabaDurations, DurationSampler};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let model = AlibabaDurations::default();
/// let mut rng = StdRng::seed_from_u64(0);
/// let d = model.sample(&mut rng);
/// assert!(d.as_hours_f64() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AlibabaDurations {
    knots: Vec<(f64, f64)>,
}

impl Default for AlibabaDurations {
    fn default() -> Self {
        AlibabaDurations {
            knots: vec![
                (0.0, 0.003),
                (0.5, 0.2),
                (0.8, 1.0),
                (0.95, 5.2),
                (1.0, 880.0),
            ],
        }
    }
}

impl AlibabaDurations {
    /// Inverse CDF at probability `p ∈ [0, 1]` (hours).
    fn inverse_cdf(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        for w in self.knots.windows(2) {
            let (p0, h0) = w[0];
            let (p1, h1) = w[1];
            if p <= p1 {
                let frac = if p1 > p0 { (p - p0) / (p1 - p0) } else { 0.0 };
                // Log-uniform interpolation within the segment.
                return h0 * (h1 / h0).powf(frac);
            }
        }
        self.knots.last().map(|(_, h)| *h).unwrap_or(0.0)
    }
}

impl DurationSampler for AlibabaDurations {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        SimDuration::from_hours_f64(self.inverse_cdf(rng.gen::<f64>()))
    }
}

/// The Gavel duration model (§6.1): `10^x` minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GavelDurations;

impl DurationSampler for GavelDurations {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let x = if rng.gen::<f64>() < 0.8 {
            rng.gen_range(1.5..3.0)
        } else {
            rng.gen_range(3.0..4.0)
        };
        let minutes = 10f64.powf(x);
        SimDuration::from_hours_f64(minutes / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quantile(sorted: &[f64], q: f64) -> f64 {
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    }

    fn sample_hours<S: DurationSampler>(s: &S, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<f64> = (0..n).map(|_| s.sample(&mut rng).as_hours_f64()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    #[test]
    fn alibaba_matches_table9_quantiles() {
        let v = sample_hours(&AlibabaDurations::default(), 60_000, 11);
        let median = quantile(&v, 0.5);
        let p80 = quantile(&v, 0.8);
        let p95 = quantile(&v, 0.95);
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        assert!((median - 0.2).abs() < 0.03, "median {median}");
        assert!((p80 - 1.0).abs() < 0.1, "p80 {p80}");
        assert!((p95 - 5.2).abs() < 0.5, "p95 {p95}");
        assert!((mean - 9.1).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn gavel_matches_table9_quantiles() {
        let v = sample_hours(&GavelDurations, 60_000, 12);
        let median = quantile(&v, 0.5);
        let p80 = quantile(&v, 0.8);
        let p95 = quantile(&v, 0.95);
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        assert!((median - 4.5).abs() < 0.4, "median {median}");
        assert!((p80 - 16.4).abs() < 1.5, "p80 {p80}");
        assert!((p95 - 96.6).abs() < 10.0, "p95 {p95}");
        assert!((mean - 16.7).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn alibaba_inverse_cdf_hits_knots() {
        let m = AlibabaDurations::default();
        assert!((m.inverse_cdf(0.5) - 0.2).abs() < 1e-12);
        assert!((m.inverse_cdf(0.8) - 1.0).abs() < 1e-12);
        assert!((m.inverse_cdf(0.95) - 5.2).abs() < 1e-12);
        // Clamped outside [0, 1].
        assert_eq!(m.inverse_cdf(-1.0), m.inverse_cdf(0.0));
        assert_eq!(m.inverse_cdf(2.0), m.inverse_cdf(1.0));
    }

    #[test]
    fn alibaba_inverse_cdf_is_monotone() {
        let m = AlibabaDurations::default();
        let mut prev = 0.0;
        for i in 0..=100 {
            let h = m.inverse_cdf(i as f64 / 100.0);
            assert!(h >= prev, "not monotone at {i}");
            prev = h;
        }
    }

    #[test]
    fn uniform_hours_stays_in_range() {
        let s = UniformHours::new(0.5, 3.0);
        let v = sample_hours(&s, 1_000, 13);
        assert!(*v.first().unwrap() >= 0.5);
        assert!(*v.last().unwrap() <= 3.0);
    }

    #[test]
    fn uniform_hours_swaps_misordered_bounds() {
        let s = UniformHours::new(3.0, 0.5);
        assert_eq!((s.min_hours, s.max_hours), (0.5, 3.0));
    }

    #[test]
    fn gavel_durations_bounded_by_model() {
        // 10^1.5 min ≈ 0.53 h; 10^4 min ≈ 166.7 h.
        let v = sample_hours(&GavelDurations, 5_000, 14);
        assert!(*v.first().unwrap() >= 10f64.powf(1.5) / 60.0 - 1e-9);
        assert!(*v.last().unwrap() <= 10f64.powf(4.0) / 60.0 + 1e-9);
    }
}
