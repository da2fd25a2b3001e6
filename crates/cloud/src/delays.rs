//! Provisioning delay model (Table 1).
//!
//! The paper measured, across 126 EC2 instances and 120 job migrations:
//!
//! | Delay type           | Range (sec) | Average (sec) |
//! |----------------------|-------------|---------------|
//! | Instance acquisition | 6 – 83      | 19            |
//! | Instance setup       | 140 – 251   | 190           |
//! | Job checkpointing    | 2 – 30      | 8             |
//! | Job launching        | 1 – 160     | 47            |
//!
//! Checkpoint/launch delays are per-workload properties (Table 7) carried on
//! `TaskSpec`; this module models the *instance-side* delays. Two fidelity
//! modes exist so the simulator-fidelity experiment (Table 12) can contrast
//! stochastic and nominal behaviour.

use rand::distributions::Distribution;
use rand::Rng;

use eva_types::SimDuration;

/// How delays are sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidelityMode {
    /// Every delay is its measured mean — fully deterministic.
    Nominal,
    /// Delays are drawn from a truncated skewed distribution matching the
    /// measured range and mean.
    Stochastic,
}

/// One sampled set of instance-side delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelaySample {
    /// Time from the provision request until the cloud hands over the
    /// instance (billing starts when this completes).
    pub acquisition: SimDuration,
    /// Time to set the instance up (pull images, mount storage, start the
    /// worker). Billed but unusable.
    pub setup: SimDuration,
}

impl DelaySample {
    /// Total delay until the instance can run tasks.
    pub fn total(&self) -> SimDuration {
        self.acquisition + self.setup
    }
}

/// A truncated distribution that matches a (min, mean, max) triple.
///
/// We use a Beta-like two-sided power distribution: draw `u ∈ [0,1]`,
/// shape it so the expectation lands on the requested mean, then scale to
/// `[min, max]`. This reproduces Table 1's skew (mean far below midpoint
/// for acquisition, near midpoint for setup) without fitting machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RangeMeanDist {
    min_secs: f64,
    max_secs: f64,
    /// Power `k` such that `E[u^k] = (mean - min) / (max - min)`.
    power: f64,
}

impl RangeMeanDist {
    fn new(min_secs: f64, mean_secs: f64, max_secs: f64) -> Self {
        assert!(min_secs <= mean_secs && mean_secs <= max_secs);
        let target = if max_secs > min_secs {
            (mean_secs - min_secs) / (max_secs - min_secs)
        } else {
            0.5
        };
        // For u ~ U(0,1), E[u^k] = 1/(k+1); solve 1/(k+1) = target.
        let target = target.clamp(0.01, 0.99);
        let power = 1.0 / target - 1.0;
        RangeMeanDist {
            min_secs,
            max_secs,
            power,
        }
    }

    fn mean(&self) -> SimDuration {
        let target = 1.0 / (self.power + 1.0);
        SimDuration::from_secs_f64(self.min_secs + target * (self.max_secs - self.min_secs))
    }
}

impl Distribution<SimDuration> for RangeMeanDist {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let u: f64 = rng.gen::<f64>().powf(self.power);
        SimDuration::from_secs_f64(self.min_secs + u * (self.max_secs - self.min_secs))
    }
}

/// The Table 1 delay model.
///
/// # Examples
///
/// ```
/// use eva_cloud::{DelayModel, FidelityMode};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let model = DelayModel::table1(FidelityMode::Nominal);
/// let mut rng = StdRng::seed_from_u64(0);
/// let s = model.sample(&mut rng);
/// assert_eq!(s.acquisition.as_secs(), 19);
/// assert_eq!(s.setup.as_secs(), 190);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DelayModel {
    mode: FidelityMode,
    acquisition: RangeMeanDist,
    setup: RangeMeanDist,
    /// Multiplier applied to sampled delays (sweep knob; 1.0 = measured).
    scale: f64,
}

impl DelayModel {
    /// The measured Table 1 model.
    pub fn table1(mode: FidelityMode) -> Self {
        DelayModel {
            mode,
            acquisition: RangeMeanDist::new(6.0, 19.0, 83.0),
            setup: RangeMeanDist::new(140.0, 190.0, 251.0),
            scale: 1.0,
        }
    }

    /// A model with all delays forced to zero (useful in unit tests).
    pub fn zero() -> Self {
        DelayModel {
            mode: FidelityMode::Nominal,
            acquisition: RangeMeanDist::new(0.0, 0.0, 0.0),
            setup: RangeMeanDist::new(0.0, 0.0, 0.0),
            scale: 1.0,
        }
    }

    /// Returns a copy with all sampled delays multiplied by `scale`.
    pub fn scaled(&self, scale: f64) -> Self {
        let mut m = self.clone();
        m.scale = scale.max(0.0);
        m
    }

    /// The fidelity mode in effect.
    pub fn mode(&self) -> FidelityMode {
        self.mode
    }

    /// Samples instance-side delays.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> DelaySample {
        let (acq, setup) = match self.mode {
            FidelityMode::Nominal => (self.acquisition.mean(), self.setup.mean()),
            FidelityMode::Stochastic => (self.acquisition.sample(rng), self.setup.sample(rng)),
        };
        DelaySample {
            acquisition: acq.scale(self.scale),
            setup: setup.scale(self.scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nominal_mode_returns_table1_means() {
        let m = DelayModel::table1(FidelityMode::Nominal);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let s = m.sample(&mut rng);
            assert_eq!(s.acquisition.as_secs(), 19);
            assert_eq!(s.setup.as_secs(), 190);
            assert_eq!(s.total().as_secs(), 209);
        }
    }

    #[test]
    fn stochastic_mode_stays_in_measured_ranges() {
        let m = DelayModel::table1(FidelityMode::Stochastic);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2_000 {
            let s = m.sample(&mut rng);
            let a = s.acquisition.as_secs_f64();
            let u = s.setup.as_secs_f64();
            assert!((6.0..=83.0).contains(&a), "acquisition {a}");
            assert!((140.0..=251.0).contains(&u), "setup {u}");
        }
    }

    #[test]
    fn stochastic_mean_approximates_table1() {
        let m = DelayModel::table1(FidelityMode::Stochastic);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mut acq_sum = 0.0;
        let mut setup_sum = 0.0;
        for _ in 0..n {
            let s = m.sample(&mut rng);
            acq_sum += s.acquisition.as_secs_f64();
            setup_sum += s.setup.as_secs_f64();
        }
        let acq_mean = acq_sum / n as f64;
        let setup_mean = setup_sum / n as f64;
        assert!((acq_mean - 19.0).abs() < 1.5, "acquisition mean {acq_mean}");
        assert!((setup_mean - 190.0).abs() < 3.0, "setup mean {setup_mean}");
    }

    #[test]
    fn scaling_multiplies_delays() {
        let m = DelayModel::table1(FidelityMode::Nominal).scaled(2.0);
        let mut rng = StdRng::seed_from_u64(4);
        let s = m.sample(&mut rng);
        assert_eq!(s.acquisition.as_secs(), 38);
        assert_eq!(s.setup.as_secs(), 380);
    }

    #[test]
    fn zero_model_has_no_delay() {
        let m = DelayModel::zero();
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(m.sample(&mut rng).total(), SimDuration::ZERO);
    }

    #[test]
    fn negative_scale_clamps_to_zero() {
        let m = DelayModel::table1(FidelityMode::Nominal).scaled(-1.0);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(m.sample(&mut rng).total(), SimDuration::ZERO);
    }
}
