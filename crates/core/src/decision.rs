//! The Full-vs-Partial reconfiguration decision (§4.5).
//!
//! Eva chooses Full Reconfiguration when
//!
//! ```text
//! S_F × D̂ − M_F  >  S_P × D̂ − M_P          (Equation 1)
//! ```
//!
//! where `S` is a configuration's instantaneous provisioning saving
//! (`Σ_i TNRP(T_i) − C_i`), `M` its migration cost, and `D̂` the estimated
//! time until the next Full Reconfiguration. Modelling job arrivals and
//! completions as a Poisson process with rate `λ` and the probability that
//! an event triggers a Full Reconfiguration as `p` (geometric), the mean
//! time to the next Full Reconfiguration is
//!
//! ```text
//! D̂ = ∫₀^∞ (1 − p)^{λx} dx = −1 / (λ · ln(1 − p))
//! ```
//!
//! Both `λ` and `p` are estimated online by [`EventRateEstimator`].

use eva_types::SimTime;

/// Inputs to the Equation 1 comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionInputs {
    /// `S_F`: hourly saving of the Full configuration (dollars/hr).
    pub full_saving: f64,
    /// `M_F`: one-off migration cost of adopting Full (dollars).
    pub full_migration_cost: f64,
    /// `S_P`: hourly saving of the Partial configuration (dollars/hr).
    pub partial_saving: f64,
    /// `M_P`: one-off migration cost of adopting Partial (dollars).
    pub partial_migration_cost: f64,
    /// `D̂`: estimated configuration lifetime (hours).
    pub estimated_duration_hours: f64,
}

/// The decision result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigDecision {
    /// Adopt the Full Reconfiguration plan.
    Full,
    /// Adopt the Partial Reconfiguration plan.
    Partial,
}

impl DecisionInputs {
    /// Evaluates Equation 1.
    pub fn decide(&self) -> ReconfigDecision {
        let d = self.estimated_duration_hours.max(0.0);
        let full_value = self.full_saving * d - self.full_migration_cost;
        let partial_value = self.partial_saving * d - self.partial_migration_cost;
        if full_value > partial_value {
            ReconfigDecision::Full
        } else {
            ReconfigDecision::Partial
        }
    }
}

/// Online estimator of the event rate `λ` (arrivals + completions per
/// hour) and the trigger probability `p`, plus the resulting `D̂`.
///
/// # Examples
///
/// ```
/// use eva_core::EventRateEstimator;
/// use eva_types::SimTime;
///
/// let mut est = EventRateEstimator::new(1.0, 0.5);
/// // 10 events over 2 hours, 3 of which triggered Full Reconfiguration.
/// est.record_events(7, false, SimTime::from_hours_f64(1.0));
/// est.record_events(3, true, SimTime::from_hours_f64(2.0));
/// assert!(est.estimated_duration_hours() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EventRateEstimator {
    initial_lambda: f64,
    initial_p: f64,
    events: u64,
    full_triggers: u64,
    last_update: Option<SimTime>,
    start: Option<SimTime>,
}

impl EventRateEstimator {
    /// Builds an estimator with priors used until data accumulates.
    pub fn new(initial_lambda: f64, initial_p: f64) -> Self {
        EventRateEstimator {
            initial_lambda: initial_lambda.max(1e-6),
            initial_p: initial_p.clamp(1e-3, 1.0 - 1e-3),
            events: 0,
            full_triggers: 0,
            last_update: None,
            start: None,
        }
    }

    /// Records `count` events observed by time `now`; `triggered_full`
    /// marks whether this round's events led to a Full Reconfiguration.
    pub fn record_events(&mut self, count: u64, triggered_full: bool, now: SimTime) {
        if self.start.is_none() {
            self.start = Some(now);
        }
        self.events += count;
        if triggered_full && count > 0 {
            self.full_triggers += 1;
        }
        self.last_update = Some(now);
    }

    /// `λ̂`: events per hour. Uses the prior until at least one hour of
    /// data and a few events exist.
    fn lambda_per_hour(&self) -> f64 {
        match (self.start, self.last_update) {
            (Some(start), Some(last)) => {
                let hours = last.duration_since(start).as_hours_f64();
                if hours < 0.5 || self.events < 4 {
                    self.initial_lambda
                } else {
                    (self.events as f64 / hours).max(1e-6)
                }
            }
            _ => self.initial_lambda,
        }
    }

    /// `p̂`: probability an event triggers a Full Reconfiguration, clamped
    /// away from 0 and 1 so `D̂` stays finite.
    fn p_trigger(&self) -> f64 {
        if self.events < 4 {
            self.initial_p
        } else {
            (self.full_triggers as f64 / self.events as f64).clamp(1e-3, 1.0 - 1e-3)
        }
    }

    /// `D̂ = −1 / (λ ln(1−p))` in hours.
    pub fn estimated_duration_hours(&self) -> f64 {
        let lambda = self.lambda_per_hour();
        let p = self.p_trigger();
        -1.0 / (lambda * (1.0 - p).ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation1_prefers_full_when_savings_dominate() {
        let d = DecisionInputs {
            full_saving: 10.0,
            full_migration_cost: 2.0,
            partial_saving: 5.0,
            partial_migration_cost: 0.5,
            estimated_duration_hours: 1.0,
        };
        // 10 − 2 = 8 > 5 − 0.5 = 4.5.
        assert_eq!(d.decide(), ReconfigDecision::Full);
    }

    #[test]
    fn equation1_prefers_partial_when_migration_dominates() {
        let d = DecisionInputs {
            full_saving: 10.0,
            full_migration_cost: 8.0,
            partial_saving: 9.0,
            partial_migration_cost: 0.1,
            estimated_duration_hours: 0.5,
        };
        // 5 − 8 = −3 < 4.5 − 0.1 = 4.4.
        assert_eq!(d.decide(), ReconfigDecision::Partial);
    }

    #[test]
    fn longer_horizons_amortize_migration() {
        let base = DecisionInputs {
            full_saving: 10.0,
            full_migration_cost: 8.0,
            partial_saving: 9.0,
            partial_migration_cost: 0.1,
            estimated_duration_hours: 0.5,
        };
        assert_eq!(base.decide(), ReconfigDecision::Partial);
        let long = DecisionInputs {
            estimated_duration_hours: 20.0,
            ..base
        };
        // (10−9)×20 = 20 > 8 − 0.1.
        assert_eq!(long.decide(), ReconfigDecision::Full);
    }

    #[test]
    fn ties_fall_to_partial() {
        let d = DecisionInputs {
            full_saving: 1.0,
            full_migration_cost: 0.0,
            partial_saving: 1.0,
            partial_migration_cost: 0.0,
            estimated_duration_hours: 1.0,
        };
        assert_eq!(d.decide(), ReconfigDecision::Partial);
    }

    #[test]
    fn dhat_formula_matches_closed_form() {
        // λ = 2/hr, p = 0.5: D̂ = −1/(2 ln 0.5) = 1/(2 ln 2) ≈ 0.721 h.
        let mut est = EventRateEstimator::new(2.0, 0.5);
        // Prior-only regime.
        let d = est.estimated_duration_hours();
        assert!((d - 1.0 / (2.0 * std::f64::consts::LN_2)).abs() < 1e-9);
        // After data: 8 events in 4 hours (λ=2), 4 triggers (p=0.5).
        for i in 1..=4u64 {
            est.record_events(2, i % 2 == 0, SimTime::from_hours_f64(i as f64));
        }
        // Events measured from first record at t=1h to t=4h: 8 events / 3h.
        let lambda = est.lambda_per_hour();
        assert!((lambda - 8.0 / 3.0).abs() < 1e-9);
        assert!((est.p_trigger() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn estimator_uses_priors_with_little_data() {
        let est = EventRateEstimator::new(1.5, 0.3);
        assert_eq!(est.lambda_per_hour(), 1.5);
        assert_eq!(est.p_trigger(), 0.3);
        assert!(est.estimated_duration_hours() > 0.0);
    }

    #[test]
    fn p_is_clamped_away_from_one() {
        let mut est = EventRateEstimator::new(1.0, 0.5);
        for i in 1..=10u64 {
            est.record_events(1, true, SimTime::from_hours_f64(i as f64));
        }
        assert!(est.p_trigger() < 1.0);
        assert!(est.estimated_duration_hours().is_finite());
        assert!(est.estimated_duration_hours() > 0.0);
    }

    #[test]
    fn higher_event_rates_shorten_dhat() {
        // With equal trigger probability p, a higher event rate λ means the
        // next Full Reconfiguration arrives sooner (D̂ = −1/(λ ln(1−p))).
        let slow = EventRateEstimator::new(1.0, 0.5);
        let fast = EventRateEstimator::new(10.0, 0.5);
        assert!(fast.estimated_duration_hours() < slow.estimated_duration_hours());
        assert!(
            (slow.estimated_duration_hours() / fast.estimated_duration_hours() - 10.0).abs() < 1e-9
        );
    }
}
