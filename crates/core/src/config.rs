//! Eva scheduler configuration and ablation switches.

/// Which reconfiguration algorithms are in play.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigMode {
    /// Run both and choose via Equation 1 (the full Eva design).
    Ensemble,
    /// Always adopt Full Reconfiguration ("Eva w/o Partial", Figure 5b).
    FullOnly,
    /// Always adopt Partial Reconfiguration ("Eva w/o Full", Figure 6).
    PartialOnly,
}

/// Configuration of [`crate::EvaScheduler`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvaConfig {
    /// Use throughput-normalized reservation prices (`Eva-TNRP`); when
    /// false, plain reservation prices are used (`Eva-RP`, §6.4).
    pub use_tnrp: bool,
    /// Charge a gang-coupled job's whole degradation at the interfering
    /// instance (`Eva-Multi` vs `Eva-Single`, §4.4 / Table 6).
    pub multi_task_aware: bool,
    /// Which reconfiguration algorithms run.
    pub mode: ReconfigMode,
    /// Default pairwise throughput `t` for unseen pairs (0.95 in the
    /// paper's experiments).
    pub default_tput: f64,
    /// Partial Reconfiguration may place reconsidered tasks into spare
    /// capacity on kept instances when cost-efficient. §4.5 says the
    /// subset "updates a subset of tasks and instances"; with this off the
    /// subset goes exclusively to new instances. On by default; the
    /// new-instances-only reading is kept as an ablation.
    pub refill_existing: bool,
    /// Prior event rate `λ` (events/hour) before data accumulates.
    pub initial_lambda: f64,
    /// Prior trigger probability `p` before data accumulates.
    pub initial_p: f64,
}

impl Default for EvaConfig {
    fn default() -> Self {
        EvaConfig {
            use_tnrp: true,
            multi_task_aware: true,
            mode: ReconfigMode::Ensemble,
            default_tput: 0.95,
            refill_existing: true,
            initial_lambda: 2.0,
            initial_p: 0.3,
        }
    }
}

impl EvaConfig {
    /// The paper's default configuration ("Eva").
    pub fn eva() -> Self {
        EvaConfig::default()
    }

    /// `Eva-RP`: interference-oblivious reservation prices (§6.4).
    pub fn eva_rp() -> Self {
        EvaConfig {
            use_tnrp: false,
            ..EvaConfig::default()
        }
    }

    /// `Eva-Single`: multi-task jobs treated as independent tasks (§4.4).
    pub fn eva_single() -> Self {
        EvaConfig {
            multi_task_aware: false,
            ..EvaConfig::default()
        }
    }

    /// Eva without Full Reconfiguration (Figure 6 ablation).
    pub fn without_full() -> Self {
        EvaConfig {
            mode: ReconfigMode::PartialOnly,
            ..EvaConfig::default()
        }
    }

    /// Eva without Partial Reconfiguration (Figure 5b ablation).
    pub fn without_partial() -> Self {
        EvaConfig {
            mode: ReconfigMode::FullOnly,
            ..EvaConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = EvaConfig::default();
        assert!(c.use_tnrp);
        assert!(c.multi_task_aware);
        assert_eq!(c.mode, ReconfigMode::Ensemble);
        assert_eq!(c.default_tput, 0.95);
        assert!(c.refill_existing);
    }

    #[test]
    fn variants_flip_expected_switches() {
        assert!(!EvaConfig::eva_rp().use_tnrp);
        assert!(!EvaConfig::eva_single().multi_task_aware);
        assert_eq!(EvaConfig::without_full().mode, ReconfigMode::PartialOnly);
        assert_eq!(EvaConfig::without_partial().mode, ReconfigMode::FullOnly);
    }
}
