//! Runtime health monitoring and the graceful-degradation policy.
//!
//! Deployed CIM parts degrade silently: conductances drift, sense
//! margins shrink, and the network keeps emitting labels — increasingly
//! wrong ones. The NeuSpin observation (shared by Spatial-SpinDrop and
//! Scale-Dropout) is that a Bayesian network *tells you* when its
//! hardware is rotting: predictive entropy rises with fault severity.
//! The [`HealthMonitor`] operationalizes that signal:
//!
//! * it tracks rolling per-batch means of **predictive entropy** (from
//!   [`neuspin_bayes::Predictive`]) and **sense margin** (from
//!   [`neuspin_cim::Crossbar::mean_sense_margin`] via
//!   [`crate::HardwareModel::mean_sense_margin`]),
//! * a post-calibration [`HealthMonitor::freeze_baseline`] pins the
//!   healthy reference,
//! * [`HealthMonitor::policy`] compares the rolling window against the
//!   baseline and escalates through [`HealthPolicy`]:
//!   `Healthy → Recalibrate → RemapTier → Abstain`.
//!
//! The monitor is pure bookkeeping — deterministic, no RNG — so the
//! same observation sequence always produces the same policy decisions.

use std::collections::VecDeque;

/// The degradation response ladder, least to most drastic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthPolicy {
    /// Signals within tolerance of the baseline: keep predicting.
    Healthy,
    /// Mild drift: re-run norm calibration (cheap, digital-only).
    Recalibrate,
    /// Serious signal loss: re-run BIST + repair + fault-aware remap
    /// (the full `neuspin_cim` fault-management tier).
    RemapTier,
    /// Uncertainty beyond the calibrated threshold: gate predictions
    /// through [`neuspin_bayes::Predictive::gate`] and abstain rather
    /// than emit garbage.
    Abstain,
}

impl HealthPolicy {
    /// Ladder position as a small integer (`Healthy = 0` … `Abstain =
    /// 3`) — the encoding of the `health_tier` telemetry gauge.
    pub fn tier_index(self) -> u32 {
        match self {
            HealthPolicy::Healthy => 0,
            HealthPolicy::Recalibrate => 1,
            HealthPolicy::RemapTier => 2,
            HealthPolicy::Abstain => 3,
        }
    }

    /// Inverse of [`HealthPolicy::tier_index`]; anything past the
    /// ladder clamps to [`HealthPolicy::Abstain`] (fail safe).
    pub fn from_tier_index(tier: u32) -> Self {
        match tier {
            0 => HealthPolicy::Healthy,
            1 => HealthPolicy::Recalibrate,
            2 => HealthPolicy::RemapTier,
            _ => HealthPolicy::Abstain,
        }
    }
}

impl std::fmt::Display for HealthPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthPolicy::Healthy => "healthy",
            HealthPolicy::Recalibrate => "recalibrate",
            HealthPolicy::RemapTier => "remap-tier",
            HealthPolicy::Abstain => "abstain",
        })
    }
}

/// Monitor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Batches in the rolling window.
    pub window: usize,
    /// Tolerated relative rise of mean predictive entropy over the
    /// baseline before escalation (doubling it triggers the remap
    /// tier).
    pub entropy_slack: f64,
    /// Tolerated relative loss of mean sense margin (doubling it
    /// triggers the remap tier).
    pub margin_slack: f64,
    /// Absolute rolling-entropy level (nats) beyond which predictions
    /// are abstained. Calibrate with
    /// [`neuspin_bayes::entropy_threshold_for_coverage`] on held-out
    /// data; `f64::INFINITY` disables abstention.
    pub abstain_entropy: f64,
    /// Consecutive observations a raw escalation must persist before
    /// [`HealthMonitor::policy`] latches it (`1` latches immediately).
    /// The [`HealthPolicy::Abstain`] safety tier bypasses the dwell.
    pub dwell: usize,
    /// Exit-band factor in `(0, 1]`: a latched tier only releases once
    /// both signals retreat below `release ×` that tier's entry
    /// threshold. Together with `dwell` this keeps signals hovering at
    /// a slack boundary from re-triggering recovery every window.
    pub release: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            window: 8,
            entropy_slack: 0.25,
            margin_slack: 0.15,
            abstain_entropy: f64::INFINITY,
            dwell: 2,
            release: 0.7,
        }
    }
}

/// The complete mutable state of a [`HealthMonitor`] — observation
/// window, frozen baseline, latched tier, and the hysteresis dwell in
/// progress — captured by [`HealthMonitor::export_state`] for die
/// checkpoints and reapplied by [`HealthMonitor::import_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorState {
    /// The runtime-calibrated abstention threshold (the one
    /// [`HealthConfig`] field that mutates after construction).
    pub abstain_entropy: f64,
    /// Rolling `(entropy, margin)` observations, oldest first.
    pub window: Vec<(f64, f64)>,
    /// The frozen healthy reference, if any.
    pub baseline: Option<(f64, f64)>,
    /// The latched policy tier.
    pub latched: HealthPolicy,
    /// An escalation being dwelled on before it latches.
    pub pending: HealthPolicy,
    pub pending_count: usize,
}

/// Rolling drift detector over (entropy, sense-margin) batch summaries.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: HealthConfig,
    window: VecDeque<(f64, f64)>,
    baseline: Option<(f64, f64)>,
    /// Hysteresis state: the tier [`HealthMonitor::policy`] reports.
    latched: HealthPolicy,
    /// An escalation being dwelled on before it latches.
    pending: HealthPolicy,
    pending_count: usize,
}

impl HealthMonitor {
    /// A monitor with the given tuning and no observations yet.
    ///
    /// # Panics
    ///
    /// Panics if `config.window == 0`, the slacks are not positive and
    /// finite, `config.dwell == 0`, or `config.release` is outside
    /// `(0, 1]`.
    pub fn new(config: HealthConfig) -> Self {
        assert!(config.window > 0, "window must be positive");
        assert!(
            config.entropy_slack > 0.0 && config.entropy_slack.is_finite(),
            "entropy_slack must be positive and finite"
        );
        assert!(
            config.margin_slack > 0.0 && config.margin_slack.is_finite(),
            "margin_slack must be positive and finite"
        );
        assert!(config.dwell > 0, "dwell must be positive");
        assert!(
            config.release > 0.0 && config.release <= 1.0,
            "release must be in (0, 1], got {}",
            config.release
        );
        Self {
            config,
            window: VecDeque::new(),
            baseline: None,
            latched: HealthPolicy::Healthy,
            pending: HealthPolicy::Healthy,
            pending_count: 0,
        }
    }

    /// The tuning in effect.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Sets the abstention threshold (e.g. after calibrating it on
    /// held-out data).
    pub fn set_abstain_entropy(&mut self, threshold: f64) {
        self.config.abstain_entropy = threshold;
    }

    /// Records one inference batch: its mean predictive entropy and the
    /// hardware's mean sense margin over the same batch.
    ///
    /// # Panics
    ///
    /// Panics if either signal is non-finite or negative.
    pub fn observe(&mut self, mean_entropy: f64, mean_margin: f64) {
        assert!(
            mean_entropy.is_finite() && mean_entropy >= 0.0,
            "entropy must be finite and >= 0, got {mean_entropy}"
        );
        assert!(
            mean_margin.is_finite() && mean_margin >= 0.0,
            "margin must be finite and >= 0, got {mean_margin}"
        );
        if self.window.len() == self.config.window {
            self.window.pop_front();
        }
        self.window.push_back((mean_entropy, mean_margin));
        self.update_latch();
    }

    /// Drops every buffered observation (and any pending escalation
    /// streak) so the next batches start a fresh rolling window — used
    /// after a recovery action invalidates the old signal history. The
    /// latched policy is kept; re-freeze the baseline to reset it.
    pub fn clear_window(&mut self) {
        self.window.clear();
        self.pending = HealthPolicy::Healthy;
        self.pending_count = 0;
    }

    /// Rolling mean predictive entropy (0 before any observation).
    pub fn rolling_entropy(&self) -> f64 {
        self.rolling().0
    }

    /// Rolling mean sense margin (0 before any observation).
    pub fn rolling_margin(&self) -> f64 {
        self.rolling().1
    }

    fn rolling(&self) -> (f64, f64) {
        if self.window.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.window.len() as f64;
        let (se, sm) = self
            .window
            .iter()
            .fold((0.0, 0.0), |(ae, am), &(e, m)| (ae + e, am + m));
        (se / n, sm / n)
    }

    /// Pins the current rolling means as the healthy reference. Call
    /// once after deployment calibration (and again after a successful
    /// repair, which establishes a new normal).
    ///
    /// # Panics
    ///
    /// Panics if nothing has been observed yet.
    pub fn freeze_baseline(&mut self) {
        assert!(!self.window.is_empty(), "observe at least one batch before freezing");
        self.baseline = Some(self.rolling());
        // A fresh normal: whatever was latched against the old baseline
        // no longer applies.
        self.latched = HealthPolicy::Healthy;
        self.pending = HealthPolicy::Healthy;
        self.pending_count = 0;
    }

    /// The frozen baseline `(entropy, margin)`, if any.
    pub fn baseline(&self) -> Option<(f64, f64)> {
        self.baseline
    }

    /// Relative entropy rise over the baseline (0 when healthy or no
    /// baseline).
    pub fn entropy_rise(&self) -> f64 {
        match self.baseline {
            Some((be, _)) if be > 1e-12 => (self.rolling_entropy() / be - 1.0).max(0.0),
            // Degenerate baseline (zero entropy): any entropy at all
            // is an infinite relative rise; report a large finite one.
            Some(_) if self.rolling_entropy() > 1e-12 => f64::MAX,
            _ => 0.0,
        }
    }

    /// Relative margin loss versus the baseline (0 when healthy or no
    /// baseline).
    pub fn margin_loss(&self) -> f64 {
        match self.baseline {
            Some((_, bm)) if bm > 1e-12 => (1.0 - self.rolling_margin() / bm).max(0.0),
            _ => 0.0,
        }
    }

    /// Whether drift onset is detected (either signal left its slack
    /// band).
    pub fn drift_detected(&self) -> bool {
        self.entropy_rise() > self.config.entropy_slack
            || self.margin_loss() > self.config.margin_slack
    }

    /// The instantaneous (hysteresis-free) tier the rolling signals
    /// warrant right now:
    ///
    /// * rolling entropy above the calibrated absolute threshold →
    ///   [`HealthPolicy::Abstain`];
    /// * either signal at more than twice its slack →
    ///   [`HealthPolicy::RemapTier`];
    /// * either signal beyond its slack → [`HealthPolicy::Recalibrate`];
    /// * otherwise [`HealthPolicy::Healthy`].
    ///
    /// Prefer [`HealthMonitor::policy`] for driving recovery: the raw
    /// tier flaps when a signal hovers at a slack boundary.
    pub fn raw_policy(&self) -> HealthPolicy {
        if self.rolling_entropy() > self.config.abstain_entropy {
            return HealthPolicy::Abstain;
        }
        let e = self.entropy_rise();
        let m = self.margin_loss();
        if e > 2.0 * self.config.entropy_slack || m > 2.0 * self.config.margin_slack {
            HealthPolicy::RemapTier
        } else if e > self.config.entropy_slack || m > self.config.margin_slack {
            HealthPolicy::Recalibrate
        } else {
            HealthPolicy::Healthy
        }
    }

    /// The latched policy decision, with hysteresis:
    ///
    /// * an escalation only takes effect after persisting for
    ///   [`HealthConfig::dwell`] consecutive observations
    ///   ([`HealthPolicy::Abstain`] bypasses the dwell — uncertainty
    ///   past the calibrated threshold is a safety condition);
    /// * a latched tier only releases once both signals retreat below
    ///   [`HealthConfig::release`] `×` its entry threshold, stepping
    ///   down to whatever the raw tier then warrants.
    pub fn policy(&self) -> HealthPolicy {
        self.latched
    }

    /// Re-evaluates the latch after each observation.
    fn update_latch(&mut self) {
        self.update_latch_inner();
        // The telemetry gauge reports the *latched* tier — the one
        // recovery acts on — never the flappy instantaneous score.
        if crate::telemetry::metrics_enabled() {
            crate::telemetry::gauge("health_tier").set(self.latched.tier_index() as f64);
        }
    }

    fn update_latch_inner(&mut self) {
        let raw = self.raw_policy();
        if raw == HealthPolicy::Abstain {
            self.latched = HealthPolicy::Abstain;
            self.pending = HealthPolicy::Healthy;
            self.pending_count = 0;
            return;
        }
        if raw > self.latched {
            // Extend the escalation streak; a streak that keeps rising
            // (Recalibrate then RemapTier) dwells as one streak at the
            // highest tier seen.
            if self.pending > self.latched && raw >= self.pending {
                self.pending = raw;
                self.pending_count += 1;
            } else {
                self.pending = raw;
                self.pending_count = 1;
            }
            if self.pending_count >= self.config.dwell {
                self.latched = self.pending;
                self.pending = HealthPolicy::Healthy;
                self.pending_count = 0;
            }
            return;
        }
        // At or below the latched tier: the streak is broken.
        self.pending = HealthPolicy::Healthy;
        self.pending_count = 0;
        if raw < self.latched && self.exit_band_cleared() {
            self.latched = raw;
        }
    }

    /// Captures the full mutable state of the monitor for a die
    /// checkpoint (see [`MonitorState`]).
    pub fn export_state(&self) -> MonitorState {
        MonitorState {
            abstain_entropy: self.config.abstain_entropy,
            window: self.window.iter().copied().collect(),
            baseline: self.baseline,
            latched: self.latched,
            pending: self.pending,
            pending_count: self.pending_count,
        }
    }

    /// Reapplies a captured state onto a monitor built with the same
    /// [`HealthConfig`] (the immutable tuning is not captured — only
    /// the runtime-calibrated `abstain_entropy` travels with the
    /// state). After the call the same observation sequence produces
    /// the same latched decisions as the source monitor.
    ///
    /// # Errors
    ///
    /// Refuses, leaving the monitor unchanged, a captured window longer
    /// than this monitor's configured window.
    pub fn import_state(&mut self, state: &MonitorState) -> Result<(), String> {
        if state.window.len() > self.config.window {
            return Err(format!(
                "monitor window state ({}) exceeds configured window ({})",
                state.window.len(),
                self.config.window
            ));
        }
        self.config.abstain_entropy = state.abstain_entropy;
        self.window = state.window.iter().copied().collect();
        self.baseline = state.baseline;
        self.latched = state.latched;
        self.pending = state.pending;
        self.pending_count = state.pending_count;
        Ok(())
    }

    /// Whether both signals have retreated *strictly* below `release ×`
    /// the entry threshold of the currently latched tier. A signal
    /// sitting exactly on the band holds the latch — hysteresis must
    /// never toggle on a boundary value.
    fn exit_band_cleared(&self) -> bool {
        let r = self.config.release;
        let e = self.entropy_rise();
        let m = self.margin_loss();
        match self.latched {
            HealthPolicy::Healthy => true,
            HealthPolicy::Recalibrate => {
                e < r * self.config.entropy_slack && m < r * self.config.margin_slack
            }
            HealthPolicy::RemapTier => {
                e < r * 2.0 * self.config.entropy_slack
                    && m < r * 2.0 * self.config.margin_slack
            }
            HealthPolicy::Abstain => self.rolling_entropy() < r * self.config.abstain_entropy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        HealthMonitor::new(HealthConfig { window: 4, ..HealthConfig::default() })
    }

    #[test]
    fn healthy_until_baseline_deviates() {
        let mut m = monitor();
        for _ in 0..4 {
            m.observe(0.5, 10.0);
        }
        m.freeze_baseline();
        assert_eq!(m.policy(), HealthPolicy::Healthy);
        assert!(!m.drift_detected());
        // Small wiggles stay healthy.
        m.observe(0.55, 9.8);
        assert_eq!(m.policy(), HealthPolicy::Healthy);
    }

    #[test]
    fn entropy_rise_escalates_to_recalibrate_then_remap() {
        let mut m = monitor();
        for _ in 0..4 {
            m.observe(0.5, 10.0);
        }
        m.freeze_baseline();
        // Rolling mean drifts up past 25 % → recalibrate.
        for _ in 0..4 {
            m.observe(0.7, 10.0);
        }
        assert!(m.drift_detected());
        assert_eq!(m.policy(), HealthPolicy::Recalibrate);
        // Past 50 % → remap tier.
        for _ in 0..4 {
            m.observe(0.9, 10.0);
        }
        assert_eq!(m.policy(), HealthPolicy::RemapTier);
    }

    #[test]
    fn margin_collapse_triggers_remap_tier() {
        let mut m = monitor();
        for _ in 0..4 {
            m.observe(0.5, 10.0);
        }
        m.freeze_baseline();
        for _ in 0..4 {
            m.observe(0.5, 5.0); // 50 % margin loss > 2 × 15 %
        }
        assert_eq!(m.policy(), HealthPolicy::RemapTier);
    }

    #[test]
    fn absolute_entropy_threshold_wins() {
        let mut m = HealthMonitor::new(HealthConfig {
            window: 2,
            abstain_entropy: 1.0,
            ..HealthConfig::default()
        });
        m.observe(0.5, 10.0);
        m.freeze_baseline();
        m.observe(1.4, 10.0);
        m.observe(1.4, 10.0);
        assert_eq!(m.policy(), HealthPolicy::Abstain);
    }

    #[test]
    fn rolling_window_forgets_old_batches() {
        let mut m = monitor();
        for _ in 0..4 {
            m.observe(1.0, 10.0);
        }
        assert!((m.rolling_entropy() - 1.0).abs() < 1e-12);
        for _ in 0..4 {
            m.observe(0.2, 10.0);
        }
        assert!((m.rolling_entropy() - 0.2).abs() < 1e-12, "window fully turned over");
    }

    #[test]
    fn exactly_at_slack_stays_healthy() {
        // Escalation comparisons are strict: a rise of exactly the
        // slack is still within tolerance.
        let mut m = HealthMonitor::new(HealthConfig { window: 1, ..HealthConfig::default() });
        m.observe(0.5, 10.0);
        m.freeze_baseline();
        m.observe(0.5 * 1.25, 10.0); // rise == entropy_slack exactly
        assert!((m.entropy_rise() - 0.25).abs() < 1e-12);
        assert_eq!(m.raw_policy(), HealthPolicy::Healthy);
        assert!(!m.drift_detected());
    }

    #[test]
    fn exactly_at_twice_slack_is_recalibrate_not_remap() {
        let mut m = HealthMonitor::new(HealthConfig {
            window: 1,
            dwell: 1,
            ..HealthConfig::default()
        });
        m.observe(0.5, 10.0);
        m.freeze_baseline();
        m.observe(0.5 * 1.5, 10.0); // rise == 2 × entropy_slack exactly
        assert!((m.entropy_rise() - 0.5).abs() < 1e-12);
        assert_eq!(m.raw_policy(), HealthPolicy::Recalibrate);
        assert_eq!(m.policy(), HealthPolicy::Recalibrate, "dwell 1 latches at once");
    }

    #[test]
    fn abstain_crossing_works_without_frozen_baseline() {
        // The absolute uncertainty threshold needs no baseline, and
        // bypasses the dwell: one bad batch is enough.
        let mut m = HealthMonitor::new(HealthConfig {
            window: 4,
            abstain_entropy: 1.0,
            ..HealthConfig::default()
        });
        m.observe(0.3, 10.0);
        assert_eq!(m.policy(), HealthPolicy::Healthy);
        m.observe(5.0, 10.0); // rolling (0.3 + 5.0) / 2 = 2.65 > 1.0
        assert!(m.baseline().is_none());
        assert_eq!(m.raw_policy(), HealthPolicy::Abstain);
        assert_eq!(m.policy(), HealthPolicy::Abstain);
    }

    #[test]
    fn dwell_filters_single_batch_spikes() {
        let mut m = HealthMonitor::new(HealthConfig { window: 1, ..HealthConfig::default() });
        m.observe(0.5, 10.0);
        m.freeze_baseline();
        m.observe(0.8, 10.0); // rise 0.6: raw wants RemapTier
        assert_eq!(m.raw_policy(), HealthPolicy::RemapTier);
        assert_eq!(m.policy(), HealthPolicy::Healthy, "one spike must not latch");
        m.observe(0.5, 10.0); // back to normal before the dwell elapses
        assert_eq!(m.policy(), HealthPolicy::Healthy);
        // A persistent rise does latch after `dwell` observations.
        m.observe(0.8, 10.0);
        m.observe(0.8, 10.0);
        assert_eq!(m.policy(), HealthPolicy::RemapTier);
    }

    #[test]
    fn boundary_hover_does_not_flap() {
        // A signal oscillating around the slack boundary used to
        // re-trigger Recalibrate every window; the exit band keeps the
        // tier latched until the signal genuinely retreats.
        let mut m = HealthMonitor::new(HealthConfig { window: 1, ..HealthConfig::default() });
        m.observe(0.5, 10.0);
        m.freeze_baseline();
        m.observe(0.64, 10.0); // rise 0.28 > slack
        m.observe(0.64, 10.0); // dwell met → latch Recalibrate
        assert_eq!(m.policy(), HealthPolicy::Recalibrate);
        for _ in 0..5 {
            m.observe(0.62, 10.0); // rise 0.24: raw Healthy, inside exit band
            assert_eq!(m.raw_policy(), HealthPolicy::Healthy);
            assert_eq!(m.policy(), HealthPolicy::Recalibrate, "must hold through hover");
            m.observe(0.64, 10.0);
            assert_eq!(m.policy(), HealthPolicy::Recalibrate);
        }
        // rise 0.1 < release × slack = 0.175 → genuinely recovered.
        m.observe(0.55, 10.0);
        assert_eq!(m.policy(), HealthPolicy::Healthy);
    }

    #[test]
    fn remap_tier_releases_stepwise_through_recalibrate() {
        let mut m = HealthMonitor::new(HealthConfig { window: 1, ..HealthConfig::default() });
        m.observe(0.5, 10.0);
        m.freeze_baseline();
        m.observe(0.9, 10.0);
        m.observe(0.9, 10.0); // rise 0.8 → RemapTier latched
        assert_eq!(m.policy(), HealthPolicy::RemapTier);
        // rise 0.4: raw Recalibrate, but above the remap exit band
        // (0.7 × 0.5 = 0.35) → still remap tier.
        m.observe(0.7, 10.0);
        assert_eq!(m.policy(), HealthPolicy::RemapTier);
        // rise 0.3 < 0.35: exit band cleared, step down to the raw tier.
        m.observe(0.65, 10.0);
        assert_eq!(m.policy(), HealthPolicy::Recalibrate);
    }

    #[test]
    fn exactly_on_release_band_holds_the_latch() {
        // The exit band is strict: a signal sitting *exactly* on
        // release × slack must not toggle the tier. All values below
        // are exact in binary floating point, so the comparison really
        // is `0.125 < 0.125`.
        let mut m = HealthMonitor::new(HealthConfig {
            window: 1,
            entropy_slack: 0.25,
            release: 0.5, // band = 0.5 × 0.25 = 0.125
            ..HealthConfig::default()
        });
        m.observe(1.0, 10.0);
        m.freeze_baseline();
        m.observe(1.5, 10.0);
        m.observe(1.5, 10.0); // rise 0.5 > slack, dwell met → Recalibrate
        assert_eq!(m.policy(), HealthPolicy::Recalibrate);
        for _ in 0..4 {
            m.observe(1.125, 10.0); // rise exactly 0.125 = the band
            assert_eq!(m.raw_policy(), HealthPolicy::Healthy);
            assert_eq!(
                m.policy(),
                HealthPolicy::Recalibrate,
                "boundary value must hold the latch, not release it"
            );
        }
        m.observe(1.0, 10.0); // rise 0 < band → genuine recovery
        assert_eq!(m.policy(), HealthPolicy::Healthy);
    }

    #[test]
    fn telemetry_gauge_tracks_latched_tier_not_raw_score() {
        let _guard = crate::telemetry::test_lock();
        crate::telemetry::reset();
        crate::telemetry::set_enabled(true, false);
        let gauge = crate::telemetry::gauge("health_tier");

        let mut m = HealthMonitor::new(HealthConfig { window: 1, ..HealthConfig::default() });
        m.observe(0.5, 10.0);
        m.freeze_baseline();
        m.observe(0.64, 10.0); // raw Recalibrate, still dwelling
        assert_eq!(m.raw_policy(), HealthPolicy::Recalibrate);
        assert_eq!(gauge.get(), 0.0, "dwelling escalation must not move the gauge");
        m.observe(0.64, 10.0); // dwell met → latch
        assert_eq!(gauge.get(), 1.0);
        // Raw drops back inside the exit band's hover zone: the latch
        // (and the gauge) must hold, not track the instantaneous score.
        m.observe(0.62, 10.0);
        assert_eq!(m.raw_policy(), HealthPolicy::Healthy);
        assert_eq!(m.policy(), HealthPolicy::Recalibrate);
        assert_eq!(gauge.get(), 1.0, "gauge must reflect the latched tier");
        m.observe(0.55, 10.0); // genuine recovery
        assert_eq!(gauge.get(), 0.0);

        crate::telemetry::set_enabled(false, false);
        crate::telemetry::reset();
    }

    #[test]
    fn freeze_baseline_resets_the_latch() {
        let mut m = HealthMonitor::new(HealthConfig {
            window: 1,
            dwell: 1,
            ..HealthConfig::default()
        });
        m.observe(0.5, 10.0);
        m.freeze_baseline();
        m.observe(0.9, 10.0);
        assert_eq!(m.policy(), HealthPolicy::RemapTier);
        // After a successful repair the host re-baselines at the new
        // normal; the stale latch must not survive it.
        m.freeze_baseline();
        assert_eq!(m.policy(), HealthPolicy::Healthy);
    }

    #[test]
    fn clear_window_drops_history_but_keeps_latch() {
        let mut m = HealthMonitor::new(HealthConfig {
            window: 2,
            dwell: 1,
            ..HealthConfig::default()
        });
        m.observe(0.5, 10.0);
        m.freeze_baseline();
        m.observe(1.2, 10.0); // rolling 0.85, rise 0.7 → remap tier
        assert_eq!(m.policy(), HealthPolicy::RemapTier);
        m.clear_window();
        assert_eq!(m.rolling_entropy(), 0.0);
        assert_eq!(m.policy(), HealthPolicy::RemapTier, "latch persists until re-baseline");
    }

    #[test]
    fn monitor_state_round_trip_preserves_latch_and_dwell() {
        let config = HealthConfig { window: 1, ..HealthConfig::default() };
        let mut a = HealthMonitor::new(config);
        a.observe(0.5, 10.0);
        a.freeze_baseline();
        a.set_abstain_entropy(2.0);
        a.observe(0.9, 10.0); // rise 0.8: raw RemapTier, mid-dwell
        assert_eq!(a.policy(), HealthPolicy::Healthy, "still dwelling");

        let mut b = HealthMonitor::new(config);
        b.import_state(&a.export_state()).unwrap();
        assert_eq!(b.export_state(), a.export_state(), "re-export must reproduce the state");
        assert_eq!(b.config().abstain_entropy, 2.0, "calibrated threshold travels");

        // The in-flight dwell streak resumes: one more bad batch
        // latches on both, and further recovery releases identically.
        a.observe(0.9, 10.0);
        b.observe(0.9, 10.0);
        assert_eq!(a.policy(), HealthPolicy::RemapTier);
        assert_eq!(b.policy(), HealthPolicy::RemapTier);
        a.observe(0.5, 10.0);
        b.observe(0.5, 10.0);
        assert_eq!(a.policy(), b.policy(), "release path must match too");
    }

    #[test]
    fn monitor_import_rejects_oversized_window() {
        let mut a = HealthMonitor::new(HealthConfig { window: 4, ..HealthConfig::default() });
        for _ in 0..4 {
            a.observe(0.5, 10.0);
        }
        let mut b = HealthMonitor::new(HealthConfig { window: 2, ..HealthConfig::default() });
        let before = b.export_state();
        let err = b.import_state(&a.export_state()).unwrap_err();
        assert!(err.contains("exceeds configured window"), "{err}");
        assert_eq!(b.export_state(), before, "a refused state must not be applied");
    }

    #[test]
    #[should_panic(expected = "dwell must be positive")]
    fn zero_dwell_rejected() {
        let _ = HealthMonitor::new(HealthConfig { dwell: 0, ..HealthConfig::default() });
    }

    #[test]
    #[should_panic(expected = "release must be in (0, 1]")]
    fn out_of_range_release_rejected() {
        let _ = HealthMonitor::new(HealthConfig { release: 1.5, ..HealthConfig::default() });
    }

    #[test]
    fn policies_are_ordered() {
        assert!(HealthPolicy::Healthy < HealthPolicy::Recalibrate);
        assert!(HealthPolicy::Recalibrate < HealthPolicy::RemapTier);
        assert!(HealthPolicy::RemapTier < HealthPolicy::Abstain);
    }

    #[test]
    #[should_panic(expected = "observe at least one batch")]
    fn freeze_needs_observations() {
        monitor().freeze_baseline();
    }

    #[test]
    #[should_panic(expected = "entropy must be finite")]
    fn observe_rejects_nan() {
        monitor().observe(f64::NAN, 1.0);
    }
}
