//! Temporal degradation of an MTJ cell population under a virtual
//! clock.
//!
//! The rest of `neuspin-device` models devices at a single instant;
//! this module makes a *population* of cells move through simulated
//! device-hours. Three wear-out physics act per time step:
//!
//! * **Retention flips** — pure Néel–Brown relaxation through
//!   [`SwitchingModel::retention_probability`]: over `dt` an unbiased
//!   cell loses its state with `1 − exp(−dt·e^{−Δ}/τ₀)`. The thermal
//!   stability Δ is modulated by the [`TemperatureProfile`]
//!   (`Δ(T) = Δ₀ · T_ref/T`, the first-order barrier-over-kT scaling),
//!   so hot intervals lose data much faster than cool ones.
//! * **Read disturb** — every read access nudges the free layer; a
//!   cell read `n` times flips with `1 − (1 − p_rd)^n`. The caller
//!   supplies the per-cell read count (in `neuspin-cim` it rides the
//!   crossbar's existing [`OpCounter`](crate::energy) tallies).
//! * **Write-endurance wear-out** — each cell carries a lognormal
//!   lifetime (in write cycles); once its cumulative writes exceed it,
//!   the cell freezes permanently (a stuck-at conversion upstream).
//!
//! On top of the discrete events, programmed conductances decay with a
//! common-mode rate plus per-cell lognormal jitter — the drift the
//! sense-margin health signal watches.
//!
//! ## Determinism: event-indexed RNG streams
//!
//! No ambient RNG is consumed. Every random decision draws from a
//! private stream keyed on `(master seed, epoch, cell index)`, where
//! the epoch is the [`AgingState::advance`] invocation counter. The
//! trajectory is therefore a pure function of the seed, the `dt`
//! sequence, and the per-epoch access counts — independent of thread
//! count, of how many predictions ran in between, and of every other
//! RNG stream in the workspace (the golden seed-42 streams are
//! untouched). Epoch 0 is reserved for fabrication-time draws (the
//! endurance lifetimes); advances use epochs 1, 2, …

use crate::stats::LogNormal;
use crate::switching::SwitchingModel;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Reference temperature (kelvin) at which
/// [`AgingConfig::thermal_stability`] is specified.
pub const REFERENCE_TEMPERATURE: f64 = 300.0;

/// Ambient temperature as a function of the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemperatureProfile {
    /// Constant ambient temperature (kelvin).
    Constant(f64),
    /// Sinusoidal (e.g. diurnal) cycle around `base` kelvin:
    /// `T(t) = base + swing · sin(2π · t / period_hours)`.
    Cycle {
        /// Mean temperature (kelvin).
        base: f64,
        /// Peak deviation from the mean (kelvin).
        swing: f64,
        /// Cycle period in device-hours.
        period_hours: f64,
    },
}

impl TemperatureProfile {
    /// Temperature (kelvin) at virtual time `hours`.
    pub fn at(&self, hours: f64) -> f64 {
        match *self {
            TemperatureProfile::Constant(t) => t,
            TemperatureProfile::Cycle { base, swing, period_hours } => {
                base + swing * (2.0 * std::f64::consts::PI * hours / period_hours).sin()
            }
        }
    }

    fn validate(&self) {
        match *self {
            TemperatureProfile::Constant(t) => {
                assert!(t.is_finite() && t > 0.0, "temperature must be positive, got {t}");
            }
            TemperatureProfile::Cycle { base, swing, period_hours } => {
                assert!(base.is_finite() && base > 0.0, "base temperature must be positive");
                assert!(swing.is_finite() && swing >= 0.0 && swing < base,
                        "swing must be in [0, base)");
                assert!(period_hours.is_finite() && period_hours > 0.0,
                        "period must be positive");
            }
        }
    }
}

/// Tuning of the temporal degradation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingConfig {
    /// Master seed of the event-indexed RNG streams.
    pub seed: u64,
    /// Thermal stability Δ₀ at [`REFERENCE_TEMPERATURE`]. 60 is the
    /// ten-year-retention design point; low-barrier corners (Δ ≲ 35)
    /// lose data within simulated hours.
    pub thermal_stability: f64,
    /// Néel–Brown attempt time τ₀, seconds.
    pub attempt_time: f64,
    /// Ambient temperature over the virtual clock.
    pub temperature: TemperatureProfile,
    /// Per-read-access disturb flip probability (0 disables).
    pub read_disturb: f64,
    /// Median cell lifetime in write cycles (lognormal across cells).
    pub endurance_median: f64,
    /// Lognormal sigma of the endurance lifetimes.
    pub endurance_sigma: f64,
    /// Common-mode conductance decay rate per device-hour (0 disables;
    /// the programmed level decays as `e^{−rate·t}` until refreshed).
    pub drift_rate: f64,
    /// Per-cell lognormal drift jitter per √hour (0 = pure
    /// common-mode).
    pub drift_sigma: f64,
    /// Write-verify loops a scrub performs per cell — the configurable
    /// energy cost of the refresh path (each loop is a full
    /// write + verify tally upstream).
    pub scrub_passes: u32,
}

impl Default for AgingConfig {
    /// A healthy part at room temperature: ten-year retention barrier,
    /// no read disturb, effectively unlimited endurance, no drift.
    fn default() -> Self {
        Self {
            seed: 0,
            thermal_stability: 60.0,
            attempt_time: 1e-9,
            temperature: TemperatureProfile::Constant(REFERENCE_TEMPERATURE),
            read_disturb: 0.0,
            endurance_median: 1e15,
            endurance_sigma: 0.3,
            drift_rate: 0.0,
            drift_sigma: 0.0,
            scrub_passes: 1,
        }
    }
}

impl AgingConfig {
    /// Validates the tuning.
    ///
    /// # Panics
    ///
    /// Panics if any rate/scale is out of range.
    pub fn validate(&self) {
        assert!(self.thermal_stability.is_finite() && self.thermal_stability > 0.0,
                "thermal stability must be positive");
        assert!(self.attempt_time.is_finite() && self.attempt_time > 0.0,
                "attempt time must be positive");
        self.temperature.validate();
        assert!(self.read_disturb.is_finite() && (0.0..1.0).contains(&self.read_disturb),
                "read_disturb must be in [0, 1)");
        assert!(self.endurance_median.is_finite() && self.endurance_median > 0.0,
                "endurance median must be positive");
        assert!(self.endurance_sigma.is_finite() && self.endurance_sigma >= 0.0,
                "endurance sigma must be >= 0");
        assert!(self.drift_rate.is_finite() && self.drift_rate >= 0.0,
                "drift rate must be >= 0");
        assert!(self.drift_sigma.is_finite() && self.drift_sigma >= 0.0,
                "drift sigma must be >= 0");
        assert!(self.scrub_passes >= 1, "scrub needs at least one write pass");
    }

    /// The temperature-modulated thermal stability at virtual time
    /// `hours`: `Δ(T) = Δ₀ · T_ref / T` (barrier energy over kT).
    pub fn stability_at(&self, hours: f64) -> f64 {
        self.thermal_stability * (REFERENCE_TEMPERATURE / self.temperature.at(hours))
    }
}

/// The private RNG stream of one `(epoch, cell)` event. Seeding runs
/// the same SplitMix64 expansion every stream in the workspace uses;
/// the two odd multipliers decorrelate the epoch and cell axes (the
/// golden-ratio constant is the workspace's standard stage-tag mixer).
fn event_rng(seed: u64, epoch: u64, cell: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ cell.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    )
}

/// What happened to the population during one [`AgingState::advance`]:
/// cell indices per event class, in ascending (deterministic) order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AgingStepReport {
    /// Cells that lost their state to thermal relaxation.
    pub retention_flips: Vec<usize>,
    /// Cells flipped by accumulated read disturb.
    pub disturb_flips: Vec<usize>,
    /// Cells that crossed their endurance lifetime this step (newly
    /// worn out — permanent).
    pub wear_outs: Vec<usize>,
}

impl AgingStepReport {
    /// Collapses the step into count form.
    pub fn summary(&self, hours: f64) -> AgingReport {
        AgingReport {
            hours,
            retention_flips: self.retention_flips.len(),
            disturb_flips: self.disturb_flips.len(),
            wear_outs: self.wear_outs.len(),
        }
    }
}

/// Count-form aging summary, mergeable across arrays and steps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AgingReport {
    /// Virtual time covered, device-hours.
    pub hours: f64,
    /// Retention (Néel–Brown) flips.
    pub retention_flips: usize,
    /// Read-disturb flips.
    pub disturb_flips: usize,
    /// Newly worn-out (stuck-at-converted) cells.
    pub wear_outs: usize,
}

impl AgingReport {
    /// Folds another report in (parallel arrays share the clock, so
    /// `hours` takes the maximum rather than summing).
    pub fn merge(&mut self, other: &AgingReport) {
        self.hours = self.hours.max(other.hours);
        self.retention_flips += other.retention_flips;
        self.disturb_flips += other.disturb_flips;
        self.wear_outs += other.wear_outs;
    }

    /// Total soft flips (retention + disturb).
    pub fn total_flips(&self) -> usize {
        self.retention_flips + self.disturb_flips
    }
}

/// The full mutable state of an [`AgingState`], as plain data — what a
/// crash-safe checkpoint must carry to resume the virtual clock and the
/// event-indexed RNG streams exactly where they stopped.
///
/// The tuning ([`AgingConfig`]) is *not* part of the snapshot: it is
/// fabrication-time configuration, reconstructed by rebuilding the die
/// from the same deterministic constructor. Restoring a snapshot onto a
/// twin built with the same config makes every subsequent
/// [`AgingState::advance`] draw from the same `(seed, epoch, cell)`
/// streams the uninterrupted run would have used.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingSnapshot {
    /// Virtual clock, device-hours since fabrication.
    pub now_hours: f64,
    /// Completed advance epochs (the event-RNG stream position).
    pub epoch: u64,
    /// Mean cumulative writes per cell.
    pub cum_writes: f64,
    /// Per-cell endurance lifetimes (mutated by cell replacement).
    pub lifetimes: Vec<f64>,
    /// Per-cell cumulative conductance drift factors.
    pub drift: Vec<f64>,
    /// Worn-out flags.
    pub worn: Vec<bool>,
}

/// Temporal state of a population of `n` cells: the virtual clock,
/// per-cell endurance lifetimes and cumulative drift factors, and the
/// worn-out set.
#[derive(Debug, Clone)]
pub struct AgingState {
    config: AgingConfig,
    now_hours: f64,
    epoch: u64,
    /// Mean cumulative writes per cell (writes are array-uniform:
    /// programming always sweeps the whole array upstream).
    cum_writes: f64,
    /// Per-cell endurance lifetime in write cycles (lognormal, drawn at
    /// fabrication from epoch-0 streams).
    lifetimes: Vec<f64>,
    /// Per-cell cumulative conductance drift factor (1 = as
    /// programmed; reset by a scrub).
    drift: Vec<f64>,
    worn: Vec<bool>,
}

impl AgingState {
    /// Fabricates the temporal state of `cells` cells.
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0` or the config fails
    /// [`AgingConfig::validate`].
    pub fn new(cells: usize, config: AgingConfig) -> Self {
        assert!(cells > 0, "need at least one cell");
        config.validate();
        let dist = LogNormal::from_median_sigma(
            config.endurance_median,
            config.endurance_sigma.max(1e-12),
        );
        let lifetimes = (0..cells)
            .map(|i| dist.sample(&mut event_rng(config.seed, 0, i as u64)))
            .collect();
        Self {
            config,
            now_hours: 0.0,
            epoch: 0,
            cum_writes: 0.0,
            lifetimes,
            drift: vec![1.0; cells],
            worn: vec![false; cells],
        }
    }

    /// The tuning in effect.
    pub fn config(&self) -> &AgingConfig {
        &self.config
    }

    /// Population size.
    pub fn cells(&self) -> usize {
        self.drift.len()
    }

    /// The virtual clock, device-hours since fabrication.
    pub fn now_hours(&self) -> f64 {
        self.now_hours
    }

    /// Completed [`AgingState::advance`] epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cumulative conductance drift factor of cell `i`.
    pub fn drift(&self, i: usize) -> f64 {
        self.drift[i]
    }

    /// Whether cell `i` has exceeded its endurance lifetime.
    pub fn is_worn(&self, i: usize) -> bool {
        self.worn[i]
    }

    /// Number of worn-out cells.
    pub fn worn_count(&self) -> usize {
        self.worn.iter().filter(|&&w| w).count()
    }

    /// Mean cumulative writes per cell so far.
    pub fn cum_writes(&self) -> f64 {
        self.cum_writes
    }

    /// Advances the virtual clock by `dt_hours`, sampling retention
    /// flips at the temperature-modulated Δ, read-disturb flips from
    /// `reads_per_cell` accesses accumulated since the last advance,
    /// endurance wear from `writes_per_cell` write cycles, and the
    /// conductance drift factors. Worn-out cells no longer flip (they
    /// are frozen).
    ///
    /// # Panics
    ///
    /// Panics if `dt_hours` is not positive and finite, or either
    /// access count is negative/non-finite.
    pub fn advance(
        &mut self,
        dt_hours: f64,
        reads_per_cell: f64,
        writes_per_cell: f64,
    ) -> AgingStepReport {
        assert!(dt_hours.is_finite() && dt_hours > 0.0, "dt must be positive, got {dt_hours}");
        assert!(reads_per_cell.is_finite() && reads_per_cell >= 0.0, "bad read count");
        assert!(writes_per_cell.is_finite() && writes_per_cell >= 0.0, "bad write count");
        self.epoch += 1;

        // Midpoint temperature of the interval sets the barrier.
        let delta = self.config.stability_at(self.now_hours + 0.5 * dt_hours);
        let switching = SwitchingModel::new(delta, 1e-6, self.config.attempt_time);
        let p_retention = 1.0 - switching.retention_probability(dt_hours * 3600.0);
        let p_disturb = if self.config.read_disturb > 0.0 && reads_per_cell > 0.0 {
            1.0 - (1.0 - self.config.read_disturb).powf(reads_per_cell)
        } else {
            0.0
        };
        self.cum_writes += writes_per_cell;
        let common_decay = (-self.config.drift_rate * dt_hours).exp();
        let jitter_scale = self.config.drift_sigma * dt_hours.sqrt();

        let mut report = AgingStepReport::default();
        for i in 0..self.drift.len() {
            // Fixed three-draw schedule per (epoch, cell) stream, so
            // the trajectory never depends on which branches fire.
            let mut rng = event_rng(self.config.seed, self.epoch, i as u64);
            let u_retention: f64 = rng.random();
            let u_disturb: f64 = rng.random();
            let z = crate::stats::standard_normal(&mut rng);

            let jitter = if jitter_scale > 0.0 { (jitter_scale * z).exp() } else { 1.0 };
            self.drift[i] *= common_decay * jitter;

            if self.worn[i] {
                continue;
            }
            if self.cum_writes > self.lifetimes[i] {
                self.worn[i] = true;
                report.wear_outs.push(i);
                continue;
            }
            if u_retention < p_retention {
                report.retention_flips.push(i);
            } else if u_disturb < p_disturb {
                report.disturb_flips.push(i);
            }
        }
        self.now_hours += dt_hours;
        report
    }

    /// Records a scrub: reprogramming restores every programmed
    /// conductance, so the drift factors reset to 1. Worn-out cells
    /// stay worn — endurance damage is permanent.
    pub fn reset_drift(&mut self) {
        self.drift.fill(1.0);
    }

    /// Exports the full mutable state for checkpointing.
    pub fn snapshot(&self) -> AgingSnapshot {
        AgingSnapshot {
            now_hours: self.now_hours,
            epoch: self.epoch,
            cum_writes: self.cum_writes,
            lifetimes: self.lifetimes.clone(),
            drift: self.drift.clone(),
            worn: self.worn.clone(),
        }
    }

    /// Overwrites the mutable state from a snapshot taken on a
    /// population of the same size (see [`AgingSnapshot`]).
    ///
    /// # Errors
    ///
    /// Refuses, leaving the state unchanged, a snapshot whose per-cell
    /// vectors do not all match this population's size.
    pub fn restore(&mut self, snapshot: &AgingSnapshot) -> Result<(), String> {
        let n = self.lifetimes.len();
        if [snapshot.lifetimes.len(), snapshot.drift.len(), snapshot.worn.len()] != [n; 3] {
            return Err(format!("aging snapshot population mismatch (want {n} cells)"));
        }
        self.now_hours = snapshot.now_hours;
        self.epoch = snapshot.epoch;
        self.cum_writes = snapshot.cum_writes;
        self.lifetimes.clone_from(&snapshot.lifetimes);
        self.drift.clone_from(&snapshot.drift);
        self.worn.clone_from(&snapshot.worn);
        Ok(())
    }

    /// Records that cell `i` was physically replaced (e.g. fused to a
    /// spare column): drift resets, wear clears, and the replacement
    /// receives a fresh endurance budget starting from the current
    /// cumulative write count. The budget draw is keyed on the current
    /// epoch plus a high-bit cell offset, so it is deterministic yet
    /// distinct from both the fabrication draw and every advance
    /// stream.
    pub fn replace_cell(&mut self, i: usize) {
        self.drift[i] = 1.0;
        self.worn[i] = false;
        let dist = LogNormal::from_median_sigma(
            self.config.endurance_median,
            self.config.endurance_sigma.max(1e-12),
        );
        let mut rng =
            event_rng(self.config.seed, self.epoch, i as u64 ^ 0x8000_0000_0000_0000);
        self.lifetimes[i] = self.cum_writes + dist.sample(&mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> AgingConfig {
        AgingConfig {
            seed: 42,
            thermal_stability: 31.0, // retention collapses within hours
            ..AgingConfig::default()
        }
    }

    #[test]
    fn stable_devices_do_not_flip() {
        let mut state = AgingState::new(512, AgingConfig { seed: 7, ..AgingConfig::default() });
        let report = state.advance(1000.0, 1e4, 0.0);
        assert!(report.retention_flips.is_empty(), "Δ=60 must retain for any horizon");
        assert!(report.disturb_flips.is_empty(), "read disturb disabled by default");
        assert!(report.wear_outs.is_empty());
        assert_eq!(state.now_hours(), 1000.0);
    }

    #[test]
    fn low_barrier_population_loses_data() {
        let mut state = AgingState::new(2000, fast_config());
        let report = state.advance(4.0, 0.0, 0.0);
        let expected = 1.0
            - SwitchingModel::new(31.0, 1e-6, 1e-9).retention_probability(4.0 * 3600.0);
        let observed = report.retention_flips.len() as f64 / 2000.0;
        assert!(
            (observed - expected).abs() < 0.05,
            "flip fraction {observed} should track Néel–Brown {expected}"
        );
    }

    #[test]
    fn hot_intervals_flip_more() {
        let hot = AgingConfig {
            temperature: TemperatureProfile::Constant(360.0),
            ..fast_config()
        };
        let mut cool_state = AgingState::new(2000, fast_config());
        let mut hot_state = AgingState::new(2000, hot);
        let cool = cool_state.advance(1.0, 0.0, 0.0).retention_flips.len();
        let hot = hot_state.advance(1.0, 0.0, 0.0).retention_flips.len();
        assert!(hot > 2 * cool.max(1), "360 K ({hot} flips) must outpace 300 K ({cool})");
    }

    #[test]
    fn temperature_cycle_modulates_stability() {
        let config = AgingConfig {
            temperature: TemperatureProfile::Cycle { base: 300.0, swing: 50.0, period_hours: 24.0 },
            ..AgingConfig::default()
        };
        // Peak of the sine (t = 6 h) is hottest → lowest Δ.
        let peak = config.stability_at(6.0);
        let trough = config.stability_at(18.0);
        let mean = config.stability_at(0.0);
        assert!(peak < mean && mean < trough);
        assert!((mean - 60.0).abs() < 1e-9, "at base temperature Δ is nominal");
    }

    #[test]
    fn read_disturb_accumulates_with_accesses() {
        let config = AgingConfig { read_disturb: 1e-4, ..AgingConfig::default() };
        let mut quiet = AgingState::new(2000, config.clone());
        let mut busy = AgingState::new(2000, config);
        let q = quiet.advance(1.0, 10.0, 0.0).disturb_flips.len();
        let b = busy.advance(1.0, 5_000.0, 0.0).disturb_flips.len();
        assert!(b > q, "5000 reads/cell ({b} flips) must disturb more than 10 ({q})");
        let expected = 1.0 - (1.0 - 1e-4f64).powf(5_000.0);
        let observed = b as f64 / 2000.0;
        assert!((observed - expected).abs() < 0.05, "disturb fraction {observed} vs {expected}");
    }

    #[test]
    fn endurance_wears_out_around_the_median() {
        let config = AgingConfig {
            endurance_median: 1_000.0,
            endurance_sigma: 0.2,
            ..AgingConfig::default()
        };
        let mut state = AgingState::new(1000, config);
        let early = state.advance(1.0, 0.0, 100.0).wear_outs.len();
        assert_eq!(early, 0, "100 writes is far below the 1000-cycle median");
        let mut total = early;
        for _ in 0..39 {
            total += state.advance(1.0, 0.0, 100.0).wear_outs.len();
        }
        // 4000 cumulative writes: essentially the whole population.
        assert!(total > 900, "most cells must wear out by 4× the median, got {total}");
        assert_eq!(state.worn_count(), total);
        // Worn cells never flip again even at a hot corner.
        let report = state.advance(10.0, 0.0, 0.0);
        assert!(report.retention_flips.len() <= 1000 - total);
    }

    #[test]
    fn drift_decays_and_scrub_restores() {
        let config = AgingConfig { drift_rate: 0.1, drift_sigma: 0.05, ..AgingConfig::default() };
        let mut state = AgingState::new(64, config);
        state.advance(2.0, 0.0, 0.0);
        let mean: f64 = (0..64).map(|i| state.drift(i)).sum::<f64>() / 64.0;
        let expected = (-0.1f64 * 2.0).exp();
        assert!((mean - expected).abs() < 0.05, "mean drift {mean} vs common mode {expected}");
        assert!((0..64).any(|i| (state.drift(i) - mean).abs() > 1e-6), "jitter is per-cell");
        state.reset_drift();
        assert!((0..64).all(|i| state.drift(i) == 1.0));
    }

    #[test]
    fn trajectories_are_event_indexed_and_reproducible() {
        let mk = || AgingState::new(256, AgingConfig { read_disturb: 1e-3, ..fast_config() });
        let mut a = mk();
        let mut b = mk();
        let ra1 = a.advance(1.0, 100.0, 0.0);
        let rb1 = b.advance(1.0, 100.0, 0.0);
        assert_eq!(ra1, rb1, "same seed + schedule ⇒ same events");
        // Interleaving unrelated RNG draws cannot perturb the stream.
        let mut ambient = StdRng::seed_from_u64(999);
        let _: f64 = ambient.random();
        let ra2 = a.advance(1.0, 100.0, 0.0);
        let rb2 = b.advance(1.0, 100.0, 0.0);
        assert_eq!(ra2, rb2);
        assert_ne!(ra1, ra2, "each epoch has its own stream");
    }

    #[test]
    fn replaced_cell_gets_fresh_endurance_budget() {
        let config = AgingConfig {
            endurance_median: 100.0,
            endurance_sigma: 0.1,
            ..AgingConfig::default()
        };
        let mut state = AgingState::new(8, config);
        state.advance(1.0, 0.0, 500.0); // 5× the median: everything wears out
        assert_eq!(state.worn_count(), 8);
        state.replace_cell(3);
        assert!(!state.is_worn(3));
        assert_eq!(state.drift(3), 1.0);
        let report = state.advance(1.0, 0.0, 10.0);
        assert!(report.wear_outs.is_empty(), "the fresh budget covers 10 writes");
        let report = state.advance(1.0, 0.0, 500.0);
        assert_eq!(report.wear_outs, vec![3], "the replacement wears out in turn");
    }

    #[test]
    fn snapshot_restore_resumes_event_streams_bit_exactly() {
        let mk = || AgingState::new(128, AgingConfig {
            read_disturb: 1e-3,
            drift_rate: 0.05,
            drift_sigma: 0.02,
            endurance_median: 400.0,
            ..fast_config()
        });
        let mut a = mk();
        a.advance(1.0, 50.0, 100.0);
        a.replace_cell(7);
        a.advance(0.5, 20.0, 150.0);
        let snap = a.snapshot();
        // Restore onto a twin built by the same constructor.
        let mut b = mk();
        b.restore(&snap).unwrap();
        let ra = a.advance(2.0, 80.0, 200.0);
        let rb = b.advance(2.0, 80.0, 200.0);
        assert_eq!(ra, rb, "restored twin must replay the same events");
        for i in 0..128 {
            assert_eq!(a.drift(i).to_bits(), b.drift(i).to_bits(), "cell {i}");
            assert_eq!(a.is_worn(i), b.is_worn(i), "cell {i}");
        }
        assert_eq!(a.now_hours().to_bits(), b.now_hours().to_bits());
        assert_eq!(a.epoch(), b.epoch());
    }

    #[test]
    fn restore_rejects_population_mismatch() {
        let snap = AgingState::new(8, AgingConfig::default()).snapshot();
        let mut b = AgingState::new(16, AgingConfig::default());
        let before = b.snapshot();
        let err = b.restore(&snap).unwrap_err();
        assert!(err.contains("population mismatch"), "{err}");
        assert_eq!(b.snapshot(), before, "a refused snapshot must not be applied");
    }

    #[test]
    fn reports_merge() {
        let mut total = AgingReport::default();
        total.merge(&AgingReport { hours: 2.0, retention_flips: 3, disturb_flips: 1, wear_outs: 0 });
        total.merge(&AgingReport { hours: 2.0, retention_flips: 2, disturb_flips: 0, wear_outs: 4 });
        assert_eq!(total.hours, 2.0, "parallel arrays share the clock");
        assert_eq!(total.retention_flips, 5);
        assert_eq!(total.total_flips(), 6);
        assert_eq!(total.wear_outs, 4);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn advance_rejects_zero_dt() {
        AgingState::new(4, AgingConfig::default()).advance(0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "read_disturb must be in [0, 1)")]
    fn config_rejects_bad_disturb() {
        AgingConfig { read_disturb: 1.5, ..AgingConfig::default() }.validate();
    }
}
