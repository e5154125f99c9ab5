//! Hardware dropout modules built from stochastic MTJs.
//!
//! All four NeuSpin dropout designs reduce to the same primitive — a
//! [`SpinRng`] producing calibrated Bernoulli bits — but differ in *how
//! many* modules a layer needs and *what* each bit gates. The first
//! three are one [`SpinDropModule`] each, placed differently by the
//! compiled model; the arbiter draws several bits per decision:
//!
//! | Design | One decision gates | Modules per conv layer |
//! |---|---|---|
//! | SpinDrop | one word-line pair (one neuron) | `K·K·C_in` |
//! | Spatial-SpinDrop | one feature map (a row group, via the decoder) | `C_in` |
//! | SpinScaleDrop | the layer's SRAM scale vector | `1` |
//! | [`Arbiter`] (SpinBayes) | which of `N` crossbars is read | `⌈log₂N⌉` bits/pass |

use neuspin_device::{SpinRng, SpinRngState, VariedParams};
use rand::rngs::StdRng;

/// Mutable state of an [`Arbiter`] — the bias point and stream position
/// of each bit source plus the consumed-bit tally. Captured by
/// [`Arbiter::state`] for die checkpoints and reapplied by
/// [`Arbiter::restore_state`] onto an arbiter built by the same
/// deterministic constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbiterState {
    /// Per-bit-source device state, in selection order.
    pub bit_sources: Vec<SpinRngState>,
    /// Total RNG bits consumed so far.
    pub bits_used: u64,
}

/// A per-neuron dropout module (SpinDrop, §III-A1): one stochastic MTJ
/// whose SET→read→RESET cycle yields one drop/keep decision for one
/// word-line pair.
///
/// # Examples
///
/// ```
/// use neuspin_cim::SpinDropModule;
/// use neuspin_device::VariedParams;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut module = SpinDropModule::new(0.25, VariedParams::ideal(), &mut rng);
/// let drops = (0..1000).filter(|_| module.sample(&mut rng)).count();
/// assert!((drops as f64 / 1000.0 - 0.25).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpinDropModule {
    rng: SpinRng,
    target_p: f64,
}

impl SpinDropModule {
    /// Builds and nominal-calibrates a module for drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ (0, 1)`.
    pub fn new(p: f64, corner: VariedParams, rng: &mut StdRng) -> Self {
        let mut spin = SpinRng::new(corner, rng);
        spin.calibrate_nominal(p);
        Self { rng: spin, target_p: p }
    }

    /// The design-target drop probability.
    pub fn target_p(&self) -> f64 {
        self.target_p
    }

    /// The device's true probability at its bias point (oracle).
    pub fn realized_p(&self) -> f64 {
        self.rng.realized_p()
    }

    /// Closed-loop post-fabrication tuning: adjusts the bias current
    /// against the device's *measured* switch rate until the realized
    /// probability is within `tolerance` of the target (spending
    /// measurement bits). Returns the calibration report.
    pub fn tune(&mut self, bits_per_step: u32, tolerance: f64, rng: &mut StdRng)
        -> neuspin_device::CalibrationReport {
        self.rng.calibrate_measured(self.target_p, bits_per_step, tolerance, 25, rng)
    }

    /// Draws one drop decision (`true` = drop the neuron).
    pub fn sample(&mut self, rng: &mut StdRng) -> bool {
        self.rng.next_bit(rng)
    }

    /// Total RNG bits consumed so far.
    pub fn bits_used(&self) -> u64 {
        self.rng.bits_generated()
    }

    /// The underlying device's mutable state (bias point, target, stream
    /// position) for die checkpoints.
    pub fn rng_state(&self) -> SpinRngState {
        self.rng.state()
    }

    /// Reapplies a captured device state (see [`SpinRng::restore_state`]).
    pub fn restore_rng_state(&mut self, state: &SpinRngState) {
        self.rng.restore_state(state);
    }
}

/// The SpinBayes stochastic arbiter (§III-B2, Fig. 3): selects one of
/// `n` crossbars per forward pass via a random one-hot vector, using
/// `⌈log₂ n⌉` stochastic-MTJ bits (p = 0.5 each) and rejection sampling
/// when `n` is not a power of two.
#[derive(Debug, Clone, PartialEq)]
pub struct Arbiter {
    bit_sources: Vec<SpinRng>,
    n: usize,
    bits_used: u64,
}

impl Arbiter {
    /// Builds an arbiter over `n` crossbars.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, corner: VariedParams, rng: &mut StdRng) -> Self {
        assert!(n > 0, "arbiter needs at least one target");
        let bits = usize::BITS as usize - (n - 1).leading_zeros() as usize;
        let bit_sources = (0..bits.max(if n > 1 { 1 } else { 0 }))
            .map(|_| {
                let mut s = SpinRng::new(corner, rng);
                s.calibrate_nominal(0.5);
                s
            })
            .collect();
        Self { bit_sources, n, bits_used: 0 }
    }

    /// Number of selectable crossbars.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bits per candidate draw (`⌈log₂ n⌉`).
    pub fn bits_per_draw(&self) -> usize {
        self.bit_sources.len()
    }

    /// Draws a uniformly random index in `0..n` (one-hot selection).
    pub fn select(&mut self, rng: &mut StdRng) -> usize {
        if self.n == 1 {
            return 0;
        }
        loop {
            let mut value = 0usize;
            for src in &mut self.bit_sources {
                value = (value << 1) | usize::from(src.next_bit(rng));
                self.bits_used += 1;
            }
            if value < self.n {
                return value;
            }
            // Rejection: redraw (only possible for non-power-of-two n).
        }
    }

    /// Draws the full one-hot vector.
    pub fn select_one_hot(&mut self, rng: &mut StdRng) -> Vec<bool> {
        let idx = self.select(rng);
        (0..self.n).map(|i| i == idx).collect()
    }

    /// Total RNG bits consumed so far.
    pub fn bits_used(&self) -> u64 {
        self.bits_used
    }

    /// The arbiter's full mutable state for die checkpoints.
    pub fn state(&self) -> ArbiterState {
        ArbiterState {
            bit_sources: self.bit_sources.iter().map(|s| s.state()).collect(),
            bits_used: self.bits_used,
        }
    }

    /// Reapplies a captured state onto an arbiter built by the same
    /// deterministic constructor.
    ///
    /// # Errors
    ///
    /// Refuses, leaving the arbiter unchanged, a state whose bit-source
    /// count disagrees (it came from a differently shaped arbiter).
    pub fn restore_state(&mut self, state: &ArbiterState) -> Result<(), String> {
        if state.bit_sources.len() != self.bit_sources.len() {
            return Err(format!(
                "arbiter bit-source count mismatch ({} in the state, {} here)",
                state.bit_sources.len(),
                self.bit_sources.len()
            ));
        }
        for (src, s) in self.bit_sources.iter_mut().zip(&state.bit_sources) {
            src.restore_state(s);
        }
        self.bits_used = state.bits_used;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuspin_device::{MtjParams, VariationModel};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(303)
    }

    #[test]
    fn spindrop_module_frequency() {
        let mut r = rng();
        let mut m = SpinDropModule::new(0.4, VariedParams::ideal(), &mut r);
        let drops = (0..5000).filter(|_| m.sample(&mut r)).count();
        assert!((drops as f64 / 5000.0 - 0.4).abs() < 0.03);
        assert_eq!(m.bits_used(), 5000);
    }

    #[test]
    fn variation_shifts_realized_p() {
        let mut r = rng();
        let corner = VariedParams::new(MtjParams::default(), VariationModel::uniform(0.10));
        let ps: Vec<f64> = (0..40)
            .map(|_| SpinDropModule::new(0.5, corner, &mut r).realized_p())
            .collect();
        let spread = ps.iter().cloned().fold(0.0f64, |a, p| a.max((p - 0.5).abs()));
        assert!(spread > 0.05, "realized p must spread under variation, got {spread}");
    }

    #[test]
    fn arbiter_uniform_selection_power_of_two() {
        let mut r = rng();
        let mut arb = Arbiter::new(4, VariedParams::ideal(), &mut r);
        assert_eq!(arb.bits_per_draw(), 2);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[arb.select(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 4000.0 - 0.25).abs() < 0.04, "{counts:?}");
        }
        assert_eq!(arb.bits_used(), 8000);
    }

    #[test]
    fn arbiter_rejection_sampling_non_power_of_two() {
        let mut r = rng();
        let mut arb = Arbiter::new(3, VariedParams::ideal(), &mut r);
        assert_eq!(arb.bits_per_draw(), 2);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[arb.select(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 3000.0 - 1.0 / 3.0).abs() < 0.05, "{counts:?}");
        }
        // Rejection costs extra bits: more than 2 per draw on average.
        assert!(arb.bits_used() > 6000);
    }

    #[test]
    fn arbiter_one_hot_has_single_true() {
        let mut r = rng();
        let mut arb = Arbiter::new(5, VariedParams::ideal(), &mut r);
        for _ in 0..20 {
            let oh = arb.select_one_hot(&mut r);
            assert_eq!(oh.len(), 5);
            assert_eq!(oh.iter().filter(|&&b| b).count(), 1);
        }
    }

    #[test]
    fn arbiter_single_target_is_free() {
        let mut r = rng();
        let mut arb = Arbiter::new(1, VariedParams::ideal(), &mut r);
        assert_eq!(arb.select(&mut r), 0);
        assert_eq!(arb.bits_used(), 0);
    }

    #[test]
    fn module_state_round_trip_onto_twin_is_exact() {
        let corner = VariedParams::new(MtjParams::default(), VariationModel::uniform(0.05));
        let mut ra = StdRng::seed_from_u64(71);
        let mut rb = StdRng::seed_from_u64(71);
        let mut a = SpinDropModule::new(0.3, corner, &mut ra);
        let mut b = SpinDropModule::new(0.3, corner, &mut rb);
        let mut use_rng = StdRng::seed_from_u64(9);
        let _ = a.tune(64, 0.02, &mut use_rng);
        for _ in 0..17 {
            let _ = a.sample(&mut use_rng);
        }
        b.restore_rng_state(&a.rng_state());
        assert_eq!(a, b, "restored module must equal the source exactly");
    }

    #[test]
    fn arbiter_state_round_trip_onto_twin_is_exact() {
        let corner = VariedParams::new(MtjParams::default(), VariationModel::uniform(0.05));
        let mut ra = StdRng::seed_from_u64(72);
        let mut rb = StdRng::seed_from_u64(72);
        let mut a = Arbiter::new(3, corner, &mut ra);
        let mut b = Arbiter::new(3, corner, &mut rb);
        let mut use_rng = StdRng::seed_from_u64(10);
        for _ in 0..25 {
            let _ = a.select(&mut use_rng);
        }
        b.restore_state(&a.state()).unwrap();
        assert_eq!(a, b, "restored arbiter must equal the source exactly");
    }

    #[test]
    fn arbiter_restore_rejects_shape_mismatch() {
        let mut r = rng();
        let a = Arbiter::new(8, VariedParams::ideal(), &mut r);
        let mut b = Arbiter::new(2, VariedParams::ideal(), &mut r);
        let before = b.state();
        let err = b.restore_state(&a.state()).unwrap_err();
        assert!(err.contains("bit-source count mismatch"), "{err}");
        assert_eq!(b.state(), before, "a refused state must not be applied");
    }
}
