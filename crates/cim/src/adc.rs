//! Column readout: sense amplifier and ADC models.


/// A uniform mid-rise ADC over a symmetric range.
///
/// Crossbar column currents are digitised by a shared column ADC; its
/// resolution is one of the CIM design knobs the paper's post-training
/// quantization is aware of.
///
/// # Examples
///
/// ```
/// use neuspin_cim::Adc;
///
/// let adc = Adc::new(4, 8.0);
/// assert_eq!(adc.levels(), 16);
/// // Quantization error bounded by half a step.
/// let x = 3.21;
/// assert!((adc.quantize(x) - x).abs() <= adc.step() / 2.0 + 1e-6);
/// // Saturation at the rails.
/// assert!(adc.quantize(100.0) <= 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    bits: u32,
    full_scale: f64,
}

impl Adc {
    /// Creates a `bits`-bit ADC over `[-full_scale, +full_scale]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 16, or `full_scale <= 0`.
    pub fn new(bits: u32, full_scale: f64) -> Self {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16, got {bits}");
        assert!(full_scale > 0.0 && full_scale.is_finite(), "full_scale must be positive");
        Self { bits, full_scale }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of output codes.
    #[inline]
    pub fn levels(&self) -> u64 {
        1u64 << self.bits
    }

    /// Full-scale range (the quantizer covers ±this value).
    #[inline]
    pub fn full_scale(&self) -> f64 {
        self.full_scale
    }

    /// Quantization step size.
    #[inline]
    pub fn step(&self) -> f64 {
        2.0 * self.full_scale / self.levels() as f64
    }

    /// Quantizes a value (clamping to the rails).
    #[inline]
    pub fn quantize(&self, x: f64) -> f64 {
        let clamped = x.clamp(-self.full_scale, self.full_scale);
        let step = self.step();
        let code = ((clamped + self.full_scale) / step).floor().min(self.levels() as f64 - 1.0);
        // Mid-rise reconstruction.
        -self.full_scale + (code + 0.5) * step
    }
}

/// Running operation counters for a CIM component — the raw material of
/// the energy model. Counters merge with `+=` semantics via
/// [`OpCounter::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounter {
    /// Individual cell reads (each sensed cell in each column evaluation).
    pub cell_reads: u64,
    /// Device write pulses (programming + RNG cycles' writes).
    pub cell_writes: u64,
    /// Sense-amplifier evaluations.
    pub sa_evals: u64,
    /// ADC conversions.
    pub adc_converts: u64,
    /// Column conversions that clipped at the ADC rails — the
    /// quantizer saw a current outside ±full-scale and saturated.
    pub adc_saturations: u64,
    /// Stochastic-MTJ RNG bits produced.
    pub rng_bits: u64,
    /// SRAM word accesses (scale vectors, arbiter state).
    pub sram_accesses: u64,
    /// Digital accumulate/shift operations.
    pub digital_ops: u64,
}

impl OpCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another counter into this one.
    pub fn merge(&mut self, other: &OpCounter) {
        self.cell_reads += other.cell_reads;
        self.cell_writes += other.cell_writes;
        self.sa_evals += other.sa_evals;
        self.adc_converts += other.adc_converts;
        self.adc_saturations += other.adc_saturations;
        self.rng_bits += other.rng_bits;
        self.sram_accesses += other.sram_accesses;
        self.digital_ops += other.digital_ops;
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Elementwise saturating difference `self − earlier` — used to
    /// turn monotonic counters into per-window deltas.
    pub fn since(&self, earlier: &OpCounter) -> OpCounter {
        OpCounter {
            cell_reads: self.cell_reads.saturating_sub(earlier.cell_reads),
            cell_writes: self.cell_writes.saturating_sub(earlier.cell_writes),
            sa_evals: self.sa_evals.saturating_sub(earlier.sa_evals),
            adc_converts: self.adc_converts.saturating_sub(earlier.adc_converts),
            adc_saturations: self.adc_saturations.saturating_sub(earlier.adc_saturations),
            rng_bits: self.rng_bits.saturating_sub(earlier.rng_bits),
            sram_accesses: self.sram_accesses.saturating_sub(earlier.sram_accesses),
            digital_ops: self.digital_ops.saturating_sub(earlier.digital_ops),
        }
    }

    /// Total of all counted events (a coarse activity metric).
    pub fn total_events(&self) -> u64 {
        self.cell_reads
            + self.cell_writes
            + self.sa_evals
            + self.adc_converts
            + self.adc_saturations
            + self.rng_bits
            + self.sram_accesses
            + self.digital_ops
    }

    /// Folds a sequence of counters into one — the single merge path
    /// shared by the parallel-join reduction, [`HardwareModel`]'s
    /// block-counter rollup, and the telemetry per-thread buffer merge.
    ///
    /// [`HardwareModel`]: https://docs.rs/neuspin-core
    pub fn merged(counters: impl IntoIterator<Item = OpCounter>) -> OpCounter {
        let mut total = OpCounter::new();
        for c in counters {
            total.merge(&c);
        }
        total
    }
}

impl std::ops::AddAssign for OpCounter {
    fn add_assign(&mut self, rhs: Self) {
        self.merge(&rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_step_and_levels() {
        let adc = Adc::new(4, 8.0);
        assert_eq!(adc.levels(), 16);
        assert!((adc.step() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantize_error_bounded() {
        let adc = Adc::new(6, 4.0);
        for i in -100..=100 {
            let x = i as f64 * 0.04;
            let q = adc.quantize(x);
            assert!((q - x).abs() <= adc.step() / 2.0 + 1e-12, "x {x} q {q}");
        }
    }

    #[test]
    fn quantize_is_monotone() {
        let adc = Adc::new(3, 1.0);
        let mut last = f64::NEG_INFINITY;
        for i in -20..=20 {
            let q = adc.quantize(i as f64 * 0.1);
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn saturation_at_rails() {
        let adc = Adc::new(4, 2.0);
        assert!(adc.quantize(99.0) < 2.0);
        assert!(adc.quantize(-99.0) > -2.0);
        assert_eq!(adc.quantize(99.0), adc.quantize(2.0));
    }

    #[test]
    fn higher_resolution_reduces_error() {
        let coarse = Adc::new(2, 4.0);
        let fine = Adc::new(8, 4.0);
        let x = 1.234;
        assert!((fine.quantize(x) - x).abs() < (coarse.quantize(x) - x).abs());
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn adc_rejects_zero_bits() {
        let _ = Adc::new(0, 1.0);
    }

    #[test]
    fn counter_merge_and_total() {
        let mut a = OpCounter { cell_reads: 5, adc_converts: 2, ..OpCounter::new() };
        let b = OpCounter { cell_reads: 3, rng_bits: 7, ..OpCounter::new() };
        a.merge(&b);
        assert_eq!(a.cell_reads, 8);
        assert_eq!(a.rng_bits, 7);
        assert_eq!(a.total_events(), 8 + 2 + 7);
        a.reset();
        assert_eq!(a, OpCounter::new());
    }

    #[test]
    fn counter_since_computes_delta() {
        let early = OpCounter { cell_reads: 5, rng_bits: 2, ..OpCounter::new() };
        let late = OpCounter { cell_reads: 9, rng_bits: 2, sa_evals: 1, ..OpCounter::new() };
        let d = late.since(&early);
        assert_eq!(d.cell_reads, 4);
        assert_eq!(d.rng_bits, 0);
        assert_eq!(d.sa_evals, 1);
    }

    #[test]
    fn counter_add_assign() {
        let mut a = OpCounter::new();
        a += OpCounter { sa_evals: 4, ..OpCounter::new() };
        assert_eq!(a.sa_evals, 4);
    }

    #[test]
    fn counter_merged_folds_in_order() {
        let parts = [
            OpCounter { cell_reads: 1, adc_saturations: 2, ..OpCounter::new() },
            OpCounter { cell_reads: 10, sa_evals: 3, ..OpCounter::new() },
            OpCounter::new(),
        ];
        let total = OpCounter::merged(parts);
        assert_eq!(total.cell_reads, 11);
        assert_eq!(total.adc_saturations, 2);
        assert_eq!(total.sa_evals, 3);
        assert_eq!(OpCounter::merged([]), OpCounter::new());
    }

    #[test]
    fn saturations_tracked_through_merge_and_since() {
        let mut a = OpCounter { adc_saturations: 4, ..OpCounter::new() };
        a.merge(&OpCounter { adc_saturations: 3, ..OpCounter::new() });
        assert_eq!(a.adc_saturations, 7);
        let d = a.since(&OpCounter { adc_saturations: 2, ..OpCounter::new() });
        assert_eq!(d.adc_saturations, 5);
        assert_eq!(a.total_events(), 7);
    }
}
