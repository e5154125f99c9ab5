//! Crossbar array simulators.
//!
//! A crossbar stores a weight matrix in resistive cells and computes an
//! analog matrix-vector product: inputs drive the word lines, column
//! currents sum `input · conductance`, sense amplifiers + ADCs digitise
//! the result. Two variants:
//!
//! * [`Crossbar`] — binary weights in differential
//!   [`XnorBitCell`]s (SpinDrop family),
//! * [`MlcCrossbar`] — quantized weights in multi-level cells
//!   (SpinBayes / sub-set VI).
//!
//! Device-to-device variation is frozen at *programming* time (devices
//! are physical objects); cycle-to-cycle read noise is drawn per
//! evaluation. Every operation is tallied in an [`OpCounter`] for the
//! energy model.

use crate::adc::{Adc, OpCounter};
use crate::bitcell::{MlcBitCell, XnorBitCell, XnorCellState};
use crate::packed::PackedPlane;
use neuspin_device::{
    stats, AgingConfig, AgingReport, AgingSnapshot, AgingState, DefectKind, DefectMap,
    DefectRates, VariedParams,
};
use rand::rngs::StdRng;

/// Which evaluation kernel a [`Crossbar`] routes `matvec`/`matmul`
/// through. See the module docs of `packed` for the packed fast path
/// and DESIGN.md for the selection rules.
///
/// The row-major and packed kernels each run at the widest instruction
/// level the CPU reports ([`kernel_isa`]); the level changes speed
/// only, never a bit of output, tally, margin or RNG position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Pick automatically: the bit-packed XNOR/popcount kernel when the
    /// tile is noiseless (no read noise, no IR drop), its weights are
    /// ternary, and the call's inputs are ternary — the batch
    /// row-major kernel otherwise (per element, at `n = 1`, on a packed
    /// tile). All choices are bit-identical, so this is purely a speed
    /// decision.
    #[default]
    Auto,
    /// Always the batch row-major kernel — the packed path's
    /// bit-identity counterpart and the one float kernel of the array.
    /// At the AVX2 and AVX-512F levels it accumulates register strips
    /// of 16 or 32 columns; each column still sums its rows in
    /// ascending physical order.
    Scalar,
    /// Always the retained seed kernel ([`Crossbar::matvec_reference`])
    /// — the golden oracle for equivalence tests and baselines.
    Reference,
}

/// The instruction level the crossbar kernels run at. Every level
/// compiles the same kernel bodies, which add and multiply each column
/// in the same order; Rust never fuses `x * w` and `acc + term` into
/// one rounding, so wider vectors give the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), allow(dead_code))]
enum Isa {
    /// The target's default instruction set (SSE2 on `x86-64`).
    Baseline,
    /// AVX2 with POPCNT: 16-column strips.
    Avx2,
    /// AVX-512F with POPCNT: 32-column strips.
    Avx512,
}

impl Isa {
    /// The widest level this CPU supports. `std` caches the feature
    /// probe, so detecting on every kernel call costs a few loads.
    fn detect() -> Self {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if wide::has_avx512() {
                return Isa::Avx512;
            }
            if wide::has_avx2() {
                return Isa::Avx2;
            }
        }
        Isa::Baseline
    }

    fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512f",
        }
    }
}

/// The instruction level the binary crossbar kernels run at on this
/// CPU: `"avx512f"`, `"avx2"` or `"baseline"`. Read-only and
/// informational — outputs, tallies and RNG streams are identical at
/// every level.
pub fn kernel_isa() -> &'static str {
    Isa::detect().name()
}

/// The wide instantiations of the kernel bodies: one thin
/// `#[target_feature]` wrapper per level and kernel. Calling one is
/// `unsafe`; every caller re-checks the wrapper's features first.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod wide {
    use super::{Crossbar, PackedPlane, StdRng};

    pub(super) fn has_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    }

    pub(super) fn has_avx512() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("popcnt")
    }

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn scalar_avx2(
        x: &mut Crossbar,
        inputs: &[f32],
        n: usize,
        out: &mut [f64],
        rng: &mut StdRng,
    ) {
        x.matmul_scalar_body::<16, 1>(inputs, n, out, rng);
    }

    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn scalar_avx512(
        x: &mut Crossbar,
        inputs: &[f32],
        n: usize,
        out: &mut [f64],
        rng: &mut StdRng,
    ) {
        x.matmul_scalar_body::<32, 2>(inputs, n, out, rng);
    }

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn packed_avx2(
        x: &mut Crossbar,
        plane: &mut PackedPlane,
        inputs: &[f32],
        out: &mut [f64],
        rng: &mut StdRng,
    ) {
        x.matmul_packed_body::<16>(plane, inputs, out, rng);
    }

    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn packed_avx512(
        x: &mut Crossbar,
        plane: &mut PackedPlane,
        inputs: &[f32],
        out: &mut [f64],
        rng: &mut StdRng,
    ) {
        x.matmul_packed_body::<32>(plane, inputs, out, rng);
    }
}

/// Diagnostic state of a crossbar's packed plane (see
/// [`Crossbar::packed_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedState {
    /// The plane is out of date (weights changed since the last build,
    /// or no eligible evaluation has happened yet); the next eligible
    /// `matvec` rebuilds it.
    Stale,
    /// The plane is built and serving evaluations.
    Ready,
    /// The tile cannot be packed (too many non-ternary weights —
    /// variation corners, drifted or heavily shorted arrays); the
    /// scalar kernel serves until the weights change again.
    Unsupported,
}

/// Lazily maintained packed plane attached to a [`Crossbar`].
#[derive(Debug, Clone)]
enum PackedSlot {
    Stale,
    Ready(Box<PackedPlane>),
    Unsupported,
}

/// A spare bit-cell column held in reserve for redundancy repair.
///
/// Spares are fabricated alongside the main array (same process corner,
/// same defect statistics) and sit disconnected until
/// [`Crossbar::substitute_column`] fuses one in place of a defective
/// main column.
#[derive(Debug, Clone)]
struct SpareColumn {
    cells: Vec<XnorBitCell>,
    used: bool,
}

/// Temporal-degradation state attached to a crossbar by
/// [`Crossbar::enable_aging`].
#[derive(Debug, Clone)]
struct AgingHook {
    state: AgingState,
    /// The logical sign pattern captured at enable time — the reference
    /// contents a [`Crossbar::scrub`] restores.
    golden: Vec<f32>,
    /// Op-counter snapshots from the last [`Crossbar::advance_time`],
    /// so per-read disturb and write wear ride the existing tallies.
    seen_reads: u64,
    seen_writes: u64,
}

/// Mutable state of one spare column inside a [`CrossbarState`].
///
/// Spare cells must be captured per device: a used spare's original
/// cells were physically swapped into the main array by
/// [`Crossbar::substitute_column`], so no constructor replay can
/// recover the placement.
#[derive(Debug, Clone, PartialEq)]
pub struct SpareColumnState {
    /// Per-cell device state, top row first.
    pub cells: Vec<XnorCellState>,
    /// Whether the spare was already fused into the array.
    pub used: bool,
}

/// Mutable state of an attached aging engine inside a
/// [`CrossbarState`].
#[derive(Debug, Clone, PartialEq)]
pub struct AgingHookState {
    /// Virtual clock, event-RNG stream position, and per-cell temporal
    /// state.
    pub aging: AgingSnapshot,
    /// The golden sign image a scrub restores.
    pub golden: Vec<f32>,
    /// Op-counter snapshots from the last [`Crossbar::advance_time`].
    pub seen_reads: u64,
    pub seen_writes: u64,
}

/// The complete *mutable* state of a [`Crossbar`] — everything that can
/// diverge from a freshly fabricated twin over the die's lifetime.
///
/// Captured by [`Crossbar::export_state`] and reapplied by
/// [`Crossbar::import_state`] onto a crossbar built by the *same
/// deterministic constructor* (same weights, geometry, config, and
/// seed). Immutable structure — geometry, device corner, read noise,
/// ADC, IR drop, kernel policy — is *not* captured: the twin
/// already has it, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarState {
    /// Per-cell device state in row-major physical order.
    pub cells: Vec<XnorCellState>,
    /// Effective weights, verbatim (drift already folded in).
    pub eff: Vec<f64>,
    /// Word-line gates (logical coordinates).
    pub row_enabled: Vec<bool>,
    /// Accumulated op tallies.
    pub counter: OpCounter,
    /// Ground-truth defect population as `(row, col, kind)` triples in
    /// row-major order.
    pub defects: Vec<(usize, usize, DefectKind)>,
    /// Spare-column bank, per fabricated spare.
    pub spares: Vec<SpareColumnState>,
    /// Remap indirection (`None` = identity).
    pub row_src: Option<Vec<usize>>,
    pub col_src: Option<Vec<usize>>,
    /// Running sense-margin window.
    pub margin_sum: f64,
    pub margin_count: u64,
    /// Packed-kernel engagement diagnostic.
    pub packed_calls: u64,
    /// Temporal-degradation state, if aging was enabled.
    pub aging: Option<AgingHookState>,
}

/// The complete mutable state of an [`MlcCrossbar`] (see
/// [`CrossbarState`]; the MLC array keeps only effective weights, so
/// its state is far smaller).
#[derive(Debug, Clone, PartialEq)]
pub struct MlcCrossbarState {
    /// Effective (quantized, variation-perturbed) weights, verbatim.
    pub eff: Vec<f64>,
    /// Word-line gates.
    pub row_enabled: Vec<bool>,
    /// Accumulated op tallies.
    pub counter: OpCounter,
    /// Running sense-margin window.
    pub margin_sum: f64,
    pub margin_count: u64,
}

/// Configuration shared by crossbar constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Device process corner (nominal parameters + variation).
    pub corner: VariedParams,
    /// Manufacturing defect rates.
    pub defect_rates: DefectRates,
    /// Cycle-to-cycle relative read noise on each column evaluation.
    pub read_noise: f64,
    /// Column ADC resolution in bits; `None` = ideal (no quantization).
    pub adc_bits: Option<u32>,
    /// First-order IR-drop coefficient: the wire resistance of word and
    /// bit lines attenuates contributions far from the drivers by
    /// `1 / (1 + ir_drop · (r/rows + c/cols))`. 0 disables the effect;
    /// 0.02–0.1 covers published 256×256 macro corners.
    pub ir_drop: f64,
}

impl Default for CrossbarConfig {
    /// Ideal devices, no defects, 1 % read noise, ideal readout.
    fn default() -> Self {
        Self {
            corner: VariedParams::ideal(),
            defect_rates: DefectRates::none(),
            read_noise: 0.01,
            adc_bits: None,
            ir_drop: 0.0,
        }
    }
}

impl CrossbarConfig {
    /// An ideal crossbar: no variation, defects, noise, or quantization.
    pub fn ideal() -> Self {
        Self { read_noise: 0.0, ..Self::default() }
    }
}

/// Column values one block read-out senses: the row-major kernel
/// accumulates `READOUT_BLOCK / cols` evaluations at a time (at least
/// one strip group) and hands them to [`ColumnReadout::sense_block`]
/// in one call. Its three scratch buffers (sums, Σ term², noise) then
/// take about 12 KB per array; blocks of 256 to 2048 values time
/// within noise of each other at the `mc_analog` shapes.
const READOUT_BLOCK: usize = 512;

/// The column read-out every production kernel of both array types
/// ends in: cycle-to-cycle read noise, the sense amplifier (whose
/// running |margin| window the health monitor watches), and the
/// optional column ADC. The seed oracle
/// ([`Crossbar::matvec_reference`]) keeps its own copy so the
/// differential batteries never check this code against itself.
#[derive(Debug, Clone)]
struct ColumnReadout {
    read_noise: f64,
    adc: Option<Adc>,
    /// Running sense-margin statistics (|analog column value| at the
    /// sense-amplifier input).
    margin_sum: f64,
    margin_count: u64,
}

impl ColumnReadout {
    fn new(read_noise: f64, adc: Option<Adc>) -> Self {
        Self { read_noise, adc, margin_sum: 0.0, margin_count: 0 }
    }

    /// Tallies `n` evaluations of a `cols`-column array with `active`
    /// enabled rows.
    fn tally(&self, ops: &mut OpCounter, n: usize, active: usize, cols: usize) {
        ops.cell_reads += (n * active * cols) as u64;
        ops.sa_evals += (n * cols) as u64;
        if self.adc.is_some() {
            ops.adc_converts += (n * cols) as u64;
        }
        ops.digital_ops += (n * cols) as u64;
    }

    /// Senses a block of columns, evaluation-major and then in physical
    /// column order: `acc` holds each column's sum and comes back
    /// digitised, `power` holds its Σ term², and `noise` is scratch of
    /// the same length. Each step is the seed kernel's per-column
    /// sequence, split into passes over the block:
    ///
    /// * one ziggurat draw per column with `power > 0`, in order (the
    ///   only branching pass);
    /// * `acc + (read_noise · √power) · z`, selected only where
    ///   `power > 0`, so a column with zero or NaN power keeps its bits;
    /// * the margin window, summed serially in order;
    /// * the saturation tally on the noisy value and `Adc::quantize`,
    ///   branch-free, so both vectorise.
    ///
    /// Always inlined, so every kernel level compiles these passes at
    /// its own vector width.
    #[inline(always)]
    fn sense_block(
        &mut self,
        acc: &mut [f64],
        power: &[f64],
        noise: &mut [f64],
        ops: &mut OpCounter,
        rng: &mut StdRng,
    ) {
        if self.read_noise > 0.0 {
            for (z, &pw) in noise.iter_mut().zip(power) {
                if pw > 0.0 {
                    *z = stats::ziggurat_normal(rng);
                }
            }
            let read_noise = self.read_noise;
            for ((a, &pw), &z) in acc.iter_mut().zip(power).zip(&*noise) {
                let noisy = *a + read_noise * pw.sqrt() * z;
                *a = if pw > 0.0 { noisy } else { *a };
            }
        }
        for &a in &*acc {
            self.margin_sum += a.abs();
        }
        self.margin_count += acc.len() as u64;
        if let Some(adc) = &self.adc {
            let mut saturations = 0u64;
            for a in acc.iter_mut() {
                saturations += u64::from(a.abs() > adc.full_scale());
                *a = adc.quantize(*a);
            }
            ops.adc_saturations += saturations;
        }
    }

    /// Senses a noiseless packed column whose accumulation is the exact
    /// integer `sum`: the margin window and saturation tally of
    /// [`ColumnReadout::sense_block`], with the ADC code read from
    /// `codes`, where `codes[codes.len() / 2 + sum]` holds this
    /// read-out's `Adc::quantize(sum)` (see `PackedPlane::build`).
    #[inline]
    fn sense_exact(&mut self, sum: i64, codes: &[f64], ops: &mut OpCounter) -> f64 {
        let acc = sum as f64;
        self.margin_sum += acc.abs();
        self.margin_count += 1;
        match &self.adc {
            Some(adc) => {
                ops.adc_saturations += u64::from(acc.abs() > adc.full_scale());
                codes[(codes.len() / 2).wrapping_add_signed(sum as isize)]
            }
            None => acc,
        }
    }

    fn mean_margin(&self) -> f64 {
        if self.margin_count == 0 {
            0.0
        } else {
            self.margin_sum / self.margin_count as f64
        }
    }

    fn reset_margin(&mut self) {
        self.margin_sum = 0.0;
        self.margin_count = 0;
    }

    fn merge_margin(&mut self, sum: f64, count: u64) {
        self.margin_sum += sum;
        self.margin_count += count;
    }
}

/// A binary-weight crossbar of differential XNOR bit-cells, `rows`
/// inputs × `cols` outputs.
///
/// # Examples
///
/// ```
/// use neuspin_cim::{Crossbar, CrossbarConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let weights = vec![1.0, -1.0, -1.0, 1.0]; // 2×2, row-major [input][output]
/// let mut xbar = Crossbar::program(&weights, 2, 2, &CrossbarConfig::ideal(), &mut rng);
/// let y = xbar.matvec(&[1.0, 1.0], &mut rng);
/// assert!((y[0] - 0.0).abs() < 1e-6);
/// assert!((y[1] - 0.0).abs() < 1e-6);
/// let y = xbar.matvec(&[1.0, -1.0], &mut rng);
/// assert!((y[0] - 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    cells: Vec<XnorBitCell>,
    /// Cached effective weights (refreshed on program/defect injection).
    eff: Vec<f64>,
    row_enabled: Vec<bool>,
    /// Cached count of `true` entries in `row_enabled` (kept in sync by
    /// [`Crossbar::set_row_enabled`] and friends so the hot kernel never
    /// rescans the word lines).
    enabled_count: usize,
    readout: ColumnReadout,
    counter: OpCounter,
    defects: DefectMap,
    ir_drop: f64,
    /// Effective weights with the IR-drop denominator folded in:
    /// `wd[i] = eff[i] / (1 + ir_drop · (r/rows + c/cols))` at the
    /// cell's physical `(r, c)` (a plain copy of `eff` when IR drop is
    /// disabled, so noiseless configs keep their historical bits). The
    /// evaluation kernels read this table instead of dividing per MAC —
    /// the division happens once per device-state mutation instead of
    /// rows×cols times per evaluation, which removes the
    /// divider-throughput bottleneck from the MC hot path.
    /// Every kernel folds the same way, so cross-kernel bit-identity is
    /// preserved. Refreshed by [`Crossbar::refresh_wd`] under the same
    /// discipline as [`Crossbar::invalidate_packed`].
    wd: Vec<f64>,
    /// Redundant columns fabricated next to the main array.
    spares: Vec<SpareColumn>,
    /// Remap indirection (logical line of each physical line); `None`
    /// means identity. See [`Crossbar::apply_remap`].
    row_src: Option<Vec<usize>>,
    col_src: Option<Vec<usize>>,
    /// Row-major kernel scratch: one block's column sums, Σ term² and
    /// noise draws (`[acc | power | noise]`, each at most
    /// `READOUT_BLOCK` values, or one strip group's columns where that
    /// is more, plus a cache-line pad), reused across calls to keep
    /// the kernel allocation-free.
    scratch: Vec<f64>,
    /// Resolved `(physical, logical)` enabled-row pairs, reused by the
    /// batch kernel so steady-state `matmul` calls allocate nothing.
    row_scratch: Vec<(usize, usize)>,
    /// Kernel routing policy (see [`KernelPolicy`]); `Auto` by default.
    policy: KernelPolicy,
    /// Lazily (re)built bit-packed weight plane for the XNOR/popcount
    /// fast path; invalidated at every effective-weight mutation site.
    packed: PackedSlot,
    /// Number of evaluations served by the packed kernel (diagnostic;
    /// lets tests and benches assert the fast path actually engaged).
    packed_calls: u64,
    /// Temporal degradation state; `None` until
    /// [`Crossbar::enable_aging`] attaches it, so arrays that never age
    /// keep the historical RNG streams and behaviour bit for bit.
    aging: Option<Box<AgingHook>>,
}

impl Crossbar {
    /// Programs a `rows × cols` crossbar from row-major weights
    /// (`weights[i * cols + j]` = weight from input `i` to output `j`).
    /// Device instances and defects are drawn from `config`; programming
    /// costs are tallied.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows * cols` or either dim is zero.
    pub fn program(
        weights: &[f32],
        rows: usize,
        cols: usize,
        config: &CrossbarConfig,
        rng: &mut StdRng,
    ) -> Self {
        Self::program_with_spares(weights, rows, cols, 0, config, rng)
    }

    /// Like [`Crossbar::program`], but also fabricates `spares`
    /// redundant columns next to the array. Spares come from the same
    /// process corner and defect statistics as the main array (a spare
    /// can itself be born defective) and stay disconnected until
    /// [`Crossbar::substitute_column`] fuses one in.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows * cols` or either dim is zero.
    pub fn program_with_spares(
        weights: &[f32],
        rows: usize,
        cols: usize,
        spares: usize,
        config: &CrossbarConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be positive");
        assert_eq!(weights.len(), rows * cols, "weight count mismatch");
        // One defect draw over the whole fabricated stripe (main array
        // plus spares); with `spares == 0` the RNG stream is identical
        // to the historical `program` path.
        let physical = cols + spares;
        let fab_defects = DefectMap::sample(rows, physical, &config.defect_rates, rng);
        let mut cells = Vec::with_capacity(rows * cols);
        let mut spare_cols: Vec<SpareColumn> =
            (0..spares).map(|_| SpareColumn { cells: Vec::with_capacity(rows), used: false }).collect();
        let mut defects = DefectMap::empty(rows, cols);
        for r in 0..rows {
            for c in 0..physical {
                let mut cell = XnorBitCell::new(config.corner, rng);
                if c < cols {
                    cell.program(weights[r * cols + c]);
                }
                if let Some(kind) = fab_defects.defect_at(r, c) {
                    // A defect hits one device of the pair; alternate
                    // deterministically by position parity.
                    if (r + c) % 2 == 0 {
                        cell.inject_plus_defect(kind);
                    } else {
                        cell.inject_minus_defect(kind);
                    }
                }
                if c < cols {
                    if let Some(kind) = fab_defects.defect_at(r, c) {
                        defects.inject(r, c, kind);
                    }
                    cells.push(cell);
                } else {
                    spare_cols[c - cols].cells.push(cell);
                }
            }
        }
        let adc = config.adc_bits.map(|b| Adc::new(b, rows as f64));
        let mut xbar = Self {
            rows,
            cols,
            cells,
            eff: vec![0.0; rows * cols],
            row_enabled: vec![true; rows],
            enabled_count: rows,
            readout: ColumnReadout::new(config.read_noise, adc),
            counter: OpCounter::new(),
            defects,
            ir_drop: config.ir_drop,
            wd: vec![0.0; rows * cols],
            spares: spare_cols,
            row_src: None,
            col_src: None,
            scratch: Vec::new(),
            row_scratch: Vec::new(),
            policy: KernelPolicy::Auto,
            packed: PackedSlot::Stale,
            packed_calls: 0,
            aging: None,
        };
        xbar.refresh_eff();
        // Each cell programs two devices (write + verify each).
        xbar.counter.cell_writes += (rows * cols * 2) as u64;
        xbar.counter.cell_reads += (rows * cols * 2) as u64;
        xbar
    }

    fn refresh_eff(&mut self) {
        for (i, cell) in self.cells.iter().enumerate() {
            self.eff[i] = cell.effective_weight();
        }
        // Aged conductances carry their cumulative drift factor (reset
        // to 1 by a scrub, so a refreshed array reads as programmed).
        if let Some(hook) = &self.aging {
            for (i, w) in self.eff.iter_mut().enumerate() {
                *w *= hook.state.drift(i);
            }
        }
        self.refresh_wd();
        self.invalidate_packed();
    }

    /// Rebuilds the folded weight table [`Crossbar::wd`]. Must
    /// accompany every mutation of `eff` — the same discipline (and the
    /// same three sites) as [`Crossbar::invalidate_packed`]. Each
    /// IR-drop denominator is the exact expression the seed kernel used
    /// inline, so the folded weights reproduce its bits.
    fn refresh_wd(&mut self) {
        if self.ir_drop <= 0.0 {
            self.wd.copy_from_slice(&self.eff);
            return;
        }
        let (rows, cols) = (self.rows, self.cols);
        let rows_eff = self.wd.chunks_exact_mut(cols).zip(self.eff.chunks_exact(cols));
        for (r, (w_row, e_row)) in rows_eff.enumerate() {
            for (c, (w, &e)) in w_row.iter_mut().zip(e_row).enumerate() {
                *w = e / (1.0 + self.ir_drop * (r as f64 / rows as f64 + c as f64 / cols as f64));
            }
        }
    }

    /// Marks the packed plane stale. Must be called by every site that
    /// mutates `eff` — [`Crossbar::refresh_eff`] (programming, scrub,
    /// remap, aging), [`Crossbar::substitute_column`], and
    /// [`Crossbar::apply_drift`] — so the next eligible evaluation
    /// rebuilds the plane from the current weights.
    fn invalidate_packed(&mut self) {
        self.packed = PackedSlot::Stale;
    }

    /// Number of input rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of output columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The ground-truth defect map of the *connected* array (physical
    /// coordinates). Updated by [`Crossbar::substitute_column`]; a
    /// production-test flow must not read it — run the BIST instead.
    pub fn defects(&self) -> &DefectMap {
        &self.defects
    }

    /// Number of spare columns fabricated (used or not).
    pub fn spare_count(&self) -> usize {
        self.spares.len()
    }

    /// Number of spare columns still available for repair.
    pub fn available_spares(&self) -> usize {
        self.spares.iter().filter(|s| !s.used).count()
    }

    /// Whether spare `k` is unused *and* free of fabrication defects.
    /// Spares are exhaustively screened at production test (they are
    /// few), so the repair controller knows their state exactly.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn spare_is_clean(&self, k: usize) -> bool {
        let s = &self.spares[k];
        !s.used && s.cells.iter().all(|c| !c.is_defective())
    }

    /// Fuses spare column `k` in place of main column `col`: the spare's
    /// cells take over the physical column, are programmed with the
    /// column's current stored signs (write + verify tallied), and the
    /// ground-truth defect map is updated — the old column's defects
    /// disappear, the spare's own defects (if any) appear.
    ///
    /// # Panics
    ///
    /// Panics if `col` or `k` is out of range, or spare `k` was already
    /// used.
    pub fn substitute_column(&mut self, col: usize, k: usize) {
        assert!(col < self.cols, "column {col} out of range {}", self.cols);
        assert!(k < self.spares.len(), "spare {k} out of range {}", self.spares.len());
        assert!(!self.spares[k].used, "spare {k} already used");
        self.spares[k].used = true;
        self.defects.clear_column(col);
        for r in 0..self.rows {
            let idx = r * self.cols + col;
            let sign = self.cells[idx].stored_sign();
            let retired = self.cells[idx].clone();
            let mut cell = std::mem::replace(&mut self.spares[k].cells[r], retired);
            cell.program(sign);
            if let Some(kind) = cell.defect() {
                self.defects.inject(r, col, kind);
            }
            self.cells[idx] = cell;
            self.eff[idx] = self.cells[idx].effective_weight();
        }
        self.refresh_wd();
        self.invalidate_packed();
        self.counter.cell_writes += (self.rows * 2) as u64;
        self.counter.cell_reads += (self.rows * 2) as u64;
        // The fused-in spare is a fresh physical device: its temporal
        // state (drift, wear, endurance budget) restarts.
        if let Some(hook) = &mut self.aging {
            for r in 0..self.rows {
                hook.state.replace_cell(r * self.cols + col);
            }
        }
    }

    /// The stored sign pattern in *logical* coordinates (undoing any
    /// remap), row-major — what [`Crossbar::reprogram`] would need to
    /// reproduce the current contents.
    pub fn stored_logical_signs(&self) -> Vec<f32> {
        let mut signs = vec![0.0f32; self.rows * self.cols];
        for p in 0..self.rows {
            let lr = self.row_src.as_ref().map_or(p, |m| m[p]);
            for pc in 0..self.cols {
                let lc = self.col_src.as_ref().map_or(pc, |m| m[pc]);
                signs[lr * self.cols + lc] = self.cells[p * self.cols + pc].stored_sign();
            }
        }
        signs
    }

    /// Rewrites every cell's stored sign from row-major *logical*
    /// weights (routed through any active remap). Devices and defects
    /// are physical and persist — only the stored state changes. Write
    /// and verify costs are tallied.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows * cols`.
    pub fn reprogram(&mut self, weights: &[f32]) {
        assert_eq!(weights.len(), self.rows * self.cols, "weight count mismatch");
        for p in 0..self.rows {
            let lr = self.row_src.as_ref().map_or(p, |m| m[p]);
            for pc in 0..self.cols {
                let lc = self.col_src.as_ref().map_or(pc, |m| m[pc]);
                self.cells[p * self.cols + pc].program(weights[lr * self.cols + lc]);
            }
        }
        self.refresh_eff();
        self.counter.cell_writes += (self.rows * self.cols * 2) as u64;
        self.counter.cell_reads += (self.rows * self.cols * 2) as u64;
    }

    /// Writes a test pattern in *physical* coordinates (used by the
    /// march-test BIST, which probes the fabricated array directly).
    /// Write and verify costs are tallied.
    pub fn program_pattern(&mut self, pattern: impl Fn(usize, usize) -> f32) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.cells[r * self.cols + c].program(pattern(r, c));
            }
        }
        self.refresh_eff();
        self.counter.cell_writes += (self.rows * self.cols * 2) as u64;
        self.counter.cell_reads += (self.rows * self.cols * 2) as u64;
    }

    /// Raw single-row read through the sense-amplifier path, in
    /// *physical* coordinates: returns each column's analog value with
    /// the word line of `row` driven at unit input and every other row
    /// off. Read noise applies; the ADC is bypassed (production test
    /// reads margins, not codes). Read costs are tallied.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn read_row(&mut self, row: usize, rng: &mut StdRng) -> Vec<f64> {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        self.counter.cell_reads += self.cols as u64;
        self.counter.sa_evals += self.cols as u64;
        let mut out = vec![0.0f64; self.cols];
        for (j, o) in out.iter_mut().enumerate() {
            // `wd` is exactly `eff` over the cell's IR-drop
            // denominator, the value this read historically computed
            // inline.
            let mut term = self.wd[row * self.cols + j];
            let noise = self.readout.read_noise;
            if noise > 0.0 && term != 0.0 {
                term += noise * term.abs() * stats::ziggurat_normal(rng);
            }
            *o = term;
        }
        out
    }

    /// Installs a line remap: `row_src[p]` / `col_src[p]` name the
    /// *logical* row/column carried by physical line `p`. The current
    /// logical contents are re-programmed into their new physical homes
    /// (defective devices stay put — that is the point: the permutation
    /// chooses which logical lines land on them). [`Crossbar::matvec`]
    /// keeps its logical interface: inputs and outputs are routed
    /// through the maps by the (digital) periphery.
    ///
    /// # Panics
    ///
    /// Panics if either map is not a permutation of its index range.
    pub fn apply_remap(&mut self, row_src: Vec<usize>, col_src: Vec<usize>) {
        check_permutation(&row_src, self.rows, "row_src").unwrap_or_else(|e| panic!("{e}"));
        check_permutation(&col_src, self.cols, "col_src").unwrap_or_else(|e| panic!("{e}"));
        let logical = self.stored_logical_signs();
        let identity_rows = row_src.iter().enumerate().all(|(i, &v)| i == v);
        let identity_cols = col_src.iter().enumerate().all(|(i, &v)| i == v);
        self.row_src = if identity_rows { None } else { Some(row_src) };
        self.col_src = if identity_cols { None } else { Some(col_src) };
        self.reprogram(&logical);
        // Gating is logical, so the remap cannot change which rows are
        // enabled — revalidate the cached count anyway (cheap, and keeps
        // the invariant local to every mutation site).
        self.enabled_count = self.row_enabled.iter().filter(|&&e| e).count();
    }

    /// The active remap as `(row_src, col_src)` (identity if none was
    /// applied).
    pub fn remap(&self) -> (Vec<usize>, Vec<usize>) {
        let rows = self
            .row_src
            .clone()
            .unwrap_or_else(|| (0..self.rows).collect());
        let cols = self
            .col_src
            .clone()
            .unwrap_or_else(|| (0..self.cols).collect());
        (rows, cols)
    }

    /// Mean |analog column value| at the sense-amplifier input since the
    /// last [`Crossbar::reset_sense_margin`] — the drift-sensitive
    /// signal the runtime health monitor watches. Returns 0 before any
    /// evaluation.
    pub fn mean_sense_margin(&self) -> f64 {
        self.readout.mean_margin()
    }

    /// Starts a fresh sense-margin window.
    pub fn reset_sense_margin(&mut self) {
        self.readout.reset_margin();
    }

    /// The op counter accumulated so far.
    pub fn counter(&self) -> &OpCounter {
        &self.counter
    }

    /// Resets the op counter.
    pub fn reset_counter(&mut self) {
        self.counter.reset();
    }

    /// The effective analog weight of cell `(row, col)` (±1 ideal).
    pub fn effective_weight(&self, row: usize, col: usize) -> f64 {
        self.eff[row * self.cols + col]
    }

    /// Enables/disables a word line (the hook dropout modules use).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn set_row_enabled(&mut self, row: usize, enabled: bool) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        if self.row_enabled[row] != enabled {
            if enabled {
                self.enabled_count += 1;
            } else {
                self.enabled_count -= 1;
            }
            self.row_enabled[row] = enabled;
        }
    }

    /// Re-enables every word line.
    pub fn enable_all_rows(&mut self) {
        self.row_enabled.iter_mut().for_each(|e| *e = true);
        self.enabled_count = self.rows;
    }

    /// Number of currently enabled rows (cached — O(1)).
    pub fn enabled_rows(&self) -> usize {
        self.enabled_count
    }

    /// Analog matrix-vector product: `y_j = Σ_i x_i · w_ij` over enabled
    /// rows, with read noise and optional ADC quantization. Inputs and
    /// outputs stay in *logical* coordinates: any active remap (see
    /// [`Crossbar::apply_remap`]) is resolved by the digital periphery,
    /// while IR drop acts on the *physical* line positions — which is
    /// exactly what fault-aware remapping exploits.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows`.
    pub fn matvec(&mut self, input: &[f32], rng: &mut StdRng) -> Vec<f64> {
        self.matmul(input, 1, rng)
    }

    /// [`Crossbar::matvec`] writing into a caller-provided buffer: the
    /// batch entry point [`Crossbar::matmul_into`] at `n = 1`, so it
    /// routes through the same [`KernelPolicy`] dispatch and kernels.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows` or `out.len() != cols`.
    pub fn matvec_into(&mut self, input: &[f32], out: &mut [f64], rng: &mut StdRng) {
        self.matmul_into(input, 1, out, rng);
    }

    /// Whether the packed plane is usable, lazily rebuilding it when the
    /// weights changed. Tiles with read noise or IR drop are never
    /// eligible (those effects need the scalar per-cell walk), and tiles
    /// whose weights are substantially non-ternary cache as unsupported
    /// until the next weight mutation.
    fn packed_ready(&mut self) -> bool {
        if self.readout.read_noise > 0.0 || self.ir_drop > 0.0 {
            return false;
        }
        if matches!(self.packed, PackedSlot::Stale) {
            let adc = self.readout.adc.as_ref();
            self.packed = match PackedPlane::build(&self.eff, self.rows, self.cols, adc) {
                Some(plane) => PackedSlot::Ready(Box::new(plane)),
                None => PackedSlot::Unsupported,
            };
        }
        matches!(self.packed, PackedSlot::Ready(_))
    }

    /// The bit-packed XNOR/popcount kernel over a batch: each element
    /// whose input is ternary takes [`Crossbar::matvec_packed`], the
    /// rest the row-major kernel at `n = 1` — both at the level `W` the
    /// calling wrapper was compiled for.
    #[inline(always)]
    fn matmul_packed_body<const W: usize>(
        &mut self,
        plane: &mut PackedPlane,
        inputs: &[f32],
        out: &mut [f64],
        rng: &mut StdRng,
    ) {
        for (input, chunk) in inputs.chunks_exact(self.rows).zip(out.chunks_exact_mut(self.cols)) {
            if !self.matvec_packed(plane, input, chunk, rng) {
                self.matmul_scalar_body::<W, 1>(input, 1, chunk, rng);
            }
        }
    }

    /// The bit-packed XNOR/popcount kernel for one evaluation: pack the
    /// input through remap + gating, popcount the packable columns, walk
    /// the few non-ternary columns in reference row order, and sense
    /// each column in ascending physical order through the shared
    /// read-out. A packed column's ADC code comes from the plane's
    /// quantise table; a non-ternary column is a one-column block with
    /// Σ term² = 0, so `rng` is never drawn from (the tile is
    /// noiseless; the scalar kernel draws nothing there either).
    /// Returns `false` without any side effect (no tallies, no margin,
    /// no output) when the input is not ternary.
    #[inline(always)]
    fn matvec_packed(
        &mut self,
        plane: &mut PackedPlane,
        input: &[f32],
        out: &mut [f64],
        rng: &mut StdRng,
    ) -> bool {
        if !plane.pack_input(input, self.row_src.as_deref(), &self.row_enabled) {
            return false;
        }
        let cols = self.cols;
        self.readout.tally(&mut self.counter, 1, self.enabled_count, cols);
        self.packed_calls += 1;
        let (row_src, col_src) = (self.row_src.as_deref(), self.col_src.as_deref());
        for pj in 0..cols {
            let value = if plane.col_is_packed(pj) {
                // Exact integer accumulation: order-independent, so the
                // whole-word popcount matches the scalar kernels'
                // ascending-row float sum bit for bit.
                self.readout.sense_exact(plane.column_sum(pj), plane.codes(), &mut self.counter)
            } else {
                // Non-ternary column (short/open defect): replicate the
                // reference kernel's ascending-row walk exactly.
                let mut acc = [0.0f64];
                for p in 0..self.rows {
                    let l = row_src.map_or(p, |m| m[p]);
                    if !self.row_enabled[l] {
                        continue;
                    }
                    acc[0] += input[l] as f64 * self.wd[p * cols + pj];
                }
                self.readout.sense_block(&mut acc, &[0.0], &mut [0.0], &mut self.counter, rng);
                acc[0]
            };
            out[col_src.map_or(pj, |m| m[pj])] = value;
        }
        true
    }

    /// The retained seed kernel (column-outer, fresh enabled-row scan)
    /// — the bit-exact baseline the row-major [`Crossbar::matvec`] is
    /// verified against, and the "before" side of the `exp_throughput`
    /// kernel comparison. Reads the same folded weight table
    /// (`Crossbar::wd`) as the production kernels: folding the IR
    /// denominator is a rounding change, so the baseline folds too and
    /// the differential batteries keep their bit-exact teeth on
    /// traversal order, remap routing, noise, and ADC behaviour.
    pub fn matvec_reference(&mut self, input: &[f32], rng: &mut StdRng) -> Vec<f64> {
        let mut out = vec![0.0f64; self.cols];
        self.matvec_reference_into(input, &mut out, rng);
        out
    }

    fn matvec_reference_into(&mut self, input: &[f32], out: &mut [f64], rng: &mut StdRng) {
        assert_eq!(input.len(), self.rows, "input length mismatch");
        assert_eq!(out.len(), self.cols, "output length mismatch");
        let active = self.row_enabled.iter().filter(|&&e| e).count() as u64;
        self.counter.cell_reads += active * self.cols as u64;
        self.counter.sa_evals += self.cols as u64;
        if self.readout.adc.is_some() {
            self.counter.adc_converts += self.cols as u64;
        }
        self.counter.digital_ops += self.cols as u64;
        let row_src = self.row_src.as_deref();
        let col_src = self.col_src.as_deref();
        // Physical-order staging lives in the shared scratch so repeated
        // calls (the batch loop, the planned forward path) never
        // allocate; the math below is byte-for-byte the seed kernel's.
        self.scratch.clear();
        self.scratch.resize(self.cols, 0.0);
        for pj in 0..self.cols {
            let mut acc = 0.0f64;
            let mut power = 0.0f64; // Σ (x·w)² for the noise model
            for p in 0..self.rows {
                let l = row_src.map_or(p, |m| m[p]);
                if !self.row_enabled[l] {
                    continue;
                }
                let term = input[l] as f64 * self.wd[p * self.cols + pj];
                acc += term;
                power += term * term;
            }
            if self.readout.read_noise > 0.0 && power > 0.0 {
                acc += self.readout.read_noise * power.sqrt() * stats::ziggurat_normal(rng);
            }
            self.readout.margin_sum += acc.abs();
            self.readout.margin_count += 1;
            self.scratch[pj] = match &self.readout.adc {
                Some(adc) => {
                    if acc.abs() > adc.full_scale() {
                        self.counter.adc_saturations += 1;
                    }
                    adc.quantize(acc)
                }
                None => acc,
            };
        }
        // Un-permute columns back to logical order.
        if let Some(map) = col_src {
            for (pj, &l) in map.iter().enumerate() {
                out[l] = self.scratch[pj];
            }
        } else {
            out.copy_from_slice(&self.scratch);
        }
    }

    /// Sets the kernel routing policy. All policies produce
    /// bit-identical outputs, counters, margins, and RNG consumption —
    /// this is a speed/diagnostics knob, never a semantics knob.
    pub fn set_kernel_policy(&mut self, policy: KernelPolicy) {
        self.policy = policy;
    }

    /// The active kernel routing policy.
    pub fn kernel_policy(&self) -> KernelPolicy {
        self.policy
    }

    /// Diagnostic state of the packed plane. `Stale` until the first
    /// eligible evaluation builds it (and again after every weight
    /// mutation); tiles with read noise or IR drop stay `Stale` forever
    /// (they are never eligible).
    pub fn packed_state(&self) -> PackedState {
        match self.packed {
            PackedSlot::Stale => PackedState::Stale,
            PackedSlot::Ready(_) => PackedState::Ready,
            PackedSlot::Unsupported => PackedState::Unsupported,
        }
    }

    /// Number of evaluations the packed XNOR/popcount kernel served
    /// since programming — lets tests and benches assert the fast path
    /// actually engaged (worker clones do not merge this diagnostic).
    pub fn packed_calls(&self) -> u64 {
        self.packed_calls
    }

    /// Raw sense-margin accumulator `(sum, count)` — lets the parallel
    /// inference engine snapshot and merge worker-clone statistics.
    pub fn sense_margin_parts(&self) -> (f64, u64) {
        (self.readout.margin_sum, self.readout.margin_count)
    }

    /// Folds externally accumulated sense-margin statistics (a worker
    /// clone's delta) into this crossbar's running window.
    pub fn merge_sense_margin(&mut self, sum: f64, count: u64) {
        self.readout.merge_margin(sum, count);
    }

    /// Applies an in-field drift transform to every cell's effective
    /// weight (e.g. retention loss or temperature-induced conductance
    /// shift after deployment). The transform receives and returns the
    /// effective analog weight.
    pub fn apply_drift(&mut self, mut f: impl FnMut(f64) -> f64) {
        for w in &mut self.eff {
            *w = f(*w);
        }
        self.refresh_wd();
        self.invalidate_packed();
    }

    /// Attaches a temporal-degradation engine to the array: from now on
    /// [`Crossbar::advance_time`] ages the programmed cells and
    /// [`Crossbar::scrub`] refreshes them back to the contents stored
    /// *right now* (the golden reference). Calling this again
    /// re-baselines both the golden contents and the temporal state.
    ///
    /// Arrays that never enable aging are bit-for-bit unaffected: the
    /// engine draws only from its own event-indexed streams.
    pub fn enable_aging(&mut self, config: &AgingConfig) {
        self.aging = Some(Box::new(AgingHook {
            state: AgingState::new(self.rows * self.cols, config.clone()),
            golden: self.stored_logical_signs(),
            seen_reads: self.counter.cell_reads,
            seen_writes: self.counter.cell_writes,
        }));
    }

    /// Whether an aging engine is attached.
    pub fn aging_enabled(&self) -> bool {
        self.aging.is_some()
    }

    /// The attached temporal state (e.g. the virtual clock), if any.
    pub fn aging_state(&self) -> Option<&AgingState> {
        self.aging.as_deref().map(|h| &h.state)
    }

    /// Advances the virtual clock by `dt_hours`, applying temporal
    /// degradation to the array:
    ///
    /// * retention and read-disturb flips invert the stored sign of the
    ///   affected (non-defective) cells;
    /// * endurance wear-outs convert the cell into a stuck-at defect
    ///   frozen near its current state, recorded in the ground-truth
    ///   [`Crossbar::defects`] map (the BIST can then find it);
    /// * conductance drift accumulates into the effective weights.
    ///
    /// Read-disturb exposure and write wear are derived from the op
    /// counters: the reads/writes tallied since the last call (by
    /// matvec, BIST, reprogramming, …) are averaged per cell.
    ///
    /// # Panics
    ///
    /// Panics if [`Crossbar::enable_aging`] was never called, or
    /// `dt_hours` is not positive and finite.
    pub fn advance_time(&mut self, dt_hours: f64) -> AgingReport {
        let mut hook = self.aging.take().expect("advance_time requires enable_aging");
        let cells = (self.rows * self.cols) as f64;
        let reads_per_cell =
            self.counter.cell_reads.saturating_sub(hook.seen_reads) as f64 / cells;
        // Programming tallies two device writes per cell.
        let writes_per_cell =
            self.counter.cell_writes.saturating_sub(hook.seen_writes) as f64 / (2.0 * cells);
        let step = hook.state.advance(dt_hours, reads_per_cell, writes_per_cell);
        for &i in step.retention_flips.iter().chain(&step.disturb_flips) {
            // Defective cells have no functioning free layer to flip.
            if !self.cells[i].is_defective() {
                let s = self.cells[i].stored_sign();
                self.cells[i].program(-s);
            }
        }
        for &i in &step.wear_outs {
            let (r, c) = (i / self.cols, i % self.cols);
            // A worn-out barrier freezes the cell near its current
            // state; the defect lands on one device of the pair by the
            // same position parity the fabrication path uses.
            let kind = if self.cells[i].stored_sign() >= 0.0 {
                DefectKind::StuckParallel
            } else {
                DefectKind::StuckAntiParallel
            };
            if (r + c) % 2 == 0 {
                self.cells[i].inject_plus_defect(kind);
            } else {
                self.cells[i].inject_minus_defect(kind);
            }
            self.defects.inject(r, c, kind);
        }
        hook.seen_reads = self.counter.cell_reads;
        hook.seen_writes = self.counter.cell_writes;
        let report = step.summary(dt_hours);
        self.aging = Some(hook);
        self.refresh_eff();
        report
    }

    /// Scrubs the array: rewrites the golden contents captured at
    /// [`Crossbar::enable_aging`] over every cell (routed through any
    /// active remap), clearing accumulated sign flips and conductance
    /// drift. Stuck-at conversions are *not* healed — that takes the
    /// repair/remap machinery. Each of the configured
    /// [`AgingConfig::scrub_passes`] write-verify loops is tallied like
    /// a full reprogram, which is the scrub's energy cost (and its
    /// endurance cost at the next [`Crossbar::advance_time`]).
    ///
    /// Returns the number of logical cells whose stored sign had
    /// decayed away from the golden contents.
    ///
    /// # Panics
    ///
    /// Panics if [`Crossbar::enable_aging`] was never called.
    pub fn scrub(&mut self) -> usize {
        assert!(self.aging.is_some(), "scrub requires enable_aging");
        let (golden, passes) = {
            let hook = self.aging.as_deref().unwrap();
            (hook.golden.clone(), hook.state.config().scrub_passes)
        };
        let current = self.stored_logical_signs();
        let decayed = current.iter().zip(&golden).filter(|(a, b)| a != b).count();
        self.aging.as_deref_mut().unwrap().state.reset_drift();
        for _ in 0..passes {
            self.reprogram(&golden);
        }
        decayed
    }

    /// Batch version of [`matvec`](Self::matvec): input matrix
    /// `[n, rows]` flattened row-major, returns `[n, cols]` flattened.
    ///
    /// The one [`KernelPolicy`] dispatch of the array (`matvec` is this
    /// call at `n = 1`); the batch is bit-identical to `n` sequential
    /// `matvec` calls — output, counters, margins, and RNG stream alike:
    ///
    /// * `Reference` loops the seed kernel per batch element;
    /// * `Auto` on an eligible packed tile chooses per element — packed
    ///   for ternary inputs, the row-major kernel at `n = 1` for the
    ///   rest;
    /// * otherwise the row-major kernel runs the whole batch with its
    ///   bookkeeping hoisted out of the loop (row indirection resolved
    ///   once, scratch sized once, op counts tallied in bulk).
    ///
    /// The row-major and packed kernels run at the instruction level
    /// [`kernel_isa`] names, chosen on every call from what the CPU
    /// reports; every level gives the same bits.
    pub fn matmul(&mut self, inputs: &[f32], n: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut out = vec![0.0f64; n * self.cols];
        self.matmul_into(inputs, n, &mut out, rng);
        out
    }

    /// [`Crossbar::matmul`] writing into a caller-provided buffer: the
    /// forward-plan path's batch primitive. Every output element is
    /// overwritten (no pre-zeroing needed) and steady-state calls
    /// perform zero heap allocations; dispatch, float-op order, tallies
    /// and RNG consumption are identical to `matmul`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n * rows` or `out.len() != n * cols`.
    pub fn matmul_into(&mut self, inputs: &[f32], n: usize, out: &mut [f64], rng: &mut StdRng) {
        self.matmul_into_at(Isa::detect(), inputs, n, out, rng);
    }

    /// [`Crossbar::matmul_into`] with the row-major and packed kernels
    /// run at level `isa` — or at the baseline when the CPU lacks its
    /// features, so a level that did not come from detection never
    /// reaches a wide instantiation.
    fn matmul_into_at(
        &mut self,
        isa: Isa,
        inputs: &[f32],
        n: usize,
        out: &mut [f64],
        rng: &mut StdRng,
    ) {
        assert_eq!(inputs.len(), n * self.rows, "batch input length mismatch");
        assert_eq!(out.len(), n * self.cols, "batch output length mismatch");
        let policy = self.policy;
        match policy {
            KernelPolicy::Reference => {
                for (input, chunk) in
                    inputs.chunks_exact(self.rows).zip(out.chunks_exact_mut(self.cols))
                {
                    self.matvec_reference_into(input, chunk, rng);
                }
            }
            KernelPolicy::Auto if self.packed_ready() => {
                // Move the plane out so the kernels can borrow `self`
                // freely; restored after the batch.
                let PackedSlot::Ready(mut plane) =
                    std::mem::replace(&mut self.packed, PackedSlot::Stale)
                else {
                    unreachable!("packed_ready guarantees a ready plane")
                };
                match isa {
                    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                    Isa::Avx512 if wide::has_avx512() => {
                        // SAFETY: the guard just confirmed avx512f and
                        // popcnt, every feature `packed_avx512` enables.
                        unsafe { wide::packed_avx512(self, &mut plane, inputs, out, rng) }
                    }
                    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                    Isa::Avx2 if wide::has_avx2() => {
                        // SAFETY: the guard just confirmed avx2 and
                        // popcnt, every feature `packed_avx2` enables.
                        unsafe { wide::packed_avx2(self, &mut plane, inputs, out, rng) }
                    }
                    _ => self.matmul_packed_body::<0>(&mut plane, inputs, out, rng),
                }
                self.packed = PackedSlot::Ready(plane);
            }
            _ => match isa {
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                Isa::Avx512 if wide::has_avx512() => {
                    // SAFETY: the guard just confirmed avx512f and
                    // popcnt, every feature `scalar_avx512` enables.
                    unsafe { wide::scalar_avx512(self, inputs, n, out, rng) }
                }
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                Isa::Avx2 if wide::has_avx2() => {
                    // SAFETY: the guard just confirmed avx2 and popcnt,
                    // every feature `scalar_avx2` enables.
                    unsafe { wide::scalar_avx2(self, inputs, n, out, rng) }
                }
                _ => self.matmul_scalar_body::<0, 1>(inputs, n, out, rng),
            },
        }
    }

    /// The row-major kernel: handles every configuration — noise, IR
    /// drop, analog weights — bit-identically to
    /// [`Crossbar::matvec_reference`] (see [`Crossbar::matmul`]).
    ///
    /// The batch runs in blocks of `max(P, READOUT_BLOCK / cols)`
    /// evaluations: a block's column sums and Σ term² values fill the
    /// scratch, then one [`ColumnReadout::sense_block`] call senses the
    /// whole block in evaluation order. Columns `0..cols - cols % W`
    /// accumulate in register strips of `W` columns; each pass of a
    /// strip over the active rows carries `P` evaluations, so one load
    /// of a weight strip serves all of them (an odd evaluation left
    /// over takes a one-evaluation pass). The columns left over (all of
    /// them at `W = 0`, the baseline level) take the row-major loop.
    /// Either way every column of every evaluation sums its terms in
    /// ascending physical row order from +0.0, as the seed kernel does.
    #[inline(always)]
    fn matmul_scalar_body<const W: usize, const P: usize>(
        &mut self,
        inputs: &[f32],
        n: usize,
        out: &mut [f64],
        rng: &mut StdRng,
    ) {
        let (rows, cols) = (self.rows, self.cols);
        // The gate pattern and remap are fixed across the batch:
        // resolve each enabled physical row to its logical input index
        // once (ascending physical order, as the seed kernel walks)
        // into the reusable row scratch — taken out of `self` for the
        // duration so the borrow checker allows field access alongside.
        let mut active = std::mem::take(&mut self.row_scratch);
        active.clear();
        // `filter_map` gives `extend` no size hint: size the list in one
        // allocation rather than by repeated doubling.
        active.reserve(self.enabled_count);
        {
            let row_src = self.row_src.as_deref();
            active.extend((0..rows).filter_map(|p| {
                let l = row_src.map_or(p, |m| m[p]);
                self.row_enabled[l].then_some((p, l))
            }));
        }
        self.readout.tally(&mut self.counter, n, self.enabled_count, cols);
        let per = (READOUT_BLOCK / cols).max(P).min(n).max(1); // evaluations per block
        let block = per * cols;
        // The three buffers start a cache line past a 4 KB multiple of
        // each other: with equal low address bits, the row loop's loads
        // from one would falsely wait on its stores to another.
        let stride = block + 8;
        self.scratch.clear();
        self.scratch.resize(3 * stride, 0.0);
        let (acc, rest) = self.scratch.split_at_mut(stride);
        let (power, noise) = rest.split_at_mut(stride);
        let col_src = self.col_src.as_deref();
        let strips = if W == 0 { 0 } else { cols - cols % W };
        for (inputs, out) in inputs.chunks(per * rows).zip(out.chunks_mut(block)) {
            let (len, m) = (out.len(), out.len() / cols);
            let (acc, power, noise) = (&mut acc[..len], &mut power[..len], &mut noise[..len]);
            let mut e = 0;
            while e < m {
                let group = if e + P <= m { P } else { 1 };
                let x = &inputs[e * rows..];
                let (a, pw) = (&mut acc[e * cols..], &mut power[e * cols..]);
                for s in (0..strips).step_by(W.max(1)) {
                    if group == P {
                        strip_pass::<W, P>(&self.wd, rows, cols, s, &active, x, a, pw);
                    } else {
                        strip_pass::<W, 1>(&self.wd, rows, cols, s, &active, x, a, pw);
                    }
                }
                e += group;
            }
            // Row-outer / column-inner accumulation over the columns
            // left over: each enabled physical row streams its
            // contiguous folded-weight (`wd`) slice into per-column
            // accumulators, so every column's partial sums still arrive
            // in ascending-`p` order — the same order (hence the same
            // bits) as the column-outer seed kernel.
            if strips < cols {
                for ((x, acc), power) in inputs
                    .chunks_exact(rows)
                    .zip(acc.chunks_exact_mut(cols))
                    .zip(power.chunks_exact_mut(cols))
                {
                    let (acc, power) = (&mut acc[strips..], &mut power[strips..]);
                    acc.fill(0.0);
                    power.fill(0.0);
                    for &(p, l) in &active {
                        let x = x[l] as f64;
                        let wd_row = &self.wd[p * cols + strips..(p + 1) * cols];
                        for ((a, pw), &w) in acc.iter_mut().zip(power.iter_mut()).zip(wd_row) {
                            let term = x * w; // IR denominator pre-folded into `wd`
                            *a += term;
                            *pw += term * term; // Σ term² for the noise model
                        }
                    }
                }
            }
            // Sense the block — the seed kernel's per-column
            // noise/margin/ADC sequence, evaluation by evaluation in
            // physical column order — then scatter through any column
            // remap into the logical output slots.
            self.readout.sense_block(acc, power, noise, &mut self.counter, rng);
            for (acc, out) in acc.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
                match col_src {
                    None => out.copy_from_slice(acc),
                    Some(map) => map.iter().zip(acc).for_each(|(&l, &v)| out[l] = v),
                }
            }
        }
        self.row_scratch = active;
    }

    /// Bytes of reusable kernel scratch currently held by this array
    /// (the read-out block's sums, Σ term² and noise, plus the batch
    /// row-resolution buffer) — the raw material of the
    /// `scratch_bytes` telemetry gauge.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.capacity() * std::mem::size_of::<f64>()
            + self.row_scratch.capacity() * std::mem::size_of::<(usize, usize)>()
    }

    /// Flips the stored sign of the (non-defective) cell at physical
    /// `(row, col)` — the transient-upset hook of the chaos engine,
    /// modelling a particle strike or write-path glitch between scrubs.
    /// No electrical write is tallied (the upset is not an operation the
    /// periphery performed), so op-counter-derived wear is unaffected.
    /// Returns `false` when the cell is defective (a pinned free layer
    /// absorbs the hit).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn flip_stored_sign(&mut self, row: usize, col: usize) -> bool {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert!(col < self.cols, "col {col} out of range {}", self.cols);
        let idx = row * self.cols + col;
        if self.cells[idx].is_defective() {
            return false;
        }
        let s = self.cells[idx].stored_sign();
        self.cells[idx].program(-s);
        let mut eff = self.cells[idx].effective_weight();
        // Keep the cell's accumulated conductance drift folded in, as
        // refresh_eff would.
        if let Some(hook) = &self.aging {
            eff *= hook.state.drift(idx);
        }
        self.eff[idx] = eff;
        self.refresh_wd();
        self.invalidate_packed();
        true
    }

    /// Captures the complete mutable state of this array for a die
    /// checkpoint (see [`CrossbarState`]).
    pub fn export_state(&self) -> CrossbarState {
        CrossbarState {
            cells: self.cells.iter().map(|c| c.state()).collect(),
            eff: self.eff.clone(),
            row_enabled: self.row_enabled.clone(),
            counter: self.counter,
            defects: self.defects.iter().map(|((r, c), k)| (r, c, k)).collect(),
            spares: self
                .spares
                .iter()
                .map(|s| SpareColumnState {
                    cells: s.cells.iter().map(|c| c.state()).collect(),
                    used: s.used,
                })
                .collect(),
            row_src: self.row_src.clone(),
            col_src: self.col_src.clone(),
            margin_sum: self.readout.margin_sum,
            margin_count: self.readout.margin_count,
            packed_calls: self.packed_calls,
            aging: self.aging.as_deref().map(|hook| AgingHookState {
                aging: hook.state.snapshot(),
                golden: hook.golden.clone(),
                seen_reads: hook.seen_reads,
                seen_writes: hook.seen_writes,
            }),
        }
    }

    /// Reapplies a captured state onto a crossbar built by the same
    /// deterministic constructor (and, when the checkpoint carries
    /// aging state, with [`Crossbar::enable_aging`] already attached
    /// under the same config). Every mutable field is overwritten —
    /// `eff` verbatim, so accumulated drift survives — then the derived
    /// tables (folded weights, packed plane, enabled-row cache) are
    /// rebuilt. After the call the array is bit-identical to the one
    /// that exported the state: outputs, tallies, margins, and every
    /// event-RNG stream position.
    ///
    /// # Errors
    ///
    /// Refuses, leaving the array unchanged, a state that came from a
    /// differently built array or that this array could not export:
    /// a population, shape or aging-attachment mismatch, a remap that
    /// is not a permutation, or a defect list that is not in strictly
    /// ascending `(row, col)` order inside the array.
    pub fn import_state(&mut self, state: &CrossbarState) -> Result<(), String> {
        let n = self.rows * self.cols;
        let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        ensure(state.cells.len() == n, "cell state population mismatch")?;
        ensure(state.eff.len() == n, "eff state population mismatch")?;
        ensure(state.row_enabled.len() == self.rows, "row_enabled state length mismatch")?;
        ensure(state.spares.len() == self.spares.len(), "spare count mismatch")?;
        ensure(
            state.spares.iter().all(|s| s.cells.len() == self.rows),
            "spare column population mismatch",
        )?;
        if let Some(map) = &state.row_src {
            check_permutation(map, self.rows, "row_src")?;
        }
        if let Some(map) = &state.col_src {
            check_permutation(map, self.cols, "col_src")?;
        }
        // `DefectMap` keeps one entry per cell in (row, col) order, so
        // any other list would come back from `export_state` changed.
        ensure(
            state.defects.iter().all(|&(r, c, _)| r < self.rows && c < self.cols)
                && state.defects.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "defect list is not in strictly ascending (row, col) order inside the array",
        )?;
        match (self.aging.as_deref_mut(), &state.aging) {
            (Some(hook), Some(s)) => {
                ensure(s.golden.len() == n, "golden image population mismatch")?;
                // The last check: it applies the aging snapshot when it
                // passes.
                hook.state.restore(&s.aging)?;
                hook.golden = s.golden.clone();
                hook.seen_reads = s.seen_reads;
                hook.seen_writes = s.seen_writes;
            }
            (None, None) => {}
            _ => return Err("aging attachment mismatch between die and checkpoint".to_string()),
        }
        for (cell, s) in self.cells.iter_mut().zip(&state.cells) {
            *cell = XnorBitCell::from_state(s);
        }
        self.eff.copy_from_slice(&state.eff);
        self.row_enabled.copy_from_slice(&state.row_enabled);
        self.enabled_count = self.row_enabled.iter().filter(|&&e| e).count();
        self.counter = state.counter;
        let mut defects = DefectMap::empty(self.rows, self.cols);
        for &(r, c, kind) in &state.defects {
            defects.inject(r, c, kind);
        }
        self.defects = defects;
        for (spare, s) in self.spares.iter_mut().zip(&state.spares) {
            spare.cells.clear();
            spare.cells.extend(s.cells.iter().map(XnorBitCell::from_state));
            spare.used = s.used;
        }
        self.row_src = state.row_src.clone();
        self.col_src = state.col_src.clone();
        self.readout.margin_sum = state.margin_sum;
        self.readout.margin_count = state.margin_count;
        self.packed_calls = state.packed_calls;
        // `eff` was restored verbatim with drift already folded in:
        // rebuild only the derived tables (refresh_eff would re-apply
        // the drift factor a second time).
        self.refresh_wd();
        self.invalidate_packed();
        Ok(())
    }
}

/// One pass of a register strip over the active rows: sums the `W`
/// columns from `s` of `P` consecutive evaluations (inputs `x`, `rows`
/// apart; sums and Σ term² written to `acc` and `power`, `cols`
/// apart). The `P` evaluations share each load of a weight strip, and
/// each column still adds its terms in ascending physical row order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn strip_pass<const W: usize, const P: usize>(
    wd: &[f64],
    rows: usize,
    cols: usize,
    s: usize,
    active: &[(usize, usize)],
    x: &[f32],
    acc: &mut [f64],
    power: &mut [f64],
) {
    let mut a = [[0.0f64; W]; P];
    let mut pw = [[0.0f64; W]; P];
    for &(p, l) in active {
        let w = wd[p * cols + s..].first_chunk::<W>().expect("strip in row");
        for (k, (a, pw)) in a.iter_mut().zip(pw.iter_mut()).enumerate() {
            let x = x[k * rows + l] as f64;
            for ((a, pw), &w) in a.iter_mut().zip(pw.iter_mut()).zip(w) {
                let term = x * w;
                *a += term;
                *pw += term * term;
            }
        }
    }
    for (k, (a, pw)) in a.iter().zip(&pw).enumerate() {
        acc[k * cols + s..][..W].copy_from_slice(a);
        power[k * cols + s..][..W].copy_from_slice(pw);
    }
}

/// `Err` unless `map` is a permutation of `0..len`.
fn check_permutation(map: &[usize], len: usize, name: &str) -> Result<(), String> {
    if map.len() != len {
        return Err(format!("{name} has {} entries, want {len}", map.len()));
    }
    let mut seen = vec![false; len];
    for &v in map {
        if v >= len {
            return Err(format!("{name} entry {v} out of range {len}"));
        }
        if std::mem::replace(&mut seen[v], true) {
            return Err(format!("{name} repeats entry {v}"));
        }
    }
    Ok(())
}

/// A quantized-weight crossbar of multi-level cells (`k` MTJs per cell,
/// `k + 1` levels), used by SpinBayes and the sub-set VI architecture.
#[derive(Debug, Clone)]
pub struct MlcCrossbar {
    rows: usize,
    cols: usize,
    eff: Vec<f64>,
    levels: usize,
    row_enabled: Vec<bool>,
    readout: ColumnReadout,
    counter: OpCounter,
    /// Read-out scratch (`[power | noise]`, one column each), reused
    /// across evaluations to keep the kernel allocation-free.
    scratch: Vec<f64>,
}

impl MlcCrossbar {
    /// Programs a quantized crossbar: each real weight is clipped to
    /// `[-w_max, +w_max]` and quantized to the cell's `k + 1` levels.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree, dims are zero, `k == 0`, or
    /// `w_max <= 0`.
    pub fn program(
        weights: &[f32],
        rows: usize,
        cols: usize,
        k: usize,
        w_max: f64,
        config: &CrossbarConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be positive");
        assert_eq!(weights.len(), rows * cols, "weight count mismatch");
        let mut eff = Vec::with_capacity(rows * cols);
        let mut counter = OpCounter::new();
        for &w in weights {
            let mut cell = MlcBitCell::new(k, w_max, config.corner, rng);
            cell.program_weight(w as f64);
            eff.push(cell.effective_weight());
            counter.cell_writes += k as u64;
            counter.cell_reads += k as u64; // verify
        }
        let adc = config.adc_bits.map(|b| Adc::new(b, rows as f64 * w_max));
        Self {
            rows,
            cols,
            eff,
            levels: k + 1,
            row_enabled: vec![true; rows],
            readout: ColumnReadout::new(config.read_noise, adc),
            counter,
            scratch: Vec::new(),
        }
    }

    /// Mean |analog column value| at the sense-amplifier input since the
    /// last [`MlcCrossbar::reset_sense_margin`] (see
    /// [`Crossbar::mean_sense_margin`]).
    pub fn mean_sense_margin(&self) -> f64 {
        self.readout.mean_margin()
    }

    /// Starts a fresh sense-margin window.
    pub fn reset_sense_margin(&mut self) {
        self.readout.reset_margin();
    }

    /// Number of input rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of output columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of conductance levels per cell.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The op counter accumulated so far.
    pub fn counter(&self) -> &OpCounter {
        &self.counter
    }

    /// Resets the op counter.
    pub fn reset_counter(&mut self) {
        self.counter.reset();
    }

    /// The stored (quantized, variation-perturbed) weight at a cell.
    pub fn effective_weight(&self, row: usize, col: usize) -> f64 {
        self.eff[row * self.cols + col]
    }

    /// Enables/disables a word line.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn set_row_enabled(&mut self, row: usize, enabled: bool) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        self.row_enabled[row] = enabled;
    }

    /// Applies an in-field drift transform to every cell's effective
    /// weight (see [`Crossbar::apply_drift`]).
    pub fn apply_drift(&mut self, mut f: impl FnMut(f64) -> f64) {
        for w in &mut self.eff {
            *w = f(*w);
        }
    }

    /// Analog matrix-vector product over enabled rows.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows`.
    pub fn matvec(&mut self, input: &[f32], rng: &mut StdRng) -> Vec<f64> {
        let mut out = vec![0.0f64; self.cols];
        self.matvec_into(input, &mut out, rng);
        out
    }

    /// [`MlcCrossbar::matvec`] writing into a caller-provided buffer —
    /// the zero-allocation primitive of the forward-plan path. Column
    /// accumulators live in the reused scratch, so steady-state calls
    /// perform no heap allocation; float-op order, tallies and RNG
    /// consumption are identical to `matvec`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows` or `out.len() != cols`.
    pub fn matvec_into(&mut self, input: &[f32], out: &mut [f64], rng: &mut StdRng) {
        assert_eq!(input.len(), self.rows, "input length mismatch");
        assert_eq!(out.len(), self.cols, "output length mismatch");
        let active = self.row_enabled.iter().filter(|&&e| e).count();
        self.readout.tally(&mut self.counter, 1, active, self.cols);
        // Row-outer / column-inner over contiguous `eff` rows, summing
        // in `out`; partial sums reach each column in ascending-row
        // order, matching the column-outer formulation bit for bit.
        let cols = self.cols;
        self.scratch.clear();
        self.scratch.resize(2 * cols, 0.0);
        let (power, noise) = self.scratch.split_at_mut(cols);
        out.fill(0.0);
        for (i, (&xi, &enabled)) in input.iter().zip(&self.row_enabled).enumerate() {
            if !enabled {
                continue;
            }
            let x = xi as f64;
            let eff_row = &self.eff[i * cols..(i + 1) * cols];
            for ((a, pw), &w) in out.iter_mut().zip(power.iter_mut()).zip(eff_row) {
                let term = x * w;
                *a += term;
                *pw += term * term;
            }
        }
        self.readout.sense_block(out, power, noise, &mut self.counter, rng);
    }

    /// Bytes of reusable kernel scratch currently held by this array
    /// (see [`Crossbar::scratch_bytes`]).
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.capacity() * std::mem::size_of::<f64>()
    }

    /// Raw sense-margin accumulator `(sum, count)` (see
    /// [`Crossbar::sense_margin_parts`]).
    pub fn sense_margin_parts(&self) -> (f64, u64) {
        (self.readout.margin_sum, self.readout.margin_count)
    }

    /// Folds externally accumulated sense-margin statistics into this
    /// crossbar (see [`Crossbar::merge_sense_margin`]).
    pub fn merge_sense_margin(&mut self, sum: f64, count: u64) {
        self.readout.merge_margin(sum, count);
    }

    /// Captures the complete mutable state of this array for a die
    /// checkpoint (see [`MlcCrossbarState`]).
    pub fn export_state(&self) -> MlcCrossbarState {
        MlcCrossbarState {
            eff: self.eff.clone(),
            row_enabled: self.row_enabled.clone(),
            counter: self.counter,
            margin_sum: self.readout.margin_sum,
            margin_count: self.readout.margin_count,
        }
    }

    /// Reapplies a captured state onto an array built by the same
    /// deterministic constructor (see [`Crossbar::import_state`]).
    ///
    /// # Errors
    ///
    /// Refuses, leaving the array unchanged, a state whose population
    /// disagrees with this array's geometry.
    pub fn import_state(&mut self, state: &MlcCrossbarState) -> Result<(), String> {
        if state.eff.len() != self.rows * self.cols || state.row_enabled.len() != self.rows {
            return Err("MLC crossbar state population mismatch".to_string());
        }
        self.eff.copy_from_slice(&state.eff);
        self.row_enabled.copy_from_slice(&state.row_enabled);
        self.counter = state.counter;
        self.readout.margin_sum = state.margin_sum;
        self.readout.margin_count = state.margin_count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuspin_device::{DefectKind, MtjParams, VariationModel};
    use rand::{RngExt, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(101)
    }

    fn ideal() -> CrossbarConfig {
        CrossbarConfig::ideal()
    }

    #[test]
    fn ideal_crossbar_computes_exact_mvm() {
        let mut r = rng();
        // 3 inputs × 2 outputs.
        let w = vec![1.0, -1.0, 1.0, 1.0, -1.0, -1.0];
        let mut xbar = Crossbar::program(&w, 3, 2, &ideal(), &mut r);
        let y = xbar.matvec(&[1.0, 2.0, 3.0], &mut r);
        // y0 = 1·1 + 2·1 + 3·(−1) = 0 ; y1 = −1 + 2 − 3 = −2.
        assert!((y[0] - 0.0).abs() < 1e-9);
        assert!((y[1] + 2.0).abs() < 1e-9);
    }

    #[test]
    fn read_noise_perturbs_output() {
        let mut r = rng();
        let w = vec![1.0; 64];
        let config = CrossbarConfig { read_noise: 0.05, ..CrossbarConfig::ideal() };
        let mut xbar = Crossbar::program(&w, 64, 1, &config, &mut r);
        let x = vec![1.0f32; 64];
        let a = xbar.matvec(&x, &mut r)[0];
        let b = xbar.matvec(&x, &mut r)[0];
        assert_ne!(a, b);
        assert!((a - 64.0).abs() < 64.0 * 0.25);
    }

    #[test]
    fn variation_shifts_weights_but_preserves_signs() {
        let mut r = rng();
        let corner = VariedParams::new(MtjParams::default(), VariationModel::uniform(0.08));
        let config = CrossbarConfig { corner, read_noise: 0.0, ..CrossbarConfig::ideal() };
        let w: Vec<f32> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let xbar = Crossbar::program(&w, 10, 10, &config, &mut r);
        for row in 0..10 {
            for col in 0..10 {
                let expected = w[row * 10 + col] as f64;
                let actual = xbar.effective_weight(row, col);
                assert!(actual * expected > 0.0, "sign preserved at ({row},{col})");
                assert!((actual - expected).abs() < 0.5);
            }
        }
    }

    #[test]
    fn row_gating_removes_contribution() {
        let mut r = rng();
        let w = vec![1.0, 1.0, 1.0]; // 3×1
        let mut xbar = Crossbar::program(&w, 3, 1, &ideal(), &mut r);
        assert!((xbar.matvec(&[1.0, 1.0, 1.0], &mut r)[0] - 3.0).abs() < 1e-9);
        xbar.set_row_enabled(1, false);
        assert_eq!(xbar.enabled_rows(), 2);
        assert!((xbar.matvec(&[1.0, 1.0, 1.0], &mut r)[0] - 2.0).abs() < 1e-9);
        xbar.enable_all_rows();
        assert!((xbar.matvec(&[1.0, 1.0, 1.0], &mut r)[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn adc_quantizes_output() {
        let mut r = rng();
        let w = vec![1.0; 8];
        let config = CrossbarConfig { adc_bits: Some(2), ..CrossbarConfig::ideal() };
        let mut xbar = Crossbar::program(&w, 8, 1, &config, &mut r);
        let y = xbar.matvec(&[0.3; 8], &mut r)[0];
        // 2-bit ADC over ±8: step 4, mid-rise codes at ±2, ±6.
        assert!([-6.0, -2.0, 2.0, 6.0].iter().any(|&v| (y - v).abs() < 1e-9), "y {y}");
    }

    #[test]
    fn counters_track_operations() {
        let mut r = rng();
        let w = vec![1.0; 12];
        let mut xbar = Crossbar::program(&w, 4, 3, &ideal(), &mut r);
        let programming = *xbar.counter();
        assert_eq!(programming.cell_writes, 24, "two devices per cell");
        xbar.reset_counter();
        let _ = xbar.matvec(&[1.0; 4], &mut r);
        assert_eq!(xbar.counter().cell_reads, 12);
        assert_eq!(xbar.counter().sa_evals, 3);
        assert_eq!(xbar.counter().adc_converts, 0, "ideal readout has no ADC");
    }

    #[test]
    fn defects_perturb_some_weights() {
        let mut r = rng();
        let config = CrossbarConfig {
            defect_rates: DefectRates::uniform(0.02),
            ..CrossbarConfig::ideal()
        };
        let w = vec![1.0; 400];
        let xbar = Crossbar::program(&w, 20, 20, &config, &mut r);
        assert!(xbar.defects().defect_count() > 0);
        let bad = (0..20)
            .flat_map(|i| (0..20).map(move |j| (i, j)))
            .filter(|&(i, j)| (xbar.effective_weight(i, j) - 1.0).abs() > 0.1)
            .count();
        assert!(bad > 0, "defects must corrupt some weights");
        assert!(bad <= xbar.defects().defect_count());
    }

    #[test]
    fn batch_matmul_matches_loop() {
        let mut r = rng();
        let w = vec![1.0, -1.0, -1.0, 1.0];
        let mut xbar = Crossbar::program(&w, 2, 2, &ideal(), &mut r);
        let batch = xbar.matmul(&[1.0, 0.0, 0.0, 1.0], 2, &mut r);
        assert_eq!(batch.len(), 4);
        assert!((batch[0] - 1.0).abs() < 1e-9);
        assert!((batch[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mlc_crossbar_quantized_mvm() {
        let mut r = rng();
        // 2 levels per device pair... k=4 → 5 levels over ±1: −1, −0.5, 0, 0.5, 1.
        let w = vec![0.45, -0.9, 0.1, 1.4]; // quantizes to 0.5, −1, 0, 1
        let mut xbar = MlcCrossbar::program(&w, 2, 2, 4, 1.0, &ideal(), &mut r);
        assert_eq!(xbar.levels(), 5);
        let y = xbar.matvec(&[1.0, 1.0], &mut r);
        assert!((y[0] - 0.5).abs() < 1e-6, "0.5 + 0 = 0.5, y0 {}", y[0]);
        assert!((y[1] - 0.0).abs() < 1e-6, "−1 + 1 = 0, y1 {}", y[1]);
    }

    #[test]
    fn mlc_quantization_error_bounded_by_step() {
        let mut r = rng();
        let w: Vec<f32> = (0..50).map(|i| (i as f32 / 25.0) - 1.0).collect();
        let xbar = MlcCrossbar::program(&w, 50, 1, 8, 1.0, &ideal(), &mut r);
        let step = 2.0 / 8.0;
        for (i, &orig) in w.iter().enumerate() {
            let q = xbar.effective_weight(i, 0);
            assert!((q - orig as f64).abs() <= step / 2.0 + 1e-9, "w {orig} q {q}");
        }
    }

    #[test]
    fn ir_drop_attenuates_far_cells() {
        let mut r = rng();
        let w = vec![1.0; 128]; // 128×1
        let clean = CrossbarConfig::ideal();
        let droopy = CrossbarConfig { ir_drop: 0.1, ..CrossbarConfig::ideal() };
        let mut a = Crossbar::program(&w, 128, 1, &clean, &mut r);
        let mut b = Crossbar::program(&w, 128, 1, &droopy, &mut r);
        let x = vec![1.0f32; 128];
        let ya = a.matvec(&x, &mut r)[0];
        let yb = b.matvec(&x, &mut r)[0];
        assert!(yb < ya, "IR drop must lose signal: {yb} vs {ya}");
        assert!(yb > 0.9 * ya, "first-order model stays mild: {yb} vs {ya}");
    }

    #[test]
    fn ir_drop_hits_far_rows_harder() {
        let mut r = rng();
        let w = vec![1.0; 100]; // 100×1
        let config = CrossbarConfig { ir_drop: 0.2, ..CrossbarConfig::ideal() };
        let mut xbar = Crossbar::program(&w, 100, 1, &config, &mut r);
        let mut near = vec![0.0f32; 100];
        near[0] = 1.0;
        let mut far = vec![0.0f32; 100];
        far[99] = 1.0;
        let y_near = xbar.matvec(&near, &mut r)[0];
        let y_far = xbar.matvec(&far, &mut r)[0];
        assert!(y_near > y_far, "{y_near} vs {y_far}");
    }

    #[test]
    #[should_panic(expected = "weight count mismatch")]
    fn program_rejects_bad_shape() {
        let mut r = rng();
        let _ = Crossbar::program(&[1.0; 5], 2, 3, &ideal(), &mut r);
    }

    #[test]
    fn zero_spares_matches_plain_program_exactly() {
        let w: Vec<f32> = (0..48).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let config = CrossbarConfig {
            defect_rates: DefectRates::uniform(0.03),
            read_noise: 0.02,
            ..CrossbarConfig::default()
        };
        let mut ra = rng();
        let mut rb = rng();
        let mut a = Crossbar::program(&w, 8, 6, &config, &mut ra);
        let mut b = Crossbar::program_with_spares(&w, 8, 6, 0, &config, &mut rb);
        let x = vec![1.0f32; 8];
        assert_eq!(a.matvec(&x, &mut ra), b.matvec(&x, &mut rb));
    }

    #[test]
    fn substitute_column_replaces_defective_cells() {
        let mut r = rng();
        let w = vec![1.0f32; 16]; // 4×4
        let mut xbar = Crossbar::program_with_spares(&w, 4, 4, 2, &ideal(), &mut r);
        assert_eq!(xbar.spare_count(), 2);
        assert_eq!(xbar.available_spares(), 2);
        // Corrupt a column by hand, then repair it with a clean spare.
        let col = 1;
        for row in 0..4 {
            xbar.defects.inject(row, col, DefectKind::Open);
        }
        assert_eq!(xbar.defects().column_defect_count(col), 4);
        assert!(xbar.spare_is_clean(0));
        xbar.substitute_column(col, 0);
        assert_eq!(xbar.defects().column_defect_count(col), 0);
        assert_eq!(xbar.available_spares(), 1);
        // The substituted column carries the same stored signs.
        let y = xbar.matvec(&[1.0; 4], &mut r);
        assert!((y[col] - 4.0).abs() < 1e-9, "repaired column reads clean: {}", y[col]);
    }

    #[test]
    #[should_panic(expected = "already used")]
    fn substitute_column_rejects_reuse() {
        let mut r = rng();
        let w = vec![1.0f32; 4];
        let mut xbar = Crossbar::program_with_spares(&w, 2, 2, 1, &ideal(), &mut r);
        xbar.substitute_column(0, 0);
        xbar.substitute_column(1, 0);
    }

    #[test]
    fn remap_preserves_logical_matvec() {
        let mut r = rng();
        let w = vec![
            1.0, -1.0, 1.0, //
            -1.0, 1.0, 1.0, //
        ]; // 2×3
        let mut xbar = Crossbar::program(&w, 2, 3, &ideal(), &mut r);
        let x = [1.0f32, -1.0];
        let before = xbar.matvec(&x, &mut r);
        xbar.apply_remap(vec![1, 0], vec![2, 0, 1]);
        let after = xbar.matvec(&x, &mut r);
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-9, "remap must be transparent: {before:?} vs {after:?}");
        }
        let (rs, cs) = xbar.remap();
        assert_eq!(rs, vec![1, 0]);
        assert_eq!(cs, vec![2, 0, 1]);
    }

    #[test]
    fn remap_routes_row_gating_logically() {
        let mut r = rng();
        let w = vec![1.0f32; 4]; // 2×2
        let mut xbar = Crossbar::program(&w, 2, 2, &ideal(), &mut r);
        xbar.apply_remap(vec![1, 0], vec![0, 1]);
        xbar.set_row_enabled(0, false); // logical row 0
        let y = xbar.matvec(&[1.0, 1.0], &mut r);
        assert!((y[0] - 1.0).abs() < 1e-9, "only logical row 1 contributes: {y:?}");
    }

    #[test]
    #[should_panic(expected = "row_src repeats entry")]
    fn remap_rejects_non_permutation() {
        let mut r = rng();
        let w = vec![1.0f32; 4];
        let mut xbar = Crossbar::program(&w, 2, 2, &ideal(), &mut r);
        xbar.apply_remap(vec![0, 0], vec![0, 1]);
    }

    #[test]
    fn reprogram_and_stored_signs_round_trip() {
        let mut r = rng();
        let w = vec![1.0, -1.0, -1.0, 1.0];
        let mut xbar = Crossbar::program(&w, 2, 2, &ideal(), &mut r);
        xbar.apply_remap(vec![1, 0], vec![1, 0]);
        let w2 = vec![-1.0, -1.0, 1.0, 1.0];
        xbar.reprogram(&w2);
        assert_eq!(xbar.stored_logical_signs(), w2);
        let y = xbar.matvec(&[1.0, 1.0], &mut r);
        assert!((y[0] - 0.0).abs() < 1e-9);
        assert!((y[1] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn read_row_senses_physical_weights() {
        let mut r = rng();
        let w = vec![1.0, -1.0, -1.0, 1.0];
        let mut xbar = Crossbar::program(&w, 2, 2, &ideal(), &mut r);
        let top = xbar.read_row(0, &mut r);
        assert!((top[0] - 1.0).abs() < 1e-9);
        assert!((top[1] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn enabled_count_cache_matches_fresh_scan() {
        let mut r = rng();
        let w = vec![1.0f32; 64]; // 8×8
        let mut xbar = Crossbar::program(&w, 8, 8, &ideal(), &mut r);
        for step in 0..200usize {
            // Deterministic toggle pattern with redundant sets (same
            // state written twice), bulk re-enables, and a mid-stream
            // remap — every mutation site the cache must survive.
            let row = (step * 5 + step / 7) % 8;
            let enabled = (step / 3) % 2 == 0;
            xbar.set_row_enabled(row, enabled);
            xbar.set_row_enabled(row, enabled);
            if step % 50 == 49 {
                xbar.enable_all_rows();
            }
            if step == 100 {
                xbar.apply_remap(vec![7, 6, 5, 4, 3, 2, 1, 0], (0..8).collect());
            }
            let scan = xbar.row_enabled.iter().filter(|&&e| e).count();
            assert_eq!(xbar.enabled_rows(), scan, "cache diverged at step {step}");
        }
    }

    #[test]
    fn row_major_kernel_bit_identical_to_reference() {
        // Worst-case feature mix: defective, remapped, IR-dropped,
        // ADC-quantized, partially disabled, noisy.
        let w: Vec<f32> =
            (0..12 * 10).map(|i| if (i * 7) % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let config = CrossbarConfig {
            defect_rates: DefectRates::uniform(0.02),
            read_noise: 0.05,
            adc_bits: Some(6),
            ir_drop: 0.07,
            ..CrossbarConfig::default()
        };
        let mut ra = StdRng::seed_from_u64(42);
        let mut rb = StdRng::seed_from_u64(42);
        let mut a = Crossbar::program(&w, 12, 10, &config, &mut ra);
        let mut b = Crossbar::program(&w, 12, 10, &config, &mut rb);
        let row_map: Vec<usize> = (0..12).map(|i| (i + 5) % 12).collect();
        let col_map: Vec<usize> = (0..10).map(|i| (i + 3) % 10).collect();
        a.apply_remap(row_map.clone(), col_map.clone());
        b.apply_remap(row_map, col_map);
        for xbar in [&mut a, &mut b] {
            xbar.set_row_enabled(3, false);
            xbar.set_row_enabled(7, false);
        }
        b.set_kernel_policy(KernelPolicy::Reference);
        for trial in 0..16 {
            let x: Vec<f32> =
                (0..12).map(|i| ((i * (trial + 3)) % 5) as f32 - 2.0).collect();
            let ya = a.matvec(&x, &mut ra);
            let yb = b.matvec(&x, &mut rb);
            for (j, (va, vb)) in ya.iter().zip(&yb).enumerate() {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "col {j} trial {trial}: {va} vs {vb}"
                );
            }
        }
        // Counters, margin statistics, and the downstream RNG position
        // advance identically too.
        assert_eq!(a.counter(), b.counter());
        let ((sa, ca), (sb, cb)) = (a.sense_margin_parts(), b.sense_margin_parts());
        assert_eq!(sa.to_bits(), sb.to_bits());
        assert_eq!(ca, cb);
        assert_eq!(
            stats::standard_normal(&mut ra).to_bits(),
            stats::standard_normal(&mut rb).to_bits(),
            "kernels must consume the same RNG stream"
        );
    }

    #[test]
    fn batched_matmul_bit_identical_to_reference_loop() {
        // The hoisted-bookkeeping batch kernel against a per-sample
        // seed-kernel loop: same outputs, counters, margins, and RNG
        // stream position.
        let w: Vec<f32> =
            (0..12 * 10).map(|i| if (i * 5) % 4 == 0 { 1.0 } else { -1.0 }).collect();
        let config = CrossbarConfig {
            defect_rates: DefectRates::uniform(0.02),
            read_noise: 0.05,
            adc_bits: Some(6),
            ir_drop: 0.07,
            ..CrossbarConfig::default()
        };
        let mut ra = StdRng::seed_from_u64(1717);
        let mut rb = StdRng::seed_from_u64(1717);
        let mut a = Crossbar::program(&w, 12, 10, &config, &mut ra);
        let mut b = Crossbar::program(&w, 12, 10, &config, &mut rb);
        let row_map: Vec<usize> = (0..12).map(|i| (i + 4) % 12).collect();
        let col_map: Vec<usize> = (0..10).map(|i| (i + 7) % 10).collect();
        a.apply_remap(row_map.clone(), col_map.clone());
        b.apply_remap(row_map, col_map);
        for xbar in [&mut a, &mut b] {
            xbar.set_row_enabled(1, false);
            xbar.set_row_enabled(8, false);
        }
        let n = 7;
        let inputs: Vec<f32> =
            (0..n * 12).map(|i| ((i * 3) % 11) as f32 / 5.0 - 1.0).collect();
        let ya = a.matmul(&inputs, n, &mut ra);
        let mut yb = vec![0.0f64; n * 10];
        for (input, chunk) in inputs.chunks_exact(12).zip(yb.chunks_exact_mut(10)) {
            chunk.copy_from_slice(&b.matvec_reference(input, &mut rb));
        }
        for (i, (va, vb)) in ya.iter().zip(&yb).enumerate() {
            assert_eq!(va.to_bits(), vb.to_bits(), "element {i}: {va} vs {vb}");
        }
        assert_eq!(a.counter(), b.counter());
        let ((sa, ca), (sb, cb)) = (a.sense_margin_parts(), b.sense_margin_parts());
        assert_eq!(sa.to_bits(), sb.to_bits());
        assert_eq!(ca, cb);
        assert_eq!(
            stats::standard_normal(&mut ra).to_bits(),
            stats::standard_normal(&mut rb).to_bits(),
            "batched kernel must consume the same RNG stream"
        );
    }

    #[test]
    fn into_variants_bit_identical_and_reuse_scratch() {
        // matvec_into / matmul_into against their allocating twins on a
        // full-feature tile, from a dirty output buffer, under every
        // kernel policy — then again to prove the scratch is warm (no
        // capacity growth).
        let w: Vec<f32> =
            (0..12 * 10).map(|i| if (i * 11) % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let config = CrossbarConfig {
            defect_rates: DefectRates::uniform(0.02),
            read_noise: 0.05,
            adc_bits: Some(6),
            ir_drop: 0.07,
            ..CrossbarConfig::default()
        };
        for policy in [KernelPolicy::Reference, KernelPolicy::Scalar, KernelPolicy::Auto] {
            let mut ra = StdRng::seed_from_u64(77);
            let mut rb = StdRng::seed_from_u64(77);
            let mut a = Crossbar::program(&w, 12, 10, &config, &mut ra);
            let mut b = Crossbar::program(&w, 12, 10, &config, &mut rb);
            for xbar in [&mut a, &mut b] {
                xbar.set_row_enabled(2, false);
                xbar.set_kernel_policy(policy);
            }
            let x: Vec<f32> = (0..12).map(|i| ((i * 3) % 7) as f32 / 3.0 - 1.0).collect();
            let expect = a.matvec(&x, &mut ra);
            let mut got = vec![f64::NAN; 10];
            b.matvec_into(&x, &mut got, &mut rb);
            for (va, vb) in expect.iter().zip(&got) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{policy:?} matvec_into diverged");
            }
            let n = 5;
            let inputs: Vec<f32> =
                (0..n * 12).map(|i| ((i * 7) % 9) as f32 / 4.0 - 1.0).collect();
            let expect = a.matmul(&inputs, n, &mut ra);
            let mut got = vec![f64::NAN; n * 10];
            b.matmul_into(&inputs, n, &mut got, &mut rb);
            for (va, vb) in expect.iter().zip(&got) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{policy:?} matmul_into diverged");
            }
            assert_eq!(a.counter(), b.counter(), "{policy:?} tallies diverged");
            // Warm scratch: a repeat call must not grow the buffers.
            let bytes = b.scratch_bytes();
            b.matmul_into(&inputs, n, &mut got, &mut rb);
            assert_eq!(b.scratch_bytes(), bytes, "{policy:?} scratch grew when warm");
            assert!(bytes > 0);
        }
    }

    #[test]
    fn mlc_matvec_into_bit_identical_to_matvec() {
        let w: Vec<f32> = (0..8 * 6).map(|i| ((i * 5) % 7) as f32 / 3.5 - 1.0).collect();
        let config = CrossbarConfig { read_noise: 0.04, adc_bits: Some(6), ..ideal() };
        let mut ra = StdRng::seed_from_u64(55);
        let mut rb = StdRng::seed_from_u64(55);
        let mut a = MlcCrossbar::program(&w, 8, 6, 4, 1.0, &config, &mut ra);
        let mut b = MlcCrossbar::program(&w, 8, 6, 4, 1.0, &config, &mut rb);
        for xbar in [&mut a, &mut b] {
            xbar.set_row_enabled(3, false);
        }
        let x: Vec<f32> = (0..8).map(|i| (i as f32 / 4.0) - 1.0).collect();
        for _ in 0..4 {
            let expect = a.matvec(&x, &mut ra);
            let mut got = vec![f64::NAN; 6];
            b.matvec_into(&x, &mut got, &mut rb);
            for (va, vb) in expect.iter().zip(&got) {
                assert_eq!(va.to_bits(), vb.to_bits(), "mlc matvec_into diverged");
            }
        }
        assert_eq!(a.counter(), b.counter());
        let ((sa, ca), (sb, cb)) = (a.sense_margin_parts(), b.sense_margin_parts());
        assert_eq!(sa.to_bits(), sb.to_bits());
        assert_eq!(ca, cb);
        assert!(b.scratch_bytes() > 0);

        // The MLC array has no reference kernel: pin each column to the
        // read-out spelled out here from the stored weights — ascending
        // sum over enabled rows, one ziggurat draw when Σ term² > 0,
        // then the 6-bit ADC over ±rows·w_max.
        b.reset_sense_margin();
        let mut oracle_rng = rb.clone();
        let adc = Adc::new(6, 8.0 * 1.0);
        let (mut want, mut margin) = (Vec::new(), 0.0f64);
        for j in 0..6 {
            let (mut acc, mut power) = (0.0f64, 0.0f64);
            for (i, &xi) in x.iter().enumerate().filter(|&(i, _)| i != 3) {
                let term = xi as f64 * b.effective_weight(i, j);
                acc += term;
                power += term * term;
            }
            if power > 0.0 {
                acc += 0.04 * power.sqrt() * stats::ziggurat_normal(&mut oracle_rng);
            }
            margin += acc.abs();
            want.push(adc.quantize(acc));
        }
        let mut got = vec![f64::NAN; 6];
        b.matvec_into(&x, &mut got, &mut rb);
        for (j, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "mlc col {j}: oracle {w} vs kernel {g}");
        }
        let (sum, count) = b.sense_margin_parts();
        assert_eq!(sum.to_bits(), margin.to_bits(), "oracle margin {margin} vs {sum}");
        assert_eq!(count, 6);
        assert_eq!(
            stats::standard_normal(&mut oracle_rng).to_bits(),
            stats::standard_normal(&mut rb).to_bits(),
            "mlc kernel must draw once per column with signal"
        );
    }

    #[test]
    fn matvec_seed42_golden_vector() {
        // Seed-42 golden vector (same convention as the neuspin-core RNG
        // golden tests): a defective, remapped, IR-dropped, quantized,
        // partially disabled, noisy 16×8 crossbar. These bits were
        // captured from the seed kernel; they pin the full evaluation
        // path — programming stream, remap routing, IR denominators,
        // noise draws, ADC codes — against silent drift. (Re-captured
        // when read noise moved from Box–Muller to the ziggurat
        // sampler; only column 2 shifted, the ADC absorbed the rest.)
        const GOLDEN_BITS: [u64; 8] = [
            0x4006000000000000, // 2.75
            0x402f800000000000, // 15.75
            0xbfe8000000000000, // -0.75
            0x3fe8000000000000, // 0.75
            0x3ffc000000000000, // 1.75
            0xbfe8000000000000, // -0.75
            0x3ff4000000000000, // 1.25
            0x3ffc000000000000, // 1.75
        ];
        let w: Vec<f32> =
            (0..16 * 8).map(|i| if (i * 5) % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let config = CrossbarConfig {
            defect_rates: DefectRates::uniform(0.02),
            read_noise: 0.05,
            adc_bits: Some(6),
            ir_drop: 0.07,
            ..CrossbarConfig::default()
        };
        let x: Vec<f32> = (0..16).map(|i| ((i * 3) % 7) as f32 / 3.0 - 1.0).collect();
        // Both kernels must reproduce the recorded bits.
        for policy in [KernelPolicy::Auto, KernelPolicy::Reference] {
            let mut r = StdRng::seed_from_u64(42);
            let mut xbar = Crossbar::program(&w, 16, 8, &config, &mut r);
            let row_map: Vec<usize> = (0..16).map(|i| (i + 9) % 16).collect();
            let col_map: Vec<usize> = (0..8).map(|i| (i + 5) % 8).collect();
            xbar.apply_remap(row_map, col_map);
            xbar.set_row_enabled(2, false);
            xbar.set_row_enabled(11, false);
            xbar.set_kernel_policy(policy);
            let y = xbar.matvec(&x, &mut r);
            for (j, (v, &bits)) in y.iter().zip(&GOLDEN_BITS).enumerate() {
                assert_eq!(
                    v.to_bits(),
                    bits,
                    "col {j} ({policy:?}): got {v}, want {}",
                    f64::from_bits(bits)
                );
            }
        }
    }

    /// Twin helper for the packed edge-case tests: two bit-identical
    /// noiseless crossbars, the second pinned to the seed oracle.
    fn noiseless_twins(w: &[f32], rows: usize, cols: usize, seed: u64) -> (Crossbar, Crossbar) {
        let mut ra = StdRng::seed_from_u64(seed);
        let mut rb = StdRng::seed_from_u64(seed);
        let a = Crossbar::program(w, rows, cols, &ideal(), &mut ra);
        let mut b = Crossbar::program(w, rows, cols, &ideal(), &mut rb);
        b.set_kernel_policy(KernelPolicy::Reference);
        (a, b)
    }

    fn assert_outputs_and_state_match(ya: &[f64], yb: &[f64], a: &Crossbar, b: &Crossbar) {
        for (j, (va, vb)) in ya.iter().zip(yb).enumerate() {
            assert_eq!(va.to_bits(), vb.to_bits(), "col {j}: {va} vs {vb}");
        }
        assert_eq!(a.counter(), b.counter());
        let ((sa, ca), (sb, cb)) = (a.sense_margin_parts(), b.sense_margin_parts());
        assert_eq!(sa.to_bits(), sb.to_bits());
        assert_eq!(ca, cb);
    }

    #[test]
    fn packed_kernel_word_boundary_geometries_match_reference() {
        // Row counts straddling the 64-bit word size (1, 63, 64, 65,
        // 128, 129): partial last words and single-row tiles must
        // popcount to the same bits as the seed kernel.
        let mut r = rng();
        for rows in [1usize, 63, 64, 65, 128, 129] {
            for cols in [1usize, 3] {
                let w: Vec<f32> = (0..rows * cols)
                    .map(|i| if (i * 13) % 5 < 2 { 1.0 } else { -1.0 })
                    .collect();
                let (mut a, mut b) = noiseless_twins(&w, rows, cols, 7 + rows as u64);
                for trial in 0..3 {
                    let x: Vec<f32> =
                        (0..rows).map(|i| [1.0f32, -1.0, 0.0][(i + trial) % 3]).collect();
                    let ya = a.matvec(&x, &mut r);
                    let yb = b.matvec(&x, &mut r);
                    assert_outputs_and_state_match(&ya, &yb, &a, &b);
                }
                assert_eq!(a.packed_calls(), 3, "rows {rows} cols {cols}: packed must engage");
                assert_eq!(a.packed_state(), PackedState::Ready);
            }
        }
    }

    #[test]
    fn packed_kernel_fully_masked_column_matches_reference() {
        // A column whose every effective weight is zero (e.g. all its
        // cells defect-balanced) contributes no popcount words at all;
        // its accumulation must still be exactly +0.0 with the margin
        // and ADC stages applied, like the scalar kernels do.
        let mut r = rng();
        let (rows, cols) = (70, 4);
        let w: Vec<f32> =
            (0..rows * cols).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let (mut a, mut b) = noiseless_twins(&w, rows, cols, 23);
        for xbar in [&mut a, &mut b] {
            // Zero out column 1 positionally (apply_drift walks eff in
            // row-major physical order).
            let mut i = 0usize;
            xbar.apply_drift(|w| {
                let zero = i % cols == 1;
                i += 1;
                if zero { 0.0 } else { w }
            });
        }
        let x: Vec<f32> = (0..rows).map(|i| if i % 3 == 0 { -1.0 } else { 1.0 }).collect();
        let ya = a.matvec(&x, &mut r);
        let yb = b.matvec(&x, &mut r);
        assert_outputs_and_state_match(&ya, &yb, &a, &b);
        assert_eq!(ya[1].to_bits(), 0.0f64.to_bits(), "masked column reads exactly +0.0");
        assert_eq!(a.packed_calls(), 1, "all-ternary tile must engage the packed path");
    }

    #[test]
    fn packed_kernel_zero_enabled_rows_matches_reference() {
        // Every word line gated off: no cell reads, but the sense
        // amplifiers still evaluate each column to +0.0 and the margin
        // window still advances — identically in both kernels.
        let mut r = rng();
        let (rows, cols) = (65, 3);
        let w = vec![1.0f32; rows * cols];
        let (mut a, mut b) = noiseless_twins(&w, rows, cols, 31);
        for xbar in [&mut a, &mut b] {
            for row in 0..rows {
                xbar.set_row_enabled(row, false);
            }
        }
        let x = vec![1.0f32; rows];
        let ya = a.matvec(&x, &mut r);
        let yb = b.matvec(&x, &mut r);
        assert_outputs_and_state_match(&ya, &yb, &a, &b);
        assert!(ya.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
        assert_eq!(a.counter().cell_reads - b.counter().cell_reads, 0);
        assert_eq!(a.packed_calls(), 1);
    }

    #[test]
    fn packed_plane_invalidation_tracks_every_mutation_site() {
        // The plane must go Stale at every weight-mutation site —
        // substitute_column, apply_remap, scrub, apply_drift — and the
        // next evaluation must rebuild it against the *new* weights.
        let mut ra = rng();
        let mut rb = rng();
        let (rows, cols) = (66, 4);
        let w: Vec<f32> =
            (0..rows * cols).map(|i| if (i * 3) % 7 < 4 { 1.0 } else { -1.0 }).collect();
        let mut a = Crossbar::program_with_spares(&w, rows, cols, 2, &ideal(), &mut ra);
        let mut b = Crossbar::program_with_spares(&w, rows, cols, 2, &ideal(), &mut rb);
        b.set_kernel_policy(KernelPolicy::Reference);
        let x: Vec<f32> = (0..rows).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert_eq!(a.packed_state(), PackedState::Stale, "no plane before first evaluation");

        let check = |a: &mut Crossbar, b: &mut Crossbar, ra: &mut StdRng, rb: &mut StdRng| {
            let ya = a.matvec(&x, ra);
            let yb = b.matvec(&x, rb);
            assert_outputs_and_state_match(&ya, &yb, a, b);
        };
        check(&mut a, &mut b, &mut ra, &mut rb);
        assert_eq!(a.packed_state(), PackedState::Ready);

        // Redundancy repair rewires a physical column.
        a.substitute_column(2, 0);
        b.substitute_column(2, 0);
        assert_eq!(a.packed_state(), PackedState::Stale, "substitute_column must invalidate");
        check(&mut a, &mut b, &mut ra, &mut rb);
        assert_eq!(a.packed_state(), PackedState::Ready);

        // Remapping reprograms the array into new physical homes.
        let row_map: Vec<usize> = (0..rows).map(|i| (i + 17) % rows).collect();
        let col_map: Vec<usize> = (0..cols).map(|i| (i + 1) % cols).collect();
        a.apply_remap(row_map.clone(), col_map.clone());
        b.apply_remap(row_map, col_map);
        assert_eq!(a.packed_state(), PackedState::Stale, "apply_remap must invalidate");
        check(&mut a, &mut b, &mut ra, &mut rb);

        // A scrub rewrites the golden contents.
        let cfg = neuspin_device::AgingConfig { seed: 5, ..neuspin_device::AgingConfig::default() };
        a.enable_aging(&cfg);
        b.enable_aging(&cfg);
        a.scrub();
        b.scrub();
        assert_eq!(a.packed_state(), PackedState::Stale, "scrub must invalidate");
        check(&mut a, &mut b, &mut ra, &mut rb);

        // In-field drift makes the weights non-ternary: the rebuild
        // must classify the tile unsupported and fall back to the
        // scalar kernel — still bit-identical to the oracle.
        a.apply_drift(|w| w * 0.5);
        b.apply_drift(|w| w * 0.5);
        assert_eq!(a.packed_state(), PackedState::Stale, "apply_drift must invalidate");
        let engaged_before = a.packed_calls();
        check(&mut a, &mut b, &mut ra, &mut rb);
        assert_eq!(a.packed_state(), PackedState::Unsupported);
        assert_eq!(a.packed_calls(), engaged_before, "drifted tile must not engage");
    }

    #[test]
    fn aging_flips_decay_contents_and_scrub_restores() {
        let mut r = rng();
        let w: Vec<f32> = (0..128).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let mut xbar = Crossbar::program(&w, 16, 8, &ideal(), &mut r);
        // Δ = 31 at 300 K: λ ≈ 0.5 over 4 h → ~40 % of cells flip.
        xbar.enable_aging(&neuspin_device::AgingConfig {
            seed: 7,
            thermal_stability: 31.0,
            ..neuspin_device::AgingConfig::default()
        });
        let report = xbar.advance_time(4.0);
        assert!(report.retention_flips > 20, "flips: {}", report.retention_flips);
        let decayed_signs = xbar
            .stored_logical_signs()
            .iter()
            .zip(&w)
            .filter(|(a, b)| a != b)
            .count();
        assert!(decayed_signs > 0, "stored contents must decay");
        let writes_before = xbar.counter().cell_writes;
        let decayed = xbar.scrub();
        assert_eq!(decayed, decayed_signs, "scrub reports the decayed cells");
        assert_eq!(xbar.stored_logical_signs(), w, "scrub restores golden contents");
        assert_eq!(
            xbar.counter().cell_writes - writes_before,
            (16 * 8 * 2) as u64,
            "one scrub pass costs a full reprogram"
        );
    }

    #[test]
    fn aging_drift_attenuates_weights_and_scrub_resets() {
        let mut r = rng();
        let w = vec![1.0f32; 64];
        let mut xbar = Crossbar::program(&w, 8, 8, &ideal(), &mut r);
        xbar.enable_aging(&neuspin_device::AgingConfig {
            seed: 3,
            drift_rate: 0.2,
            ..neuspin_device::AgingConfig::default()
        });
        xbar.advance_time(2.0);
        let expected = (-0.2f64 * 2.0).exp();
        let eff = xbar.effective_weight(4, 4);
        assert!((eff - expected).abs() < 1e-9, "eff {eff} vs decay {expected}");
        xbar.scrub();
        assert!((xbar.effective_weight(4, 4) - 1.0).abs() < 1e-9, "scrub resets drift");
    }

    #[test]
    fn endurance_wear_converts_cells_to_stuck_defects() {
        let mut r = rng();
        let w = vec![1.0f32; 64];
        let mut xbar = Crossbar::program(&w, 8, 8, &ideal(), &mut r);
        // Median lifetime of 1.5 write cycles: the two reprograms below
        // push nearly every cell past its budget.
        xbar.enable_aging(&neuspin_device::AgingConfig {
            seed: 11,
            endurance_median: 1.5,
            endurance_sigma: 0.1,
            ..neuspin_device::AgingConfig::default()
        });
        xbar.reprogram(&w);
        xbar.reprogram(&w);
        let report = xbar.advance_time(1.0);
        assert!(report.wear_outs > 50, "wear-outs: {}", report.wear_outs);
        assert_eq!(xbar.defects().defect_count(), report.wear_outs);
        assert!(xbar
            .defects()
            .iter()
            .all(|(_, k)| k == DefectKind::StuckParallel || k == DefectKind::StuckAntiParallel));
        // Worn cells are frozen: no further wear or flips from them.
        let again = xbar.advance_time(1.0);
        assert_eq!(again.wear_outs + report.wear_outs, xbar.defects().defect_count());
    }

    #[test]
    fn read_disturb_rides_the_op_counters() {
        let mut r = rng();
        let w = vec![1.0f32; 64];
        let config = neuspin_device::AgingConfig {
            seed: 5,
            read_disturb: 1e-3,
            ..neuspin_device::AgingConfig::default()
        };
        let mut idle = Crossbar::program(&w, 8, 8, &ideal(), &mut r);
        let mut busy = idle.clone();
        idle.enable_aging(&config);
        busy.enable_aging(&config);
        let mut rr = StdRng::seed_from_u64(88);
        for _ in 0..500 {
            let _ = busy.matvec(&[1.0; 8], &mut rr);
        }
        let quiet = idle.advance_time(1.0).disturb_flips;
        let disturbed = busy.advance_time(1.0).disturb_flips;
        assert_eq!(quiet, 0, "no reads, no disturb");
        assert!(disturbed > 10, "500 reads/cell at 1e-3: {disturbed}");
    }

    #[test]
    fn aging_trajectories_are_reproducible() {
        let mut r = rng();
        let w: Vec<f32> = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let config = neuspin_device::AgingConfig {
            seed: 9,
            thermal_stability: 32.0,
            drift_rate: 0.05,
            drift_sigma: 0.1,
            ..neuspin_device::AgingConfig::default()
        };
        let mut a = Crossbar::program(&w, 8, 8, &ideal(), &mut r);
        let mut b = a.clone();
        a.enable_aging(&config);
        b.enable_aging(&config);
        for _ in 0..3 {
            let ra = a.advance_time(2.0);
            let rb = b.advance_time(2.0);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.stored_logical_signs(), b.stored_logical_signs());
        for i in 0..8 {
            assert_eq!(
                a.effective_weight(i, i).to_bits(),
                b.effective_weight(i, i).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires enable_aging")]
    fn advance_time_requires_enable() {
        let mut r = rng();
        let mut xbar = Crossbar::program(&[1.0; 4], 2, 2, &ideal(), &mut r);
        let _ = xbar.advance_time(1.0);
    }

    #[test]
    #[should_panic(expected = "requires enable_aging")]
    fn scrub_requires_enable() {
        let mut r = rng();
        let mut xbar = Crossbar::program(&[1.0; 4], 2, 2, &ideal(), &mut r);
        let _ = xbar.scrub();
    }

    #[test]
    fn state_round_trip_onto_twin_is_bit_identical() {
        // The full lifecycle: defective fabrication with spares, aging,
        // a repair that physically swaps cells, a remap, a scrub, and a
        // chaos flip — then export, import onto a constructor twin, and
        // prove evaluation *and* further aging stay bit-identical.
        let w: Vec<f32> =
            (0..16 * 6).map(|i| if (i * 7) % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let config = CrossbarConfig {
            defect_rates: DefectRates::uniform(0.02),
            read_noise: 0.03,
            adc_bits: Some(6),
            ir_drop: 0.05,
            ..CrossbarConfig::default()
        };
        let aging_cfg = neuspin_device::AgingConfig {
            seed: 13,
            thermal_stability: 33.0,
            drift_rate: 0.02,
            ..neuspin_device::AgingConfig::default()
        };
        let mut ra = StdRng::seed_from_u64(909);
        let mut a = Crossbar::program_with_spares(&w, 16, 6, 2, &config, &mut ra);
        a.enable_aging(&aging_cfg);
        let mut drive = StdRng::seed_from_u64(5);
        let _ = a.advance_time(2.0);
        a.substitute_column(1, 0);
        a.apply_remap((0..16).map(|i| (i + 3) % 16).collect(), vec![2, 0, 1, 4, 3, 5]);
        let _ = a.scrub();
        let _ = a.advance_time(1.5);
        a.set_row_enabled(4, false);
        a.flip_stored_sign(2, 3);
        let _ = a.matvec(&[1.0; 16], &mut drive);

        // The twin replays fabrication (same constructor, same seed) and
        // aging attachment, then receives the state.
        let mut rb = StdRng::seed_from_u64(909);
        let mut b = Crossbar::program_with_spares(&w, 16, 6, 2, &config, &mut rb);
        b.enable_aging(&aging_cfg);
        let state = a.export_state();
        b.import_state(&state).unwrap();
        assert_eq!(b.export_state(), state, "re-export must reproduce the state");
        assert_eq!(a.defects(), b.defects());
        assert_eq!(a.remap(), b.remap());
        assert_eq!(a.enabled_rows(), b.enabled_rows());

        // Continued operation diverges nowhere: evaluation, margins,
        // tallies, and the aging event streams all line up.
        let mut da = StdRng::seed_from_u64(33);
        let mut db = StdRng::seed_from_u64(33);
        for trial in 0..4 {
            let x: Vec<f32> = (0..16).map(|i| ((i * (trial + 2)) % 5) as f32 - 2.0).collect();
            let ya = a.matvec(&x, &mut da);
            let yb = b.matvec(&x, &mut db);
            for (j, (va, vb)) in ya.iter().zip(&yb).enumerate() {
                assert_eq!(va.to_bits(), vb.to_bits(), "col {j} trial {trial}");
            }
        }
        assert_eq!(a.advance_time(2.0), b.advance_time(2.0), "aging streams must resume");
        assert_eq!(a.scrub(), b.scrub());
        assert_eq!(a.counter(), b.counter());
        let ((sa, ca), (sb, cb)) = (a.sense_margin_parts(), b.sense_margin_parts());
        assert_eq!(sa.to_bits(), sb.to_bits());
        assert_eq!(ca, cb);
    }

    #[test]
    fn mlc_state_round_trip_onto_twin_is_bit_identical() {
        let w: Vec<f32> = (0..8 * 5).map(|i| ((i * 5) % 7) as f32 / 3.5 - 1.0).collect();
        let config = CrossbarConfig { read_noise: 0.02, adc_bits: Some(6), ..ideal() };
        let mut ra = StdRng::seed_from_u64(111);
        let mut rb = StdRng::seed_from_u64(111);
        let mut a = MlcCrossbar::program(&w, 8, 5, 4, 1.0, &config, &mut ra);
        let mut b = MlcCrossbar::program(&w, 8, 5, 4, 1.0, &config, &mut rb);
        let mut drive = StdRng::seed_from_u64(6);
        a.set_row_enabled(2, false);
        a.apply_drift(|w| w * 0.97);
        let _ = a.matvec(&[0.5; 8], &mut drive);
        b.import_state(&a.export_state()).unwrap();
        let mut da = StdRng::seed_from_u64(44);
        let mut db = StdRng::seed_from_u64(44);
        let ya = a.matvec(&[0.25; 8], &mut da);
        let yb = b.matvec(&[0.25; 8], &mut db);
        for (va, vb) in ya.iter().zip(&yb) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
        assert_eq!(a.counter(), b.counter());
    }

    #[test]
    fn flip_stored_sign_inverts_weight_and_scrub_heals() {
        let mut r = rng();
        let w = vec![1.0f32; 16]; // 4×4
        let mut xbar = Crossbar::program(&w, 4, 4, &ideal(), &mut r);
        xbar.enable_aging(&neuspin_device::AgingConfig::default());
        assert!(xbar.flip_stored_sign(1, 2));
        assert!((xbar.effective_weight(1, 2) + 1.0).abs() < 1e-9, "sign inverted");
        assert_eq!(xbar.scrub(), 1, "scrub sees exactly the flipped cell");
        assert!((xbar.effective_weight(1, 2) - 1.0).abs() < 1e-9, "scrub heals the upset");
        // A defective cell absorbs the hit.
        let mut bad = Crossbar::program(&w, 4, 4, &ideal(), &mut r);
        bad.cells[5].inject_plus_defect(DefectKind::Open);
        bad.cells[5].inject_minus_defect(DefectKind::Open);
        assert!(!bad.flip_stored_sign(1, 1));
    }

    #[test]
    fn import_state_rejects_wrong_geometry() {
        let mut r = rng();
        let a = Crossbar::program(&[1.0; 4], 2, 2, &ideal(), &mut r);
        let mut b = Crossbar::program(&[1.0; 9], 3, 3, &ideal(), &mut r);
        let before = b.export_state();
        let err = b.import_state(&a.export_state()).unwrap_err();
        assert!(err.contains("cell state population mismatch"), "{err}");
        assert_eq!(b.export_state(), before, "a refused state must not be applied");
    }

    /// `DefectMap` holds one entry per cell in (row, col) order: a list
    /// it would silently reorder or merge must be refused, not come
    /// back changed from `export_state`.
    #[test]
    fn import_state_rejects_a_defect_list_it_would_normalize() {
        let mut r = rng();
        let w = vec![1.0f32; 16];
        let config = CrossbarConfig { defect_rates: DefectRates::uniform(0.1), ..ideal() };
        let mut b = Crossbar::program(&w, 4, 4, &config, &mut r);
        let state = b.export_state();
        assert!(state.defects.len() >= 2, "the corner must place two defects");
        let mut repeated = state.clone();
        repeated.defects.push(*state.defects.last().unwrap());
        let mut reordered = state.clone();
        reordered.defects.swap(0, 1);
        let mut outside = state.clone();
        outside.defects.push((3, 4, DefectKind::Open));
        for (label, s) in [("repeated", repeated), ("reordered", reordered), ("outside", outside)] {
            let err = b.import_state(&s).unwrap_err();
            assert!(err.contains("defect list"), "{label}: {err}");
            assert_eq!(b.export_state(), state, "{label}: a refused state must not be applied");
        }
        b.import_state(&state).unwrap();
        assert_eq!(b.export_state(), state);
    }

    #[test]
    fn sense_margin_tracks_column_magnitude() {
        let mut r = rng();
        let w = vec![1.0f32; 8]; // 4×2
        let mut xbar = Crossbar::program(&w, 4, 2, &ideal(), &mut r);
        assert_eq!(xbar.mean_sense_margin(), 0.0);
        let _ = xbar.matvec(&[1.0; 4], &mut r);
        assert!((xbar.mean_sense_margin() - 4.0).abs() < 1e-9);
        xbar.reset_sense_margin();
        assert_eq!(xbar.mean_sense_margin(), 0.0);
        let _ = xbar.matvec(&[0.5; 4], &mut r);
        assert!((xbar.mean_sense_margin() - 2.0).abs() < 1e-9);
    }

    /// Every instruction level this CPU supports, baseline first.
    fn host_levels() -> Vec<Isa> {
        let mut levels = vec![Isa::Baseline];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if wide::has_avx2() {
                levels.push(Isa::Avx2);
            }
            if wide::has_avx512() {
                levels.push(Isa::Avx512);
            }
        }
        levels
    }

    /// Column counts around every strip width (8, 16, 32) and row
    /// counts around the 64-bit packing word.
    const LEVEL_COLS: [usize; 12] = [1, 7, 8, 15, 16, 17, 31, 32, 33, 48, 64, 65];
    const LEVEL_ROWS: [usize; 5] = [1, 9, 64, 65, 130];

    /// Runs `inputs` through the seed kernel on a twin of `xbar`, then
    /// through a twin at every level this CPU supports, asserting equal
    /// output bits, op tallies, sense margins and RNG positions. Each
    /// twin starts from `r`; the level twins come back, baseline first.
    fn assert_levels_match_oracle(
        xbar: &Crossbar,
        r: &StdRng,
        inputs: &[f32],
        n: usize,
        label: &str,
    ) -> Vec<Crossbar> {
        let (rows, cols) = (xbar.rows(), xbar.cols());
        // The whole batch, then its first element alone: the batch and
        // the n = 1 paths on warm scratch.
        let run = |level: Option<Isa>| {
            let (mut x, mut rng) = (xbar.clone(), r.clone());
            let mut y = vec![f64::NAN; n * cols];
            match level {
                Some(level) => {
                    x.matmul_into_at(level, inputs, n, &mut y, &mut rng);
                    x.matmul_into_at(level, &inputs[..rows], 1, &mut y[..cols], &mut rng);
                }
                None => {
                    x.set_kernel_policy(KernelPolicy::Reference);
                    x.matmul_into(inputs, n, &mut y, &mut rng);
                    x.matmul_into(&inputs[..rows], 1, &mut y[..cols], &mut rng);
                }
            }
            (x, rng, y)
        };
        let (b, mut rb, yb) = run(None);
        let next_b = stats::standard_normal(&mut rb).to_bits();
        let (sb, cb) = b.sense_margin_parts();
        let mut twins = Vec::new();
        for level in host_levels() {
            let (a, mut ra, ya) = run(Some(level));
            for (i, (va, vb)) in ya.iter().zip(&yb).enumerate() {
                assert_eq!(va.to_bits(), vb.to_bits(), "{label} {level:?}: element {i}: {va} vs {vb}");
            }
            assert_eq!(a.counter(), b.counter(), "{label} {level:?}: op tallies diverged");
            let (sa, ca) = a.sense_margin_parts();
            assert_eq!(sa.to_bits(), sb.to_bits(), "{label} {level:?}: margin sum {sa} vs {sb}");
            assert_eq!(ca, cb, "{label} {level:?}: margin count");
            assert_eq!(
                stats::standard_normal(&mut ra).to_bits(),
                next_b,
                "{label} {level:?}: RNG position diverged"
            );
            twins.push(a);
        }
        twins
    }

    #[test]
    fn row_major_kernel_matches_oracle_at_every_level() {
        // Five corners per shape: the full analog mix (defects, read
        // noise, IR drop, 6-bit ADC, remaps, gated rows); a 2-bit ADC
        // driven past its rails; every word line gated off; every third
        // evaluation all zero (zero-power columns draw no noise); ±inf
        // and NaN on live lines. Batch sizes straddle the read-out
        // block: 1, 2, per − 1, per, per + 1 and 2·per + 1 evaluations,
        // where per = READOUT_BLOCK / cols (at least 7 at these widths).
        let mut saturations = 0u64;
        for rows in LEVEL_ROWS {
            for cols in LEVEL_COLS {
                let per = READOUT_BLOCK / cols;
                let sizes = [1, 2, per - 1, per, per + 1, 2 * per + 1];
                for corner in 0..5u64 {
                    let seed = 0x15A0_0000 + ((rows as u64) << 16) + ((cols as u64) << 4) + corner;
                    let label = format!("seed {seed:#x} rows {rows} cols {cols} corner {corner}");
                    let config = CrossbarConfig {
                        defect_rates: DefectRates::uniform(0.02),
                        read_noise: 0.05,
                        adc_bits: Some(if corner == 1 { 2 } else { 6 }),
                        ir_drop: if corner == 1 { 0.0 } else { 0.07 },
                        ..CrossbarConfig::default()
                    };
                    let mut r = StdRng::seed_from_u64(seed);
                    let w: Vec<f32> = (0..rows * cols)
                        .map(|_| if r.random::<bool>() { 1.0 } else { -1.0 })
                        .collect();
                    let mut xbar = Crossbar::program(&w, rows, cols, &config, &mut r);
                    match corner {
                        0 => {
                            xbar.apply_remap(
                                (0..rows).map(|i| (i + 5) % rows).collect(),
                                (0..cols).map(|i| (i + 3) % cols).collect(),
                            );
                            for row in (1..rows).step_by(3) {
                                xbar.set_row_enabled(row, false);
                            }
                        }
                        2 => (0..rows).for_each(|row| xbar.set_row_enabled(row, false)),
                        _ => {}
                    }
                    // Corner 1 drives ±3 inputs, so columns overshoot the
                    // ±rows full scale.
                    let scale = if corner == 1 { 3.0 } else { 1.0 };
                    let n_max = 2 * per + 1;
                    let mut inputs: Vec<f32> =
                        (0..n_max * rows).map(|_| (r.random::<f32>() * 2.0 - 1.0) * scale).collect();
                    for (e, x) in inputs.chunks_exact_mut(rows).enumerate() {
                        match corner {
                            3 if e % 3 == 1 => x.fill(0.0),
                            4 => x[e % rows] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][e % 3],
                            _ => {}
                        }
                    }
                    let mut block_bytes = Vec::new();
                    for &n in &sizes {
                        let label = format!("{label} n {n}");
                        let twins = assert_levels_match_oracle(&xbar, &r, &inputs[..n * rows], n, &label);
                        if corner == 1 {
                            saturations += twins.iter().map(|a| a.counter().adc_saturations).sum::<u64>();
                        }
                        // Scratch stops growing at one block.
                        let bytes: Vec<usize> = twins.iter().map(Crossbar::scratch_bytes).collect();
                        if n == per {
                            block_bytes = bytes;
                        } else if n == 2 * per + 1 {
                            assert_eq!(bytes, block_bytes, "{label}: scratch bytes per level");
                        }
                    }
                }
            }
        }
        assert!(saturations > 0, "the saturating corner never clipped the ADC");
    }

    #[test]
    fn packed_kernel_matches_oracle_at_every_level() {
        // Noiseless ternary tiles (stuck-at defects only), remapped and
        // gated, with and without an ADC. Each batch holds a ternary
        // input with +0.0 and -0.0 (packed), one with 0.5 and one with
        // NaN on a live line (row-major fallback), and one whose 0.5 and
        // NaN sit only on gated lines (packed).
        for rows in LEVEL_ROWS {
            for cols in LEVEL_COLS {
                for corner in 0..3u64 {
                    let seed = 0x9AC0_0000 + ((rows as u64) << 16) + ((cols as u64) << 4) + corner;
                    let label = format!("seed {seed:#x} rows {rows} cols {cols} corner {corner}");
                    let config = CrossbarConfig {
                        defect_rates: DefectRates {
                            stuck_parallel: 0.02,
                            stuck_antiparallel: 0.02,
                            ..DefectRates::none()
                        },
                        adc_bits: if corner == 1 { None } else { Some(5) },
                        ..CrossbarConfig::ideal()
                    };
                    let mut r = StdRng::seed_from_u64(seed);
                    let w: Vec<f32> = (0..rows * cols)
                        .map(|_| if r.random::<bool>() { 1.0 } else { -1.0 })
                        .collect();
                    let mut xbar = Crossbar::program(&w, rows, cols, &config, &mut r);
                    xbar.apply_remap(
                        (0..rows).map(|i| (i + 7) % rows).collect(),
                        (0..cols).map(|i| (i + 5) % cols).collect(),
                    );
                    (0..rows).filter(|&row| row % 2 == 0 || corner == 2).for_each(|row| {
                        xbar.set_row_enabled(row, false);
                    });
                    let ternary = [1.0f32, -1.0, 0.0, -0.0];
                    let mut inputs: Vec<f32> = Vec::new();
                    for element in 0..4 {
                        let mut x: Vec<f32> =
                            (0..rows).map(|_| ternary[r.random_range(0..4usize)]).collect();
                        match element {
                            // Line 1 is live unless every line is gated
                            // (corner 2, or a single gated line 0).
                            1 => x[rows.min(2) - 1] = 0.5,
                            2 => x[rows.min(2) - 1] = f32::NAN,
                            // Line 0 and the last even line are gated
                            // in every corner.
                            3 => {
                                x[0] = 0.5;
                                x[rows - 1 - (rows - 1) % 2] = f32::NAN;
                            }
                            _ => {}
                        }
                        inputs.extend(x);
                    }
                    let live_odd = corner != 2 && rows > 1;
                    let packed = if live_odd { 2 } else { 4 } + 1; // + the n = 1 repeat
                    for a in assert_levels_match_oracle(&xbar, &r, &inputs, 4, &label) {
                        assert_eq!(a.packed_calls(), packed, "{label}: packed calls");
                    }
                }
            }
        }
    }
}
