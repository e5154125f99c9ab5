//! Bit-packed XNOR/popcount planes for the noiseless binary fast path.
//!
//! The SpinDrop stack is binary end-to-end: ±1 weights in differential
//! XNOR bit-cells, ±1 activations on the word lines. On an ideal
//! (noiseless, drift-free) tile every effective cell weight is exactly
//! `-1.0`, `0.0`, or `+1.0`, and a column's analog accumulation over
//! enabled rows is a small *integer* — representable exactly in `f64`
//! regardless of summation order. That licenses the classic XNOR-net
//! kernel: pack weight signs and input signs into `u64` lanes and
//! compute each column as
//!
//! ```text
//! acc = active − 2 · Σ_k popcount((w_sign_k ^ x_sign_k) & w_mask_k & x_act_k)
//! ```
//!
//! where `active = Σ_k popcount(w_mask_k & x_act_k)` counts the cells
//! that contribute a ±1 term at all. The result is bit-identical to the
//! scalar kernels' ascending-row floating-point accumulation, so the
//! packed path feeds the shared column read-out (margin, ADC) and op
//! tally unchanged (see `Crossbar::matvec_packed`).
//!
//! A [`PackedPlane`] is one crossbar's packed view of its effective
//! weights in *physical* coordinates, rebuilt lazily whenever the
//! weights change (programming, repair, remap, aging). Three parallel
//! bitmaps per column word:
//!
//! * `sign` — 1 where the effective weight is `-1.0`;
//! * `mask` — 1 where the effective weight is `±1.0` (defect-zeroed and
//!   empty cells drop out of the popcount entirely);
//! * `x_act`/`x_sign` — the per-call input bitmaps, packed through the
//!   row remap and word-line gating so bit `p` of word `k` holds the
//!   logical input driving physical row `64·k + p`.
//!
//! [`PackedPlane::pack_input`] gathers each 64-row word into a stack
//! buffer (0 on gated lines) and builds both bitmaps from branch-free
//! compares, which the wide kernel levels vectorise. A column's sum is
//! an integer in `-rows..=rows`, so its ADC code is a lookup into
//! `codes`, filled from the array's own `Adc::quantize` when the plane
//! is built.
//!
//! Columns holding a *non-ternary* effective weight (short/open defects,
//! analog drift) cannot be packed; they are listed in `col_packed` and
//! fall back to the reference-order scalar walk inside the packed
//! kernel. A tile where more than a quarter of the columns are
//! unpackable reports as unsupported via [`PackedPlane::build`]
//! returning `None` — the crossbar then stays on the scalar kernel.

use crate::adc::Adc;

/// Bit-packed image of a crossbar's effective weights plus the per-call
/// input bitmaps (physical coordinates, column-major words).
#[derive(Debug, Clone)]
pub(crate) struct PackedPlane {
    /// `u64` words per column: `ceil(rows / 64)`.
    words: usize,
    /// Weight-sign bitmap, `cols × words`, column-major: bit `p % 64` of
    /// `sign[j * words + p / 64]` is 1 iff `eff[p][j] == -1.0`.
    sign: Vec<u64>,
    /// Ternary-validity bitmap, same layout: 1 iff `eff[p][j] == ±1.0`.
    mask: Vec<u64>,
    /// Per-column packability: `false` where the column holds an
    /// effective weight outside `{-1, 0, +1}` and must take the scalar
    /// fallback walk.
    col_packed: Vec<bool>,
    /// Input activity bitmap for the current call (bit = row enabled and
    /// input nonzero).
    x_act: Vec<u64>,
    /// Input sign bitmap for the current call (bit = input is `-1.0`).
    x_sign: Vec<u64>,
    /// The quantise table: `codes[rows + s]` is the ADC's code for the
    /// exact column sum `s ∈ -rows..=rows`; empty for an ideal read-out.
    codes: Vec<f64>,
}

impl PackedPlane {
    /// Packs the row-major effective-weight matrix into sign/mask
    /// bitmaps and quantises every possible column sum through `adc`.
    /// Returns `None` when more than a quarter of the columns hold
    /// non-ternary weights (variation corners, drifted tiles) — the
    /// packed kernel would then mostly run its scalar fallback, so the
    /// tile is better served by the scalar kernel outright.
    pub(crate) fn build(eff: &[f64], rows: usize, cols: usize, adc: Option<&Adc>) -> Option<Self> {
        debug_assert_eq!(eff.len(), rows * cols);
        let words = rows.div_ceil(64);
        let mut sign = vec![0u64; cols * words];
        let mut mask = vec![0u64; cols * words];
        let mut col_packed = vec![true; cols];
        for (p, row) in eff.chunks_exact(cols).enumerate() {
            let word = p / 64;
            let bit = 1u64 << (p % 64);
            for (j, &w) in row.iter().enumerate() {
                if !col_packed[j] {
                    continue;
                }
                if w == 1.0 {
                    mask[j * words + word] |= bit;
                } else if w == -1.0 {
                    mask[j * words + word] |= bit;
                    sign[j * words + word] |= bit;
                } else if w != 0.0 {
                    // Short/open defect or analog drift: this column
                    // stays scalar. (Its partially packed words are
                    // never read.)
                    col_packed[j] = false;
                }
            }
        }
        let scalar_cols = col_packed.iter().filter(|&&ok| !ok).count();
        if scalar_cols * 4 > cols {
            return None;
        }
        let span = rows as i64;
        let codes = adc.map_or(Vec::new(), |adc| {
            (-span..=span).map(|sum| adc.quantize(sum as f64)).collect()
        });
        Some(Self {
            words,
            sign,
            mask,
            col_packed,
            x_act: vec![0; words],
            x_sign: vec![0; words],
            codes,
        })
    }

    /// Packs one input vector into the activity/sign bitmaps, routing
    /// each physical row `p` to its logical source line and applying
    /// the word-line gating. Returns `false` — leaving the caller to
    /// fall back to the scalar kernel — if any *enabled* input is not
    /// exactly `-1.0`, `0.0`, or `+1.0` (NaN included): only ternary
    /// inputs keep the popcount identity exact. `-0.0` is inactive, an
    /// exact no-op in the scalar kernels too.
    #[inline(always)]
    pub(crate) fn pack_input(
        &mut self,
        input: &[f32],
        row_src: Option<&[usize]>,
        row_enabled: &[bool],
    ) -> bool {
        for (k, (act, sign)) in self.x_act.iter_mut().zip(self.x_sign.iter_mut()).enumerate() {
            // Gather the word's rows in physical order, 0 on gated lines.
            let base = 64 * k;
            let len = (input.len() - base).min(64);
            let mut word = [0.0f32; 64];
            match row_src {
                None => {
                    let (x, on) = (&input[base..base + len], &row_enabled[base..base + len]);
                    for ((w, &x), &on) in word.iter_mut().zip(x).zip(on) {
                        *w = if on { x } else { 0.0 };
                    }
                }
                Some(map) => {
                    for (w, &l) in word.iter_mut().zip(&map[base..base + len]) {
                        *w = if row_enabled[l] { input[l] } else { 0.0 };
                    }
                }
            }
            let (mut a, mut s, mut odd) = (0u64, 0u64, 0u64);
            for (bit, &x) in word.iter().enumerate() {
                let (plus, minus) = (x == 1.0, x == -1.0);
                a |= u64::from(plus | minus) << bit;
                s |= u64::from(minus) << bit;
                odd |= u64::from(!(plus | minus | (x == 0.0))) << bit;
            }
            if odd != 0 {
                return false;
            }
            *act = a;
            *sign = s;
        }
        true
    }

    /// Whether column `j` (physical) is packable; unpackable columns
    /// take the scalar fallback walk inside the packed kernel.
    pub(crate) fn col_is_packed(&self, j: usize) -> bool {
        self.col_packed[j]
    }

    /// The quantise table (see [`PackedPlane::build`]): the code of
    /// column sum `s` sits at `codes[codes.len() / 2 + s]`.
    pub(crate) fn codes(&self) -> &[f64] {
        &self.codes
    }

    /// The noiseless accumulation of physical column `j` against the
    /// bitmaps packed by the last [`PackedPlane::pack_input`]: an exact
    /// small integer in `-rows..=rows`.
    #[inline(always)]
    pub(crate) fn column_sum(&self, j: usize) -> i64 {
        let sign = &self.sign[j * self.words..(j + 1) * self.words];
        let mask = &self.mask[j * self.words..(j + 1) * self.words];
        let mut active: u64 = 0;
        let mut negative: u64 = 0;
        for (((&s, &m), &xa), &xs) in
            sign.iter().zip(mask).zip(&self.x_act).zip(&self.x_sign)
        {
            let live = m & xa;
            active += u64::from(live.count_ones());
            negative += u64::from(((s ^ xs) & live).count_ones());
        }
        active as i64 - 2 * negative as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_packs_ternary_weights_and_flags_analog_columns() {
        // 3 columns: ternary, ternary-with-zero, analog (short-like).
        let eff = vec![
            1.0, -1.0, 49.3, //
            -1.0, 0.0, 1.0, //
            1.0, 1.0, -1.0,
        ];
        let plane = PackedPlane::build(&eff, 3, 3, None);
        // 1 of 3 columns unpackable → 4·1 > 3 → unsupported.
        assert!(plane.is_none());

        let eff = vec![
            1.0, -1.0, 49.3, 1.0, 1.0, //
            -1.0, 0.0, 1.0, -1.0, 1.0, //
            1.0, 1.0, -1.0, 1.0, -1.0,
        ];
        let plane = PackedPlane::build(&eff, 3, 5, None).expect("1 of 5 scalar is supported");
        assert!(plane.col_is_packed(0));
        assert!(plane.col_is_packed(1));
        assert!(!plane.col_is_packed(2));
        assert_eq!(plane.words, 1);
        // Column 0: rows {+1, -1, +1} → mask 0b111, sign 0b010.
        assert_eq!(plane.mask[0], 0b111);
        assert_eq!(plane.sign[0], 0b010);
        // Column 1: rows {-1, 0, +1} → mask 0b101, sign 0b001.
        assert_eq!(plane.mask[1], 0b101);
        assert_eq!(plane.sign[1], 0b001);
    }

    #[test]
    fn column_sum_matches_scalar_dot_product() {
        let rows = 131; // crosses two word boundaries, non-multiple of 64
        let eff: Vec<f64> = (0..rows)
            .map(|i| match i % 3 {
                0 => 1.0,
                1 => -1.0,
                _ => 0.0,
            })
            .collect();
        let mut plane = PackedPlane::build(&eff, rows, 1, None).unwrap();
        let input: Vec<f32> =
            (0..rows).map(|i| [1.0f32, -1.0, 0.0, 1.0, -1.0][i % 5]).collect();
        let mut enabled = vec![true; rows];
        enabled[7] = false;
        enabled[64] = false;
        assert!(plane.pack_input(&input, None, &enabled));
        let expect: f64 = (0..rows)
            .filter(|&i| enabled[i])
            .map(|i| input[i] as f64 * eff[i])
            .sum();
        assert_eq!((plane.column_sum(0) as f64).to_bits(), expect.to_bits());
    }

    #[test]
    fn pack_input_rejects_non_ternary_and_nan_inputs() {
        let eff = vec![1.0, -1.0];
        let mut plane = PackedPlane::build(&eff, 2, 1, None).unwrap();
        assert!(plane.pack_input(&[1.0, -1.0], None, &[true, true]));
        assert!(!plane.pack_input(&[1.0, 0.5], None, &[true, true]));
        assert!(!plane.pack_input(&[f32::NAN, 1.0], None, &[true, true]));
        // A non-ternary input on a *disabled* line is invisible.
        assert!(plane.pack_input(&[1.0, 0.5], None, &[true, false]));
        // Negative zero is an exact no-op, not a sign.
        assert!(plane.pack_input(&[-0.0, 1.0], None, &[true, true]));
        assert_eq!(plane.column_sum(0), -1);
    }

    #[test]
    fn codes_table_holds_the_adc_code_of_every_column_sum() {
        let rows = 5;
        let adc = Adc::new(3, rows as f64);
        let plane = PackedPlane::build(&vec![1.0; rows], rows, 1, Some(&adc)).unwrap();
        assert_eq!(plane.codes().len(), 2 * rows + 1);
        for (i, &code) in plane.codes().iter().enumerate() {
            let sum = i as f64 - rows as f64;
            assert_eq!(code.to_bits(), adc.quantize(sum).to_bits(), "sum {sum}");
        }
        assert!(PackedPlane::build(&[1.0], 1, 1, None).unwrap().codes().is_empty());
    }

    #[test]
    fn pack_input_routes_rows_through_remap() {
        // Physical row p carries logical line row_src[p].
        let eff = vec![1.0, -1.0, 1.0]; // 3×1
        let mut plane = PackedPlane::build(&eff, 3, 1, None).unwrap();
        let row_src = [2usize, 0, 1];
        let input = [1.0f32, -1.0, 1.0];
        assert!(plane.pack_input(&input, Some(&row_src), &[true; 3]));
        // acc = x[2]·w[0] + x[0]·w[1] + x[1]·w[2] = 1 − 1 − 1.
        assert_eq!(plane.column_sum(0), -1);
    }
}
