//! The one matrix kernel under every dense and convolutional layer.
//!
//! [`gemm`] adds `A · B` into `C`. The output is tiled into register
//! blocks of 4 rows by `V` columns; each block walks the shared
//! dimension once with its partial sums held in registers. The widest
//! strip `W` is 8, 16 or 32 floats at the baseline, AVX2 and AVX-512F
//! levels, which are compiled from the same body and picked on every
//! call ([`Isa::detect`]); narrower strips (16, 8, 4, 1) take the
//! columns left over, so a narrow output never runs a wide strip over
//! padding.
//!
//! Every level gives the bits of the seed loop (row-outer,
//! `out += a * b` over `p` ascending from `+0.0`, terms with `a == 0`
//! skipped): each element still adds its terms one at a time in
//! ascending `p`, and Rust never fuses `a * b` and `acc + t` into one
//! rounding. A skipped term and a term `±0.0 · b` agree whenever `b` is
//! finite: a round-to-nearest sum that starts at `+0.0` never holds
//! `−0.0`, so adding a signed zero changes nothing. Only a zero `a`
//! opposite an infinite or NaN `b` needs the skip, so the kernel scans
//! `B` once and masks zero-`a` terms only when `B` holds such a value.

/// The left operand: an `m × k` matrix read in place, either row-major
/// or as the transpose of a row-major block — so a layer can hand the
/// kernel an NCHW gradient plane without re-laying it out.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lhs<'a> {
    /// Element `(i, p)` at `data[i * ld + p]`.
    Rows { data: &'a [f32], ld: usize },
    /// Element `(i, p)` at `data[p * ld + i]`.
    Cols { data: &'a [f32], ld: usize },
}

impl Lhs<'_> {
    /// Panics unless every element of an `m × k` view lies in `data`.
    fn check(&self, m: usize, k: usize) {
        if m == 0 || k == 0 {
            return;
        }
        let (len, last) = match *self {
            Lhs::Rows { data, ld } => (data.len(), (m - 1) * ld + k),
            Lhs::Cols { data, ld } => (data.len(), (k - 1) * ld + m),
        };
        assert!(
            last <= len,
            "gemm lhs view [{m}×{k}] overruns its {len} elements"
        );
    }
}

/// The right operand: a row-major `k × n` matrix, scanned once for
/// infinite or NaN entries (the only case in which skipping a zero
/// left term differs from adding it). Build it once and reuse it
/// across calls that share `B`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rhs<'a> {
    data: &'a [f32],
    n: usize,
    finite: bool,
}

impl<'a> Rhs<'a> {
    /// Views `data` as `k × n` with `k = data.len() / n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not divide `data.len()`.
    pub(crate) fn new(data: &'a [f32], n: usize) -> Self {
        assert!(
            data.len().is_multiple_of(n),
            "gemm rhs of {} elements is not {n} columns wide",
            data.len()
        );
        Self {
            data,
            n,
            finite: all_finite(data),
        }
    }
}

/// `c[m × n] += a[m × k] · b[k × n]` at the widest level this CPU has.
///
/// `c` is row-major and must hold `+0.0` or earlier sums of this
/// kernel, as a zeroed buffer does: then each element continues one
/// ascending-`p` sum and the bits equal the seed loop's.
///
/// # Panics
///
/// Panics if `b` does not have `k` rows, `c` is not `m × n`, or `a`
/// does not cover `m × k`.
pub(crate) fn gemm(a: Lhs<'_>, m: usize, k: usize, b: &Rhs<'_>, c: &mut [f32]) {
    gemm_at(Isa::detect(), a, m, k, b, c);
}

/// [`gemm`] at level `isa` — or at the baseline when the CPU lacks its
/// features, so a level that did not come from detection never reaches
/// a wide instantiation.
fn gemm_at(isa: Isa, a: Lhs<'_>, m: usize, k: usize, b: &Rhs<'_>, c: &mut [f32]) {
    let n = b.n;
    assert_eq!(b.data.len(), k * n, "gemm rhs is not {k}×{n}");
    assert_eq!(c.len(), m * n, "gemm output is not {m}×{n}");
    a.check(m, k);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx512 if wide::has_avx512() => {
            // SAFETY: the guard just confirmed avx512f, the one feature
            // `gemm_avx512` enables.
            unsafe { wide::gemm_avx512(a, m, k, b, c) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 if wide::has_avx2() => {
            // SAFETY: the guard just confirmed avx2, the one feature
            // `gemm_avx2` enables.
            unsafe { wide::gemm_avx2(a, m, k, b, c) }
        }
        _ => gemm_body::<8>(a, m, k, b, c),
    }
}

/// The kernel body at strip width `W`: every `W`-column strip, then the
/// leftover columns in narrower strips, each over 4-row blocks and
/// then single rows.
#[inline(always)]
fn gemm_body<const W: usize>(a: Lhs<'_>, m: usize, k: usize, b: &Rhs<'_>, c: &mut [f32]) {
    if b.finite {
        strips::<W, false>(a, m, k, b, c);
    } else {
        strips::<W, true>(a, m, k, b, c);
    }
}

#[inline(always)]
fn strips<const W: usize, const MASK: bool>(
    a: Lhs<'_>,
    m: usize,
    k: usize,
    b: &Rhs<'_>,
    c: &mut [f32],
) {
    let mut j = strip_run::<W, MASK>(a, m, k, b, c, 0);
    if W > 16 {
        j = strip_run::<16, MASK>(a, m, k, b, c, j);
    }
    if W > 8 {
        j = strip_run::<8, MASK>(a, m, k, b, c, j);
    }
    j = strip_run::<4, MASK>(a, m, k, b, c, j);
    strip_run::<1, MASK>(a, m, k, b, c, j);
}

/// Every whole `V`-column strip from column `j`; returns the first
/// column it left.
#[inline(always)]
fn strip_run<const V: usize, const MASK: bool>(
    a: Lhs<'_>,
    m: usize,
    k: usize,
    b: &Rhs<'_>,
    c: &mut [f32],
    mut j: usize,
) -> usize {
    let n = b.n;
    while j + V <= n {
        let mut i = 0;
        while i + 4 <= m {
            block4::<V, MASK>(a, i, k, b, c, j);
            i += 4;
        }
        while i < m {
            block1::<V, MASK>(a, i, k, b, c, j);
            i += 1;
        }
        j += V;
    }
    j
}

/// The `V` columns of `B` from `j0`, one row per `p`.
#[inline(always)]
fn strip<'b, const V: usize>(b: &Rhs<'b>, j0: usize) -> impl Iterator<Item = &'b [f32; V]> {
    b.data
        .chunks_exact(b.n)
        .map(move |row| row[j0..].first_chunk::<V>().expect("strip in row"))
}

/// The `4 × V` block of `c` at `(i0, j0)`: four named row accumulators
/// (so the compiler keeps each in registers) take every term over `p`
/// ascending.
#[inline(always)]
fn block4<const V: usize, const MASK: bool>(
    a: Lhs<'_>,
    i0: usize,
    k: usize,
    b: &Rhs<'_>,
    c: &mut [f32],
    j0: usize,
) {
    let n = b.n;
    let load = |r: usize| {
        *c[(i0 + r) * n + j0..]
            .first_chunk::<V>()
            .expect("block in c")
    };
    let (mut c0, mut c1, mut c2, mut c3) = (load(0), load(1), load(2), load(3));
    match a {
        Lhs::Rows { data, ld } => {
            let row = |r: usize| &data[(i0 + r) * ld..][..k];
            let (a0, a1, a2, a3) = (row(0), row(1), row(2), row(3));
            for (p, bv) in strip::<V>(b, j0).enumerate() {
                step::<V, MASK>(&mut c0, a0[p], bv);
                step::<V, MASK>(&mut c1, a1[p], bv);
                step::<V, MASK>(&mut c2, a2[p], bv);
                step::<V, MASK>(&mut c3, a3[p], bv);
            }
        }
        Lhs::Cols { data, ld } => {
            for (p, bv) in strip::<V>(b, j0).enumerate() {
                let &[x0, x1, x2, x3] = data[p * ld + i0..]
                    .first_chunk::<4>()
                    .expect("rows in column");
                step::<V, MASK>(&mut c0, x0, bv);
                step::<V, MASK>(&mut c1, x1, bv);
                step::<V, MASK>(&mut c2, x2, bv);
                step::<V, MASK>(&mut c3, x3, bv);
            }
        }
    }
    for (r, acc) in [c0, c1, c2, c3].iter().enumerate() {
        c[(i0 + r) * n + j0..][..V].copy_from_slice(acc);
    }
}

/// The `1 × V` block of `c` at `(i, j0)`.
#[inline(always)]
fn block1<const V: usize, const MASK: bool>(
    a: Lhs<'_>,
    i: usize,
    k: usize,
    b: &Rhs<'_>,
    c: &mut [f32],
    j0: usize,
) {
    let out = c[i * b.n + j0..]
        .first_chunk_mut::<V>()
        .expect("block in c");
    let mut acc = *out;
    match a {
        Lhs::Rows { data, ld } => {
            let row = &data[i * ld..][..k];
            for (&x, bv) in row.iter().zip(strip::<V>(b, j0)) {
                step::<V, MASK>(&mut acc, x, bv);
            }
        }
        Lhs::Cols { data, ld } => {
            for (p, bv) in strip::<V>(b, j0).enumerate() {
                step::<V, MASK>(&mut acc, data[p * ld + i], bv);
            }
        }
    }
    *out = acc;
}

/// One term per column: `acc[v] += x * b[v]`, masked to `+0.0` when
/// `MASK` is set and `x` is zero.
#[inline(always)]
fn step<const V: usize, const MASK: bool>(acc: &mut [f32; V], x: f32, b: &[f32; V]) {
    if MASK {
        let keep = if x == 0.0 { 0 } else { u32::MAX };
        for (s, &y) in acc.iter_mut().zip(b) {
            *s += f32::from_bits((x * y).to_bits() & keep);
        }
    } else {
        for (s, &y) in acc.iter_mut().zip(b) {
            *s += x * y;
        }
    }
}

/// True if no element is infinite or NaN: a branch-free reduction per
/// chunk, so it vectorises.
fn all_finite(x: &[f32]) -> bool {
    x.chunks(1024).all(|chunk| {
        chunk
            .iter()
            .fold(0u32, |bad, v| bad | u32::from(!v.is_finite()))
            == 0
    })
}

/// The instruction level the matrix kernel runs at. Every level
/// compiles the same body; the level changes speed only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(
    not(any(target_arch = "x86", target_arch = "x86_64")),
    allow(dead_code)
)]
enum Isa {
    /// The target's default instruction set (SSE2 on `x86-64`): 8-column strips.
    Baseline,
    /// AVX2: 16-column strips.
    Avx2,
    /// AVX-512F: 32-column strips.
    Avx512,
}

impl Isa {
    /// The widest level this CPU supports. `std` caches the feature
    /// probe, so detecting on every call costs a few loads.
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
}

/// The wide instantiations: one thin `#[target_feature]` wrapper per
/// level. Calling one is `unsafe`; every caller re-checks the wrapper's
/// feature first.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod wide {
    use super::{gemm_body, Lhs, Rhs};

    pub(super) fn has_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    pub(super) fn has_avx512() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_avx2(a: Lhs<'_>, m: usize, k: usize, b: &Rhs<'_>, c: &mut [f32]) {
        gemm_body::<16>(a, m, k, b, c);
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm_avx512(a: Lhs<'_>, m: usize, k: usize, b: &Rhs<'_>, c: &mut [f32]) {
        gemm_body::<32>(a, m, k, b, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The seed kernel, kept as the oracle: row-outer, `out += a * b`
    /// over `p` ascending from `+0.0`, zero `a` skipped.
    fn seed_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &x) in a_row.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &y) in out_row.iter_mut().zip(b_row) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// Every level this CPU can run, baseline first.
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

    /// Both sides of every block edge: 1, R ± 1 and R for the 4-row
    /// blocks, and W − 1, W, W + 1, 2W + 3 for W = 8, 16 and 32.
    const DIMS: [usize; 16] = [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 19, 31, 32, 33, 35, 67];
    const DEPTHS: [usize; 4] = [0, 1, 7, 300];
    const CASES: u64 = 96;

    fn assert_bits(label: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{label}: length");
        for (e, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: element {e}: {g} vs {w}");
        }
    }

    #[test]
    fn gemm_matches_seed_loop_at_every_level() {
        let levels = host_levels();
        let mut masked_cases = 0;
        for case in 0..CASES {
            let seed = 0x6E44_0000 + case;
            let mut r = StdRng::seed_from_u64(seed);
            let k = DEPTHS[case as usize % 4];
            let m = DIMS[(case as usize / 4) % 16];
            let n = DIMS[r.random_range(0..16usize)];
            // A: about one entry in five an exact zero, some of them −0.0.
            let mut a: Vec<f32> = (0..m * k)
                .map(|_| match r.random_range(0..10u32) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => r.random::<f32>() * 2.0 - 1.0,
                })
                .collect();
            let mut b: Vec<f32> = (0..k * n).map(|_| r.random::<f32>() * 4.0 - 2.0).collect();
            // Every third case poisons one row per column of B with ±∞
            // or NaN, opposite a +0.0 in A's first row and a −0.0 in
            // its second: the seed skips those terms; a kernel that
            // multiplies them returns NaN there.
            if case % 3 == 0 && k > 0 {
                masked_cases += 1;
                for j in 0..n {
                    let p = r.random_range(0..k);
                    b[p * n + j] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
                    a[p] = 0.0;
                    if m > 1 {
                        a[k + p] = -0.0;
                    }
                }
            }
            let want = seed_matmul(&a, &b, m, k, n);
            let label = format!("seed {seed:#x} [{m}×{k}]·[{k}×{n}]");

            let (ta, tb) = (
                Tensor::from_vec(a.clone(), &[m, k]),
                Tensor::from_vec(b.clone(), &[k, n]),
            );
            assert_bits(&format!("{label} matmul"), ta.matmul(&tb).as_slice(), &want);
            let mut out = Tensor::full(&[2, 3], 9.0);
            ta.matmul_into(&tb, &mut out);
            assert_eq!(out.shape(), &[m, n], "{label}: matmul_into shape");
            assert_bits(&format!("{label} matmul_into"), out.as_slice(), &want);

            let at = ta.transpose();
            let rhs = Rhs::new(&b, n);
            let k1 = k / 2;
            for &level in &levels {
                let mut c = vec![0.0; m * n];
                gemm_at(level, Lhs::Rows { data: &a, ld: k }, m, k, &rhs, &mut c);
                assert_bits(&format!("{label} {level:?} rows"), &c, &want);
                let mut c = vec![0.0; m * n];
                gemm_at(
                    level,
                    Lhs::Cols {
                        data: at.as_slice(),
                        ld: m,
                    },
                    m,
                    k,
                    &rhs,
                    &mut c,
                );
                assert_bits(&format!("{label} {level:?} cols"), &c, &want);
                // Two calls over p < k1 and p ≥ k1 continue one sum.
                let mut c = vec![0.0; m * n];
                let (b1, b2) = b.split_at(k1 * n);
                gemm_at(
                    level,
                    Lhs::Rows { data: &a, ld: k },
                    m,
                    k1,
                    &Rhs::new(b1, n),
                    &mut c,
                );
                gemm_at(
                    level,
                    Lhs::Rows {
                        data: &a[k1..],
                        ld: k,
                    },
                    m,
                    k - k1,
                    &Rhs::new(b2, n),
                    &mut c,
                );
                assert_bits(&format!("{label} {level:?} split at {k1}"), &c, &want);
            }
        }
        assert!(
            masked_cases >= 24,
            "{masked_cases} cases took the masked path"
        );
    }

    #[test]
    fn all_finite_sees_every_non_finite_value() {
        for len in [0usize, 1, 15, 16, 17, 1023, 1024, 1025, 3000] {
            let clean: Vec<f32> = (0..len).map(|i| i as f32 - 7.5).collect();
            assert!(all_finite(&clean), "len {len}: clean");
            for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                for at in [0, len / 2, len.saturating_sub(1)]
                    .into_iter()
                    .filter(|_| len > 0)
                {
                    let mut x = clean.clone();
                    x[at] = bad;
                    assert!(!all_finite(&x), "len {len}: {bad} at {at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn lhs_view_past_its_data_panics() {
        let b = [1.0f32; 6];
        let mut c = [0.0f32; 4];
        gemm(
            Lhs::Rows {
                data: &[1.0; 5],
                ld: 3,
            },
            2,
            3,
            &Rhs::new(&b, 2),
            &mut c,
        );
    }
}
