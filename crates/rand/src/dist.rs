//! Self-contained probability distributions.
//!
//! Uniform, Gaussian (Box–Muller), lognormal, and Bernoulli sampling on
//! top of the [`Rng`] trait. These are *the* implementations for the
//! whole workspace — `neuspin-device`'s `stats` module re-exports them —
//! so every stochastic mechanism in the NeuSpin reproduction draws from
//! one pinned, bit-reproducible sampling path.

use crate::rng::{Random, Rng, RngExt, SampleRange};

/// A distribution over values of type `T`.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;

    /// Draws `n` values into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<T> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// The standard distribution of `T` (what [`RngExt::random`] draws).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Standard;

impl<T: Random> Distribution<T> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        rng.random()
    }
}

/// A uniform distribution over a half-open range `[low, high)`.
///
/// # Examples
///
/// ```
/// use rand::dist::{Distribution, Uniform};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(4);
/// let d = Uniform::new(10.0, 20.0);
/// let x = d.sample(&mut rng);
/// assert!((10.0..20.0).contains(&x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform<T> {
    low: T,
    high: T,
}

impl<T: Copy + PartialOrd> Uniform<T> {
    /// Creates a uniform distribution over `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn new(low: T, high: T) -> Self {
        assert!(low < high, "Uniform requires low < high");
        Self { low, high }
    }

    /// Lower bound (inclusive).
    pub fn low(&self) -> T {
        self.low
    }

    /// Upper bound (exclusive).
    pub fn high(&self) -> T {
        self.high
    }
}

impl<T> Distribution<T> for Uniform<T>
where
    T: Copy,
    core::ops::Range<T>: SampleRange<T>,
{
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        rng.random_range(self.low..self.high)
    }
}

/// Draws a standard-normal variate via Box–Muller.
///
/// Consumes exactly **two** uniform draws per call, which keeps the RNG
/// stream position predictable — a property the determinism tests rely
/// on. Hot loops that draw Gaussians by the tens of thousands and do
/// not need the fixed-consumption contract should use
/// [`ziggurat_normal`] instead (~6× cheaper per draw).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard the log against u1 == 0.
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Number of ziggurat strips (the classic 128-strip table).
const ZIG_N: usize = 128;
/// Right edge of the base strip — the start of the analytic tail.
const ZIG_R: f64 = 3.442_619_855_899;
/// Area of each strip (base rectangle + tail for strip 0).
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// Precomputed ziggurat tables: strip widths, inner fast-accept
/// thresholds, and pdf values at each strip's right edge.
struct ZigTables {
    /// `w[i]`: right edge of strip `i`. Strip 0 is the base (virtual
    /// width `V / f(R)` so the fast-accept test stays uniform); strips
    /// 127 down to 1 stack upward with decreasing widths.
    w: [f64; ZIG_N],
    /// `inner[i]`: accept `x = u·w[i]` immediately when `x < inner[i]`
    /// (the point falls under the strip above, so certainly under the
    /// pdf). `inner[1] = 0` — the top strip always takes the wedge test.
    inner: [f64; ZIG_N],
    /// `f[i] = exp(-w[i]²/2)`, with `f[0] = 1` standing in for the pdf
    /// at the top strip's upper edge (`f(0)`).
    f: [f64; ZIG_N],
}

#[inline]
fn zig_tables() -> &'static ZigTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut w = [0.0f64; ZIG_N];
        w[0] = ZIG_V / pdf(ZIG_R); // virtual base width (> R)
        w[ZIG_N - 1] = ZIG_R;
        // Walk upward: each strip's right edge satisfies
        // f(x_next) = f(x) + V / x (equal strip areas).
        for i in (1..ZIG_N - 1).rev() {
            let fi = pdf(w[i + 1]) + ZIG_V / w[i + 1];
            w[i] = (-2.0 * fi.ln()).sqrt();
        }
        let mut f = [0.0f64; ZIG_N];
        f[0] = 1.0; // pdf at the top strip's upper edge, f(0)
        for i in 1..ZIG_N {
            f[i] = pdf(w[i]);
        }
        let mut inner = [0.0f64; ZIG_N];
        inner[0] = ZIG_R; // base rectangle ends where the tail starts
        inner[2..ZIG_N].copy_from_slice(&w[1..(ZIG_N - 1)]);
        ZigTables { w, inner, f }
    })
}

/// Draws a standard-normal variate via the 128-strip ziggurat method.
///
/// This is the *fast* Gaussian: ~98 % of draws cost one `next_u64`, a
/// table lookup, a multiply, and a compare — no transcendentals — which
/// is why the crossbar read-noise hot path uses it (tens of thousands
/// of draws per Monte-Carlo pass). The price is a **data-dependent
/// number of uniform draws** per sample, so it must never replace
/// [`standard_normal`] where the two-draw stream contract matters
/// (device programming, aging, anything replayed by draw counting).
/// Kernels compared for bit-identity stay aligned automatically: they
/// share one RNG stream and call the sampler at the same points, so
/// they consume identical word counts.
///
/// The fast path is small enough to inline into a caller's fill loop;
/// the rest of the method sits out of line in `zig_reject`. Bit 7 of
/// each word picks the sign, XOR-ed into the sign bit rather than
/// multiplied in through a branch taken half the time: flipping bit 63
/// is exact negation, so every draw keeps the bits of `±1.0 · x`, zero
/// included.
#[inline]
pub fn ziggurat_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let t = zig_tables();
    let bits = rng.next_u64();
    let (i, x) = zig_point(t, bits);
    if x < t.inner[i] {
        return zig_signed(bits, x); // under the strip above: certainly under the pdf
    }
    zig_reject(t, rng, bits, i, x)
}

/// The first step for word `bits`: the strip index `i` from the low 7
/// bits and `x = u · w[i]` with `u` from the top 53 bits.
#[inline]
fn zig_point(t: &ZigTables, bits: u64) -> (usize, f64) {
    let i = (bits & 0x7F) as usize;
    let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (i, u * t.w[i])
}

/// `x` negated when bit 7 of `bits` is set.
#[inline]
fn zig_signed(bits: u64, x: f64) -> f64 {
    f64::from_bits(x.to_bits() ^ ((bits & 0x80) << 56))
}

/// The draws that miss the fast test on word `bits`: the analytic tail
/// for the base strip, the wedge test for the others, and a fresh word
/// after each wedge rejection.
#[cold]
#[inline(never)]
fn zig_reject<R: Rng + ?Sized>(
    t: &ZigTables,
    rng: &mut R,
    mut bits: u64,
    mut i: usize,
    mut x: f64,
) -> f64 {
    loop {
        if i == 0 {
            // Tail beyond R: Marsaglia's exponential rejection.
            loop {
                let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let xt = -u1.ln() / ZIG_R;
                let yt = -u2.ln();
                if yt + yt >= xt * xt {
                    return zig_signed(bits, ZIG_R + xt);
                }
            }
        }
        // Wedge: uniform height within the strip, accept under the pdf.
        let u2: f64 = rng.random();
        if t.f[i] + u2 * (t.f[i - 1] - t.f[i]) < (-0.5 * x * x).exp() {
            return zig_signed(bits, x);
        }
        bits = rng.next_u64();
        (i, x) = zig_point(t, bits);
        if x < t.inner[i] {
            return zig_signed(bits, x);
        }
    }
}

/// A Gaussian (normal) distribution `N(mean, std²)`.
///
/// # Examples
///
/// ```
/// use rand::dist::Gaussian;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let g = Gaussian::new(1.0, 0.1);
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = g.sample(&mut rng);
/// assert!((x - 1.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std: f64,
}

impl Gaussian {
    /// Creates a Gaussian with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std.is_finite() && std >= 0.0, "std must be finite and >= 0, got {std}");
        Self { mean, std }
    }

    /// The standard normal distribution `N(0, 1)`.
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Returns the mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Returns the standard deviation of the distribution.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one sample (two uniform draws, always).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }
}

impl Default for Gaussian {
    fn default() -> Self {
        Self::standard()
    }
}

impl Distribution<f64> for Gaussian {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        Gaussian::sample(self, rng)
    }
}

/// A lognormal distribution: `exp(N(mu, sigma²))`.
///
/// Used for device-to-device resistance and thermal-stability variation,
/// which are multiplicative in nature (a device is "x % off nominal").
///
/// # Examples
///
/// ```
/// use rand::dist::LogNormal;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// // Median 5 kΩ, 10 % relative sigma.
/// let d = LogNormal::from_median_sigma(5_000.0, 0.10);
/// let mut rng = StdRng::seed_from_u64(2);
/// let r = d.sample(&mut rng);
/// assert!(r > 2_000.0 && r < 12_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal from the parameters of the underlying normal.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be finite and >= 0, got {sigma}");
        Self { mu, sigma }
    }

    /// Creates a lognormal whose *median* is `median` and whose
    /// log-domain standard deviation is `sigma` (≈ relative spread for
    /// small `sigma`).
    ///
    /// # Panics
    ///
    /// Panics if `median <= 0` or `sigma < 0`.
    pub fn from_median_sigma(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive, got {median}");
        Self::new(median.ln(), sigma)
    }

    /// Returns the median (`exp(mu)`).
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Returns the log-domain sigma.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample (always strictly positive).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        LogNormal::sample(self, rng)
    }
}

/// A Bernoulli distribution over `{true, false}`.
///
/// # Examples
///
/// ```
/// use rand::dist::Bernoulli;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let b = Bernoulli::new(0.25);
/// let mut rng = StdRng::seed_from_u64(3);
/// let _bit: bool = b.sample(&mut rng);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or not finite.
    pub fn new(p: f64) -> Self {
        assert!(p.is_finite() && (0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
        Self { p }
    }

    /// Returns the success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draws one sample (one uniform draw, always).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.random::<f64>() < self.p
    }
}

impl Distribution<bool> for Bernoulli {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        Bernoulli::sample(self, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SeedableRng, StdRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEAD_BEEF)
    }

    #[test]
    fn gaussian_consumes_exactly_two_draws() {
        let g = Gaussian::standard();
        let mut a = rng();
        let mut b = rng();
        let _ = g.sample(&mut a);
        b.next_u64();
        b.next_u64();
        assert_eq!(a, b, "Gaussian::sample must advance the stream by exactly 2 words");
    }

    #[test]
    fn ziggurat_tables_close_at_the_top() {
        // The equal-area recurrence must terminate with a top strip of
        // area V: w[1] · (f(0) − f(w[1])) ≈ V, and widths must decrease
        // strictly from the base upward.
        let t = super::zig_tables();
        let top_area = t.w[1] * (1.0 - (-0.5 * t.w[1] * t.w[1]).exp());
        assert!(
            (top_area / ZIG_V - 1.0).abs() < 1e-6,
            "top strip area {top_area} vs V {ZIG_V}"
        );
        for i in 2..ZIG_N - 1 {
            assert!(t.w[i] < t.w[i + 1], "widths must decrease upward at {i}");
        }
        assert!(t.w[0] > ZIG_R, "virtual base width must exceed R");
    }

    #[test]
    fn ziggurat_moments_and_tails_match_normal() {
        let mut r = rng();
        let n = 200_000;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        let mut beyond_2 = 0usize;
        let mut beyond_r = 0usize;
        for k in 0..n {
            let z = ziggurat_normal(&mut r);
            let delta = z - mean;
            mean += delta / (k + 1) as f64;
            m2 += delta * (z - mean);
            if z.abs() > 2.0 {
                beyond_2 += 1;
            }
            if z.abs() > ZIG_R {
                beyond_r += 1;
            }
        }
        let std = (m2 / (n - 1) as f64).sqrt();
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((std - 1.0).abs() < 0.01, "std {std}");
        // P(|Z| > 2) ≈ 0.0455.
        let p2 = beyond_2 as f64 / n as f64;
        assert!((p2 - 0.0455).abs() < 0.004, "P(|Z|>2) = {p2}");
        // The analytic tail must actually fire: P(|Z| > R) ≈ 5.8e-4.
        assert!(beyond_r > 20, "tail path never taken ({beyond_r} hits)");
    }

    #[test]
    fn ziggurat_is_deterministic_per_seed() {
        let mut a = rng();
        let mut b = rng();
        for _ in 0..1_000 {
            assert_eq!(
                ziggurat_normal(&mut a).to_bits(),
                ziggurat_normal(&mut b).to_bits()
            );
        }
    }

    /// Counts the words a sampler takes from the wrapped generator.
    struct Counting<R> {
        inner: R,
        words: u64,
    }

    impl<R: Rng> Rng for Counting<R> {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn ziggurat_stream_is_pinned() {
        // Per seed: the fnv1a digest of the bits of 2^16 draws, then the
        // generator's next word. Any change to a draw's bits, its sign
        // or its word count moves one of the two.
        const PINNED: [(u64, u64, u64); 3] = [
            (1, 0xe0d7_f7dd_5c63_39a0, 0x6bb3_e7de_5338_d271),
            (42, 0xf870_7065_d0f2_1718, 0x4fde_e8ee_b57d_8a77),
            (0xDEAD_BEEF, 0x3bbe_613d_5ec7_8e31, 0xf856_4ebb_75dc_98e3),
        ];
        for (seed, digest, next_word) in PINNED {
            let mut r = Counting { inner: StdRng::seed_from_u64(seed), words: 0 };
            let (mut hash, mut multi_word, mut tail) = (0xcbf2_9ce4_8422_2325u64, 0u32, 0u32);
            for _ in 0..1 << 16 {
                let before = r.words;
                let z = ziggurat_normal(&mut r);
                multi_word += u32::from(r.words - before > 1);
                tail += u32::from(z.abs() > ZIG_R);
                for byte in z.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            // The wedge test takes a second word, the tail beyond R
            // at least two more: both paths must be in the digest.
            assert!(multi_word > 0 && tail > 0, "seed {seed}: wedge or tail never taken");
            let got = (hash, r.inner.next_u64());
            assert_eq!(got, (digest, next_word), "seed {seed}: (digest, next word) {got:#x?}");
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = rng();
        let d = Uniform::new(-2.0f64, 3.0);
        for _ in 0..5_000 {
            let x = d.sample(&mut r);
            assert!((-2.0..3.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn uniform_integer_covers_domain() {
        let mut r = rng();
        let d = Uniform::new(0usize, 4);
        let mut seen = [false; 4];
        for _ in 0..500 {
            seen[d.sample(&mut r)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn uniform_rejects_empty() {
        let _ = Uniform::new(1.0f64, 1.0);
    }

    #[test]
    fn distribution_trait_objects_compose() {
        let mut r = rng();
        let samples = Gaussian::new(2.0, 0.5).sample_n(32, &mut r);
        assert_eq!(samples.len(), 32);
        assert!(samples.iter().all(|x| x.is_finite()));
    }
}
