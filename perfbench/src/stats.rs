//! Order statistics shared by every workload.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must be finite"));
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of ascending `s`.
pub fn quantile(s: &[f64], q: f64) -> f64 {
    assert!(!s.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: `(percentile, value)`. With too few samples for any such
/// percentile the maximum stands in, reported as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "tail of an empty sample");
    if n <= TAIL_BEYOND {
        return (100.0, s[n - 1]);
    }
    let idx = n - 1 - TAIL_BEYOND;
    (100.0 * (idx + 1) as f64 / n as f64, s[idx])
}

/// Median and tail of one window of samples.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub samples: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

/// [`Window`] statistics of `windows` consecutive slices of `xs`.
pub fn windows(xs: &[f64], windows: usize) -> Vec<Window> {
    let size = xs.len().div_ceil(windows.max(1)).max(1);
    xs.chunks(size)
        .map(|w| {
            let (tail_pct, tail) = tail(w);
            Window {
                samples: w.len(),
                p50: median(w),
                tail_pct,
                tail,
            }
        })
        .collect()
}

/// The least disturbed windows: the lowest window median and the
/// lowest window tail (each from whichever window had it).
pub fn best_window(ws: &[Window]) -> Window {
    let lowest = |f: fn(&Window) -> f64| ws.iter().map(f).fold(f64::INFINITY, f64::min);
    Window {
        samples: ws
            .iter()
            .map(|w| w.samples)
            .min()
            .expect("at least one window"),
        p50: lowest(|w| w.p50),
        tail_pct: lowest(|w| w.tail_pct),
        tail: lowest(|w| w.tail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, v) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert_eq!(tail(&[3.0, 1.0]), (100.0, 3.0));
    }

    #[test]
    fn best_window_skips_a_disturbed_stretch() {
        let mut xs: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        for x in &mut xs[..100] {
            *x += 1000.0;
        }
        xs[250] = 1e6;
        let ws = windows(&xs, 3);
        assert_eq!(ws.len(), 3);
        let best = best_window(&ws);
        assert_eq!((best.samples, best.p50, best.tail), (100, 49.5, 89.0));
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }
}
