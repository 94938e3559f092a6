//! Order statistics, the tail rule, and the output digest.

/// Ops that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Fewest ops for which a tail is reported at all.
pub const TAIL_MIN_OPS: usize = 2 * TAIL_BEYOND;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics; `None` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// A tail taken by [`tail`]: its value, the percentile it sits at, and
/// the sample count it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Share of the samples at or below it, in percent.
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples strictly
/// beyond it. `None` below [`TAIL_MIN_OPS`] samples, where that
/// percentile would sit below the median; at exactly [`TAIL_MIN_OPS`] it
/// is the lower median (see [`Tail::above_median`]).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < TAIL_MIN_OPS {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: v[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
    })
}

impl Tail {
    /// Whether the tail sits above the median (more than
    /// [`TAIL_MIN_OPS`] samples).
    pub fn above_median(&self) -> bool {
        self.percentile > 50.0
    }
}

/// FNV-1a over a stream of byte strings: the digest of a run's outputs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_ops_beyond() {
        let ops: Vec<f64> = (1..=36).map(f64::from).collect();
        let t = tail(&ops).expect("36 ops carry a tail");
        assert_eq!(t.value, 26.0);
        assert_eq!(ops.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 72.2).abs() < 0.1, "{}", t.percentile);
        assert_eq!(t.samples, 36);

        let many: Vec<f64> = (0..5000).map(f64::from).collect();
        let t = tail(&many).unwrap();
        assert_eq!(many.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!(t.percentile > 99.7);
    }

    #[test]
    fn no_tail_below_twenty_ops() {
        let ops: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&ops), None);
        let ops: Vec<f64> = (0..20).map(f64::from).collect();
        let t = tail(&ops).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert_eq!(ops.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!(!t.above_median());
        assert!(tail(&[0.0; 21]).unwrap().above_median());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
