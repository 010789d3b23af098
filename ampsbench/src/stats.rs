//! Order statistics, digests and the seeded generator the benchmark uses
//! to shape its inputs.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method — the default of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed here
/// match spreads computed from the same values there. `None` below two
/// values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Percentile `p` ∈ [0, 100] by linear interpolation between order
/// statistics (the convention of the serving reports). `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    match s.len() {
        0 => None,
        1 => Some(s[0]),
        n => {
            let rank = (p / 100.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            Some(s[lo] + (s[hi] - s[lo]) * (rank - lo as f64))
        }
    }
}

/// Samples lying strictly beyond percentile `p` in a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    // The epsilon absorbs rounding in `100 - p` (e.g. 100 - 99.9).
    (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n`, or `None` when even the median
/// has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    const LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 0.0];
    LADDER.into_iter().find(|&p| p > 0.0 && beyond(n, p) >= 10)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a over 64-bit words: a digest of simulated outputs, compared
/// across repetitions and thread counts to prove them bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word into the digest.
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes the exact bits of a float.
    pub fn f64(self, x: f64) -> Self {
        self.word(x.to_bits())
    }
}

/// splitmix64: the benchmark's own input generator, independent of the
/// generators inside the system under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([7, 1, 3], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0]), Some((1.0, 7.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.5));
        assert_eq!(percentile(&[5.0], 99.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn digest_separates_bitwise_different_floats() {
        let a = Digest::default().f64(0.1 + 0.2);
        let b = Digest::default().f64(0.3);
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().f64(0.1 + 0.2));
    }

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut v: Vec<u32> = (0..10).collect();
        let mut w = v.clone();
        a.shuffle(&mut v);
        b.shuffle(&mut w);
        assert_eq!(v, w);
        assert!((0.0..1.0).contains(&Rng::new(1).unit()));
    }
}
