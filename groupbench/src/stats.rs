//! Order statistics over latency samples and the seeded input
//! generator.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: u64 = 10;

/// The 1-based nearest rank of percentile `p` (0–100) among `n`
/// samples, in integer parts-per-million so 99.9 % of 10 000 is exactly
/// 9990.
fn rank(n: u64, p: f64) -> u64 {
    let ppm = (p * 10_000.0).round() as u128;
    let r = (ppm * u128::from(n)).div_ceil(1_000_000) as u64;
    r.clamp(1, n.max(1))
}

/// Sorts a sample in place (latencies are finite by construction).
pub fn sort(sample: &mut [f64]) {
    sample.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// A sample kept sorted and run-length encoded: exact order statistics
/// from raw values or from counts per value (a histogram of simulated
/// latencies, which fall on a 1 ms grid, stays a few hundred entries
/// however many ops a run completes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dist {
    /// Ascending distinct values with their counts.
    runs: Vec<(f64, u64)>,
    n: u64,
}

impl Dist {
    /// The distribution of raw values.
    pub fn from_values(mut values: Vec<f64>) -> Dist {
        sort(&mut values);
        Dist::from_counts(values.into_iter().map(|v| (v, 1)))
    }

    /// The distribution of `(value, count)` pairs given in ascending
    /// value order.
    pub fn from_counts(counts: impl IntoIterator<Item = (f64, u64)>) -> Dist {
        let mut d = Dist::default();
        for (v, c) in counts.into_iter().filter(|&(_, c)| c > 0) {
            match d.runs.last_mut() {
                Some(last) if last.0 == v => last.1 += c,
                Some(last) => {
                    assert!(last.0 < v, "counts out of order");
                    d.runs.push((v, c));
                }
                None => d.runs.push((v, c)),
            }
            d.n += c;
        }
        d
    }

    /// Samples in the distribution.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// The value of 1-based rank `r`.
    fn at_rank(&self, r: u64) -> f64 {
        assert!(r >= 1 && r <= self.n, "rank {r} of {}", self.n);
        let mut seen = 0;
        for &(v, c) in &self.runs {
            seen += c;
            if seen >= r {
                return v;
            }
        }
        unreachable!("ranks are bounded by n")
    }

    /// Nearest-rank percentile `p` (0–100).
    pub fn percentile(&self, p: f64) -> f64 {
        self.at_rank(rank(self.n, p))
    }

    /// The median (mean of the middle pair when the count is even).
    pub fn median(&self) -> f64 {
        let n = self.n;
        if n % 2 == 1 {
            self.at_rank(n / 2 + 1)
        } else {
            (self.at_rank(n / 2) + self.at_rank(n / 2 + 1)) / 2.0
        }
    }

    /// See [`Tail`].
    pub fn tail(&self) -> Option<Tail> {
        let n = self.n;
        let mut best = None;
        for pct in [50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999] {
            if n == 0 || n - rank(n, pct) < TAIL_BEYOND {
                break;
            }
            best = Some(Tail {
                pct,
                value: self.percentile(pct),
                n,
            });
        }
        best
    }
}

/// The highest percentile of the ladder p50, p90, p99, p99.9, p99.99, …
/// that still has at least [`TAIL_BEYOND`] samples strictly beyond its
/// rank, with its value. `None` when even p50 has too few.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.9.
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples in the whole population.
    pub n: u64,
}

/// SplitMix64 stream: the one generator every input of a run is drawn
/// from, so one `--seed` fixes payload bytes, key order, the get/put
/// mix and the simulator seed.
pub use amoeba::sim::SplitMix64;

/// The seeded bytes of payload `id`: the id (8 bytes, big-endian)
/// followed by `len - 8` bytes of the stream `(seed, id)`.
pub fn payload(seed: u64, id: u64, len: usize) -> Vec<u8> {
    assert!(len >= 8, "payloads carry their 8-byte id");
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&id.to_be_bytes());
    let mut rng = SplitMix64::new(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    while out.len() < len {
        let word = rng.next_u64().to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
    out
}

/// Reads the id a [`payload`] starts with.
pub fn payload_id(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(bytes.get(..8)?.try_into().ok()?))
}

/// A 64-bit checksum over whole words (cheap enough for the drain
/// thread at 8000 B per message).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .wrapping_mul(0x1000_0000_01B3);
        h ^= h >> 29;
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Dist {
        Dist::from_values((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has 10 beyond (rank 990), p99.9 only 1.
        let t = ramp(1000).tail().unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.n, 1000);
        // 10 000 samples: p99.9 has exactly 10 beyond.
        let t = ramp(10_000).tail().unwrap();
        assert_eq!(t.pct, 99.9);
        assert_eq!(t.value, 9990.0);
        // 999 samples: p99 would leave 9 beyond, so p90 it is.
        let t = ramp(999).tail().unwrap();
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 900.0);
    }

    #[test]
    fn tail_needs_enough_samples_for_the_median() {
        assert_eq!(ramp(19).tail(), None);
        assert_eq!(Dist::default().tail(), None);
        let t = ramp(20).tail().unwrap();
        assert_eq!((t.pct, t.value), (50.0, 10.0));
    }

    #[test]
    fn tail_counts_strictly_beyond_with_ties() {
        // A stall plateau: 9990 fast samples, 10 slow ones.
        let mut s = vec![1.0; 9_990];
        s.extend([50_000.0; 10]);
        let t = Dist::from_values(s.clone()).tail().unwrap();
        assert_eq!((t.pct, t.value), (99.9, 1.0));
        s.push(50_000.0);
        assert_eq!(Dist::from_values(s).tail().unwrap().pct, 99.9);
    }

    #[test]
    fn percentiles_and_median() {
        let s = ramp(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.median(), 5.5);
        assert_eq!(Dist::from_values(vec![3.0]).median(), 3.0);
    }

    #[test]
    fn counts_and_values_give_the_same_statistics() {
        let values = vec![3.0, 1.0, 2.0, 2.0, 3.0, 3.0, 7.0];
        let counts = Dist::from_counts([(1.0, 1), (2.0, 2), (3.0, 3), (5.0, 0), (7.0, 1)]);
        assert_eq!(Dist::from_values(values), counts);
        assert_eq!(counts.median(), 3.0);
        assert_eq!(counts.percentile(30.0), 2.0);
        assert_eq!(counts.percentile(100.0), 7.0);
        let mut big = vec![(1.0, 5_000)];
        big.push((2.0, 4_990));
        big.push((9.0, 10));
        assert_eq!(
            Dist::from_counts(big).tail().unwrap(),
            Tail {
                pct: 99.9,
                value: 2.0,
                n: 10_000
            }
        );
    }

    #[test]
    fn payloads_are_seeded_and_checkable() {
        let a = payload(7, 42, 8000);
        assert_eq!(a.len(), 8000);
        assert_eq!(payload_id(&a), Some(42));
        assert_eq!(a, payload(7, 42, 8000));
        assert_ne!(a, payload(8, 42, 8000));
        assert_ne!(checksum(&a), checksum(&payload(7, 43, 8000)));
        assert_eq!(payload(1, 0, 64).len(), 64);
    }
}
