//! Seeded randomness for the benchmark's inputs.
//!
//! Every input the program sees — scenario parameters, request streams,
//! arrival schedules, catalog orders — is drawn from [`Rng`] streams
//! derived from `--seed`, so the same seed always yields the same inputs.
//! The generator is the benchmark's own (SplitMix64) rather than the
//! workspace's `rand` stand-in, so a change to the program cannot change
//! what the benchmark asks of it.

/// SplitMix64: tiny, fast, and well distributed for this use.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label so that each
    /// input (requests, schedule, reloads, …) has its own sequence.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf sampler over ranks `0..n`: rank `k` has weight `1/(k+1)^alpha`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(alpha);
                total
            })
            .collect();
        Self { cumulative }
    }

    /// The rank at quantile `u` in `[0, 1)`.
    pub fn at(&self, u: f64) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        self.cumulative
            .partition_point(|&c| c <= u * total)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_decorrelated() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "requests"), draw(1, "requests"));
        assert_ne!(draw(1, "requests"), draw(2, "requests"));
        assert_ne!(draw(1, "requests"), draw(1, "schedule"));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(20, 1.0);
        let mut r = Rng::new(7, "zipf");
        let mut counts = [0usize; 20];
        for _ in 0..20_000 {
            counts[z.at(r.unit())] += 1;
        }
        assert!(counts[0] > counts[1] && counts[0] > 5 * counts[19]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
