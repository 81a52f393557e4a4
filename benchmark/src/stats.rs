//! Seeded randomness and order statistics. Everything the generator
//! randomises (worlds, query order, Poisson gaps) derives from one
//! `--seed` through [`Rng`], so a seed names its inputs exactly.

/// splitmix64: tiny, seedable, and good enough for shuffles and
/// exponential gaps. Kept local so the schedule is a pure function of
/// the seed no matter what a vendored `rand` does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`stream` names it), so
    /// adding a draw in one place never shifts another's numbers.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Due times (seconds from phase start) of `count` Poisson arrivals at
/// `rate` per second: cumulative exponential gaps.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = Rng::stream(seed, 0x90155);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -rng.unit().ln() / rate;
            t
        })
        .collect()
}

/// Sorts ascending (NaN-free inputs).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    v
}

/// Nearest-rank percentile of an ascending slice; 0 for no samples.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// The tail ladder, highest first. It stops at p99: a phase that
/// could just afford p99.9 would have it hang on a dozen samples.
pub const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The highest percentile of the ladder with at least ten samples
/// beyond it among `n` (50 when even p75 has fewer).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| samples_beyond(n, *p) >= 10)
        .unwrap_or(50.0)
}

/// Samples strictly above the nearest-rank `pct` position among `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - (((pct / 100.0) * n as f64).ceil() as usize).min(n)
}
