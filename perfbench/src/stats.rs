//! Exact statistics over raw per-call measurements.
//!
//! Every timed call lands in a [`Samples`] buffer preallocated for the
//! run, and quantiles are read from the sorted raw values by nearest
//! rank, never from histogram buckets.

/// Raw per-call values (seconds, usually) in arrival order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty buffer that holds `capacity` values without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Samples {
            values: Vec::with_capacity(capacity),
        }
    }

    /// Records one value.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The recorded values, in arrival order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sum of the recorded values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The largest recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Exact nearest-rank quantiles of the recorded values, in the order
    /// of `qs`. `None` when the buffer is empty.
    pub fn quantiles(&self, qs: &[f64]) -> Option<Vec<f64>> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Some(qs.iter().map(|&q| nearest_rank(&sorted, q)).collect())
    }
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Samples { values }
    }
}

/// Nearest-rank quantile of an ascending slice: the value at rank
/// `ceil(q * n)` (1-based), clamped to `1..=n`. Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "nearest_rank of an empty sample");
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of `values` by nearest rank (the lower middle for an even
/// count). Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// Each operation's best time over repeated passes of the same
/// operations: `passes[p][i]` is operation `i` in pass `p`, every pass
/// the same length, and entry `i` of the result is the shortest of them.
/// Interference from the rest of a shared host only ever adds time, and
/// it comes in stretches of a second or more, so passes several seconds
/// apart rarely all catch one operation slowed: the best is that
/// operation's own cost. Empty when `passes` is.
pub fn best_of_passes(passes: &[Vec<f64>]) -> Vec<f64> {
    let Some((first, rest)) = passes.split_first() else {
        return Vec::new();
    };
    let mut best = first.clone();
    for pass in rest {
        for (b, &t) in best.iter_mut().zip(pass) {
            *b = b.min(t);
        }
    }
    best
}

/// The fewest passes a run makes, whatever its length, so every
/// best-of-passes figure is taken over at least this many.
pub const MIN_PASSES: usize = 3;

/// The fewest samples a p99 may be read from: with 1000 values, ten lie
/// beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Operations attempted and failed (or refused) in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Operations the workload issued.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
}

impl OpCounts {
    /// Records one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: OpCounts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations as a percentage of attempted ones (0 when
    /// nothing was attempted).
    pub fn failed_pct(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.failed as f64 / self.attempted as f64
        }
    }
}
