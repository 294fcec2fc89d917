//! Order statistics for latency samples.

/// The median (mean of the two middle values for an even count; 0 for
/// no samples).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile (nearest rank).
#[must_use]
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let sorted = sorted(samples);
    let at = |q: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1]
        }
    };
    [at(0.25), median(samples), at(0.75)]
}

/// The arithmetic mean (0 for no samples).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples per block of the tail estimate.
pub const TAIL_BLOCK: usize = 500;

/// A tail estimate: the median over consecutive blocks of
/// [`TAIL_BLOCK`] samples of each block's highest percentile with at
/// least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The median of the block tails.
    pub value: f64,
    /// Nearest-rank percentile of the tail in the first block (p98 in a
    /// full block).
    pub percentile: f64,
    /// Samples beyond the tail in the first block (10, or 0 when it has
    /// fewer than 11 samples and its tail is the maximum).
    pub beyond: usize,
    /// Blocks.
    pub blocks: usize,
    /// Sample count.
    pub n: usize,
}

/// The tail of samples given in the order they were taken. Each block
/// of [`TAIL_BLOCK`] consecutive samples (the last block takes the
/// remainder, so a run with fewer than two blocks' worth is one block)
/// contributes its 11th-largest sample: the highest nearest-rank
/// percentile that still has ten samples beyond it. The tail is the
/// median of those, so a stall confined to a minority of the run moves
/// it no more than it moves a median.
#[must_use]
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let blocks = (n / TAIL_BLOCK).max(1);
    let mut tails = Vec::with_capacity(blocks);
    let mut first = (0.0, 0);
    for b in 0..blocks {
        let lo = b * TAIL_BLOCK;
        let hi = if b + 1 == blocks { n } else { lo + TAIL_BLOCK };
        let block = sorted(&samples[lo..hi]);
        let len = block.len();
        let idx = if len >= 11 { len - 11 } else { len.saturating_sub(1) };
        tails.push(block.get(idx).copied().unwrap_or(0.0));
        if b == 0 && len > 0 {
            first = (100.0 * (idx + 1) as f64 / len as f64, len - 1 - idx);
        }
    }
    Tail { value: median(&tails), percentile: first.0, beyond: first.1, blocks, n }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.value, t.percentile, t.beyond, t.blocks), (90.0, 90.0, 10, 1));
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), 10);
        let few = tail(&[5.0, 1.0]);
        assert_eq!((few.value, few.beyond), (5.0, 0));
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn tail_is_the_median_of_block_tails() {
        // Three blocks; a stall fills the middle one. Each block's tail
        // is its 11th-largest sample; the stall moves only its own.
        let mut samples: Vec<f64> = Vec::new();
        for block in 0..3 {
            let base = if block == 1 { 1000.0 } else { 0.0 };
            samples.extend((0..TAIL_BLOCK).map(|i| base + i as f64));
        }
        let t = tail(&samples);
        assert_eq!(t.blocks, 3);
        assert_eq!(t.value, (TAIL_BLOCK - 11) as f64);
        assert_eq!(t.percentile, 98.0);
        // A remainder shorter than a block joins the last block.
        assert_eq!(tail(&samples[..2 * TAIL_BLOCK - 1]).blocks, 1);
    }
}
