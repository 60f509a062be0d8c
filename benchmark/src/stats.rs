//! Sample statistics: medians, nearest-rank percentiles, and the "at
//! least ten samples beyond" rule for tails.

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// True when `p` may be reported for `n` samples: the guide's rule is
/// at least ten samples beyond the percentile.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// Median (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per op slot, the fastest of its repeats. Every block of a run does
/// the same ops in the same order, so what differs between two repeats
/// of a slot is the host, not the work: interference only ever adds
/// time, and the minimum sheds it, while a slot that is slow every
/// time — a commit that carries a checkpoint — stays slow.
pub fn fastest_per_slot<'a>(blocks: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut blocks = blocks.into_iter();
    let mut fastest = blocks.next().map(<[f64]>::to_vec).unwrap_or_default();
    for block in blocks {
        assert_eq!(block.len(), fastest.len(), "blocks repeat the same ops");
        for (best, &again) in fastest.iter_mut().zip(block) {
            *best = best.min(again);
        }
    }
    fastest
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples leaves exactly ten beyond it; of 99, nine.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(0, 0.5));
    }

    #[test]
    fn fastest_per_slot_keeps_what_repeats_and_sheds_what_does_not() {
        // Slot 2 is slow in every block (the op's own cost); the 9.0
        // readings are a disturbed host in one block each.
        let blocks: [&[f64]; 3] = [&[1.0, 9.0, 5.0], &[1.2, 2.0, 5.5], &[9.0, 2.1, 5.2]];
        assert_eq!(fastest_per_slot(blocks), vec![1.0, 2.0, 5.0]);
        assert_eq!(fastest_per_slot([[3.0, 4.0].as_slice()]), vec![3.0, 4.0]);
        assert!(fastest_per_slot(std::iter::empty()).is_empty());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
