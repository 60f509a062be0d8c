//! The end-to-end metrics, and how the repeats of a block pool into
//! one value each — the blocks of one measuring process, or the passes
//! of `run`: the same rule at both levels.

use std::collections::BTreeMap;

use crate::stats::{fastest_per_slot, median, percentile, sorted, tail_supported};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How the repeats of a block become one value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pooling {
    /// From the op slots, each keeping the fastest of its repeats: every
    /// repeat does the same ops in the same order, so what differs
    /// between two repeats of a slot is the host, not the work. Host
    /// interference only ever adds time; the minimum sheds it, while a
    /// slot that is slow every time — the commit that carries the
    /// checkpoint — stays slow.
    Slots,
    /// The best repeat, for whole-block timings: the same argument.
    Best,
    /// The median of the repeats, for what the host's other tenants do
    /// not move (memory, bytes written) and for `setup_s`, which the
    /// driver's contract defines as a median.
    Median,
}

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's value by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Reported by every workload, so part of `BENCHMARK.json`'s
    /// contract; the others exist on some workloads only and appear in
    /// `run` reports.
    pub every_workload: bool,
    pub pooling: Pooling,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    every_workload: bool,
    pooling: Pooling,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, every_workload, pooling }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25, true, Pooling::Median),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25, true, Pooling::Slots),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25, true, Pooling::Slots),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, true, Pooling::Median),
    e2e("op_p90_ms", "ms", Better::Lower, 0.25, false, Pooling::Slots),
    e2e("op_p99_ms", "ms", Better::Lower, 0.25, false, Pooling::Slots),
    e2e("fired_per_s", "1/s", Better::Higher, 0.25, false, Pooling::Slots),
    e2e("reads_per_s", "1/s", Better::Higher, 0.25, false, Pooling::Best),
    e2e("read_p99_us", "us", Better::Lower, 0.25, false, Pooling::Best),
    e2e("recover_s", "s", Better::Lower, 0.25, false, Pooling::Best),
    e2e("disk_write_bytes_per_commit", "bytes", Better::Lower, 0.02, false, Pooling::Median),
    e2e("error_rate", "ratio", Better::Lower, 0.0, false, Pooling::Median),
];

/// The repeats of one workload's block.
#[derive(Default)]
pub struct Repeats {
    /// One complete block of op latencies per repeat, in op order.
    pub blocks_ms: Vec<Vec<f64>>,
    /// Per metric not taken from the op slots: one value per repeat.
    pub values: BTreeMap<String, Vec<f64>>,
    /// Why a metric this workload normally reports is missing.
    pub skipped: BTreeMap<String, String>,
    /// Fired update-terms a block reports (0: its ops report none).
    pub fired_per_block: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// `items` without the one at `leave_out`.
fn without<T>(items: &[T], leave_out: Option<usize>) -> impl Iterator<Item = &T> {
    items.iter().enumerate().filter(move |(i, _)| Some(*i) != leave_out).map(|(_, item)| item)
}

impl Repeats {
    /// The metric's value from every repeat except `leave_out`.
    /// `None`: not one of this workload's metrics. `Err`: skipped, and
    /// why — a tail percentile needs ten op slots beyond it.
    pub fn estimate(
        &self,
        spec: &EndToEnd,
        leave_out: Option<usize>,
    ) -> Option<Result<f64, String>> {
        if spec.name == "error_rate" {
            return Some(Ok(self.failed as f64 / self.attempted.max(1) as f64));
        }
        if spec.pooling == Pooling::Slots {
            return self.slot_metric(spec.name, leave_out);
        }
        let Some(values) = self.values.get(spec.name) else {
            return self.skipped.get(spec.name).map(|why| Err(why.clone()));
        };
        let kept: Vec<f64> = without(values, leave_out).copied().collect();
        if kept.is_empty() {
            return Some(Err("no repeat reported it".into()));
        }
        Some(Ok(match (spec.pooling, spec.better) {
            (Pooling::Best, Better::Lower) => kept.iter().copied().fold(f64::INFINITY, f64::min),
            (Pooling::Best, Better::Higher) => {
                kept.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
            _ => median(&kept),
        }))
    }

    fn slot_metric(&self, name: &str, leave_out: Option<usize>) -> Option<Result<f64, String>> {
        if name == "fired_per_s" && self.fired_per_block == 0.0 {
            return None;
        }
        let fastest = fastest_per_slot(without(&self.blocks_ms, leave_out).map(Vec::as_slice));
        let n = fastest.len();
        if n == 0 {
            return Some(Err("no block completed".into()));
        }
        let seconds = fastest.iter().sum::<f64>() / 1e3;
        let tail = |p: f64| {
            if tail_supported(n, p) {
                Ok(percentile(&sorted(&fastest), p))
            } else {
                Err(format!("{n} op slots leave fewer than ten beyond p{}", p * 100.0))
            }
        };
        Some(match name {
            "op_p50_ms" => Ok(percentile(&sorted(&fastest), 0.5)),
            "op_p90_ms" => tail(0.9),
            "op_p99_ms" => tail(0.99),
            "ops_per_s" => Ok(n as f64 / seconds),
            "fired_per_s" => Ok(self.fired_per_block / seconds),
            other => unreachable!("{other} is not taken from the op slots"),
        })
    }

    /// How far the metric's value moves when any one repeat is left
    /// out, as a share of the value: the run-to-run spread of the
    /// reported figure itself, not of its noisier raw repeats.
    pub fn spread(&self, spec: &EndToEnd) -> f64 {
        let repeats = match spec.pooling {
            Pooling::Slots => self.blocks_ms.len(),
            _ => self.values.get(spec.name).map_or(0, Vec::len),
        };
        let Some(Ok(value)) = self.estimate(spec, None) else { return 0.0 };
        if repeats < 3 || value == 0.0 {
            return 0.0;
        }
        let left_out: Vec<f64> =
            (0..repeats).filter_map(|i| self.estimate(spec, Some(i))?.ok()).collect();
        let v = sorted(&left_out);
        match (v.first(), v.last()) {
            (Some(lo), Some(hi)) => (hi - lo) / value.abs(),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|s| s.name == name).unwrap()
    }

    /// Two repeats of 120 op slots; the first is disturbed in its
    /// second half, the second in its first half.
    fn disturbed_halves() -> Repeats {
        Repeats {
            blocks_ms: vec![
                (1..=120).map(|i| f64::from(i) + if i > 60 { 50.0 } else { 0.0 }).collect(),
                (1..=120).map(|i| f64::from(i) + if i <= 60 { 50.0 } else { 0.0 }).collect(),
            ],
            attempted: 240,
            ..Default::default()
        }
    }

    #[test]
    fn slot_metrics_shed_what_only_one_repeat_saw() {
        let r = disturbed_halves();
        let value = |name: &str| r.estimate(spec(name), None).unwrap();
        assert_eq!(value("op_p50_ms"), Ok(60.0));
        assert_eq!(value("op_p90_ms"), Ok(108.0)); // 12 slots beyond
        assert!(value("op_p99_ms").is_err()); // 1 slot beyond
        assert_eq!(value("ops_per_s"), Ok(120.0 / 7.26)); // the slots sum to 7 260 ms
        assert_eq!(value("error_rate"), Ok(0.0));
        // Either repeat alone still carries its disturbance: the second
        // reads 51..=110 in its first half and 61..=120 in its second.
        assert_eq!(r.estimate(spec("op_p90_ms"), Some(1)).unwrap(), Ok(158.0));
        assert_eq!(r.estimate(spec("op_p50_ms"), Some(0)).unwrap(), Ok(85.0));
    }

    #[test]
    fn tails_need_ten_slots_beyond_and_everything_needs_a_block() {
        let mut r =
            Repeats { blocks_ms: vec![(1..=20).map(f64::from).collect()], ..Default::default() };
        assert_eq!(r.estimate(spec("op_p50_ms"), None).unwrap(), Ok(10.0));
        assert!(r.estimate(spec("op_p90_ms"), None).unwrap().is_err());
        r.blocks_ms.clear();
        assert!(r.estimate(spec("op_p50_ms"), None).unwrap().is_err());
    }

    #[test]
    fn other_metrics_pool_by_their_rule_or_are_absent() {
        let mut r = disturbed_halves();
        r.values.insert("setup_s".into(), vec![10.0, 12.0, 11.0]);
        r.values.insert("recover_s".into(), vec![0.30, 0.25, 0.40]);
        r.values.insert("reads_per_s".into(), vec![7e6, 9e6, 8e6]);
        r.skipped.insert("read_p99_us".into(), "one hardware thread".into());
        let value = |name: &str| r.estimate(spec(name), None);
        assert_eq!(value("setup_s"), Some(Ok(11.0)));
        assert_eq!(value("recover_s"), Some(Ok(0.25)));
        assert_eq!(value("reads_per_s"), Some(Ok(9e6)));
        assert_eq!(value("read_p99_us"), Some(Err("one hardware thread".into())));
        assert_eq!(value("disk_write_bytes_per_commit"), None);
        assert_eq!(value("fired_per_s"), None, "these ops report no fired-update count");
        r.fired_per_block = 726.0;
        assert_eq!(r.estimate(spec("fired_per_s"), None), Some(Ok(100.0)));
    }

    #[test]
    fn spread_is_how_far_one_repeat_moves_the_value() {
        let mut r = Repeats::default();
        r.values.insert("setup_s".into(), vec![10.0, 11.0, 12.0]);
        // Leaving one out gives medians 11.5, 11 and 10.5.
        assert_eq!(r.spread(spec("setup_s")), 1.0 / 11.0);
        r.values.insert("setup_s".into(), vec![10.0, 12.0]);
        assert_eq!(r.spread(spec("setup_s")), 0.0, "two repeats say nothing about spread");
        // Three blocks, one of them disturbed throughout: no slot keeps
        // its reading, so leaving it out changes nothing.
        r.blocks_ms = vec![vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0], vec![5.0, 6.0, 7.0]];
        assert_eq!(r.spread(spec("op_p50_ms")), 0.0);
        // Two disturbed: leaving the clean one out doubles the median.
        r.blocks_ms = vec![vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0], vec![2.0, 4.0, 6.0]];
        assert_eq!(r.spread(spec("op_p50_ms")), 1.0);
    }
}
