//! Evaluation statistics and traces.

use std::fmt;
use std::time::Duration;

/// Counters for one evaluation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of strata evaluated.
    pub strata: usize,
    /// Total fixpoint rounds across all strata.
    pub rounds: usize,
    /// Distinct fired ground update-terms (|T¹| summed over strata).
    pub fired_updates: usize,
    /// Versions created (relevant VIDs that were not active).
    pub versions_created: usize,
    /// Method-applications copied in step 2 (frame-copy volume).
    pub facts_copied: usize,
    /// (rule, round) evaluations actually performed.
    pub rule_evaluations: usize,
    /// (rule, round) evaluations skipped by delta filtering.
    pub rule_evaluations_skipped: usize,
    /// Delta-seeded (semi-naive) rule passes: evaluations that joined
    /// from the previous round's changed objects instead of the full
    /// relations.
    pub rule_evaluations_seeded: usize,
    /// Wall-clock time of the run (zero duration if not measured).
    pub elapsed: Duration,
    /// Pool-execution observability (serial runs record only the
    /// apply timings).
    pub parallel: ParallelStats,
}

/// Observability counters for the worker pool: how the rounds' work
/// was partitioned and how well the workers were utilized. With
/// [`crate::EngineConfig::parallel`] off the run is the width-1 pool
/// of the same rounds: `workers` and the scan fields stay zero (the
/// scan tasks are not split into pool jobs), the `apply_*` timings are
/// recorded as at any other width.
///
/// Wall/busy durations are *execution* telemetry: they vary run to
/// run and are deliberately excluded from the determinism contract
/// (which covers results, deltas and the logical counters of
/// [`EvalStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Worker cap the run's pool was created with.
    pub workers: usize,
    /// Scan sub-tasks executed across all rounds (after seed
    /// splitting; equals the task count when nothing was split).
    pub scan_subtasks: usize,
    /// Seeded tasks that were split into per-shard sub-tasks.
    pub seed_splits: usize,
    /// Full (unseeded) tasks — round-1 scans and unseedable fallbacks
    /// — split into per-shard sub-tasks over the whole object set.
    pub full_splits: usize,
    /// Pool jobs that bundled two or more scan units of one rule
    /// dependency component (see [`crate::deps::RuleDepGraph`]);
    /// singleton jobs are not counted.
    pub component_jobs: usize,
    /// Scan units carried inside those bundled component jobs.
    pub component_units: usize,
    /// Largest unit count of any single component job.
    pub component_units_max: usize,
    /// Wall-clock time summed over the rounds' scan regions (step 1).
    pub scan_wall: Duration,
    /// Busy time of the slowest scan worker, summed over rounds.
    pub scan_busy_max: Duration,
    /// Total scan worker busy time, summed over rounds.
    pub scan_busy_total: Duration,
    /// Wall-clock time summed over the rounds' apply regions (steps
    /// 2+3: state preparation and the sharded commit).
    pub apply_wall: Duration,
    /// Busy time of the slowest apply worker, summed over rounds.
    pub apply_busy_max: Duration,
    /// Total apply worker busy time, summed over rounds.
    pub apply_busy_total: Duration,
}

impl ParallelStats {
    /// Scan-phase imbalance: slowest worker's busy share over the
    /// perfectly-balanced share (1.0 = even, `workers` = one worker
    /// did everything). `None` until a parallel scan region ran.
    pub fn scan_imbalance(&self) -> Option<f64> {
        imbalance(self.workers, self.scan_busy_max, self.scan_busy_total)
    }

    /// Apply-phase imbalance, same definition.
    pub fn apply_imbalance(&self) -> Option<f64> {
        imbalance(self.workers, self.apply_busy_max, self.apply_busy_total)
    }

    /// Rule-level bundling imbalance: the largest component job's unit
    /// count over the mean bundled-job size (1.0 = every bundle equal;
    /// large values mean one dependent-rule cluster dominates the
    /// round and seed splitting is the only lever left). `None` until
    /// a component job was scheduled.
    pub fn rule_imbalance(&self) -> Option<f64> {
        if self.component_jobs == 0 || self.component_units == 0 {
            return None;
        }
        Some(
            self.component_units_max as f64 * self.component_jobs as f64
                / self.component_units as f64,
        )
    }
}

fn imbalance(workers: usize, busy_max: Duration, busy_total: Duration) -> Option<f64> {
    if workers < 2 || busy_total.is_zero() {
        return None;
    }
    Some(busy_max.as_secs_f64() * workers as f64 / busy_total.as_secs_f64())
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} strata, {} rounds, {} fired updates, {} versions created, {} facts copied, \
             {} rule evaluations ({} skipped, {} seeded), {:?}",
            self.strata,
            self.rounds,
            self.fired_updates,
            self.versions_created,
            self.facts_copied,
            self.rule_evaluations,
            self.rule_evaluations_skipped,
            self.rule_evaluations_seeded,
            self.elapsed
        )?;
        if self.parallel.workers > 1 {
            write!(f, "; {}", self.parallel)?;
        }
        Ok(())
    }
}

impl fmt::Display for ParallelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} workers, {} scan sub-tasks ({} seed splits, {} component jobs, \
             rule imbalance {}), scan {:?} wall (imbalance {}), \
             apply {:?} wall (imbalance {})",
            self.workers,
            self.scan_subtasks,
            self.seed_splits,
            self.component_jobs,
            fmt_imbalance(self.rule_imbalance()),
            self.scan_wall,
            fmt_imbalance(self.scan_imbalance()),
            self.apply_wall,
            fmt_imbalance(self.apply_imbalance()),
        )
    }
}

fn fmt_imbalance(x: Option<f64>) -> String {
    match x {
        Some(x) => format!("{x:.2}"),
        None => "n/a".to_string(),
    }
}

/// Per-round trace entry (collected at `TraceLevel::Rounds`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundTrace {
    /// Stratum index.
    pub stratum: usize,
    /// Round number within the stratum (1-based).
    pub round: usize,
    /// Rules (indices) evaluated this round.
    pub evaluated: Vec<usize>,
    /// Newly fired updates this round.
    pub new_fired: usize,
    /// Versions touched this round.
    pub touched: usize,
}

/// Per-stratum trace entry (collected at `TraceLevel::Strata` and up).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StratumTrace {
    /// Stratum index.
    pub stratum: usize,
    /// Rules (indices) in the stratum.
    pub rules: Vec<usize>,
    /// Rounds until fixpoint (including the final empty round).
    pub rounds: usize,
    /// Fired updates accumulated by the stratum.
    pub fired: usize,
}

impl fmt::Display for StratumTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stratum {}: {} rules, {} rounds, {} fired",
            self.stratum,
            self.rules.len(),
            self.rounds,
            self.fired
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_display_mentions_all_counters() {
        let s = EvalStats { strata: 3, rounds: 5, fired_updates: 7, ..Default::default() };
        let text = s.to_string();
        assert!(text.contains("3 strata"));
        assert!(text.contains("5 rounds"));
        assert!(text.contains("7 fired"));
        // Serial runs don't clutter the line with parallel telemetry.
        assert!(!text.contains("workers"));
    }

    #[test]
    fn stats_display_includes_parallel_telemetry_when_parallel() {
        let s = EvalStats {
            parallel: ParallelStats {
                workers: 4,
                scan_subtasks: 12,
                seed_splits: 2,
                component_jobs: 2,
                component_units: 6,
                component_units_max: 4,
                scan_busy_max: Duration::from_millis(6),
                scan_busy_total: Duration::from_millis(12),
                ..Default::default()
            },
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("4 workers"));
        assert!(text.contains("12 scan sub-tasks"));
        assert!(text.contains("2 seed splits"));
        assert!(text.contains("2 component jobs"), "{text}");
        // max=4 units over mean 6/2=3 units per bundle: 1.33.
        assert!(text.contains("rule imbalance 1.33"), "{text}");
        // busy_max=6ms over total=12ms on 4 workers: 6*4/12 = 2.00.
        assert!(text.contains("imbalance 2.00"), "{text}");
    }

    #[test]
    fn imbalance_is_none_without_parallel_regions() {
        let p = ParallelStats::default();
        assert_eq!(p.scan_imbalance(), None);
        assert_eq!(p.apply_imbalance(), None);
        assert_eq!(p.rule_imbalance(), None);
    }
}
