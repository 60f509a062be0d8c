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
    /// Head firings step 1 emitted over all rounds, *before* dedup
    /// against the stratum's `T¹` — the work behind `fired_updates`.
    /// A logical counter (equal between runs of one input); the
    /// closer to `fired_updates`, the less a round re-derives.
    pub fired_candidates: usize,
    /// Versions created (relevant VIDs that were not active).
    pub versions_created: usize,
    /// Method-applications copied in step 2 (frame-copy volume).
    pub facts_copied: usize,
    /// (rule, round) evaluations actually performed.
    pub rule_evaluations: usize,
    /// (rule, round) evaluations skipped by delta filtering.
    pub rule_evaluations_skipped: usize,
    /// Delta-seeded (semi-naive) rule passes: evaluations that joined
    /// one body literal from the previous round's delta — the facts
    /// added to active versions, or whole changed versions — instead
    /// of the full relations.
    pub rule_evaluations_seeded: usize,
    /// Wall-clock time of the run (zero duration if not measured).
    pub elapsed: Duration,
    /// The run's serial stage timings: scan jobs and per-stage wall
    /// time.
    pub parallel: ParallelStats,
}

/// The serial stage timings of a run's rounds — the step-1 rule scans
/// and the step-2+3 apply — summed over all rounds.
///
/// `scan_subtasks` is a logical counter, like those of [`EvalStats`]:
/// equal between runs of one input. The wall durations vary run to run
/// and sum to at most [`EvalStats::elapsed`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Scan jobs issued across all rounds: one per round task (a rule,
    /// or a rule with one scan step seeded from the previous delta).
    pub scan_subtasks: usize,
    /// Wall-clock time summed over the rounds' scans (step 1).
    pub scan_wall: Duration,
    /// Wall-clock time summed over the rounds' applies (steps 2+3:
    /// state building, the tracked commit and the in-place repairs).
    pub apply_wall: Duration,
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} strata, {} rounds, {} fired updates of {} candidates, {} versions created, \
             {} facts copied, {} rule evaluations ({} skipped, {} seeded), {:?}; {}",
            self.strata,
            self.rounds,
            self.fired_updates,
            self.fired_candidates,
            self.versions_created,
            self.facts_copied,
            self.rule_evaluations,
            self.rule_evaluations_skipped,
            self.rule_evaluations_seeded,
            self.elapsed,
            self.parallel
        )
    }
}

impl fmt::Display for ParallelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scan sub-tasks, scan {:?} / apply {:?} wall",
            self.scan_subtasks, self.scan_wall, self.apply_wall,
        )
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
    /// Head firings step 1 emitted this round, before dedup.
    pub candidates: usize,
    /// Newly fired updates this round.
    pub new_fired: usize,
    /// Versions touched this round.
    pub touched: usize,
}

impl fmt::Display for RoundTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rules = self.evaluated.len();
        write!(
            f,
            "round {}: {} rule{} evaluated, {} candidates, {} new, {} versions touched",
            self.round,
            rules,
            if rules == 1 { "" } else { "s" },
            self.candidates,
            self.new_fired,
            self.touched
        )
    }
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
        let s = EvalStats {
            strata: 3,
            rounds: 5,
            fired_updates: 7,
            fired_candidates: 9,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("3 strata"));
        assert!(text.contains("5 rounds"));
        assert!(text.contains("7 fired updates of 9 candidates"), "{text}");
    }

    #[test]
    fn round_trace_display_is_one_line() {
        let rt = RoundTrace {
            stratum: 0,
            round: 57,
            evaluated: vec![1],
            candidates: 63,
            new_fired: 63,
            touched: 63,
        };
        assert_eq!(
            rt.to_string(),
            "round 57: 1 rule evaluated, 63 candidates, 63 new, 63 versions touched"
        );
    }

    #[test]
    fn stats_display_includes_stage_timings() {
        let s = EvalStats {
            parallel: ParallelStats {
                scan_subtasks: 12,
                scan_wall: Duration::from_millis(6),
                apply_wall: Duration::from_millis(3),
            },
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.ends_with("; 12 scan sub-tasks, scan 6ms / apply 3ms wall"), "{text}");
    }
}
