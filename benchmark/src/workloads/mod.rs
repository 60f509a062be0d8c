//! The four workloads. Each builds its inputs from the seed alone,
//! times one kind of op in a closed loop (one client that waits for
//! every reply), and checks every output against a reference the
//! engine did not compute.

pub mod apply;
pub mod point_query;
pub mod txn_stream;

use std::collections::BTreeMap;

use ruvo_obase::ObjectBase;
use ruvo_term::Const;

use crate::spans::Tracer;

/// Workload names, in the order runs rotate through them.
pub const NAMES: [&str; 4] = ["batch_update", "closure_rounds", "txn_stream", "point_query"];

/// Input sizes: `Full` is what every reported number uses; `Smoke` is
/// a seconds-long pass over the same code for CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Abort a pass whose process grows past this, so a regression in what
/// a commit retains fails the benchmark instead of the host.
pub const RSS_GUARD_MB: f64 = 6.0 * 1024.0;

/// What the timed and traced loops record.
#[derive(Default)]
pub struct Recorder {
    /// One entry per completed block: a latency per op, in ms, in op
    /// order — the same ops in every block of a workload and seed.
    pub blocks_ms: Vec<Vec<f64>>,
    /// Fired update-terms the ops of a block report (0 where the op's
    /// public entry point reports none).
    pub fired_per_block: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-block values of the metrics only some workloads have.
    pub extras: BTreeMap<String, Vec<f64>>,
    /// Why a metric a workload normally reports is missing this run.
    pub skipped: BTreeMap<String, String>,
    /// What went wrong, for stderr.
    pub failures: Vec<String>,
    /// The RSS guard cut a block short: start no further block.
    pub aborted: bool,
}

impl Recorder {
    /// Count a wrong or failed op; the first few are kept verbatim.
    pub fn fail(&mut self, ops: u64, what: impl FnOnce() -> String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    pub fn extra(&mut self, name: &str, value: f64) {
        self.extras.entry(name.to_string()).or_default().push(value);
    }

    pub fn skip(&mut self, name: &str, why: &str) {
        self.skipped.insert(name.to_string(), why.to_string());
    }

    /// True (after recording the failure) when the process has outgrown
    /// [`RSS_GUARD_MB`]; `remaining` ops of the block count as failed.
    pub fn over_rss_guard(&mut self, workload: &str, remaining: usize) -> bool {
        self.guard_rss(workload, remaining, crate::host::rss_mb())
    }

    fn guard_rss(&mut self, workload: &str, remaining: usize, rss_mb: Option<f64>) -> bool {
        match rss_mb {
            Some(rss) if rss > RSS_GUARD_MB => {
                self.aborted = true;
                self.attempted += remaining as u64;
                self.fail(remaining as u64, || {
                    format!("{workload}: resident set {rss:.0} MB passed the {RSS_GUARD_MB:.0} MB guard; pass aborted with {remaining} ops left")
                });
                true
            }
            _ => false,
        }
    }
}

/// The inputs the per-layer probes run on: the workload's own base,
/// program texts and goals, so each layer is measured on what the timed
/// op feeds it.
pub struct LayerInputs {
    /// The committed base the ops start from (no `exists` facts).
    pub base: ObjectBase,
    /// The base the probes that *apply* a program run on: `base`
    /// itself, except where the workload never applies its program to
    /// it and doing so would take seconds.
    pub apply_base: ObjectBase,
    /// A method every object of `base` defines, for point reads.
    pub lookup_method: &'static str,
    /// Update-program texts, in the order the workload applies them.
    pub programs: Vec<String>,
    /// The program the goals are asked against.
    pub query_program: String,
    /// Goal texts with their reference answers.
    pub goals: Vec<(String, Vec<Vec<Const>>)>,
    /// How many of `programs` the store probes log and replay (a
    /// replayed record costs a whole evaluation).
    pub store_records: usize,
}

pub trait Workload {
    /// Ops in one block — the fixed unit of work whose repetition fills
    /// a run, so two commits under comparison do identical work.
    fn block_ops(&self) -> usize;

    /// Ops the traced run pushes through each of its loops: enough of
    /// a block to show every step, few enough to leave time for the
    /// probes.
    fn traced_ops(&self) -> usize;

    /// Run the first `ops` ops of a block through the public entry
    /// point users call, timing each and checking its output.
    fn run_block(&mut self, ops: usize, rec: &mut Recorder);

    /// The same ops, each replaced by its decomposition into calls on
    /// the layers' public functions, one span per call.
    fn trace_block(&mut self, ops: usize, tracer: &mut Tracer, rec: &mut Recorder);

    fn layer_inputs(&self) -> LayerInputs;
}

/// Build workload `name` from `seed`: generate inputs, open the
/// database, prepare programs, warm caches. The caller times this as
/// `setup_s`.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "batch_update" => Box::new(apply::batch_update(seed, scale)),
        "closure_rounds" => Box::new(apply::closure_rounds(seed, scale)),
        "txn_stream" => Box::new(txn_stream::TxnStream::setup(seed, scale)),
        "point_query" => Box::new(point_query::PointQuery::setup(seed, scale)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_guard_fails_the_rest_of_the_block_and_stops_the_run() {
        let mut rec = Recorder::default();
        assert!(!rec.guard_rss("txn_stream", 500, Some(900.0)));
        assert!(!rec.guard_rss("txn_stream", 500, None));
        assert!(!rec.aborted && rec.failed == 0);
        assert!(rec.guard_rss("txn_stream", 500, Some(RSS_GUARD_MB + 1.0)));
        assert!(rec.aborted);
        assert_eq!((rec.attempted, rec.failed), (500, 500));
        assert!(rec.failures[0].contains("txn_stream"), "{:?}", rec.failures);
    }
}
