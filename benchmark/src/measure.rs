//! One measuring process: one workload, one seed, timed or traced.
//! This is what `BENCHMARK.json`'s command runs, and what `run` spawns
//! once per pass — a process of its own per workload, so peak memory is
//! that workload's and nobody else's.

use std::time::Instant;

use crate::json::Value;
use crate::layers::{self, PER_LAYER};
use crate::metrics::{Repeats, END_TO_END};
use crate::spans::{self, Tracer};
use crate::stats::{mean, median, sorted};
use crate::workloads::{self, Recorder, Scale};
use crate::{host, out_dir};

/// Set-ups per run at least, so `setup_s` is a median.
const MIN_SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Keep starting blocks until this much time has passed; 0 runs
    /// exactly one block.
    pub seconds: f64,
    pub trace: bool,
    /// Also report the metrics only some workloads have, skipped ones
    /// with their reason, and the latency of every op slot (for `run`,
    /// which pools them across passes).
    pub full: bool,
    pub scale: Scale,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `Err` is why the metric is skipped this run.
    pub value: Result<f64, String>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Per op slot of a block, the fastest of the run's repeats.
    pub latencies_ms: Vec<f64>,
    /// Fired update-terms a block reports (0: its ops report none).
    pub fired_per_block: f64,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` unless `full`.
    pub fn to_json(&self, full: bool) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let body = match &m.value {
                Ok(v) => Value::obj([("value", Value::Num(*v)), ("unit", Value::str(m.unit))]),
                Err(why) => {
                    Value::obj([("skipped", Value::str(why)), ("unit", Value::str(m.unit))])
                }
            };
            (m.name, body)
        });
        let mut fields = vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ];
        if full {
            fields.push(("latencies_ms", Value::nums(&self.latencies_ms)));
            fields.push(("fired_per_block", Value::Num(self.fired_per_block)));
        }
        Value::obj(fields)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; the workloads are {}",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    let outcome = if args.trace { traced(args) } else { timed(args) };
    Ok(outcome)
}

fn setup(args: &Args) -> Box<dyn workloads::Workload> {
    workloads::setup(&args.workload, args.seed, args.scale).expect("workload name was checked")
}

fn report_failures(rec: &Recorder) {
    for failure in &rec.failures {
        eprintln!("FAILED: {failure}");
    }
}

/// Blocks of ops through the public entry points, tracing and
/// allocation counting off, every output checked.
fn timed(args: &Args) -> Outcome {
    let mut rec = Recorder::default();
    let mut setups = Vec::new();
    let started = Instant::now();
    loop {
        let setup_started = Instant::now();
        let mut workload = setup(args);
        setups.push(setup_started.elapsed().as_secs_f64());
        let ops = workload.block_ops();
        workload.run_block(ops, &mut rec);
        if started.elapsed().as_secs_f64() >= args.seconds || rec.aborted {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let setup_started = Instant::now();
        drop(setup(args));
        setups.push(setup_started.elapsed().as_secs_f64());
    }
    report_failures(&rec);

    let mut repeats = Repeats {
        blocks_ms: rec.blocks_ms,
        values: rec.extras,
        skipped: rec.skipped,
        fired_per_block: rec.fired_per_block,
        attempted: rec.attempted,
        failed: rec.failed,
    };
    repeats.values.insert("setup_s".into(), setups);
    if let Some(peak) = host::peak_rss_mb() {
        repeats.values.insert("peak_rss_mb".into(), vec![peak]);
    } else {
        repeats.skipped.insert("peak_rss_mb".into(), "/proc/self/status is unreadable".into());
    }

    let metrics = END_TO_END
        .iter()
        .filter(|spec| spec.every_workload || args.full)
        .filter_map(|spec| {
            let value = repeats.estimate(spec, None)?;
            Some(Metric { name: spec.name, unit: spec.unit, value })
        })
        .collect();
    let fastest = crate::stats::fastest_per_slot(repeats.blocks_ms.iter().map(Vec::as_slice));
    Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        latencies_ms: fastest,
        fired_per_block: repeats.fired_per_block,
    }
}

/// The traced run: the same ops through the public entry point, then
/// decomposed into spans, then under the counting allocator; then the
/// per-layer probes on the workload's inputs.
fn traced(args: &Args) -> Outcome {
    let spin_before = host::spin_ms();
    let mut workload = setup(args);
    let inputs = workload.layer_inputs();
    let ops = workload.traced_ops();

    let mut reference = Recorder::default();
    workload.run_block(ops, &mut reference);

    let mut tracer = Tracer::new();
    let mut decomposed = Recorder::default();
    workload.trace_block(ops, &mut tracer, &mut decomposed);

    let mut counted = Recorder::default();
    let ((), alloc_calls, alloc_bytes) =
        host::count_allocations(|| workload.run_block(ops, &mut counted));
    drop(workload);

    let mut probes = Recorder::default();
    let mut values = layers::probe(&inputs, &mut probes);
    let spin_after = host::spin_ms();

    let mut attempted = 0;
    let mut failed = 0;
    for rec in [&reference, &decomposed, &counted, &probes] {
        report_failures(rec);
        attempted += rec.attempted;
        failed += rec.failed;
    }

    values.insert("alloc.count_per_op", alloc_calls as f64 / ops as f64);
    values.insert("alloc.bytes_per_op", alloc_bytes as f64 / ops as f64);
    values.insert("host.spin_ms", (spin_before + spin_after) / 2.0);

    // The trace's own accounting, against the untraced op: how much
    // longer the decomposed op takes, and how much of the untraced op's
    // time no span of the decomposition covers.
    let untraced = reference.blocks_ms.pop().unwrap_or_default();
    let timed_ms = mean(&untraced);
    let layers = spans::by_name(tracer.spans());
    let (traced_ms, attributed_ms) = layers.get("op").map_or((0.0, 0.0), |op| {
        let total = mean(&op.total_ns) / 1e6;
        (total, total - mean(&op.self_ns) / 1e6)
    });
    values.insert("trace.overhead_pct", (traced_ms - timed_ms) / timed_ms * 100.0);
    values.insert("trace.unattributed_pct", (timed_ms - attributed_ms) / timed_ms * 100.0);
    let slowest = sorted(&untraced);
    values.insert("serve.apply_top3_ms", mean(&slowest[slowest.len().saturating_sub(3)..]));

    let trace_file = out_dir().join(format!("trace-{}.jsonl", args.workload));
    if let Err(e) = tracer.write_jsonl(&trace_file, &args.workload) {
        eprintln!("could not write {}: {e}", trace_file.display());
    }
    print_span_table(&args.workload, ops, timed_ms, &layers);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().ok_or_else(|| "the probe did not run".to_string()),
        })
        .collect();
    Outcome { attempted, failed, metrics, latencies_ms: untraced, fired_per_block: 0.0 }
}

/// The per-layer table of the traced ops, from their spans: a layer's
/// self time is its span minus what its child spans cover.
fn print_span_table(
    workload: &str,
    ops: usize,
    timed_ms: f64,
    layers: &std::collections::BTreeMap<&'static str, spans::LayerTimes>,
) {
    eprintln!("{workload}: {ops} traced ops; the untraced op takes {timed_ms:.4} ms on average");
    eprintln!("  {:<26}{:>8}{:>14}{:>14}{:>10}", "span", "count", "median us", "self us", "of op");
    for (name, times) in layers {
        eprintln!(
            "  {:<26}{:>8}{:>14.2}{:>14.2}{:>9.1}%",
            name,
            times.total_ns.len(),
            median(&times.total_ns) / 1e3,
            median(&times.self_ns) / 1e3,
            times.self_ns.iter().sum::<f64>() / 1e6 / (timed_ms * ops as f64) * 100.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn args(workload: &str, trace: bool, full: bool) -> Args {
        Args { workload: workload.into(), seed: 1, seconds: 0.0, trace, full, scale: Scale::Smoke }
    }

    #[test]
    fn timed_run_reports_exactly_the_contract_metrics() {
        for name in workloads::NAMES {
            let outcome = run(&args(name, false, false)).unwrap();
            assert_eq!(outcome.failed, 0, "{name}");
            let line = outcome.to_json(false);
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<&str> =
                line.get("metrics").unwrap().fields().iter().map(|(k, _)| k.as_str()).collect();
            let contract: Vec<&str> =
                END_TO_END.iter().filter(|m| m.every_workload).map(|m| m.name).collect();
            assert_eq!(names, contract, "{name}");
            for (metric, body) in line.get("metrics").unwrap().fields() {
                assert!(body.get("value").unwrap().as_f64().unwrap() > 0.0, "{name}: {metric}");
            }
        }
    }

    #[test]
    fn full_report_adds_the_workload_specific_metrics_and_latencies() {
        let outcome = run(&args("txn_stream", false, true)).unwrap();
        let line = outcome.to_json(true);
        let metrics = line.get("metrics").unwrap();
        for name in ["recover_s", "disk_write_bytes_per_commit", "error_rate", "op_p90_ms"] {
            assert!(metrics.get(name).is_some(), "{name}");
        }
        // 150 smoke commits support a p90 but not a p99.
        assert!(metrics.get("op_p90_ms").unwrap().get("value").is_some());
        assert!(metrics.get("op_p99_ms").unwrap().get("skipped").is_some());
        assert_eq!(line.get("latencies_ms").unwrap().as_arr().len(), 150);
        assert!(metrics.get("fired_per_s").is_none());
        let batch = run(&args("batch_update", false, true)).unwrap().to_json(true);
        assert!(batch.get("metrics").unwrap().get("fired_per_s").is_some());
        assert!(batch.get("metrics").unwrap().get("recover_s").is_none());
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_and_writes_the_trace() {
        let outcome = run(&args("closure_rounds", true, false)).unwrap();
        assert_eq!(outcome.failed, 0);
        let line = outcome.to_json(false);
        let names: Vec<&str> =
            line.get("metrics").unwrap().fields().iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
        for (metric, body) in line.get("metrics").unwrap().fields() {
            assert!(body.get("value").is_some(), "{metric} was skipped");
        }
        let trace = std::fs::read_to_string(out_dir().join("trace-closure_rounds.jsonl")).unwrap();
        let first = json::parse(trace.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("op"));
        assert_eq!(first.get("workload").unwrap().as_str(), Some("closure_rounds"));
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(run(&args("nope", false, false)).is_err());
    }

    #[test]
    fn benchmark_json_declares_what_the_program_reports() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let declared = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            declared
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |pairs: Vec<(&str, &str)>| -> Vec<(String, String)> {
            pairs.into_iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(
            names("end_to_end"),
            own(END_TO_END.iter().filter(|m| m.every_workload).map(|m| (m.name, m.unit)).collect())
        );
        assert_eq!(names("per_layer"), own(PER_LAYER.to_vec()));
        for m in declared.get("end_to_end").unwrap().as_arr() {
            let spec = END_TO_END
                .iter()
                .find(|s| Some(s.name) == m.get("name").unwrap().as_str())
                .unwrap();
            assert_eq!(m.get("bound").unwrap().as_f64(), Some(spec.bound));
            let better =
                if spec.better == crate::metrics::Better::Lower { "lower" } else { "higher" };
            assert_eq!(m.get("better").unwrap().as_str(), Some(better));
        }
        let workloads: Vec<&str> = declared
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, workloads::NAMES);
    }
}
