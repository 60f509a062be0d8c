//! `compare A.json B.json`: two `run` reports, row by row. A is the
//! base; every ratio is B over A. Also the self-agreement check: two
//! runs of one commit must come out `ok` everywhere.

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The passes of A or of B lie further apart than the bound, and
    /// they overlap: the runs cannot tell the two sides apart.
    Unresolved,
    /// One side did not report the metric.
    Skipped,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Skipped => "skipped",
        }
    }
}

/// One side of a row: the value and the passes behind it.
pub struct Side {
    pub value: f64,
    pub passes: Vec<f64>,
    pub spread: f64,
}

fn side(metric: &Value) -> Option<Side> {
    Some(Side {
        value: metric.get("value")?.as_f64()?,
        passes: metric
            .get("passes")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
        spread: metric.get("spread").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

/// By how much of A's value B is worse (negative: better).
fn worse_by(spec: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match spec.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        // A zero base (an error rate): any move in the wrong direction
        // is past every bound.
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

pub fn verdict(spec: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    let better = |x: f64, y: f64| match spec.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    // Every pass of one side better than every pass of the other.
    let all_better = |xs: &[f64], ys: &[f64]| {
        !xs.is_empty() && !ys.is_empty() && xs.iter().all(|&x| ys.iter().all(|&y| better(x, y)))
    };
    let noisy = a.spread.max(b.spread) > spec.bound;
    let worse = worse_by(spec, a.value, b.value) > spec.bound;
    match (worse, noisy) {
        (true, false) => Verdict::Worse,
        (true, true) if all_better(&a.passes, &b.passes) => Verdict::Worse,
        (false, false) => Verdict::Ok,
        (false, true) if all_better(&b.passes, &a.passes) => Verdict::Ok,
        (_, true) => Verdict::Unresolved,
    }
}

/// B over A, its base; no ratio over a zero base.
fn ratio(a: f64, b: f64) -> String {
    if a == 0.0 {
        "-".to_string()
    } else {
        format!("{:.3}", b / a)
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if report.get("workloads").is_none() {
        return Err(format!("{path} is not a `run` report (no \"workloads\")"));
    }
    Ok(report)
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two report files".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A (base) = {a_path}\nB        = {b_path}");
    println!(
        "{:<16}{:<30}{:>14}{:>14}{:>9}{:>8}{:>9}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound", "spread"
    );
    let mut tally = [0usize; 4];
    let workloads = a.get("workloads").map(Value::fields).unwrap_or_default();
    for (workload, a_body) in workloads {
        let Some(b_body) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<16}only in A");
            continue;
        };
        for spec in END_TO_END {
            let metric =
                |body: &Value| body.get("end_to_end").and_then(|e| e.get(spec.name)).cloned();
            let (a_metric, b_metric) = (metric(a_body), metric(b_body));
            if a_metric.is_none() && b_metric.is_none() {
                continue; // not one of this workload's metrics
            }
            let sides = (a_metric.as_ref().and_then(side), b_metric.as_ref().and_then(side));
            let (row, v) = match sides {
                (Some(sa), Some(sb)) => {
                    let v = verdict(spec, &sa, &sb);
                    (
                        format!(
                            "{:>14.4}{:>14.4}{:>9}{:>7.0}%{:>8.1}%",
                            sa.value,
                            sb.value,
                            ratio(sa.value, sb.value),
                            spec.bound * 100.0,
                            sa.spread.max(sb.spread) * 100.0
                        ),
                        v,
                    )
                }
                _ => (format!("{:>14}{:>14}", "-", "-"), Verdict::Skipped),
            };
            tally[v as usize] += 1;
            println!(
                "{workload:<16}{:<30}{row}  {}",
                format!("{} [{}]", spec.name, spec.unit),
                v.name()
            );
        }
        // Counts the program made must repeat exactly between two runs
        // of one commit; they carry no bound, so they get no verdict.
        let layers = |body: &Value| body.get("per_layer").cloned().unwrap_or(Value::Null);
        let (a_layers, b_layers) = (layers(a_body), layers(b_body));
        for (name, a_metric) in a_layers.fields() {
            let value = |m: &Value| m.get("value").and_then(Value::as_f64);
            let (Some(va), Some(vb)) = (value(a_metric), b_layers.get(name).and_then(value)) else {
                continue;
            };
            let unit = a_metric.get("unit").and_then(Value::as_str).unwrap_or("");
            let note = match (unit == "count", va == vb) {
                (true, true) => "same",
                (true, false) => "DIFFERS",
                (false, _) => "",
            };
            println!(
                "{workload:<16}{:<30}{va:>14.4}{vb:>14.4}{:>9}{:>8}{:>9}  {note}",
                format!("{name} [{unit}]"),
                ratio(va, vb),
                "-",
                "-"
            );
        }
    }
    println!(
        "{} ok, {} worse, {} unresolved, {} skipped",
        tally[Verdict::Ok as usize],
        tally[Verdict::Worse as usize],
        tally[Verdict::Unresolved as usize],
        tally[Verdict::Skipped as usize]
    );
    Ok(if tally[Verdict::Worse as usize] > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics with a 10 % bound, whatever the real table says today.
    const fn bounded(name: &'static str, better: Better, bound: f64) -> EndToEnd {
        let pooling = crate::metrics::Pooling::Median;
        EndToEnd { name, unit: "ms", better, bound, every_workload: true, pooling }
    }
    const LATENCY: EndToEnd = bounded("latency", Better::Lower, 0.10);
    const RATE: EndToEnd = bounded("rate", Better::Higher, 0.10);
    const ERRORS: EndToEnd = bounded("errors", Better::Lower, 0.0);

    fn side_of(passes: &[f64]) -> Side {
        let value = crate::stats::median(passes);
        let (lo, hi) =
            passes.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        Side {
            value,
            passes: passes.to_vec(),
            spread: if value == 0.0 { 0.0 } else { (hi - lo) / value },
        }
    }

    #[test]
    fn steady_sides_are_ok_or_worse_by_the_bound() {
        let p50 = &LATENCY;
        let base = side_of(&[100.0, 101.0, 102.0]);
        assert_eq!(verdict(p50, &base, &side_of(&[105.0, 106.0, 107.0])), Verdict::Ok);
        assert_eq!(verdict(p50, &base, &side_of(&[80.0, 81.0, 82.0])), Verdict::Ok);
        assert_eq!(verdict(p50, &base, &side_of(&[115.0, 116.0, 117.0])), Verdict::Worse);
        let rate = &RATE;
        assert_eq!(verdict(rate, &base, &side_of(&[85.0, 86.0, 87.0])), Verdict::Worse);
        assert_eq!(verdict(rate, &base, &side_of(&[120.0, 121.0, 122.0])), Verdict::Ok);
    }

    #[test]
    fn noisy_sides_are_unresolved_unless_they_do_not_overlap() {
        let p50 = &LATENCY;
        let noisy = side_of(&[90.0, 100.0, 115.0]); // spread 25 % > 10 %
        assert_eq!(verdict(p50, &noisy, &side_of(&[95.0, 101.0, 110.0])), Verdict::Unresolved);
        assert_eq!(verdict(p50, &noisy, &side_of(&[100.0, 120.0, 140.0])), Verdict::Unresolved);
        // Every pass of B better than every pass of A: resolved.
        assert_eq!(verdict(p50, &noisy, &side_of(&[70.0, 80.0, 89.0])), Verdict::Ok);
        // Every pass of B worse than every pass of A, and past the bound.
        assert_eq!(verdict(p50, &noisy, &side_of(&[130.0, 140.0, 150.0])), Verdict::Worse);
    }

    #[test]
    fn any_new_error_is_worse() {
        let errors = &ERRORS;
        let clean = side_of(&[0.0, 0.0]);
        assert_eq!(verdict(errors, &clean, &side_of(&[0.0, 0.0])), Verdict::Ok);
        assert_eq!(verdict(errors, &clean, &side_of(&[0.001, 0.001])), Verdict::Worse);
    }
}
