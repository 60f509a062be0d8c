//! `run`: the parent only orchestrates. For each pass it spawns one
//! measuring process per workload, one after the other, rotating
//! through the workloads so a noisy minute on a shared host hits all
//! of them; then it pools what they report.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::metrics::{Repeats, END_TO_END};
use crate::stats::median;
use crate::{host, out_dir, workloads, Flags};

/// A pass whose host kernel reads further than this from the run's
/// median is disturbed and run again.
const DISTURBED: f64 = 0.10;
const MAX_RETRIES: usize = 2;

/// What one workload's passes add up to.
#[derive(Default)]
struct Pooled {
    /// One repeat per pass: its block of op latencies and the values
    /// its measuring process reported.
    passes: Repeats,
    retries: usize,
    disturbed_passes: usize,
    per_layer: Option<Value>,
}

/// Spawn this program as one measuring process and parse the result
/// line it prints last.
fn measure(workload: &str, seed: u64, trace: bool, smoke: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--full", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", if smoke { "smoke" } else { "full" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the measuring process: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: measuring process ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("{workload}: no result line"))?;
    json::parse(line).map_err(|e| format!("{workload}: unreadable result line: {e}"))
}

fn count(result: &Value, key: &str) -> u64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
}

/// One timed pass of one workload, with the host kernel timed before
/// and after; run again (at most `MAX_RETRIES` times) while either
/// reading is off the median of every reading so far.
fn timed_pass(
    workload: &str,
    seed: u64,
    smoke: bool,
    spins: &mut Vec<f64>,
    pooled: &mut Pooled,
) -> Result<(), String> {
    for attempt in 0..=MAX_RETRIES {
        let before = host::spin_ms();
        let result = measure(workload, seed, false, smoke)?;
        let after = host::spin_ms();
        spins.extend([before, after]);
        let usual = median(spins);
        let disturbed = [before, after].iter().any(|s| (s - usual).abs() / usual > DISTURBED);
        if disturbed && attempt < MAX_RETRIES {
            eprintln!("{workload}: host kernel read {before:.1} / {after:.1} ms against a median of {usual:.1} ms; pass disturbed, running it again");
            pooled.retries += 1;
            continue;
        }
        pooled.disturbed_passes += usize::from(disturbed);
        let passes = &mut pooled.passes;
        passes.attempted += count(&result, "attempted");
        passes.failed += count(&result, "failed");
        passes.fired_per_block =
            result.get("fired_per_block").and_then(Value::as_f64).unwrap_or(0.0);
        let block: Vec<f64> = result
            .get("latencies_ms")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        // A pass the RSS guard cut short has no complete block.
        if !block.is_empty() {
            passes.blocks_ms.push(block);
        }
        for (name, body) in result.get("metrics").map(Value::fields).unwrap_or_default() {
            match (body.get("value").and_then(Value::as_f64), body.get("skipped")) {
                (Some(v), _) => passes.values.entry(name.clone()).or_default().push(v),
                (None, Some(why)) => {
                    passes.skipped.insert(name.clone(), why.as_str().unwrap_or("skipped").into());
                }
                (None, None) => {}
            }
        }
        return Ok(());
    }
    unreachable!("the last attempt always returns")
}

/// A workload's end-to-end section: each metric pooled over the passes
/// by its own rule (`metrics::Pooling`), tails only where ten op slots
/// lie beyond them. Beside each value: what each pass read on its own,
/// and how far leaving any one pass out moves the value.
fn end_to_end(passes: &Repeats) -> Value {
    let mut out = Vec::new();
    for spec in END_TO_END {
        let Some(value) = passes.estimate(spec, None) else {
            continue; // not one of this workload's metrics
        };
        let mut fields = vec![("unit", Value::str(spec.unit))];
        match value {
            Ok(v) => {
                let own = passes.values.get(spec.name).map(Vec::as_slice).unwrap_or_default();
                fields.push(("value", Value::Num(v)));
                fields.push(("passes", Value::nums(own)));
                fields.push(("spread", Value::Num(passes.spread(spec))));
            }
            Err(why) => fields.push(("skipped", Value::Str(why))),
        }
        out.push((spec.name, Value::obj(fields)));
    }
    Value::obj(out)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_section() -> Value {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mem_gb = read("/proc/meminfo")
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(Value::Null, |kb| Value::Num((kb / 1024.0 / 1024.0 * 10.0).round() / 10.0));
    Value::obj([
        ("nproc", Value::Num(host::nproc() as f64)),
        ("cpu", Value::Str(cpu)),
        ("memory_gb", mem_gb),
        ("kernel", Value::str(read("/proc/sys/kernel/osrelease").trim())),
        ("git_rev", Value::Str(git_rev())),
    ])
}

fn print_report(report: &Value) {
    for (workload, body) in report.get("workloads").map(Value::fields).unwrap_or_default() {
        println!(
            "{workload}: {} attempted, {} failed, {} disturbed passes run again",
            count(body, "attempted"),
            count(body, "failed"),
            count(body, "retries"),
        );
        for section in ["end_to_end", "per_layer"] {
            for (name, m) in body.get(section).map(Value::fields).unwrap_or_default() {
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                match (
                    m.get("value").and_then(Value::as_f64),
                    m.get("skipped").and_then(Value::as_str),
                ) {
                    (Some(v), _) => {
                        let spread =
                            m.get("spread").and_then(Value::as_f64).map_or(String::new(), |s| {
                                format!("  (passes spread {:.1} %)", s * 100.0)
                            });
                        println!("  {name:<34}{v:>16.4} {unit}{spread}");
                    }
                    (None, Some(why)) => println!("  {name:<34}{:>16} {unit}  ({why})", "skipped"),
                    (None, None) => {}
                }
            }
        }
    }
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["traced", "smoke"])?;
    flags.only(&["passes", "seed", "traced", "smoke", "out"])?;
    let smoke = flags.has("smoke");
    let passes: usize = flags.number("passes", if smoke { 1 } else { 5 })?;
    let seed: u64 = flags.number("seed", 1)?;
    if passes == 0 {
        return Err("--passes must be at least 1".to_string());
    }
    let out = flags.value("out").map_or_else(|| out_dir().join("run.json"), Into::into);

    let mut spins = Vec::new();
    let mut pooled: BTreeMap<&str, Pooled> = BTreeMap::new();
    for pass in 0..passes {
        for workload in workloads::NAMES {
            eprintln!("pass {} of {passes}: {workload}", pass + 1);
            timed_pass(workload, seed, smoke, &mut spins, pooled.entry(workload).or_default())?;
        }
    }
    if flags.has("traced") {
        for workload in workloads::NAMES {
            eprintln!("traced pass: {workload}");
            let result = measure(workload, seed, true, smoke)?;
            let entry = pooled.entry(workload).or_default();
            entry.passes.attempted += count(&result, "attempted");
            entry.passes.failed += count(&result, "failed");
            entry.per_layer = result.get("metrics").cloned();
        }
    }

    let workloads_section = workloads::NAMES.iter().map(|&workload| {
        let p = &pooled[workload];
        let mut fields = vec![
            ("attempted", Value::Num(p.passes.attempted as f64)),
            ("failed", Value::Num(p.passes.failed as f64)),
            ("retries", Value::Num(p.retries as f64)),
            ("disturbed_passes", Value::Num(p.disturbed_passes as f64)),
            ("end_to_end", end_to_end(&p.passes)),
        ];
        if let Some(per_layer) = &p.per_layer {
            fields.push(("per_layer", per_layer.clone()));
        }
        (workload, Value::obj(fields))
    });
    let report = Value::obj([
        ("schema", Value::str("ruvo-benchmark/1")),
        ("host", host_section()),
        (
            "settings",
            Value::obj([
                ("passes", Value::Num(passes as f64)),
                ("seed", Value::Num(seed as f64)),
                ("scale", Value::str(if smoke { "smoke" } else { "full" })),
            ]),
        ),
        (
            "host_spin_ms",
            Value::obj([("median", Value::Num(median(&spins))), ("readings", Value::nums(&spins))]),
        ),
        ("workloads", Value::obj(workloads_section)),
    ]);

    print_report(&report);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, report.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("report written to {}", out.display());

    let failed: u64 = pooled.values().map(|p| p.passes.failed).sum();
    if failed > 0 {
        eprintln!("{failed} ops failed or gave a wrong answer");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_section_carries_value_passes_and_spread_or_the_skip_reason() {
        let mut passes = Repeats {
            blocks_ms: vec![(1..=120).map(f64::from).collect(); 3],
            attempted: 360,
            ..Default::default()
        };
        passes.values.insert("op_p50_ms".into(), vec![60.0, 60.0, 60.0]);
        passes.values.insert("setup_s".into(), vec![10.0, 12.0, 11.0]);
        passes.skipped.insert("reads_per_s".into(), "one hardware thread".into());
        let section = end_to_end(&passes);
        let field = |name: &str, f: &str| section.get(name).unwrap().get(f).cloned();
        assert_eq!(field("op_p50_ms", "value"), Some(Value::Num(60.0)));
        assert_eq!(field("op_p50_ms", "passes"), Some(Value::nums(&[60.0, 60.0, 60.0])));
        assert_eq!(field("op_p50_ms", "spread"), Some(Value::Num(0.0)));
        assert_eq!(field("setup_s", "value"), Some(Value::Num(11.0)));
        assert_eq!(field("setup_s", "spread"), Some(Value::Num(1.0 / 11.0)));
        assert_eq!(field("op_p99_ms", "value"), None, "one slot beyond p99");
        assert!(field("op_p99_ms", "skipped").is_some());
        assert_eq!(field("reads_per_s", "skipped"), Some(Value::str("one hardware thread")));
        assert!(section.get("recover_s").is_none(), "not this workload's metric");
    }
}
