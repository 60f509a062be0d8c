//! The ruler: an end-to-end and per-layer benchmark of ruvo, driven
//! from outside through the crates' public functions. See `README.md`
//! for the workloads, the metrics and how to read a report.
//!
//! ```text
//! ruvo-benchmark --workload W --seed N --seconds S --trace 0|1   one measuring process
//! ruvo-benchmark run [--passes N] [--seed N] [--traced] [--smoke] [--out FILE]
//! ruvo-benchmark compare A.json B.json
//! ```

mod compare;
mod host;
mod json;
mod layers;
mod measure;
mod metrics;
mod orchestrate;
mod rng;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use workloads::Scale;

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "\
usage:
  ruvo-benchmark --workload W --seed N --seconds S --trace 0|1
      measure one workload in this process and print one JSON result line:
      timed end-to-end metrics (--trace 0) or per-layer metrics (--trace 1)
  ruvo-benchmark run [--passes N] [--seed N] [--traced] [--smoke] [--out FILE]
      every workload, one process per workload and pass; prints every metric
      and exits non-zero on a wrong answer
  ruvo-benchmark compare A.json B.json
      per workload and metric: both values, their ratio, the bound, a verdict;
      exits non-zero on a regression
workloads: batch_update, closure_rounds, txn_stream, point_query";

/// Everything the benchmark writes (data directories, traces, reports)
/// goes under its own `out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A data directory of this process's own under [`out_dir`].
pub fn fresh_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir().join(format!("{label}-{}-{n}", std::process::id()));
    // A leftover from a killed run with the same pid would make the
    // open refuse the directory.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `--name value` pairs and bare `--flag`s, in any order.
pub struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    /// `switches` take no value; every other flag takes one.
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let name =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = if switches.contains(&name) {
                None
            } else {
                Some(rest.next().ok_or_else(|| format!("--{name} needs a value"))?.clone())
            };
            pairs.push((name.to_string(), value));
        }
        Ok(Flags { pairs })
    }

    pub fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: {v:?} is not a valid number")),
        }
    }

    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.pairs.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

fn measure_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?;
    flags.only(&["workload", "seed", "seconds", "trace", "full", "scale"])?;
    let seconds: f64 = flags.number("seconds", 10.0)?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0..=600"));
    }
    let scale = match flags.value("scale") {
        None | Some("full") => Scale::Full,
        Some("smoke") => Scale::Smoke,
        Some(other) => return Err(format!("--scale {other:?}: expected full or smoke")),
    };
    let args = measure::Args {
        workload: flags.value("workload").ok_or("--workload is required")?.to_string(),
        seed: flags.number("seed", 1)?,
        seconds,
        trace: flags.number::<u8>("trace", 0)? != 0,
        full: flags.number::<u8>("full", 0)? != 0,
        scale,
    };
    let outcome = measure::run(&args)?;
    println!("{}", outcome.to_json(args.full).to_line());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => orchestrate::run(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        Some(_) => measure_one(&args),
    };
    result.unwrap_or_else(|message| {
        eprintln!("ruvo-benchmark: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let flags = Flags::parse(
            &strings(&["--passes", "2", "--smoke", "--seed", "9"]),
            &["smoke", "traced"],
        )
        .unwrap();
        assert!(flags.has("smoke") && !flags.has("traced"));
        assert_eq!(flags.number("passes", 3usize), Ok(2));
        assert_eq!(flags.number("seed", 1u64), Ok(9));
        assert_eq!(flags.number("missing", 7u64), Ok(7));
        assert!(flags.only(&["passes", "smoke"]).is_err());
        assert!(Flags::parse(&strings(&["--seed"]), &[]).is_err());
        assert!(Flags::parse(&strings(&["seed"]), &[]).is_err());
        assert!(Flags::parse(&strings(&["--seed", "x"]), &[])
            .unwrap()
            .number("seed", 1u64)
            .is_err());
    }
}
