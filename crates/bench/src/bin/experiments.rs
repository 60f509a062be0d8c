//! Print every experiment table from EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p ruvo-bench --bin experiments            # full sweep
//! cargo run --release -p ruvo-bench --bin experiments -- --quick # small sizes
//! cargo run --release -p ruvo-bench --bin experiments -- E4 E8   # selected
//! cargo run --release -p ruvo-bench --bin experiments -- --json=PATH
//! ```
//!
//! `--json=PATH` skips the Markdown report and instead writes the
//! machine-readable E14 incremental-checkpoint record (dirty-set,
//! reopen, and commit-p99 axes) plus the E10 durability and E8C
//! concurrency records and the E7 + A6 medians
//! (the perf trajectory record) to `PATH`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(json_arg) = args.iter().find(|a| *a == "--json" || a.starts_with("--json=")) {
        let Some(path) = json_arg.strip_prefix("--json=").filter(|p| !p.is_empty()) else {
            eprintln!("--json needs a path: --json=PATH");
            return ExitCode::from(2);
        };
        let json = ruvo_bench::experiments::bench_json(quick);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote {path}");
        return ExitCode::SUCCESS;
    }
    let selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();

    let experiments = ruvo_bench::experiments::all();
    if let Some(unknown) =
        selected.iter().find(|s| !experiments.iter().any(|(id, _, _)| id.eq_ignore_ascii_case(s)))
    {
        eprintln!("unknown experiment id: {unknown}");
        eprintln!(
            "available: {}",
            experiments.iter().map(|(id, _, _)| *id).collect::<Vec<_>>().join(", ")
        );
        return ExitCode::from(2);
    }

    for (id, title, runner) in experiments {
        if !selected.is_empty() && !selected.iter().any(|s| s.eq_ignore_ascii_case(id)) {
            continue;
        }
        println!("## {id} — {title}\n");
        let (report, elapsed) = ruvo_bench::time(|| runner(quick));
        println!("{report}");
        println!("_({id} completed in {:.2}s)_\n", elapsed.as_secs_f64());
    }
    ExitCode::SUCCESS
}
