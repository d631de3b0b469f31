//! `dt-perfbench` — the end-to-end ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload local_l6 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload for `--seconds`, checks every output, and prints
//! one JSON line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1` (which also writes the spans to
//! `.perfbench_trace/`). `--make-reference KEY` regenerates a committed
//! reference DOS instead. See `perfbench/README.md`.

mod client;
mod ledger;
mod load;
mod metrics;
mod pipeline;
mod reference;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::WORKLOADS;
use metrics::{END_TO_END, PER_LAYER};

/// Scratch space for checkpoints and registries, inside the checkout.
const WORK_DIR: &str = ".perfbench_work";
/// Where traced runs write their spans.
const TRACE_DIR: &str = ".perfbench_trace";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: dt-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       dt-perfbench --make-reference <{}>",
        names.join("|"),
        reference::MAKERS
            .iter()
            .map(|m| m.key)
            .collect::<Vec<_>>()
            .join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--make-reference") {
        return match argv.get(1).map(|k| reference::make(k)) {
            Some(Ok(path)) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Some(Err(e)) => {
                eprintln!("dt-perfbench: {e}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dt-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "dt-perfbench: unknown workload {:?}\n{}",
            args.workload,
            usage()
        );
        return ExitCode::from(2);
    };

    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("dt-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let (outcome, tracer) = ledger::run(workload, args.seed, args.seconds, args.trace, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);

    for line in &outcome.notes {
        println!("# {line}");
    }
    for f in &outcome.failures {
        println!("# FAILED: {f}");
    }
    let table = if args.trace {
        let path =
            PathBuf::from(TRACE_DIR).join(format!("{}-seed{}.jsonl", workload.name, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("# spans could not be written to {}: {e}", path.display()),
        }
        println!(
            "# {:<26} {:>7} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, n, total, own) in tracer.summary() {
            println!("# {name:<26} {n:>7} {total:>12.6} {own:>12.6}");
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    for (name, unit) in table {
        if let Some(v) = outcome.metrics.get(name) {
            println!("# {name:<28} {v:>16.6} {unit}");
        }
    }
    let correct = outcome.failed == 0;
    match outcome
        .metrics
        .result_line(table, correct, outcome.attempted.max(1), outcome.failed)
    {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dt-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
