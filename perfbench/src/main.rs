//! `cmmf-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! ```
//!
//! `NAME` is `paper-default`, `async-wide`, or `all`.
//! A run sets its workload up, measures for `S` seconds, checks every
//! output, and prints a human report on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! It exits 1 when any output check failed. `--quick` shrinks every
//! workload to one short pass; the crate's tests use it. See README.md.

mod calib;
mod dse;
mod layers;
mod report;
mod serve_mix;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 2] = ["paper-default", "async-wide"];

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measuring budget per workload, seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// One short pass per workload.
    pub quick: bool,
    /// The `cmmf-serve` binary.
    serve_bin: Option<PathBuf>,
    /// Scratch directory for daemon state, removed afterwards.
    work_dir: String,
}

impl Args {
    /// The measuring loops' share of `--seconds`; the rest is left for the
    /// measurements that follow a loop (output checks, replays).
    fn loop_seconds(&self) -> f64 {
        0.9 * self.seconds
    }
}

const USAGE: &str = "usage: cmmf-perfbench --workload paper-default|async-wide|all \
--seed N --seconds S --trace 0|1 [--quick] [--serve-bin PATH] [--work-dir DIR]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
        quick: false,
        serve_bin: None,
        work_dir: ".perfbench_work".into(),
    };
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => args.work_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.quick {
        args.seconds = 0.0;
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let budget = args.loop_seconds();
    if name == "async-wide" {
        return dse::run(&dse::DseWorkload::async_wide(args.quick), args, budget);
    }
    let w = dse::DseWorkload::paper_default(args.quick);
    if !args.trace {
        return dse::run(&w, args, budget);
    }
    // The traced run shares its budget with the serve session mix.
    let bin = args
        .serve_bin
        .as_deref()
        .ok_or("the traced paper-default run needs --serve-bin PATH")?;
    let mut out = dse::run(&w, args, budget / 2.0)?;
    let work = Path::new(&args.work_dir);
    serve_mix::run(bin, work, args.seed, budget / 2.0, &mut out)?;
    Ok(out)
}

fn report(name: &str, args: &Args, outcome: &Outcome) {
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "== {name} (seed {}, trace {}, {threads} hardware threads)",
        args.seed,
        u8::from(args.trace)
    );
    for (metric, unit) in table {
        let value = outcome.metrics.get(metric).copied().unwrap_or(0.0);
        eprintln!("  {metric:<32} {value:>14.6} {unit}");
    }
    let error_rate = outcome.failures.len() as f64 / outcome.attempted.max(1) as f64;
    eprintln!("  {:<32} {error_rate:>14.6} ratio", "error_rate");
    for f in &outcome.failures {
        eprintln!("  FAILED: {f}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let outcome =
            run_workload(name, &args).and_then(|o| o.result_line(args.trace).map(|l| (o, l)));
        match outcome {
            Ok((o, line)) => {
                report(name, &args, &o);
                all_correct &= o.failures.is_empty();
                if args.workload == "all" {
                    println!("{name}");
                }
                println!("{line}");
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(3);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
