//! `cmmf-dse` — run correlated multi-objective multi-fidelity directive DSE on
//! a kernel described in the text spec format.
//!
//! ```text
//! cmmf-dse <spec-file> [--iters N] [--seed S] [--variant ours|fpl18]
//!          [--divergence D] [--batch Q] [--async-slots K] [--csv]
//!          [--checkpoint FILE] [--journal FILE]
//!          [--no-warm-start] [--mixed-precision]
//! ```
//!
//! Every run goes through one event loop on a deterministic virtual clock (see
//! ARCHITECTURE.md, "Scheduler & virtual clock"). By default each step picks
//! `--batch Q` configurations (1 by default) and waits for all of them; with
//! `--async-slots K` (K >= 1) up to K simulated tool runs stay in flight
//! instead, each finished run freeing its slot for a new pick. The two flags
//! exclude each other (a run with both is refused). Whenever more than one
//! run can be in flight, the reported simulated time is the schedule's
//! *makespan*. `--checkpoint FILE` writes a resumable checkpoint after every
//! step (with `--async-slots`, every completion) and, if FILE already exists,
//! resumes from it — re-running the same command after a kill continues the
//! run bit-identically, even mid-overlap.
//! `--journal FILE` appends one JSON line per loop event (model fits,
//! acquisition argmaxes, tool runs, dispatches/completions, front updates;
//! see ARCHITECTURE.md, "Observability & resume"). On a checkpoint resume the
//! journal is opened in append mode after torn-tail recovery, so one file
//! accumulates the whole logical run even across kills mid-write.
//!
//! `--no-warm-start` disables cross-step warm starting of the
//! hyperparameter searches (on by default; see `CmmfConfig::warm_start_hyperopt`),
//! and `--mixed-precision` screens the searches' likelihood evaluations
//! through the f32 + refinement factorization (off by default; toleranced,
//! see `CmmfConfig::mixed_precision`). Neither flag participates in the
//! checkpoint fingerprint: a checkpointed run may be resumed under either
//! setting.
//!
//! Argument parsing is shared with `cmmf-serve` (see `cmmf_hls::cli`):
//! duplicate flags, out-of-range values (`--iters 0`, `--batch 0`,
//! `--divergence 1.5`), and unknown flags are all usage errors with exit
//! code 2.
//!
//! The flow is evaluated by the built-in three-stage simulator (see the
//! `cmmf-fidelity-sim` crate docs); `--divergence` controls how non-linearly
//! the HLS reports relate to post-implementation reality (0 = trust HLS,
//! 1 = HLS is badly misleading).

use cmmf_hls::cli::{ArgStream, CliError, JobFlags};
use cmmf_hls::cmmf::{JsonlTracer, Optimizer, TracerHandle};
use cmmf_hls::fidelity_sim::{FlowSimulator, SimParams};
use cmmf_hls::hls_model::spec;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: cmmf-dse <spec-file> [--iters N] [--seed S] \
                     [--variant ours|fpl18] [--divergence D] [--batch Q] \
                     [--async-slots K] [--csv] \
                     [--checkpoint FILE] [--journal FILE] \
                     [--no-warm-start] [--mixed-precision]";

struct Args {
    spec_path: String,
    job: JobFlags,
    csv: bool,
    checkpoint: Option<PathBuf>,
    journal: Option<PathBuf>,
}

enum Parsed {
    Help,
    Run(Box<Args>),
}

fn parse_args(tokens: Vec<String>) -> Result<Parsed, CliError> {
    let mut args = ArgStream::new(tokens);
    let mut job = JobFlags::default();
    let mut spec_path = String::new();
    let mut csv = false;
    let mut checkpoint = None;
    let mut journal = None;
    while let Some(arg) = args.next_arg() {
        if job.try_consume(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--csv" => {
                args.flag_once("--csv")?;
                csv = true;
            }
            "--checkpoint" => checkpoint = Some(PathBuf::from(args.value_of("--checkpoint")?)),
            "--journal" => journal = Some(PathBuf::from(args.value_of("--journal")?)),
            "--help" | "-h" => return Ok(Parsed::Help),
            other if spec_path.is_empty() && !other.starts_with('-') => {
                spec_path = other.to_string();
            }
            other if !other.starts_with('-') => {
                return Err(CliError {
                    message: format!("unexpected positional `{other}` (spec file already given)"),
                })
            }
            other => {
                return Err(CliError {
                    message: format!("unknown flag `{other}`"),
                })
            }
        }
    }
    if spec_path.is_empty() {
        return Err(CliError {
            message: "missing <spec-file>".into(),
        });
    }
    Ok(Parsed::Run(Box::new(Args {
        spec_path,
        job,
        csv,
        checkpoint,
        journal,
    })))
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1).collect()) {
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Parsed::Run(args)) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.spec_path)
        .map_err(|e| format!("cannot read {}: {e}", args.spec_path))?;
    let builder = spec::parse(&text).map_err(|e| e.to_string())?;
    let space = builder.build_pruned().map_err(|e| e.to_string())?;
    eprintln!(
        "design space: {:.3e} raw configurations pruned to {}",
        builder.full_size(),
        space.len()
    );

    let sim = FlowSimulator::new(SimParams {
        divergence: args.job.divergence,
        ..SimParams::default()
    });
    let mut cfg = args.job.to_config();
    let resuming = args.checkpoint.as_ref().is_some_and(|p| p.exists());
    if let Some(path) = &args.journal {
        // A resumed run continues its journal; a fresh run starts one.
        let sink = if resuming {
            let (sink, recovery) = JsonlTracer::append_recovered(path)
                .map_err(|e| format!("cannot recover journal {}: {e}", path.display()))?;
            if recovery.was_torn() {
                eprintln!(
                    "journal {}: dropped a torn final line ({} bytes), resuming after {} records",
                    path.display(),
                    recovery.torn_bytes,
                    recovery.complete_records
                );
            }
            sink
        } else {
            JsonlTracer::create(path)
                .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?
        };
        cfg.tracer = TracerHandle::new(Arc::new(sink));
    }
    if resuming {
        if let Some(path) = &args.checkpoint {
            eprintln!("resuming from checkpoint {}", path.display());
        }
    }
    let opt = Optimizer::new(cfg);
    let result = match &args.checkpoint {
        Some(path) => opt.run_with_checkpoints(&space, &sim, path),
        None => opt.run(&space, &sim),
    }
    .map_err(|e| e.to_string())?;

    eprintln!(
        "evaluated {} configurations in {:.1} simulated {}tool-hours",
        result.evaluated_configs.len(),
        result.sim_seconds / 3600.0,
        if args.job.async_slots > 1 || args.job.batch > 1 {
            "(makespan) "
        } else {
            ""
        }
    );

    if args.csv {
        println!("power_w,delay_ns,lut_util");
        for p in &result.measured_pareto {
            println!("{:.4},{:.1},{:.4}", p[0], p[1], p[2]);
        }
    } else {
        println!(
            "learned Pareto front ({} points):",
            result.measured_pareto.len()
        );
        println!("{:>10} {:>14} {:>8}", "power (W)", "delay (ns)", "LUT %");
        for p in &result.measured_pareto {
            println!("{:>10.3} {:>14.0} {:>8.1}", p[0], p[1], p[2] * 100.0);
        }
        println!();
        println!("directive recipes of the sampled candidate set (best acquisition first):");
        let mut by_acq = result.candidate_set.clone();
        by_acq.sort_by(|a, b| b.acquisition.total_cmp(&a.acquisition));
        for c in by_acq.iter().take(3) {
            let directives: Vec<String> = space
                .resolve(c.config)
                .directives()
                .iter()
                .map(|d| d.to_string())
                .collect();
            println!("  [{}] {}", c.stage, directives.join(", "));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Parsed, CliError> {
        parse_args(tokens.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn degenerate_and_unknown_arguments_are_usage_errors() {
        for bad in [
            &["spec.k", "--iters", "0"][..],
            &["spec.k", "--batch", "0"],
            &["spec.k", "--async-slots", "0"],
            &["spec.k", "--divergence", "2"],
            &["spec.k", "--iters", "5", "--iters", "9"],
            &["spec.k", "--csv", "--csv"],
            &["spec.k", "--frobnicate"],
            &["spec.k", "second-positional"],
            &["--iters", "5"], // no spec file
            &["spec.k", "--checkpoint"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn a_full_valid_line_parses() {
        let parsed = parse(&[
            "gemm.spec",
            "--iters",
            "12",
            "--seed",
            "7",
            "--batch",
            "2",
            "--async-slots",
            "4",
            "--csv",
            "--checkpoint",
            "c.json",
            "--journal",
            "j.jsonl",
        ])
        .unwrap();
        let Parsed::Run(args) = parsed else {
            panic!("expected a run");
        };
        assert_eq!(args.spec_path, "gemm.spec");
        assert_eq!(args.job.iters, 12);
        assert_eq!(args.job.seed, 7);
        assert_eq!(args.job.batch, 2);
        assert_eq!(args.job.async_slots, 4);
        assert!(args.csv);
        assert_eq!(
            args.checkpoint.as_deref(),
            Some(std::path::Path::new("c.json"))
        );
        assert_eq!(
            args.journal.as_deref(),
            Some(std::path::Path::new("j.jsonl"))
        );
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(matches!(parse(&["--help"]), Ok(Parsed::Help)));
        assert!(matches!(parse(&["spec.k", "-h"]), Ok(Parsed::Help)));
    }
}
