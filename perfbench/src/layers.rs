//! Per-layer attribution, measured from outside the program: a run's
//! `TraceEvent` stream is summed into layer totals, and each crate's public
//! entry points are replayed on the data the run produced.

use crate::report::{mean, median};
use cmmf::eipv::EipvScorer;
use cmmf::{CmmfConfig, FidelityDataSet, FidelityModelStack, FitMode, StackFitOptions, TraceEvent};
use fidelity_sim::{FlowSimulator, RunOutcome, Stage};
use hls_model::DesignSpace;
use linalg::{Cholesky, Workspace};
use pareto::{pareto_front, FrontIndex};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use trace::json::JsonValue;
use trace::Stopwatch;

/// Layer totals of one traced run, summed from its events.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// `ModelFit` seconds per fit mode: optimize, refit, extend.
    pub fit_s: [f64; 3],
    /// NLL evaluations across every hyperparameter search.
    pub nll_evals: f64,
    /// Multi-start restarts run.
    pub restarts_run: f64,
    /// Warm-started searches that converged in place.
    pub warm_hits: f64,
    /// Warm-started searches that still ran the cold multi-start.
    pub warm_misses: f64,
    /// `AcquisitionScored` seconds.
    pub acq_s: f64,
    /// Candidates scored over every acquisition argmax.
    pub candidates: f64,
    /// Acquisition argmaxes (one per pick).
    pub decisions: f64,
    /// Simulated flow-stage runs (`ToolRun` events).
    pub tool_runs: f64,
    /// Asynchronous dispatches (`RunDispatched` events).
    pub dispatches: f64,
    /// Time-weighted mean of runs in flight over the virtual clock.
    pub mean_in_flight: f64,
    /// Checkpoints written.
    pub checkpoint_writes: f64,
    /// Checkpoint bytes written.
    pub checkpoint_bytes: f64,
    /// Events in the stream.
    pub events: f64,
    /// Bytes of the stream's JSONL encoding.
    pub journal_bytes: f64,
}

impl TraceSummary {
    /// Total `ModelFit` seconds.
    pub fn fit_total(&self) -> f64 {
        self.fit_s.iter().sum()
    }

    /// Sums an in-memory event stream.
    pub fn of_events(events: &[TraceEvent]) -> Self {
        let mut s = TraceSummary::default();
        let mut clock = InFlight::default();
        for e in events {
            s.events += 1.0;
            s.journal_bytes += (e.to_json().len() + 1) as f64;
            match e {
                TraceEvent::ModelFit {
                    fit_mode,
                    seconds,
                    nll_evals,
                    restarts_run,
                    warm_start_hits,
                    warm_start_misses,
                    ..
                } => {
                    s.fit_s[mode_index(fit_mode)] += seconds;
                    s.nll_evals += *nll_evals as f64;
                    s.restarts_run += *restarts_run as f64;
                    s.warm_hits += *warm_start_hits as f64;
                    s.warm_misses += *warm_start_misses as f64;
                }
                TraceEvent::AcquisitionScored {
                    candidates,
                    seconds,
                    ..
                } => {
                    s.acq_s += seconds;
                    s.candidates += *candidates as f64;
                    s.decisions += 1.0;
                }
                TraceEvent::ToolRun { .. } => s.tool_runs += 1.0,
                TraceEvent::RunDispatched {
                    clock: t,
                    in_flight,
                    ..
                } => {
                    s.dispatches += 1.0;
                    clock.advance(*t, *in_flight);
                }
                TraceEvent::RunCompleted {
                    clock: t,
                    in_flight,
                    ..
                } => clock.advance(*t, *in_flight),
                TraceEvent::CheckpointWritten { bytes, .. } => {
                    s.checkpoint_writes += 1.0;
                    s.checkpoint_bytes += *bytes as f64;
                }
                _ => {}
            }
        }
        s.mean_in_flight = clock.mean();
        s
    }

    /// Sums a JSONL journal as written by the session daemon.
    pub fn of_journal(records: &[JsonValue], file_bytes: u64) -> Self {
        let num = |r: &JsonValue, key: &str| r.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let mut s = TraceSummary {
            journal_bytes: file_bytes as f64,
            ..TraceSummary::default()
        };
        for r in records {
            s.events += 1.0;
            match r.get("event").and_then(JsonValue::as_str).unwrap_or("") {
                "model_fit" => {
                    let mode = r.get("fit_mode").and_then(JsonValue::as_str).unwrap_or("");
                    s.fit_s[mode_index(mode)] += num(r, "seconds");
                    s.nll_evals += num(r, "nll_evals");
                    s.restarts_run += num(r, "restarts_run");
                    s.warm_hits += num(r, "warm_start_hits");
                    s.warm_misses += num(r, "warm_start_misses");
                }
                "acquisition_scored" => {
                    s.acq_s += num(r, "seconds");
                    s.candidates += num(r, "candidates");
                    s.decisions += 1.0;
                }
                "tool_run" => s.tool_runs += 1.0,
                "run_dispatched" => s.dispatches += 1.0,
                "checkpoint_written" => {
                    s.checkpoint_writes += 1.0;
                    s.checkpoint_bytes += num(r, "bytes");
                }
                _ => {}
            }
        }
        s
    }

    /// Field-wise mean of several summaries.
    pub fn mean_of(all: &[TraceSummary]) -> TraceSummary {
        let m = |f: fn(&TraceSummary) -> f64| mean(&all.iter().map(f).collect::<Vec<_>>());
        TraceSummary {
            fit_s: [m(|s| s.fit_s[0]), m(|s| s.fit_s[1]), m(|s| s.fit_s[2])],
            nll_evals: m(|s| s.nll_evals),
            restarts_run: m(|s| s.restarts_run),
            warm_hits: m(|s| s.warm_hits),
            warm_misses: m(|s| s.warm_misses),
            acq_s: m(|s| s.acq_s),
            candidates: m(|s| s.candidates),
            decisions: m(|s| s.decisions),
            tool_runs: m(|s| s.tool_runs),
            dispatches: m(|s| s.dispatches),
            mean_in_flight: m(|s| s.mean_in_flight),
            checkpoint_writes: m(|s| s.checkpoint_writes),
            checkpoint_bytes: m(|s| s.checkpoint_bytes),
            events: m(|s| s.events),
            journal_bytes: m(|s| s.journal_bytes),
        }
    }
}

fn mode_index(mode: &str) -> usize {
    match mode {
        "optimize" => 0,
        "refit" => 1,
        _ => 2,
    }
}

/// Integrates runs-in-flight over the simulated clock, whose dispatch and
/// completion events arrive in time order.
#[derive(Default)]
struct InFlight {
    /// `(first, last)` event times seen.
    span: Option<(f64, f64)>,
    level: usize,
    area: f64,
}

impl InFlight {
    fn advance(&mut self, t: f64, level_after: usize) {
        let (first, last) = self.span.unwrap_or((t, t));
        self.area += self.level as f64 * (t - last).max(0.0);
        self.span = Some((first, last.max(t)));
        self.level = level_after;
    }

    fn mean(&self) -> f64 {
        match self.span {
            Some((first, last)) if last > first => self.area / (last - first),
            _ => 0.0,
        }
    }
}

/// Public-API replay timings on one run's final data.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// `fit_with` in [`FitMode::Optimize`] on the final dataset, ms.
    pub fit_optimize_ms: f64,
    /// `fit_with` in [`FitMode::Refit`] from the previous step's stack, ms.
    pub fit_refit_ms: f64,
    /// `fit_with` in [`FitMode::Extend`] from the previous step's stack, ms.
    pub fit_extend_ms: f64,
    /// `predict_batch` over one candidate pool at all three fidelities, with
    /// the model of the run's middle step (a typical decision), ms.
    pub predict_batch_ms: f64,
    /// `predict_batch` over the final prediction pool, ms (0 without one).
    pub final_pool_ms: f64,
    /// `FrontIndex::new` on a final per-fidelity front, µs.
    pub front_index_us: f64,
    /// `EipvScorer::eipv_mc_seeded` at the run's sample count, µs.
    pub mc_us: f64,
    /// `FlowSimulator::run` for one (configuration, stage), µs.
    pub sim_run_us: f64,
}

/// One observation of the run: the configuration, the fidelity it was run
/// at, and the step that ran it (`None` during initialization).
type ToolRunRecord = (usize, Stage, Option<usize>);

/// The tool runs of an event stream, in observation order.
pub fn tool_runs(events: &[TraceEvent]) -> Vec<ToolRunRecord> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ToolRun {
                step,
                config,
                stage,
                ..
            } => Some((*config, stage_by_name(stage)?, *step)),
            _ => None,
        })
        .collect()
}

fn stage_by_name(name: &str) -> Option<Stage> {
    Stage::all().into_iter().find(|s| s.name() == name)
}

/// Rebuilds a run's normalized training data from its tool runs, the way
/// the optimizer materializes it: valid objectives min–max normalized over
/// all fidelities pooled, invalid designs at 2.0.
fn training_data(
    space: &DesignSpace,
    sim: &FlowSimulator,
    runs: &[ToolRunRecord],
) -> FidelityDataSet {
    let outcomes: Vec<(usize, usize, Option<[f64; 3]>)> = runs
        .iter()
        .map(|&(c, stage, _)| {
            let y = match sim.run(space, c, stage) {
                RunOutcome::Valid(r) => Some(r.objectives()),
                RunOutcome::Invalid { .. } => None,
            };
            (c, stage.index(), y)
        })
        .collect();
    let mut mins = [f64::INFINITY; 3];
    let mut maxs = [f64::NEG_INFINITY; 3];
    for y in outcomes.iter().filter_map(|o| o.2) {
        for d in 0..3 {
            mins[d] = mins[d].min(y[d]);
            maxs[d] = maxs[d].max(y[d]);
        }
    }
    let mut data = FidelityDataSet::default();
    for (c, f, y) in outcomes {
        data.xs[f].push(space.encode(c));
        data.ys[f].push(match y {
            Some(y) => (0..3)
                .map(|d| (y[d] - mins[d]) / (maxs[d] - mins[d]).max(1e-12))
                .collect(),
            None => vec![2.0; 3],
        });
    }
    data
}

/// Median wall milliseconds of `reps` calls of `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let sw = Stopwatch::start();
            std::hint::black_box(f());
            sw.seconds() * 1e3
        })
        .collect();
    median(&samples)
}

/// Replays the model, acquisition, Pareto and simulator layers on the final
/// data of a run whose tool runs are `runs`. `seed` draws the replayed
/// candidate pools.
///
/// # Errors
///
/// Any model-fit or prediction error, or a run too short to replay.
pub fn replay(
    space: &DesignSpace,
    sim: &FlowSimulator,
    cfg: &CmmfConfig,
    runs: &[ToolRunRecord],
    seed: u64,
) -> Result<Replay, String> {
    // The data before the last step (the previous stack for Refit/Extend)
    // and before the middle step (a typical acquisition decision's model).
    let steps = runs.iter().filter_map(|r| r.2).max().map_or(0, |s| s + 1);
    let before = |step: usize| -> Vec<ToolRunRecord> {
        runs.iter()
            .copied()
            .filter(|r| r.2.is_none_or(|s| s < step))
            .collect()
    };
    let data = training_data(space, sim, runs);
    let prev_data = training_data(space, sim, &before(steps.saturating_sub(1)));
    let mid_data = training_data(space, sim, &before(steps / 2));
    if data.any_empty() || prev_data.any_empty() || mid_data.any_empty() {
        return Err("run has a fidelity without observations".into());
    }
    let ws = Workspace::new();
    let err = |e: cmmf::CmmfError| e.to_string();
    let fit = |d: &FidelityDataSet, previous: Option<&FidelityModelStack>, mode: FitMode| {
        FidelityModelStack::fit_with(
            cfg.variant,
            d,
            &cfg.gp,
            &StackFitOptions {
                previous,
                mode,
                warm_start: cfg.warm_start_hyperopt,
                mixed_precision: cfg.mixed_precision,
            },
            &ws,
        )
    };
    let prev = fit(&prev_data, None, FitMode::Optimize).map_err(err)?;
    let stack = fit(&data, Some(&prev), FitMode::Refit).map_err(err)?;
    let mid_stack = fit(&mid_data, Some(&prev), FitMode::Refit).map_err(err)?;
    let mut out = Replay {
        fit_optimize_ms: time_ms(3, || fit(&data, Some(&prev), FitMode::Optimize)),
        fit_refit_ms: time_ms(5, || fit(&data, Some(&prev), FitMode::Refit)),
        fit_extend_ms: time_ms(5, || fit(&data, Some(&prev), FitMode::Extend)),
        ..Replay::default()
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let evaluated: std::collections::BTreeSet<usize> = runs.iter().map(|r| r.0).collect();
    let mut unsampled: Vec<usize> = (0..space.len())
        .filter(|c| !evaluated.contains(c))
        .collect();
    unsampled.shuffle(&mut rng);
    let encode = |n: usize| -> Vec<Vec<f64>> {
        unsampled[..n.min(unsampled.len())]
            .iter()
            .map(|&c| space.encode(c))
            .collect()
    };
    let pool = encode(cfg.candidate_pool);
    out.predict_batch_ms = time_ms(5, || {
        (0..3)
            .map(|f| mid_stack.predict_batch_in(f, &pool, &ws).map(|p| p.len()))
            .collect::<Result<Vec<_>, _>>()
    });
    if cfg.final_prediction_pool > 0 {
        let final_pool = encode(cfg.final_prediction_pool);
        out.final_pool_ms = time_ms(3, || stack.predict_batch_in(2, &final_pool, &ws));
    }

    let reference = [2.5; 3];
    let fronts: Vec<Vec<Vec<f64>>> = data.ys.iter().map(|ys| pareto_front(ys)).collect();
    out.front_index_us =
        1e3 * time_ms(5, || {
            fronts
                .iter()
                .map(|front| FrontIndex::new(front, &reference).cell_count())
                .sum::<usize>()
        }) / 3.0;

    let probe = &pool[..pool.len().min(32)];
    for (f, front) in fronts.iter().enumerate() {
        let scorer = EipvScorer::new(front, &reference);
        let calls: Vec<_> = stack
            .predict_batch_in(f, probe, &ws)
            .map_err(err)?
            .into_iter()
            .map(|pred| {
                let chol = Cholesky::new(&pred.cov).ok();
                (pred, chol)
            })
            .collect();
        let ms = time_ms(3, || {
            calls
                .iter()
                .map(|(pred, chol)| {
                    scorer.eipv_mc_seeded(pred, chol.as_ref(), cfg.mc_samples, seed)
                })
                .sum::<f64>()
        });
        out.mc_us += 1e3 * ms / calls.len().max(1) as f64 / 3.0;
    }

    let configs = &unsampled[..unsampled.len().min(100)];
    let sim_ms = time_ms(5, || {
        configs
            .iter()
            .flat_map(|&c| Stage::all().map(|s| sim.run(space, c, s)))
            .count()
    });
    out.sim_run_us = 1e3 * sim_ms / (configs.len() * 3).max(1) as f64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_is_time_weighted() {
        let mut c = InFlight::default();
        c.advance(0.0, 2); // two runs in flight from t=0
        c.advance(10.0, 1); // one completes at t=10
        c.advance(30.0, 0); // the other at t=30
        assert!((c.mean() - (2.0 * 10.0 + 20.0) / 30.0).abs() < 1e-12);
    }
}
