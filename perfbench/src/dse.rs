//! The two in-process design-space-exploration workloads.
//!
//! * `paper-default` — the sequential [`Optimizer`] with
//!   `CmmfConfig::default()` on GEMM, SPMV_CRS and STENCIL3D: the canonical
//!   run, dominated by the hyperparameter search.
//! * `async-wide` — the [`AsyncOptimizer`] with four slots and a wide,
//!   heavily sampled candidate pool on the two largest pruned spaces
//!   (iSmart2, SORT_RADIX): dominated by candidate preparation and scoring.
//!
//! Every problem runs at `threads = 1` and `threads = 0` (all cores), and
//! every run must reproduce the problem's first result bit for bit.

use crate::calib::HostSpeed;
use crate::layers::{self, Replay, TraceSummary};
use crate::report::{mean, median, peak_rss_mb, Outcome};
use crate::Args;
use cmmf::runner::TrueFront;
use cmmf::{AsyncOptimizer, CmmfConfig, MemoryTracer, Optimizer, RunResult, TracerHandle};
use fidelity_sim::{FlowSimulator, SimParams};
use hls_model::benchmarks::{self, Benchmark};
use hls_model::DesignSpace;
use std::collections::BTreeMap;
use std::sync::Arc;
use trace::Stopwatch;

/// Before every measured run, set-up repeats for at least this long (at
/// least once), so that set-up is timed throughout the run, in the same
/// host states as the runs and the probes; `setup_s` is the mean.
const SETUP_SLICE_SECONDS: f64 = 0.05;

/// A DSE workload: which optimizer, which config, which problems.
pub struct DseWorkload {
    asynchronous: bool,
    cfg: CmmfConfig,
    problems: Vec<Benchmark>,
}

impl DseWorkload {
    /// `paper-default`: every knob at its default, seed included.
    pub fn paper_default(quick: bool) -> Self {
        let mut cfg = CmmfConfig::default();
        if quick {
            cfg.n_iter = 6;
        }
        DseWorkload {
            asynchronous: false,
            cfg,
            problems: vec![Benchmark::Gemm, Benchmark::SpmvCrs, Benchmark::Stencil3d],
        }
    }

    /// `async-wide`: four in-flight tool runs, 1000 candidates scored with
    /// 64 Monte-Carlo samples per decision, rare single-start refits.
    pub fn async_wide(quick: bool) -> Self {
        let mut cfg = CmmfConfig {
            async_slots: 4,
            candidate_pool: 1000,
            mc_samples: 64,
            refit_every: 20,
            final_prediction_pool: 0,
            ..CmmfConfig::default()
        };
        cfg.gp.restarts = 0;
        if quick {
            cfg.n_iter = 6;
        }
        DseWorkload {
            asynchronous: true,
            cfg,
            problems: vec![Benchmark::Ismart2, Benchmark::SortRadix],
        }
    }
}

/// One problem's inputs, built in set-up.
pub struct Problem {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Its pruned design space.
    pub space: DesignSpace,
    /// Its flow simulator.
    pub sim: FlowSimulator,
    /// Its true Pareto front.
    pub truth: TrueFront,
}

impl Problem {
    /// The problem of benchmark `b` among `problems`.
    pub fn of(problems: &[Problem], b: Benchmark) -> Result<&Problem, String> {
        problems
            .iter()
            .find(|p| p.bench == b)
            .ok_or_else(|| format!("{} was not set up", b.name()))
    }
}

/// Builds and prunes every space and computes every true front, timing the
/// two phases: returns the problems with the mean prune and truth
/// milliseconds per problem.
pub fn set_up(benches: &[Benchmark]) -> Result<(Vec<Problem>, f64, f64), String> {
    let (mut prune_ms, mut truth_ms) = (0.0, 0.0);
    let mut problems = Vec::with_capacity(benches.len());
    for &bench in benches {
        let sw = Stopwatch::start();
        let space = benchmarks::build(bench)
            .and_then(|m| m.pruned_space())
            .map_err(|e| format!("{}: {e}", bench.name()))?;
        prune_ms += sw.seconds() * 1e3;
        let sim = FlowSimulator::new(SimParams::for_benchmark(bench));
        let sw = Stopwatch::start();
        let truth = TrueFront::compute(&space, &sim);
        truth_ms += sw.seconds() * 1e3;
        problems.push(Problem {
            bench,
            space,
            sim,
            truth,
        });
    }
    let n = benches.len() as f64;
    Ok((problems, prune_ms / n, truth_ms / n))
}

/// Timed set-ups: wall seconds, and mean prune and truth milliseconds per
/// problem, one entry per set-up.
#[derive(Default)]
struct SetupTimes {
    seconds: Vec<f64>,
    prune_ms: Vec<f64>,
    truth_ms: Vec<f64>,
}

impl SetupTimes {
    /// The wall seconds of one slice, about.
    fn slice_seconds(&self) -> f64 {
        SETUP_SLICE_SECONDS.max(self.seconds.last().copied().unwrap_or(0.0))
    }

    /// Sets `benches` up for [`SETUP_SLICE_SECONDS`] (at least once) and
    /// returns the last set-up's problems.
    fn slice(&mut self, benches: &[Benchmark]) -> Result<Vec<Problem>, String> {
        let clock = Stopwatch::start();
        loop {
            let sw = Stopwatch::start();
            let (problems, prune_ms, truth_ms) = set_up(benches)?;
            self.seconds.push(sw.seconds());
            self.prune_ms.push(prune_ms);
            self.truth_ms.push(truth_ms);
            if clock.seconds() >= SETUP_SLICE_SECONDS {
                return Ok(problems);
            }
        }
    }
}

/// One timed optimizer run. Returns the result and its wall seconds.
fn run_once(asynchronous: bool, cfg: CmmfConfig, p: &Problem) -> Result<(RunResult, f64), String> {
    let sw = Stopwatch::start();
    let result = if asynchronous {
        AsyncOptimizer::new(cfg).run(&p.space, &p.sim)
    } else {
        Optimizer::new(cfg).run(&p.space, &p.sim)
    };
    let wall = sw.seconds();
    result
        .map(|r| (r, wall))
        .map_err(|e| format!("{} run failed: {e}", p.bench.name()))
}

/// Structural checks on a result: a full budget of distinct in-range
/// picks, positive tool time, and a non-empty, mutually non-dominated
/// learned front.
fn check_result(w: &DseWorkload, p: &Problem, r: &RunResult) -> Option<String> {
    let name = p.bench.name();
    let mut configs: Vec<usize> = r.candidate_set.iter().map(|c| c.config).collect();
    configs.sort_unstable();
    configs.dedup();
    if r.candidate_set.len() != w.cfg.n_iter || configs.len() != w.cfg.n_iter {
        return Some(format!(
            "{name}: expected {} distinct picks, got {} ({} distinct)",
            w.cfg.n_iter,
            r.candidate_set.len(),
            configs.len()
        ));
    }
    if configs.last().is_some_and(|&c| c >= p.space.len()) {
        return Some(format!("{name}: pick outside the design space"));
    }
    if !(r.sim_seconds.is_finite() && r.sim_seconds > 0.0) {
        return Some(format!("{name}: simulated time {}", r.sim_seconds));
    }
    let front = &r.measured_pareto;
    let dominated = front
        .iter()
        .any(|a| front.iter().any(|b| pareto::dominates(b, a)));
    if front.is_empty() || dominated {
        return Some(format!("{name}: learned front is empty or self-dominated"));
    }
    None
}

/// The bit-exact identity of a result: its full `Debug` rendering (floats
/// print in shortest round-trip form, so equal text means equal bits).
fn identity(r: &RunResult) -> String {
    format!("{r:?}")
}

/// A measured unit of work: one problem at one thread count, traced or not.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Unit {
    problem: usize,
    threads: usize,
    traced: bool,
}

/// Runs a DSE workload, measuring for `loop_seconds`, and reports its
/// metrics.
pub fn run(w: &DseWorkload, args: &Args, loop_seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    let mut setups = SetupTimes::default();
    let problems = setups.slice(&w.problems)?;

    // Warm-up: one short untimed run, so the first measured run does not
    // pay for first-touch page faults and thread-pool start-up.
    let warm = CmmfConfig {
        n_iter: 2,
        ..w.cfg.clone()
    };
    run_once(w.asynchronous, warm, &problems[0])?;

    // Units, in an order rotated by the seed. The first pass runs each once;
    // then units repeat round-robin while the next one fits in the loop's
    // share of the budget.
    let kinds: &[(usize, bool)] = if args.trace {
        &[(1, false), (0, false), (0, true)]
    } else {
        &[(1, false), (0, false)]
    };
    let mut units = Vec::new();
    for problem in 0..problems.len() {
        for &(threads, traced) in kinds {
            units.push(Unit {
                problem,
                threads,
                traced,
            });
        }
    }
    let shift = (args.seed % units.len() as u64) as usize;
    units.rotate_left(shift);

    // Per unit, each run's wall seconds. Before every run the host is
    // probed and set-up is timed again; the host is probed once more after
    // the last run.
    let mut walls: BTreeMap<Unit, Vec<f64>> = BTreeMap::new();
    let mut host = HostSpeed::default();
    let mut reference: Vec<Option<(String, RunResult)>> = vec![None; problems.len()];
    let mut traced: Vec<Vec<(TraceSummary, f64, Vec<cmmf::TraceEvent>)>> =
        vec![Vec::new(); problems.len()];
    let clock = Stopwatch::start();
    for (k, unit) in units.iter().cycle().enumerate() {
        if k >= units.len() {
            let last = walls.get(unit).and_then(|v| v.last()).map_or(0.0, |wall| {
                wall + HostSpeed::probe_seconds() + setups.slice_seconds()
            });
            if clock.seconds() + last > loop_seconds {
                break;
            }
        }
        let p = &problems[unit.problem];
        let tracer = unit.traced.then(|| Arc::new(MemoryTracer::new()));
        let mut cfg = w.cfg.clone();
        cfg.threads = unit.threads;
        if let Some(t) = &tracer {
            cfg.tracer = TracerHandle::new(t.clone());
        }
        host.probe();
        setups.slice(&w.problems)?;
        let (result, wall) = match run_once(w.asynchronous, cfg, p) {
            Ok(ok) => ok,
            Err(e) => {
                out.check(Some(e));
                continue;
            }
        };
        walls.entry(*unit).or_default().push(wall);
        let id = identity(&result);
        match &reference[unit.problem] {
            None => {
                out.check(check_result(w, p, &result));
                reference[unit.problem] = Some((id, result));
            }
            Some((ref_id, _)) => out.check((*ref_id != id).then(|| {
                format!(
                    "{}: result at threads={}{} differs from the first run",
                    p.bench.name(),
                    unit.threads,
                    if unit.traced { " (traced)" } else { "" }
                )
            })),
        }
        if let Some(t) = tracer {
            let events = t.events();
            traced[unit.problem].push((TraceSummary::of_events(&events), wall, events));
        }
    }

    host.probe();

    let results: Vec<&RunResult> = reference.iter().flatten().map(|(_, r)| r).collect();
    if results.len() != problems.len() {
        return Err("a problem produced no result".into());
    }
    // Per problem, the mean of its runs. The host's speed changes between
    // a fast and a slow state every few seconds; the mean counts the share
    // of time the runs spent in each, as the mean of the probes does.
    let per_problem = |threads: usize, traced: bool| -> Vec<f64> {
        (0..problems.len())
            .map(|problem| {
                let unit = Unit {
                    problem,
                    threads,
                    traced,
                };
                mean(walls.get(&unit).map_or(&[][..], Vec::as_slice))
            })
            .collect()
    };
    for (unit, v) in &walls {
        let ms: Vec<String> = v.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
        eprintln!(
            "  {} threads={}{}: [{}] ms",
            problems[unit.problem].bench.name(),
            unit.threads,
            if unit.traced { " traced" } else { "" },
            ms.join(", ")
        );
    }
    for threads in [1, 0] {
        let probes: Vec<String> = host
            .probes(threads)
            .iter()
            .map(|f| format!("{f:.3}"))
            .collect();
        eprintln!("  slowdown threads={threads}: [{}]", probes.join(", "));
    }
    // Mean wall seconds over the problems, at all cores and at 1 thread.
    let wall_s = mean(&per_problem(0, false));
    let wall_s_1t = mean(&per_problem(1, false));

    if !args.trace {
        out.set("setup_s", mean(&setups.seconds) / host.slowdown(1));
        out.set("run_s", wall_s / host.slowdown(0));
        out.set("run_s_1t", wall_s_1t / host.slowdown(1));
        let adrs: Vec<f64> = problems
            .iter()
            .zip(&results)
            .map(|(p, r)| p.truth.adrs_of(&r.measured_pareto))
            .collect();
        out.set("adrs", mean(&adrs));
        let hours: Vec<f64> = results.iter().map(|r| r.sim_seconds / 3600.0).collect();
        out.set("sim_hours", mean(&hours));
        out.set("peak_rss_mb", peak_rss_mb("self")?);
        return Ok(out);
    }

    // Traced run: layer totals per traced run, the phase-sum check, and
    // public-API replays on each problem's final data.
    out.set("hls_model.prune_ms", median(&setups.prune_ms));
    out.set("fidelity_sim.truth_ms", median(&setups.truth_ms));
    let mut summaries = Vec::new();
    let mut walls_traced = Vec::new();
    for (p, runs) in problems.iter().zip(&traced) {
        for (s, wall, _) in runs {
            out.check(phase_sum_failure(p.bench.name(), s, *wall));
            summaries.push(s.clone());
            walls_traced.push(*wall);
        }
    }
    let s = TraceSummary::mean_of(&summaries);
    let wall = mean(&walls_traced);
    set_trace_layers(&mut out, &s, wall);
    out.set(
        "trace.overhead_ratio",
        mean(&per_problem(0, true)) / wall_s - 1.0,
    );
    out.set("rayon.speedup", wall_s_1t / wall_s);
    out.set("host.slowdown", host.slowdown(0));

    let mut replays = Vec::new();
    for (p, runs) in problems.iter().zip(&traced) {
        let Some((_, _, events)) = runs.first() else {
            return Err(format!("{}: no traced run", p.bench.name()));
        };
        let replay = layers::replay(
            &p.space,
            &p.sim,
            &w.cfg,
            &layers::tool_runs(events),
            args.seed,
        )?;
        replays.push(replay);
    }
    set_replay_layers(&mut out, &replays, &s);
    Ok(out)
}

/// The phase-sum check: a traced run's attributed spans (model fits and
/// acquisition argmaxes) must fit inside its wall time, so that
/// `unattributed = wall − attributed` is a real, non-negative remainder and
/// the three add up to the wall time.
pub fn phase_sum_failure(name: &str, s: &TraceSummary, wall: f64) -> Option<String> {
    let attributed = s.fit_total() + s.acq_s;
    (attributed > wall).then(|| {
        format!("{name}: attributed {attributed:.6} s exceeds the run's wall time {wall:.6} s")
    })
}

/// Sets the layer metrics read from traced runs' events (`s` is the mean
/// per traced run, `wall` the mean traced wall time).
pub fn set_trace_layers(out: &mut Outcome, s: &TraceSummary, wall: f64) {
    out.set("fidelity_sim.tool_runs", s.tool_runs);
    out.set("models.fit_s", s.fit_total());
    out.set("models.fit_optimize_s", s.fit_s[0]);
    out.set("models.fit_refit_s", s.fit_s[1]);
    out.set("models.fit_extend_s", s.fit_s[2]);
    out.set("models.nll_evals", s.nll_evals);
    out.set("models.restarts_run", s.restarts_run);
    let probes = s.warm_hits + s.warm_misses;
    out.set("models.warm_start_probes", probes);
    if probes > 0.0 {
        out.set("models.warm_start_hit_ratio", s.warm_hits / probes);
    }
    out.set("eipv.acq_s", s.acq_s);
    out.set("eipv.candidates_scored", s.candidates);
    if s.candidates > 0.0 {
        out.set("eipv.us_per_candidate", s.acq_s * 1e6 / s.candidates);
    }
    out.set("scheduler.dispatches", s.dispatches);
    out.set("scheduler.mean_in_flight", s.mean_in_flight);
    out.set("trace.events", s.events);
    out.set("trace.journal_bytes", s.journal_bytes);
    out.set("trace.run_wall_s", wall);
    out.set("unattributed_s", wall - s.fit_total() - s.acq_s);
}

/// Sets the replayed layer metrics (means over problems) and the share of
/// the unattributed time that the replayed batched predictions explain:
/// one candidate-pool prediction per acquisition decision, plus the final
/// pool (0 when the workload has none).
pub fn set_replay_layers(out: &mut Outcome, replays: &[Replay], s: &TraceSummary) {
    let m = |f: fn(&Replay) -> f64| mean(&replays.iter().map(f).collect::<Vec<_>>());
    out.set("models.replay_fit_optimize_ms", m(|r| r.fit_optimize_ms));
    out.set("models.replay_fit_refit_ms", m(|r| r.fit_refit_ms));
    out.set("models.replay_fit_extend_ms", m(|r| r.fit_extend_ms));
    let predict_ms = m(|r| r.predict_batch_ms);
    let final_ms = m(|r| r.final_pool_ms);
    out.set("models.predict_batch_ms", predict_ms);
    out.set("models.final_pool_predict_ms", final_ms);
    out.set("pareto.front_index_us", m(|r| r.front_index_us));
    out.set("eipv.mc_us", m(|r| r.mc_us));
    out.set("fidelity_sim.run_us", m(|r| r.sim_run_us));
    let unattributed_ms = out.metrics.get("unattributed_s").copied().unwrap_or(0.0) * 1e3;
    if unattributed_ms > 0.0 {
        let explained = predict_ms * s.decisions + final_ms;
        out.set("unattributed.predict_share", explained / unattributed_ms);
    }
}
