//! The Algorithm-2 event loop: one driver on a deterministic virtual clock,
//! two dispatch policies.
//!
//! Every run — sequential, batched, or overlapped — is a sequence of
//! *dispatch decisions* and *completions* on a discrete-event virtual clock
//! ([`trace::VirtualClock`]) driven by the simulator's cost model
//! (`T_hls ≪ T_syn ≪ T_impl`). A decision fits the surrogate on everything
//! observed so far, fantasizes the in-flight runs' outcomes (their posterior
//! means) into the per-fidelity Pareto fronts, and picks by greedy q-EIPV; a
//! completion advances the clock to a run's finish time and observes its
//! true outcome. [`CmmfConfig::async_slots`] chooses the policy:
//!
//! * **barrier** (`async_slots == 0`): each step makes one decision that
//!   picks [`CmmfConfig::batch_size`] runs from one candidate pool, then
//!   waits for all of them, observing them in pick order. A step costs its
//!   longest run (q parallel tool licenses); at `batch_size = 1` this is
//!   Algorithm 2 exactly.
//! * **refill** (`async_slots = k >= 1`): up to `k` runs stay in flight, and
//!   whenever a slot frees, a single-pick decision refills it. Time advances
//!   only when the earliest in-flight run finishes. Real FPGA tool farms
//!   work this way: an implementation run takes hours while HLS takes
//!   seconds, and `k` licenses stay busy.
//!
//! The schedule is a pure function of the seed and the cost model: no host
//! timing is ever read (the only sanctioned host-clock use is the
//! tracer-gated [`trace::Stopwatch`], and a disabled tracer reads nothing —
//! pinned by `disabled_tracer_reads_no_host_clock`). Refill at `k = 1` and
//! barrier at `q = 1` both fully serialize the flow and agree bit-for-bit
//! (pinned by `refill_k1_matches_barrier_bitwise`), and any thread count
//! yields the same schedule (pinned by `schedule_is_deterministic`).
//!
//! Checkpoints ([`RunCheckpoint`], schema version 3) record the *decisions*
//! — the dispatch-ordered picks plus the interleaved dispatch/completion
//! event log — so a kill resumes bit-identically, even mid-overlap: the
//! event log replays the interrupted run's exact interleaving of surrogate
//! fits and observations, reconstructing the virtual clock and the in-flight
//! set, which are then verified against the checkpoint's redundant copy
//! (see [`RunCheckpoint::in_flight`]). Version-2 files of either former
//! shape are migrated on load.

use crate::checkpoint::{PickRecord, RunCheckpoint, ScheduleEvent, CHECKPOINT_VERSION};
use crate::optimizer::{CandidateChoice, CmmfConfig, LoopState, RunResult};
use crate::CmmfError;
use fidelity_sim::{FlowSimulator, Stage};
use hls_model::DesignSpace;
use rand::rngs::StdRng;
use std::path::Path;
use trace::{TraceEvent, VirtualClock};

/// The Algorithm-2 Bayesian optimizer: the surrogate, acquisition, and
/// simulator of the paper, driven by the virtual-clock event loop under the
/// dispatch policy [`CmmfConfig::async_slots`] selects. See the
/// [module docs](self) for the model.
#[derive(Debug, Clone)]
pub struct Optimizer {
    cfg: CmmfConfig,
}

/// The former name of [`Optimizer`] under the refill policy; both policies
/// now run through the one type.
pub type AsyncOptimizer = Optimizer;

/// How decisions are dispatched onto the virtual clock.
#[derive(Clone, Copy)]
enum Policy {
    /// One decision picks `q` runs, then waits for all of them.
    Barrier(usize),
    /// Up to `k` runs in flight; each free slot gets a single-pick decision.
    Refill(usize),
}

impl Policy {
    fn of(cfg: &CmmfConfig) -> Self {
        if cfg.async_slots == 0 {
            Policy::Barrier(cfg.batch_size.max(1))
        } else {
            Policy::Refill(cfg.async_slots)
        }
    }

    /// How many runs one decision picks.
    fn picks(self) -> usize {
        match self {
            Policy::Barrier(q) => q,
            Policy::Refill(_) => 1,
        }
    }

    /// Concurrent initialization runs: the barrier policy observes the
    /// initialization set serially, as Algorithm 2 does.
    fn init_slots(self) -> usize {
        match self {
            Policy::Barrier(_) => 1,
            Policy::Refill(k) => k,
        }
    }

    /// Whether a new decision may be dispatched with `in_flight` runs out.
    fn has_room(self, in_flight: usize) -> bool {
        match self {
            Policy::Barrier(_) => in_flight == 0,
            Policy::Refill(k) => in_flight < k,
        }
    }
}

/// One in-flight simulated tool run.
struct InFlight {
    /// The run's number in the whole run: its rank for initialization runs,
    /// `n_init` + its dispatch index for BO runs (the `seq` of its
    /// `run_dispatched`/`run_completed` events, and the completion tie-break).
    seq: usize,
    /// The decision that dispatched it (`None` during initialization).
    step: Option<usize>,
    config: usize,
    stage: Stage,
    /// Virtual-clock time at which the run finishes.
    finish_at: f64,
}

/// The live state of one run: the decision state plus the event clock.
struct EventLoop<'a> {
    base: LoopState<'a>,
    policy: Policy,
    clock: VirtualClock,
    /// In-flight runs, in dispatch order.
    pending: Vec<InFlight>,
    /// Every pick so far, in dispatch order.
    dispatches: Vec<PickRecord>,
    /// The interleaved dispatch/completion event log, in virtual-clock order.
    schedule: Vec<ScheduleEvent>,
    /// Decisions made so far (the next decision index).
    decisions: usize,
    /// Completion phases so far — steps under the barrier policy, single
    /// completions under refill (the run's `completed_steps`).
    completed: usize,
    /// The candidate pool came up empty at a decision attempt; stop
    /// dispatching and drain the in-flight runs.
    exhausted: bool,
}

/// What a structurally valid event log implies (see
/// [`EventLoop::read_schedule`]).
struct LogShape {
    /// The decision index of each dispatch.
    step_of: Vec<usize>,
    /// Decisions that dispatched runs.
    decisions: usize,
    /// Whether a decision attempt found the pool empty.
    exhausted: bool,
}

impl<'a> EventLoop<'a> {
    fn new(base: LoopState<'a>) -> Self {
        let cfg = base.cfg;
        let policy = Policy::of(cfg);
        EventLoop {
            base,
            policy,
            clock: VirtualClock::new(),
            pending: Vec::with_capacity(policy.picks().max(cfg.async_slots)),
            dispatches: Vec::with_capacity(cfg.n_iter * policy.picks()),
            schedule: Vec::with_capacity(2 * cfg.n_iter * policy.picks()),
            decisions: 0,
            completed: 0,
            exhausted: false,
        }
    }

    /// Fresh state: seeds the run and pushes the initialization set through
    /// the policy's initialization slots.
    fn start(
        cfg: &'a CmmfConfig,
        space: &'a DesignSpace,
        sim: &'a FlowSimulator,
    ) -> Result<Self, CmmfError> {
        let mut state = Self::new(LoopState::fresh(cfg, space, sim)?);
        state.run_init();
        Ok(state)
    }

    /// Puts one run in flight at the current clock reading.
    fn launch(&mut self, seq: usize, step: Option<usize>, config: usize, stage: Stage) {
        let clock = self.clock.now();
        let finish_at = clock + self.base.sim.stage_seconds(self.base.space, config, stage);
        if !self.base.replaying {
            let in_flight = self.pending.len() + 1;
            self.base.cfg.tracer.emit(|| TraceEvent::RunDispatched {
                seq,
                step,
                config,
                fidelity: stage.index(),
                clock,
                finish: finish_at,
                in_flight,
            });
        }
        self.pending.push(InFlight {
            seq,
            step,
            config,
            stage,
            finish_at,
        });
    }

    /// Takes `pending[k]` out of flight: advances the clock to its finish
    /// time and observes its outcome.
    fn land(&mut self, k: usize) -> InFlight {
        let run = self.pending.remove(k);
        let clock = self.clock.advance_to(run.finish_at);
        self.base.observe(run.config, run.stage, run.step);
        if !self.base.replaying {
            let in_flight = self.pending.len();
            self.base.cfg.tracer.emit(|| TraceEvent::RunCompleted {
                seq: run.seq,
                step: run.step,
                config: run.config,
                fidelity: run.stage.index(),
                clock,
                in_flight,
            });
        }
        run
    }

    /// The earliest-finishing in-flight run (ties to the lowest `seq`, under
    /// `total_cmp`).
    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let (a, b) = (&self.pending[a], &self.pending[b]);
            a.finish_at.total_cmp(&b.finish_at).then(a.seq.cmp(&b.seq))
        })
    }

    /// Runs the initialization set on the virtual clock through the policy's
    /// initialization slots: launch eagerly while a slot is free, otherwise
    /// land the earliest finisher. Ranks keep their nested top stages; only
    /// their timing overlaps, and observation order is completion order.
    /// With one slot this is Algorithm 2's serial initialization (rank order,
    /// summed times). Shared by fresh starts and resume replay — the
    /// initialization schedule is implied by `init` and the cost model, so
    /// checkpoints don't record it.
    fn run_init(&mut self) {
        let cfg = self.base.cfg;
        for rank in 0..self.base.init.len() {
            if self.pending.len() == self.policy.init_slots() {
                if let Some(k) = self.earliest() {
                    self.land(k);
                }
            }
            let config = self.base.init[rank];
            self.launch(rank, None, config, LoopState::init_top_stage(cfg, rank));
        }
        while let Some(k) = self.earliest() {
            self.land(k);
        }
    }

    /// One dispatch decision at the current virtual-clock time
    /// ([`LoopState::decide`]); puts its picks in flight. Returns `false`
    /// when the pool is exhausted (recorded as [`ScheduleEvent::Exhausted`];
    /// the attempt's surrogate fit still counts for resume).
    fn dispatch(&mut self) -> Result<bool, CmmfError> {
        let t = self.decisions;
        let pending: Vec<(usize, Stage)> =
            self.pending.iter().map(|r| (r.config, r.stage)).collect();
        let Some(picks) = self.base.decide(t, &pending, self.policy.picks())? else {
            self.schedule.push(ScheduleEvent::Exhausted);
            self.exhausted = true;
            return Ok(false);
        };
        for choice in picks {
            let i = self.dispatches.len();
            self.launch(
                self.base.cfg.n_init + i,
                Some(t),
                choice.config,
                choice.stage,
            );
            self.schedule.push(ScheduleEvent::Dispatch(i));
            self.dispatches.push(PickRecord {
                config: choice.config,
                stage_index: choice.stage.index(),
                acquisition_bits: choice.acquisition.to_bits(),
            });
        }
        self.decisions = t + 1;
        Ok(true)
    }

    /// One completion phase: under the barrier policy, lands the whole step's
    /// runs in pick order; under refill, the earliest finisher. The phase
    /// ends with a front update.
    fn complete(&mut self) -> Result<(), CmmfError> {
        let mut step = None;
        while let Some(k) = match self.policy {
            Policy::Barrier(_) => (!self.pending.is_empty()).then_some(0),
            Policy::Refill(_) => self.earliest(),
        } {
            let run = self.land(k);
            self.schedule
                .push(ScheduleEvent::Complete(run.seq - self.base.cfg.n_init));
            step = run.step;
            if let Policy::Refill(_) = self.policy {
                break;
            }
        }
        let step = step.ok_or_else(|| CmmfError::Internal {
            reason: "completion requested with no BO run in flight".into(),
        })?;
        self.completed += 1;
        self.base.record_front(step);
        Ok(())
    }

    /// The event loop: dispatch while the policy has room, then advance the
    /// clock by one completion phase; checkpoint after each phase when
    /// `ckpt_path` is set; stop after `max_completions` phases (the "kill
    /// after k" primitive behind the resume tests).
    fn drive(&mut self, ckpt_path: Option<&Path>, max_completions: usize) -> Result<(), CmmfError> {
        let cfg = self.base.cfg;
        while self.completed < max_completions.min(cfg.n_iter) {
            while !self.exhausted
                && self.decisions < cfg.n_iter
                && self.policy.has_room(self.pending.len())
            {
                if !self.dispatch()? {
                    break;
                }
            }
            if self.pending.is_empty() {
                break;
            }
            self.complete()?;
            if let Some(path) = ckpt_path {
                let bytes = self.checkpoint().save(path)?;
                cfg.tracer.emit(|| TraceEvent::CheckpointWritten {
                    step: self.completed,
                    bytes,
                });
            }
        }
        Ok(())
    }

    /// Final Pareto identification.
    fn finish(self) -> Result<RunResult, CmmfError> {
        self.base.finish(self.completed, self.clock.now())
    }

    /// The in-flight set as `[dispatch index, finish-time bits]`, in dispatch
    /// order.
    fn in_flight(&self) -> Vec<[u64; 2]> {
        let n_init = self.base.cfg.n_init;
        self.pending
            .iter()
            .map(|run| [(run.seq - n_init) as u64, run.finish_at.to_bits()])
            .collect()
    }

    /// Snapshots the run after the last completion phase (mid-overlap under
    /// refill).
    fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: RunCheckpoint::fingerprint_of(self.base.cfg),
            completed_steps: self.completed,
            init: self.base.init.clone(),
            dispatches: self.dispatches.clone(),
            schedule: self.schedule.clone(),
            in_flight: self.in_flight(),
            unsampled: self.base.unsampled.clone(),
            rng_state: self.base.rng.state(),
            sim_seconds_bits: self.clock.now().to_bits(),
            hv_history_bits: self
                .base
                .hv_history
                .iter()
                .map(|hv| hv.map(f64::to_bits))
                .collect(),
        }
    }

    /// Reconstructs the state a checkpoint describes, bit-identically to the
    /// run that wrote it: restores the recorded decisions (initialization,
    /// picks, candidate order, RNG position), replays the initialization
    /// through the virtual clock, then walks the recorded event log —
    /// re-fitting the surrogate at each decision (from the last
    /// hyperparameter-optimization attempt on; GP fits seed their own RNG per
    /// call, so the replayed chain is exact), relaunching each dispatch and
    /// landing each completion at its recorded interleaving through the
    /// deterministic simulator. Finally it verifies the rebuilt in-flight set
    /// and clock against the checkpoint's copies, so a mismatched simulator
    /// or design space fails loudly instead of diverging.
    fn restore(
        cfg: &'a CmmfConfig,
        space: &'a DesignSpace,
        sim: &'a FlowSimulator,
        ckpt: &RunCheckpoint,
    ) -> Result<Self, CmmfError> {
        LoopState::validate(cfg, space)?;
        let expected = RunCheckpoint::fingerprint_of(cfg);
        if ckpt.version != CHECKPOINT_VERSION || ckpt.fingerprint != expected {
            return Err(CmmfError::Checkpoint {
                reason: format!(
                    "configuration mismatch: checkpoint (version {}) was written under\n  {}\n\
                     but this run is\n  {}",
                    ckpt.version, ckpt.fingerprint, expected
                ),
            });
        }
        let shape = Self::read_schedule(ckpt, Policy::of(cfg))?;
        let completed = ckpt.completed_steps;
        if ckpt.init.len() != cfg.n_init
            || shape.decisions > cfg.n_iter
            || completed > cfg.n_iter
            || ckpt.hv_history_bits.len() != completed
        {
            return Err(CmmfError::Checkpoint {
                reason: "inconsistent checkpoint shape".into(),
            });
        }
        let in_range = |c: usize| c < space.len();
        if !ckpt.init.iter().all(|&c| in_range(c))
            || !ckpt.unsampled.iter().all(|&c| in_range(c))
            || !ckpt.dispatches.iter().all(|p| in_range(p.config))
        {
            return Err(CmmfError::Checkpoint {
                reason: "configuration index out of range — was this checkpoint \
                         written for a different design space?"
                    .into(),
            });
        }
        let choices: Vec<CandidateChoice> = ckpt
            .dispatches
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Stage::from_index(p.stage_index)
                    .map(|stage| CandidateChoice {
                        config: p.config,
                        stage,
                        acquisition: f64::from_bits(p.acquisition_bits),
                    })
                    .ok_or_else(|| CmmfError::Checkpoint {
                        reason: format!("invalid stage index {} in dispatch {i}", p.stage_index),
                    })
            })
            .collect::<Result<_, _>>()?;
        cfg.tracer.emit(|| TraceEvent::RunStarted {
            seed: cfg.seed,
            n_iter: cfg.n_iter,
            resumed_at: Some(completed),
        });

        let mut base = LoopState::new(
            cfg,
            space,
            sim,
            StdRng::from_state(ckpt.rng_state),
            ckpt.unsampled.clone(),
            ckpt.init.clone(),
        );
        base.hv_history = ckpt
            .hv_history_bits
            .iter()
            .map(|hv| hv.map(f64::from_bits))
            .collect();
        base.replaying = true;
        let mut state = Self::new(base);
        state.dispatches = ckpt.dispatches.clone();
        state.schedule = ckpt.schedule.clone();
        state.decisions = shape.decisions;
        state.completed = completed;
        state.exhausted = shape.exhausted;
        state.run_init();

        // Surrogate fits replay only from the last `FitMode::Optimize`
        // decision attempt, whose fit does not depend on the previous stack —
        // the cheap refits after it chain off its caches exactly as the
        // interrupted run's did. An `Exhausted` attempt fitted as decision
        // `decisions`. With `warm_start_hyperopt` the Optimize fits chain
        // through their warm seeds, so the whole fit history replays from
        // decision 0.
        let r = cfg.refit_every.max(1);
        let n_fits = shape.decisions + usize::from(shape.exhausted);
        let refit_from = if cfg.warm_start_hyperopt {
            0
        } else {
            n_fits.saturating_sub(1) / r * r
        };
        let step_of = &shape.step_of;
        for event in &ckpt.schedule {
            match *event {
                ScheduleEvent::Dispatch(i) => {
                    let t = step_of[i];
                    if (i == 0 || step_of[i - 1] != t) && t >= refit_from {
                        state.base.replay_fit(t)?;
                    }
                    let choice = choices[i];
                    state.launch(cfg.n_init + i, Some(t), choice.config, choice.stage);
                    state.base.candidate_set.push(choice);
                }
                ScheduleEvent::Complete(i) => {
                    // `read_schedule` guarantees the run is in flight.
                    if let Some(k) = state.pending.iter().position(|r| r.seq == cfg.n_init + i) {
                        state.land(k);
                    }
                }
                ScheduleEvent::Exhausted => {
                    if shape.decisions >= refit_from {
                        state.base.replay_fit(shape.decisions)?;
                    }
                }
            }
        }
        if state.in_flight() != ckpt.in_flight
            || state.clock.now().to_bits() != ckpt.sim_seconds_bits
        {
            return Err(CmmfError::Checkpoint {
                reason: "replayed schedule diverges from the recorded in-flight \
                         set — was this checkpoint written under a different \
                         simulator or design space?"
                    .into(),
            });
        }
        state.base.replaying = false;
        Ok(state)
    }

    /// Structural validation of a checkpoint's event log under `policy`:
    /// dispatch indices appear once each, in order; completions follow their
    /// dispatches; nothing is dispatched after pool exhaustion; a barrier
    /// decision opens only with nothing in flight and ends fully observed;
    /// and the completion phases number `completed_steps`. Returns the
    /// decision structure the log implies: under refill every dispatch is
    /// its own decision, under the barrier policy a decision is a maximal run
    /// of consecutive dispatches.
    fn read_schedule(ckpt: &RunCheckpoint, policy: Policy) -> Result<LogShape, CmmfError> {
        let nd = ckpt.dispatches.len();
        let malformed = |reason: &str| CmmfError::Checkpoint {
            reason: format!("malformed schedule: {reason}"),
        };
        let mut shape = LogShape {
            step_of: Vec::with_capacity(nd),
            decisions: 0,
            exhausted: false,
        };
        let mut done = vec![false; nd];
        let mut n_complete = 0usize;
        let mut after_dispatch = false;
        for event in &ckpt.schedule {
            match *event {
                ScheduleEvent::Dispatch(i) => {
                    if shape.exhausted {
                        return Err(malformed("dispatch after pool exhaustion"));
                    }
                    if i != shape.step_of.len() || i >= nd {
                        return Err(malformed("dispatch indices out of order"));
                    }
                    let barrier = matches!(policy, Policy::Barrier(_));
                    if !(barrier && after_dispatch) {
                        if barrier && n_complete != i {
                            return Err(malformed("barrier decision with runs in flight"));
                        }
                        shape.decisions += 1;
                    }
                    shape.step_of.push(shape.decisions - 1);
                }
                ScheduleEvent::Complete(i) => {
                    if i >= shape.step_of.len() || done[i] {
                        return Err(malformed("completion without a matching dispatch"));
                    }
                    done[i] = true;
                    n_complete += 1;
                }
                ScheduleEvent::Exhausted => {
                    if shape.exhausted {
                        return Err(malformed("repeated pool exhaustion"));
                    }
                    shape.exhausted = true;
                }
            }
            after_dispatch = matches!(event, ScheduleEvent::Dispatch(_));
        }
        let phases = match policy {
            Policy::Barrier(_) if n_complete == nd => Some(shape.decisions),
            Policy::Barrier(_) => None,
            Policy::Refill(_) => Some(n_complete),
        };
        if shape.step_of.len() != nd || phases != Some(ckpt.completed_steps) {
            return Err(malformed(
                "event counts disagree with the dispatch list and completed_steps",
            ));
        }
        Ok(shape)
    }
}

impl Optimizer {
    /// Creates an optimizer with the given configuration; its
    /// [`CmmfConfig::async_slots`] selects the dispatch policy.
    pub fn new(cfg: CmmfConfig) -> Self {
        Optimizer { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &CmmfConfig {
        &self.cfg
    }

    /// Runs Algorithm 2 on `space`, evaluating configurations with `sim`.
    ///
    /// The run executes on a thread pool of [`CmmfConfig::threads`] workers
    /// (0 = all hardware threads); the result is bit-identical for any
    /// thread count. [`RunResult::sim_seconds`] is the virtual-clock
    /// *makespan*: overlapping schedules (`async_slots > 1`, or
    /// `batch_size > 1`) report less simulated time than a serialized run of
    /// the same number of evaluations.
    ///
    /// # Examples
    ///
    /// The quickstart flow — build a benchmark's pruned directive space, wrap
    /// the three-stage flow simulator, and optimize (shrunk here so the
    /// doctest stays fast; see `examples/quickstart.rs` for paper-scale
    /// settings):
    ///
    /// ```
    /// use cmmf::{CmmfConfig, Optimizer};
    /// use fidelity_sim::{FlowSimulator, SimParams};
    /// use hls_model::benchmarks::{self, Benchmark};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let space = benchmarks::build(Benchmark::SpmvCrs)?.pruned_space()?;
    /// let sim = FlowSimulator::new(SimParams::for_benchmark(Benchmark::SpmvCrs));
    ///
    /// let mut cfg = CmmfConfig {
    ///     n_iter: 2,
    ///     candidate_pool: 15,
    ///     mc_samples: 8,
    ///     final_prediction_pool: 100,
    ///     ..Default::default()
    /// };
    /// cfg.gp.restarts = 0;
    /// cfg.gp.max_evals = 40;
    ///
    /// let result = Optimizer::new(cfg.clone()).run(&space, &sim)?;
    /// assert_eq!(result.candidate_set.len(), 2);
    /// assert!(!result.measured_pareto.is_empty());
    ///
    /// // Two tool licenses kept busy by the refill policy: same budget,
    /// // shorter makespan.
    /// cfg.async_slots = 2;
    /// let overlapped = Optimizer::new(cfg).run(&space, &sim)?;
    /// assert_eq!(overlapped.candidate_set.len(), 2);
    /// assert!(overlapped.sim_seconds <= result.sim_seconds);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// * [`CmmfError::SpaceTooSmall`] if the space cannot host the
    ///   initialization plus one iteration.
    /// * [`CmmfError::InvalidConfig`] if `batch_size > 1` is combined with
    ///   `async_slots > 0`.
    /// * [`CmmfError::Model`] if surrogate fitting fails irrecoverably.
    pub fn run(&self, space: &DesignSpace, sim: &FlowSimulator) -> Result<RunResult, CmmfError> {
        self.drive(|| EventLoop::start(&self.cfg, space, sim), None)
    }

    /// Runs initialization plus at most `steps` completion phases — steps
    /// under the barrier policy, completions under refill — and returns the
    /// checkpoint, possibly mid-overlap with runs still in flight (recorded
    /// in [`RunCheckpoint::in_flight`]). The deterministic "kill after k"
    /// primitive behind the resume tests and the CI smoke; `steps` is
    /// clamped to [`CmmfConfig::n_iter`].
    ///
    /// # Errors
    ///
    /// Same as [`Optimizer::run`].
    pub fn run_until(
        &self,
        space: &DesignSpace,
        sim: &FlowSimulator,
        steps: usize,
    ) -> Result<RunCheckpoint, CmmfError> {
        with_pool(self.cfg.threads, || {
            let mut state = EventLoop::start(&self.cfg, space, sim)?;
            state.drive(None, steps)?;
            Ok(state.checkpoint())
        })
    }

    /// Resumes a checkpointed run and drives it to completion. The result is
    /// bit-identical to the uninterrupted run that would have produced the
    /// same checkpoint (pinned by `resume_is_bit_identical` and
    /// `async_resume_is_bit_identical`, including kills mid-overlap): the
    /// recorded decisions are replayed through the deterministic simulator
    /// and GP fits, then the loop continues from the recorded RNG position.
    ///
    /// The configuration must match the one that wrote the checkpoint
    /// (fingerprinted; `threads`, `arena`, `tracer`, `warm_start_hyperopt`
    /// and `mixed_precision` may differ), and `space`/`sim` must be the same
    /// design space and simulator.
    ///
    /// # Errors
    ///
    /// * [`CmmfError::Checkpoint`] if the checkpoint's fingerprint (which
    ///   pins the dispatch policy) or shape does not match this
    ///   configuration and space, or if the replayed schedule diverges from
    ///   the recorded in-flight set (wrong simulator or space).
    /// * Everything [`Optimizer::run`] can return.
    pub fn resume(
        &self,
        ckpt: &RunCheckpoint,
        space: &DesignSpace,
        sim: &FlowSimulator,
    ) -> Result<RunResult, CmmfError> {
        self.drive(|| EventLoop::restore(&self.cfg, space, sim, ckpt), None)
    }

    /// Runs like [`Optimizer::run`], but checkpoints to `path` after every
    /// completion phase (atomic write) and — if `path` already holds a
    /// checkpoint — resumes from it instead of starting over. The crash
    /// recovery loop of a long sweep is therefore just "run the same command
    /// again".
    ///
    /// # Errors
    ///
    /// * [`CmmfError::Checkpoint`] if an existing checkpoint at `path` cannot
    ///   be read or does not match this configuration, or if a checkpoint
    ///   cannot be written.
    /// * Everything [`Optimizer::run`] can return.
    pub fn run_with_checkpoints(
        &self,
        space: &DesignSpace,
        sim: &FlowSimulator,
        path: &Path,
    ) -> Result<RunResult, CmmfError> {
        let cfg = &self.cfg;
        self.drive(
            || {
                if path.exists() {
                    EventLoop::restore(cfg, space, sim, &RunCheckpoint::load(path)?)
                } else {
                    EventLoop::start(cfg, space, sim)
                }
            },
            Some(path),
        )
    }

    /// On the run's thread pool: builds the state, drives it to the end
    /// (checkpointing to `ckpt_path` when set), and finishes.
    fn drive<'s>(
        &self,
        state: impl FnOnce() -> Result<EventLoop<'s>, CmmfError>,
        ckpt_path: Option<&Path>,
    ) -> Result<RunResult, CmmfError> {
        with_pool(self.cfg.threads, || {
            let mut state = state()?;
            state.drive(ckpt_path, usize::MAX)?;
            state.finish()
        })
    }
}

/// Runs `f` on a dedicated rayon pool of `threads` workers. `threads == 0`
/// inherits the ambient rayon default (an enclosing `ThreadPool::install`,
/// `build_global`, or the hardware parallelism) so harness binaries can set a
/// process-wide `--threads` once.
fn with_pool<T>(threads: usize, f: impl FnOnce() -> Result<T, CmmfError>) -> Result<T, CmmfError> {
    let n = if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .map_err(|e| CmmfError::Internal {
            reason: format!("thread pool: {e}"),
        })?;
    pool.install(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp::GpConfig;
    use hls_model::benchmarks::{self, Benchmark};

    fn quick_cfg(seed: u64, slots: usize) -> CmmfConfig {
        CmmfConfig {
            n_iter: 6,
            candidate_pool: 40,
            mc_samples: 8,
            refit_every: 3,
            async_slots: slots,
            gp: GpConfig {
                restarts: 0,
                max_evals: 60,
                ..Default::default()
            },
            seed,
            ..Default::default()
        }
    }

    fn setup(b: Benchmark) -> (DesignSpace, FlowSimulator) {
        (
            benchmarks::build(b).unwrap().pruned_space().unwrap(),
            fidelity_sim::FlowSimulator::new(fidelity_sim::SimParams::for_benchmark(b)),
        )
    }

    fn assert_same_result(a: &RunResult, b: &RunResult, label: &str) {
        assert_eq!(a.candidate_set, b.candidate_set, "{label}: candidate_set");
        assert_eq!(
            a.evaluated_configs, b.evaluated_configs,
            "{label}: evaluated_configs"
        );
        assert_eq!(a.measured_pareto, b.measured_pareto, "{label}: pareto");
        assert_eq!(
            a.sim_seconds.to_bits(),
            b.sim_seconds.to_bits(),
            "{label}: sim_seconds"
        );
        assert_eq!(a.hv_history, b.hv_history, "{label}: hv_history");
    }

    /// Both policies fully serialize the flow at one run per decision:
    /// refill with one slot reproduces the barrier policy at `batch_size = 1`
    /// (Algorithm 2) bit-for-bit.
    #[test]
    fn refill_k1_matches_barrier_bitwise() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let barrier = Optimizer::new(quick_cfg(7, 0)).run(&space, &sim).unwrap();
        let k1 = Optimizer::new(quick_cfg(7, 1)).run(&space, &sim).unwrap();
        // async_slots is fingerprinted but result-transparent here.
        assert_same_result(&barrier, &k1, "k=1");
    }

    /// The schedule depends only on the seed and the cost model — never on
    /// host timing or thread count.
    #[test]
    fn schedule_is_deterministic() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut reference: Option<RunResult> = None;
        for threads in [1usize, 2, 0] {
            let mut cfg = quick_cfg(11, 4);
            cfg.threads = threads;
            let r = AsyncOptimizer::new(cfg).run(&space, &sim).unwrap();
            if let Some(reference) = &reference {
                assert_same_result(reference, &r, &format!("threads={threads}"));
            } else {
                reference = Some(r);
            }
        }
    }

    /// Overlapping the simulated tool runs shrinks the virtual-clock
    /// makespan for the same number of evaluations.
    #[test]
    fn async_overlap_reduces_makespan() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let k1 = AsyncOptimizer::new(quick_cfg(3, 1))
            .run(&space, &sim)
            .unwrap();
        let k4 = AsyncOptimizer::new(quick_cfg(3, 4))
            .run(&space, &sim)
            .unwrap();
        assert_eq!(k1.candidate_set.len(), k4.candidate_set.len());
        assert!(
            k4.sim_seconds < 0.6 * k1.sim_seconds,
            "k=4 makespan {} not well under k=1 {}",
            k4.sim_seconds,
            k1.sim_seconds
        );
    }

    /// Kill-and-resume at several completion counts — including mid-overlap,
    /// with runs in flight — reproduces the uninterrupted run bit-for-bit.
    #[test]
    fn async_resume_is_bit_identical() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let opt = AsyncOptimizer::new(quick_cfg(5, 3));
        let full = opt.run(&space, &sim).unwrap();
        for kill_at in [1usize, 3, 5] {
            let ckpt = opt.run_until(&space, &sim, kill_at).unwrap();
            assert_eq!(ckpt.completed_steps, kill_at);
            if kill_at < 5 {
                assert!(
                    !ckpt.in_flight.is_empty(),
                    "kill at {kill_at} should land mid-overlap"
                );
            }
            let resumed = opt.resume(&ckpt, &space, &sim).unwrap();
            assert_same_result(&full, &resumed, &format!("kill at {kill_at}"));
        }
    }

    /// The disk round-trip: `run_with_checkpoints` picks up a half-done
    /// run's checkpoint file and finishes it bit-identically.
    #[test]
    fn async_run_with_checkpoints_resumes_from_disk() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let dir = std::env::temp_dir().join(format!("cmmf-async-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("async.ckpt.json");
        let _ = std::fs::remove_file(&path);

        let opt = AsyncOptimizer::new(quick_cfg(9, 2));
        let full = opt.run(&space, &sim).unwrap();
        let ckpt = opt.run_until(&space, &sim, 2).unwrap();
        ckpt.save(&path).unwrap();
        let resumed = opt.run_with_checkpoints(&space, &sim, &path).unwrap();
        assert_same_result(&full, &resumed, "disk resume");
        // The final on-disk checkpoint reflects the whole run.
        let last = RunCheckpoint::load(&path).unwrap();
        assert_eq!(last.completed_steps, 6);
        assert!(last.in_flight.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// Fingerprint mismatches fail loudly: a different slot count.
    #[test]
    fn async_checkpoint_rejects_mismatched_config() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let ckpt = AsyncOptimizer::new(quick_cfg(13, 2))
            .run_until(&space, &sim, 2)
            .unwrap();

        // async_slots is fingerprinted: the schedule depends on it.
        let err = AsyncOptimizer::new(quick_cfg(13, 3))
            .resume(&ckpt, &space, &sim)
            .unwrap_err();
        assert!(matches!(err, CmmfError::Checkpoint { .. }), "{err}");
    }

    /// The virtual clock is the *only* clock the loop consults: every
    /// `Stopwatch::start` anywhere in the crate's sources is gated on the
    /// tracer being enabled, so a `NullTracer` run reads no host time at all.
    /// Every `.rs` file under `src/` is scanned, so moving loop code between
    /// files cannot slip past the gate.
    #[test]
    fn disabled_tracer_reads_no_host_clock() {
        // Built by concatenation so this test's own source lines never match
        // the needle.
        let needle = ["Stopwatch", "::start"].concat();
        let gated = format!("enabled().then({needle})");
        let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut files = vec![src_dir];
        let mut scanned = 0;
        while let Some(path) = files.pop() {
            if path.is_dir() {
                for entry in std::fs::read_dir(&path).unwrap() {
                    files.push(entry.unwrap().path());
                }
                continue;
            }
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            scanned += 1;
            let src = std::fs::read_to_string(&path).unwrap();
            for (i, line) in src.lines().enumerate() {
                let code = line.split("//").next().unwrap_or(line);
                if code.contains(&needle) {
                    assert!(
                        code.contains(&gated),
                        "{}:{}: host-clock stopwatch must be gated on tracer.enabled()",
                        path.display(),
                        i + 1
                    );
                }
            }
        }
        assert!(scanned >= 8, "only {scanned} source files scanned");
    }
}
