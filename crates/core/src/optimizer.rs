//! The configuration, result, and per-decision mechanics of Algorithm 2:
//! fitting the surrogate, drawing and scoring a candidate pool, observing
//! tool runs, and the final Pareto identification. *When* decisions are made
//! and runs observed is the event loop's business ([`crate::scheduler`]).

use crate::eipv::{eipv_correlated_mc_seeded, peipv, EipvScorer};
use crate::models::{
    FidelityDataSet, FidelityModelStack, FitMode, ModelVariant, StackFitOptions, N_OBJECTIVES,
};
use crate::CmmfError;
use fidelity_sim::{FlowSimulator, RunOutcome, Stage};
use gp::{GpConfig, MultiTaskPrediction};
use hls_model::DesignSpace;
use linalg::{Cholesky, Workspace};
use pareto::{hypervolume, pareto_front};
use rand::derive_stream_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use trace::{Stopwatch, TraceEvent, TracerHandle};

/// Configuration of the Algorithm-2 loop. Defaults follow Sec. V-B: 8 initial
/// configurations, 40 optimization steps.
#[derive(Debug, Clone, PartialEq)]
pub struct CmmfConfig {
    /// Initial configurations run at the lowest fidelity (`X_hls`).
    pub n_init: usize,
    /// How many of those are also run through logic synthesis (`X_syn ⊆ X_hls`).
    pub n_init_syn: usize,
    /// How many are run all the way to implementation (`X_impl ⊆ X_syn`).
    pub n_init_impl: usize,
    /// Optimization steps (`N_iter` of Algorithm 2).
    pub n_iter: usize,
    /// Surrogate structure (the paper's method, FPL18, or an ablation).
    pub variant: ModelVariant,
    /// Apply the Eq. 10 time penalty to each fidelity's EIPV.
    pub use_cost_penalty: bool,
    /// Exponent γ on the Eq. 10 penalty ratio `(T_impl/T_i)^γ`; 1.0 is the
    /// literal Eq. 10, the default 0.3 calibrates the penalty to the
    /// simulator's wide stage-time spread (see [`crate::eipv::peipv`]).
    pub cost_exponent: f64,
    /// Number of un-sampled configurations scored per step (the EIPV argmax of
    /// Algorithm 2 line 9 is taken over a random pool of this size, resampled
    /// every step; the whole space is used when smaller).
    pub candidate_pool: usize,
    /// Monte-Carlo samples per EIPV evaluation.
    pub mc_samples: usize,
    /// Number of configurations selected and run per optimization step
    /// under the barrier dispatch policy (`async_slots == 0`; greedy q-EIPV
    /// with fantasized outcomes). 1 reproduces Algorithm 2; q > 1 models q
    /// parallel FPGA-tool licenses, so a step costs its *longest* run on the
    /// virtual clock. Must stay 1 when `async_slots > 0`.
    pub batch_size: usize,
    /// After the BO loop, predict the implementation-level objectives over a
    /// random subsample of this many un-evaluated configurations with the
    /// final surrogate and add the *predicted*-Pareto configurations to the
    /// proposal set (the regression baselines propose from whole-space
    /// predictions; this step gives the BO methods the same breadth). Set 0
    /// to propose only evaluated configurations.
    pub final_prediction_pool: usize,
    /// Fidelity-escalation guard (MF-GP-UCB style): after the PEIPV argmax
    /// picks `(x*, h)`, `h` is raised while the model's mean posterior
    /// standard deviation at `x*` and fidelity `h` (normalized objective
    /// units) is below this threshold — paying for a measurement the model
    /// can already predict adds nothing. Set to 0 to disable.
    pub escalate_threshold: f64,
    /// Re-optimize GP hyperparameters every this many steps (cheap
    /// hyperparameter-reusing refits in between).
    pub refit_every: usize,
    /// On the hyperparameter-reusing steps, extend the cached kernel matrices
    /// and Cholesky factors with only the new rows ([`FitMode::Extend`],
    /// `O(n²·k)`) instead of rebuilding them from scratch ([`FitMode::Refit`],
    /// `O(n³)`). Bit-identical results either way — this flag exists so the
    /// equivalence can be pinned by tests and measured by benches.
    pub incremental: bool,
    /// Score candidates through the cell-indexed acquisition scorer
    /// ([`EipvScorer`]): each fidelity's fantasy front is decomposed once per
    /// step into the Eq. 7–8 grid ([`pareto::FrontIndex`]) and shared by
    /// every candidate, so a Monte-Carlo draw costs an `O(m·log F)` oracle
    /// query instead of a from-scratch hypervolume; the predictive-covariance
    /// Cholesky factors are likewise computed once per (candidate, fidelity)
    /// and shared across batch slots. `false` is the naive per-draw
    /// [`pareto::hypervolume_contribution`] path, kept as an escape hatch so
    /// the equivalence can be pinned by tests and measured by benches — the
    /// two paths see identical posterior draws and agree per query to float
    /// rounding (≤ 1e-12), which makes every discrete decision (chosen
    /// configs, stages) identical; acquisition values may differ in the last
    /// bits (see `indexed_eipv_matches_naive_path`).
    pub indexed_eipv: bool,
    /// The dispatch policy of the event loop ([`crate::scheduler`]). 0 is the
    /// *barrier* policy: each step picks `batch_size` runs and waits for all
    /// of them. `k >= 1` is the *refill* policy: up to `k` simulated tool
    /// runs stay in flight, and each completion frees a slot for a new
    /// single-pick decision. `k = 1` and the barrier policy at
    /// `batch_size = 1` give bit-identical results (both fully serialize the
    /// flow), but the field is fingerprinted, so a checkpoint cannot resume
    /// under a different value.
    pub async_slots: usize,
    /// Worker threads for the parallel hot paths (candidate scoring, EIPV
    /// Monte-Carlo sampling, kernel-matrix assembly, batch prediction);
    /// 0 uses all hardware threads. Every parallel reduction combines its
    /// per-element results in source order, so **any thread count yields a
    /// bit-identical [`RunResult`]** — see DESIGN.md, "Determinism &
    /// parallelism".
    pub threads: usize,
    /// Recycle the surrogate layer's large buffers (Gram matrices, joint
    /// covariances, Cholesky factors, solve scratch) through a run-scoped
    /// [`linalg::Workspace`] arena instead of the allocator. Pooling is
    /// result-transparent by construction — recycled buffers are returned
    /// zero-filled, exactly as fresh allocations would be — so this flag
    /// changes no decision or value (pinned by
    /// `arena_does_not_change_the_result`); like `threads` and `tracer` it is
    /// excluded from checkpoint fingerprints. `false` is the escape hatch
    /// that allocates every buffer fresh, kept so the equivalence can be
    /// pinned by tests and the reuse measured by benches.
    pub arena: bool,
    /// Seed each full hyperparameter re-optimization (the `refit_every`
    /// schedule's Optimize steps) from the previous Optimize step's accepted
    /// optima, shedding the cold multi-start when the warm run already
    /// converges (see [`FidelityModelStack::fit_with`]). Warm starting
    /// changes which hyperparameters the search lands on — never the model
    /// structure or the acquisition mechanics — and its quality neutrality
    /// is contract-tested (`warm_start_is_adrs_neutral`); `false` is the
    /// escape hatch reproducing the cold-start search exactly (pinned by
    /// `warm_start_off_matches_cold_search`). Excluded from checkpoint
    /// fingerprints: a resumed run replays its Optimize chain from step 0,
    /// so the flag may differ between save and resume.
    pub warm_start_hyperopt: bool,
    /// Route hyperparameter-search NLL evaluations through the toleranced
    /// f32-Cholesky + f64-iterative-refinement screen ([`linalg::mixed`]).
    /// Only the *search* is screened — the accepted model is always
    /// factorized in full f64 — but the screen is toleranced, not
    /// bit-identical (`linalg::mixed::NLL_RELATIVE_TOLERANCE`), so the
    /// search can land on different hyperparameters; default **off**.
    /// Excluded from checkpoint fingerprints for the same replay reason as
    /// `warm_start_hyperopt`.
    pub mixed_precision: bool,
    /// Per-model GP fitting configuration.
    pub gp: GpConfig,
    /// Master seed: fixes initialization, candidate pools, and EIPV sampling.
    pub seed: u64,
    /// Observability sink: the loop's serial sections emit typed
    /// [`trace::TraceEvent`]s — step starts, model fits, acquisition
    /// argmaxes, simulated tool runs, front updates — through this handle
    /// (see ARCHITECTURE.md, "Observability & resume"). The default is the
    /// disabled [`trace::NullTracer`], and instrumented sites skip even
    /// constructing the events when it reports disabled. A tracer can observe
    /// a run but never influence it — enabling one changes no decision
    /// (pinned by `tracer_does_not_change_the_result`) — so this field is
    /// transparent to `PartialEq` and excluded from checkpoint fingerprints.
    pub tracer: TracerHandle,
}

impl Default for CmmfConfig {
    fn default() -> Self {
        CmmfConfig {
            n_init: 8,
            n_init_syn: 5,
            n_init_impl: 3,
            n_iter: 40,
            variant: ModelVariant::paper(),
            use_cost_penalty: true,
            cost_exponent: 0.3,
            candidate_pool: 200,
            mc_samples: 24,
            batch_size: 1,
            final_prediction_pool: 4000,
            escalate_threshold: 0.05,
            refit_every: 5,
            incremental: true,
            indexed_eipv: true,
            async_slots: 0,
            threads: 0,
            arena: true,
            warm_start_hyperopt: true,
            mixed_precision: false,
            gp: GpConfig {
                restarts: 2,
                max_evals: 450,
                ..Default::default()
            },
            seed: 2021,
            tracer: TracerHandle::null(),
        }
    }
}

/// One Algorithm-2 step's decision: which configuration was run, up to which
/// fidelity, and at what acquisition value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateChoice {
    /// Chosen configuration index (`x*`).
    pub config: usize,
    /// Chosen fidelity (`h`).
    pub stage: Stage,
    /// The (penalized) EIPV that won.
    pub acquisition: f64,
}

/// Result of one optimizer run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The candidate Pareto set `CS`: every configuration sampled during the
    /// iterations, with the fidelity it was run to, in dispatch order.
    pub candidate_set: Vec<CandidateChoice>,
    /// All configurations the run evaluated (initialization + iterations).
    pub evaluated_configs: Vec<usize>,
    /// Ground-truth (post-implementation) objective vectors of the valid
    /// evaluated configurations that form the learned Pareto front.
    pub measured_pareto: Vec<[f64; N_OBJECTIVES]>,
    /// Simulated tool time in seconds (Table I's "overall running time"),
    /// covering initialization and every iteration's flow run: the
    /// virtual-clock makespan, which is the plain sum of the run times when
    /// the flow is fully serialized.
    pub sim_seconds: f64,
    /// Learned objective correlations at each fidelity, when the variant is
    /// correlated (diagnostics for Sec. IV-B's claims).
    pub objective_correlations: Option<Vec<linalg::Matrix>>,
    /// Convergence trace: after each optimization step (completion, under
    /// the refill policy), the Pareto hypervolume of the *observed* front at
    /// each fidelity (normalized objective units, reference `[2.5; 3]`).
    /// Monotone non-decreasing per fidelity; useful for plotting and for
    /// early-stopping policies.
    pub hv_history: Vec<[f64; 3]>,
}

/// One raw observation of a configuration at a fidelity.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Observation {
    Valid([f64; N_OBJECTIVES]),
    /// Invalid designs get objective values 10x worse than the current worst
    /// when training data is materialized (Sec. IV-C).
    Invalid,
}

/// The observations, surrogate, and RNG of one Algorithm-2 run: everything a
/// dispatch decision reads and writes. The event loop
/// (`crate::scheduler`) owns one and adds the virtual clock on top.
pub(crate) struct LoopState<'a> {
    pub(crate) cfg: &'a CmmfConfig,
    pub(crate) space: &'a DesignSpace,
    pub(crate) sim: &'a FlowSimulator,
    pub(crate) rng: StdRng,
    /// Not-yet-sampled configuration indices, in shuffled order (the tail is
    /// each decision's candidate pool).
    pub(crate) unsampled: Vec<usize>,
    /// The initialization draw, in rank order.
    pub(crate) init: Vec<usize>,
    /// Observations per fidelity: (config, outcome).
    obs: [Vec<(usize, Observation)>; 3],
    pub(crate) candidate_set: Vec<CandidateChoice>,
    stack: Option<FidelityModelStack>,
    /// Run-scoped buffer arena threaded through every surrogate fit and
    /// batch prediction (disabled pass-through when `cfg.arena` is off).
    ws: Workspace,
    pub(crate) hv_history: Vec<[f64; 3]>,
    /// True while a resume replays checkpointed decisions: suppresses the
    /// events of work that already happened (tool runs, dispatches and
    /// completions, model fits).
    pub(crate) replaying: bool,
}

/// A decision's candidate pool with its per-(candidate, fidelity) posterior
/// caches, shared across the decision's batch slots.
struct CandidatePrep {
    /// Candidate configuration indices, in pool order (the argmax tie-break
    /// order).
    pool: Vec<usize>,
    /// Posterior prediction per candidate and fidelity.
    preds: Vec<Vec<MultiTaskPrediction>>,
    /// Predictive-covariance Cholesky factors (indexed scorer path only).
    chols: Vec<Vec<Option<Cholesky>>>,
}

/// One acquisition argmax outcome of [`LoopState::select_pick`].
struct SelectedPick {
    /// The winning (config, stage, penalized-acquisition) choice, after the
    /// fidelity-escalation guard.
    choice: CandidateChoice,
    /// The winner's raw EIPV (before the Eq. 10 penalty).
    raw_eipv: f64,
    /// The winner's index into the pool (and the prep caches).
    pool_idx: usize,
    /// Candidates scored (pool minus exclusions).
    n_scored: usize,
}

impl<'a> LoopState<'a> {
    /// Validates the configuration against the space (shared by fresh starts
    /// and resumes).
    pub(crate) fn validate(cfg: &CmmfConfig, space: &DesignSpace) -> Result<(), CmmfError> {
        if space.len() < cfg.n_init + cfg.n_iter {
            return Err(CmmfError::SpaceTooSmall {
                required: cfg.n_init + cfg.n_iter,
                available: space.len(),
            });
        }
        if cfg.n_init_impl == 0 || cfg.n_init_syn < cfg.n_init_impl || cfg.n_init < cfg.n_init_syn {
            return Err(CmmfError::Internal {
                reason: "initialization sizes must be nested and non-zero".into(),
            });
        }
        if cfg.async_slots > 0 && cfg.batch_size > 1 {
            return Err(CmmfError::InvalidConfig {
                reason: format!(
                    "batch_size {} applies only to the barrier policy (async_slots = 0), \
                     but async_slots is {}",
                    cfg.batch_size, cfg.async_slots
                ),
            });
        }
        Ok(())
    }

    /// The top stage of the `rank`-th initialization configuration (the first
    /// ranks go all the way to implementation, Algorithm 2 lines 3-5).
    pub(crate) fn init_top_stage(cfg: &CmmfConfig, rank: usize) -> Stage {
        if rank < cfg.n_init_impl {
            Stage::Impl
        } else if rank < cfg.n_init_syn {
            Stage::Syn
        } else {
            Stage::Hls
        }
    }

    /// A state with nothing observed yet, at the given RNG position and
    /// sampling order.
    pub(crate) fn new(
        cfg: &'a CmmfConfig,
        space: &'a DesignSpace,
        sim: &'a FlowSimulator,
        rng: StdRng,
        unsampled: Vec<usize>,
        init: Vec<usize>,
    ) -> Self {
        LoopState {
            cfg,
            space,
            sim,
            rng,
            unsampled,
            init,
            obs: Default::default(),
            candidate_set: Vec::with_capacity(cfg.n_iter),
            stack: None,
            ws: if cfg.arena {
                Workspace::new()
            } else {
                Workspace::disabled()
            },
            hv_history: Vec::with_capacity(cfg.n_iter),
            replaying: false,
        }
    }

    /// A validated, seeded state with the initialization set (Algorithm 2,
    /// lines 3-5) *drawn but not observed*: the event loop pushes it through
    /// its slots.
    pub(crate) fn fresh(
        cfg: &'a CmmfConfig,
        space: &'a DesignSpace,
        sim: &'a FlowSimulator,
    ) -> Result<Self, CmmfError> {
        Self::validate(cfg, space)?;
        cfg.tracer.emit(|| TraceEvent::RunStarted {
            seed: cfg.seed,
            n_iter: cfg.n_iter,
            resumed_at: None,
        });
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut unsampled: Vec<usize> = (0..space.len()).collect();
        unsampled.shuffle(&mut rng);
        let init: Vec<usize> = unsampled.split_off(unsampled.len() - cfg.n_init);
        Ok(Self::new(cfg, space, sim, rng, unsampled, init))
    }

    /// One dispatch decision (Algorithm 2, lines 6-11): fits the surrogate on
    /// everything observed so far, fantasizes the `pending` runs' posterior
    /// means into the per-fidelity fronts, and picks up to `picks`
    /// (candidate, fidelity) pairs from one fresh candidate pool by greedy
    /// q-EIPV, each later pick scored against the fronts augmented with the
    /// earlier picks' fantasized outcomes. The picks join the candidate set
    /// and leave the sampling pool. Returns `None`, with the new surrogate
    /// installed, when the pool is exhausted.
    ///
    /// The argmax fans out over the pool. Each (candidate, fidelity) pair
    /// draws its Monte-Carlo samples from its own RNG stream — seeded from
    /// (master seed, decision `t`, pick slot, config, fidelity) — and the
    /// winner is chosen by a serial first-max scan in pool order, so the
    /// selection is independent of thread count and scheduling.
    pub(crate) fn decide(
        &mut self,
        t: usize,
        pending: &[(usize, Stage)],
        picks: usize,
    ) -> Result<Option<Vec<CandidateChoice>>, CmmfError> {
        let cfg = self.cfg;
        let tracer = &cfg.tracer;
        tracer.emit(|| TraceEvent::StepStarted {
            step: t,
            observed: [self.obs[0].len(), self.obs[1].len(), self.obs[2].len()],
        });
        let (new_stack, mut fantasy) = {
            let data = self.training_data();
            let stack = self.fit(t, &data)?;
            let fronts: Vec<Vec<Vec<f64>>> = (0..3).map(|f| pareto_front(&data.ys[f])).collect();
            (stack, fronts)
        };
        let reference = vec![2.5; N_OBJECTIVES]; // dominates the 2.0 penalty

        // Fantasy fronts: the observed fronts augmented with the pending
        // runs' posterior means under the new stack, in dispatch order.
        for &(config, stage) in pending {
            let fi = stage.index();
            let x = self.space.encode(config);
            let mean = new_stack.predict_in(fi, &x, &self.ws)?.mean;
            fantasy[fi] = merge_into_front(&fantasy[fi], mean);
        }

        let Some(prep) = self.prepare_candidates(&new_stack)? else {
            self.stack = Some(new_stack);
            return Ok(None);
        };
        // Acquisition scorers, one per fidelity: the fantasy front's cell
        // decomposition is built once *outside* the per-candidate fan-out and
        // shared by every candidate and MC draw; rebuilt only when a pick's
        // fantasy actually changes the front.
        let mut scorers = Self::build_scorers(cfg, &fantasy, &reference);
        let step_seed = derive_stream_seed(cfg.seed, &[t as u64]);
        let mut picked: Vec<CandidateChoice> = Vec::with_capacity(picks);
        for q in 0..picks {
            let slot_started = tracer.enabled().then(Stopwatch::start);
            let q_seed = derive_stream_seed(step_seed, &[q as u64]);
            let Some(sel) =
                self.select_pick(&prep, &scorers, &fantasy, &reference, q_seed, &picked)?
            else {
                break;
            };
            let choice = sel.choice;
            tracer.emit(|| TraceEvent::AcquisitionScored {
                step: t,
                slot: q,
                config: choice.config,
                fidelity: choice.stage.index(),
                candidates: sel.n_scored,
                eipv: sel.raw_eipv,
                penalized: choice.acquisition,
                seconds: slot_started.map_or(0.0, |s| s.seconds()),
            });
            picked.push(choice);
            if q + 1 < picks {
                // Fantasize the outcome at the chosen fidelity so the next
                // pick seeks improvement elsewhere.
                let fi = choice.stage.index();
                let new_front =
                    merge_into_front(&fantasy[fi], prep.preds[sel.pool_idx][fi].mean.clone());
                if new_front != fantasy[fi] {
                    if scorers[fi].is_some() {
                        scorers[fi] = Some(EipvScorer::new(&new_front, &reference));
                    }
                    fantasy[fi] = new_front;
                }
            }
        }
        if picked.is_empty() {
            return Err(CmmfError::Internal {
                reason: "no candidate scored".into(),
            });
        }
        for choice in &picked {
            self.unsampled.retain(|&c| c != choice.config);
        }
        self.candidate_set.extend_from_slice(&picked);
        self.stack = Some(new_stack);
        Ok(Some(picked))
    }

    /// Re-fits the surrogate of decision `t` during a resume replay, exactly
    /// as the interrupted run's decision did.
    pub(crate) fn replay_fit(&mut self, t: usize) -> Result<(), CmmfError> {
        let data = self.training_data();
        self.stack = Some(self.fit(t, &data)?);
        Ok(())
    }

    /// Fits the surrogate stack on `data` under the `refit_every` schedule —
    /// a full hyperparameter re-optimization on multiples of `refit_every`,
    /// cheap hyperparameter-reusing refits (incremental when configured) in
    /// between — and emits `ModelFit` unless replaying. Does *not* install
    /// the stack.
    fn fit(&self, t: usize, data: &FidelityDataSet) -> Result<FidelityModelStack, CmmfError> {
        let cfg = self.cfg;
        let tracer = &cfg.tracer;
        let mode = if t.is_multiple_of(cfg.refit_every) {
            FitMode::Optimize
        } else if cfg.incremental {
            FitMode::Extend
        } else {
            FitMode::Refit
        };
        let fit_started = tracer.enabled().then(Stopwatch::start);
        let stack = FidelityModelStack::fit_with(
            cfg.variant,
            data,
            &cfg.gp,
            &StackFitOptions {
                previous: self.stack.as_ref(),
                mode,
                warm_start: cfg.warm_start_hyperopt,
                mixed_precision: cfg.mixed_precision,
            },
            &self.ws,
        )?;
        if !self.replaying {
            tracer.emit(|| {
                let stats = stack.fit_stats();
                TraceEvent::ModelFit {
                    step: t,
                    fit_mode: mode.name(),
                    seconds: fit_started.map_or(0.0, |s| s.seconds()),
                    nll_evals: stats.nll_evals,
                    restarts_run: stats.restarts_run,
                    warm_start_hits: stats.warm_start_hits,
                    warm_start_misses: stats.warm_start_misses,
                }
            });
        }
        Ok(stack)
    }

    /// Draws the decision's candidate pool (exactly one RNG shuffle per
    /// decision) and precomputes the per-(candidate, fidelity) posterior
    /// caches shared by every scoring slot. Returns `None` when the pool is
    /// empty (space exhausted). Ordered parallel collects keep the values
    /// bit-identical to the serial path for any thread count.
    fn prepare_candidates(
        &mut self,
        stack: &FidelityModelStack,
    ) -> Result<Option<CandidatePrep>, CmmfError> {
        let cfg = self.cfg;
        let space = self.space;
        self.unsampled.shuffle(&mut self.rng);
        let pool_len = cfg.candidate_pool.min(self.unsampled.len());
        if pool_len == 0 {
            return Ok(None);
        }
        let pool: Vec<usize> = self.unsampled[self.unsampled.len() - pool_len..].to_vec();

        // Candidate encodings and posterior predictions are invariant across
        // batch slots (only the fantasy fronts change between picks), so
        // compute each once per (candidate, stage) here instead of inside the
        // scoring closures.
        let encoded: Vec<Vec<f64>> = pool
            .par_iter()
            .with_min_len(8)
            .map(|&c| space.encode(c))
            .collect();
        // One batched stack prediction per fidelity (wide column blocks per
        // factor traversal), transposed back to the per-candidate layout the
        // scorers index. Bit-identical to per-candidate `predict_in` calls.
        let ws = &self.ws;
        let f0 = stack.predict_batch_in(0, &encoded, ws)?;
        let f1 = stack.predict_batch_in(1, &encoded, ws)?;
        let f2 = stack.predict_batch_in(2, &encoded, ws)?;
        let preds: Vec<Vec<MultiTaskPrediction>> = f0
            .into_iter()
            .zip(f1)
            .zip(f2)
            .map(|((a, b), c)| vec![a, b, c])
            .collect();
        // On the indexed path the predictive-covariance factors are also
        // per-step invariants: factor each candidate's M x M covariance
        // once and share it across scoring slots (the naive path factors
        // inside each scoring call, exactly as before).
        let chols: Vec<Vec<Option<Cholesky>>> = if cfg.indexed_eipv {
            preds
                .par_iter()
                .with_min_len(8)
                .map(|preds| preds.iter().map(|p| Cholesky::new(&p.cov).ok()).collect())
                .collect()
        } else {
            Vec::new()
        };
        Ok(Some(CandidatePrep { pool, preds, chols }))
    }

    /// Cell-indexed acquisition scorers per fidelity (or `None`s on the naive
    /// path), decomposing each front once for all candidates and MC draws.
    fn build_scorers(
        cfg: &CmmfConfig,
        fronts: &[Vec<Vec<f64>>],
        reference: &[f64],
    ) -> Vec<Option<EipvScorer>> {
        if cfg.indexed_eipv {
            fronts
                .iter()
                .map(|f| Some(EipvScorer::new(f, reference)))
                .collect()
        } else {
            vec![None; 3]
        }
    }

    /// One greedy q-EIPV argmax over the prepared pool: scores every
    /// non-excluded candidate at every fidelity from its own seeded MC
    /// stream, applies the Eq. 10 penalty, picks the winner by a serial
    /// first-max scan in pool order (thread-count independent), and applies
    /// the fidelity-escalation guard. Returns `None` when nothing scored
    /// (every pool member excluded).
    fn select_pick(
        &self,
        prep: &CandidatePrep,
        scorers: &[Option<EipvScorer>],
        fantasy: &[Vec<Vec<f64>>],
        reference: &[f64],
        q_seed: u64,
        exclude: &[CandidateChoice],
    ) -> Result<Option<SelectedPick>, CmmfError> {
        let cfg = self.cfg;
        let space = self.space;
        let sim = self.sim;
        let pool = &prep.pool;
        let cand_preds = &prep.preds;
        let cand_chols = &prep.chols;
        // Each candidate's best stage, carried with the *raw* EIPV of the
        // winning stage so the journal can report both sides of Eq. 10.
        let scored: Vec<Option<(CandidateChoice, f64)>> = (0..pool.len())
            .into_par_iter()
            .map(|idx| -> Result<Option<(CandidateChoice, f64)>, CmmfError> {
                let c = pool[idx];
                if exclude.iter().any(|p| p.config == c) {
                    return Ok(None);
                }
                let t_impl = sim.stage_seconds(space, c, Stage::Impl);
                let mut best: Option<(CandidateChoice, f64)> = None;
                for stage in Stage::all() {
                    let f = stage.index();
                    let pred = &cand_preds[idx][f];
                    let seed = derive_stream_seed(q_seed, &[c as u64, f as u64]);
                    let raw = match &scorers[f] {
                        Some(scorer) => scorer.eipv_mc_seeded(
                            pred,
                            cand_chols[idx][f].as_ref(),
                            cfg.mc_samples,
                            seed,
                        ),
                        None => eipv_correlated_mc_seeded(
                            pred,
                            &fantasy[f],
                            reference,
                            cfg.mc_samples,
                            seed,
                        ),
                    };
                    let score = if cfg.use_cost_penalty {
                        peipv(
                            raw,
                            t_impl,
                            sim.stage_seconds(space, c, stage),
                            cfg.cost_exponent,
                        )
                    } else {
                        raw
                    };
                    if best.map(|(b, _)| score > b.acquisition).unwrap_or(true) {
                        best = Some((
                            CandidateChoice {
                                config: c,
                                stage,
                                acquisition: score,
                            },
                            raw,
                        ));
                    }
                }
                Ok(best)
            })
            .collect::<Result<Vec<_>, CmmfError>>()?;
        // Serial first-max scan in pool order: ties resolve to the
        // earliest candidate, exactly as the serial loop would.
        let n_scored = scored.iter().flatten().count();
        let mut best: Option<(CandidateChoice, f64)> = None;
        for cand in scored.into_iter().flatten() {
            if best
                .map(|(b, _)| cand.0.acquisition > b.acquisition)
                .unwrap_or(true)
            {
                best = Some(cand);
            }
        }
        let Some((mut choice, raw_eipv)) = best else {
            return Ok(None);
        };
        let pool_idx = pool
            .iter()
            .position(|&c| c == choice.config)
            .ok_or_else(|| CmmfError::Internal {
                reason: "winning candidate is missing from the scoring pool".into(),
            })?;

        // Fidelity-escalation guard: if the surrogate is already
        // confident at the chosen point and fidelity, running that
        // stage buys no information — climb to the next stage instead.
        if cfg.escalate_threshold > 0.0 {
            while choice.stage < Stage::Impl {
                let p = &cand_preds[pool_idx][choice.stage.index()];
                let mean_std = p.vars().iter().map(|v| v.sqrt()).sum::<f64>() / p.mean.len() as f64;
                if mean_std >= cfg.escalate_threshold {
                    break;
                }
                choice.stage = if choice.stage == Stage::Hls {
                    Stage::Syn
                } else {
                    Stage::Impl
                };
            }
        }
        Ok(Some(SelectedPick {
            choice,
            raw_eipv,
            pool_idx,
            n_scored,
        }))
    }

    /// Convergence trace: hypervolume of each fidelity's observed front,
    /// appended to the history and emitted as `FrontUpdated` for `step`.
    pub(crate) fn record_front(&mut self, step: usize) {
        let data_after = self.training_data();
        let mut hv = [0.0f64; 3];
        let mut front_sizes = [0usize; 3];
        for (f, h) in hv.iter_mut().enumerate() {
            let front = pareto_front(&data_after.ys[f]);
            front_sizes[f] = front.len();
            *h = hypervolume(&front, &[2.5; N_OBJECTIVES]);
        }
        self.hv_history.push(hv);
        self.cfg.tracer.emit(|| TraceEvent::FrontUpdated {
            step,
            hv,
            front_sizes,
        });
    }

    /// Final Pareto identification (after the loop), given the completed
    /// step count and the virtual-clock makespan.
    pub(crate) fn finish(mut self, steps: usize, sim_seconds: f64) -> Result<RunResult, CmmfError> {
        let cfg = self.cfg;
        let space = self.space;
        let sim = self.sim;
        let stack = self.stack.take();

        let mut evaluated: Vec<usize> = self.init.clone();
        evaluated.extend(self.candidate_set.iter().map(|c| c.config));

        // Model-based identification: predict the top fidelity over a random
        // subsample of the un-evaluated space and keep the predicted-Pareto
        // configurations as additional proposals.
        let mut proposed: Vec<usize> = evaluated.clone();
        if cfg.final_prediction_pool > 0 {
            if let Some(stack) = stack.as_ref() {
                self.unsampled.shuffle(&mut self.rng);
                let pool_len = cfg.final_prediction_pool.min(self.unsampled.len());
                let pool = &self.unsampled[..pool_len];
                let ws = &self.ws;
                let encoded: Vec<Vec<f64>> = pool
                    .par_iter()
                    .with_min_len(16)
                    .map(|&c| space.encode(c))
                    .collect();
                let preds: Vec<Vec<f64>> = stack
                    .predict_batch_in(2, &encoded, ws)?
                    .into_iter()
                    .map(|p| p.mean)
                    .collect();
                for k in pareto::pareto_front_indices(&preds) {
                    proposed.push(pool[k]);
                }
            }
        }

        let truth = sim.truth_objectives(space);
        let mut measured: Vec<Vec<f64>> = proposed
            .iter()
            .filter_map(|&c| truth[c].map(|t| t.to_vec()))
            .collect();
        // Distinct proposals can share ground-truth objectives (and a config
        // can be both evaluated and model-proposed); keep one copy each.
        // `total_cmp` gives a total order even if a simulator model ever
        // produces a NaN objective, so the sort cannot panic.
        measured.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| !o.is_eq())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        measured.dedup();
        let measured_pareto: Vec<[f64; N_OBJECTIVES]> = pareto_front(&measured)
            .into_iter()
            .map(|p| [p[0], p[1], p[2]])
            .collect();
        let objective_correlations = stack.as_ref().and_then(|s| {
            let per_fid: Option<Vec<_>> = (0..3).map(|f| s.task_correlations(f)).collect();
            per_fid
        });

        cfg.tracer.emit(|| TraceEvent::RunFinished {
            steps,
            sim_seconds,
            pareto_points: measured_pareto.len(),
        });
        Ok(RunResult {
            candidate_set: self.candidate_set,
            evaluated_configs: evaluated,
            measured_pareto,
            sim_seconds,
            objective_correlations,
            hv_history: self.hv_history,
        })
    }

    /// Runs the flow for `config` up to `top_stage`, recording one observation
    /// per traversed fidelity (the flow produces lower-stage reports on its
    /// way up, Fig. 2). `step` labels the emitted `ToolRun` events (`None`
    /// during initialization).
    pub(crate) fn observe(&mut self, config: usize, top_stage: Stage, step: Option<usize>) {
        let cfg = self.cfg;
        let trace_runs = cfg.tracer.enabled() && !self.replaying;
        for stage in Stage::all() {
            if stage > top_stage {
                break;
            }
            let o = match self.sim.run(self.space, config, stage) {
                RunOutcome::Valid(r) => Observation::Valid(r.objectives()),
                RunOutcome::Invalid { .. } => Observation::Invalid,
            };
            if trace_runs {
                // `stage_seconds` is cumulative up the flow; the journal
                // reports each stage's marginal share.
                let seconds = self.sim.marginal_stage_seconds(self.space, config, stage);
                cfg.tracer.emit(|| TraceEvent::ToolRun {
                    step,
                    config,
                    stage: stage.name(),
                    seconds,
                    valid: matches!(o, Observation::Valid(_)),
                });
            }
            self.obs[stage.index()].push((config, o));
        }
    }

    /// Builds normalized per-fidelity training data. Valid observations are
    /// min-max normalized per objective over all fidelities pooled; invalid
    /// designs are materialized at 2.0 — far beyond the worst valid value
    /// (the paper's "10x worse than the current worst" in spirit, clamped so
    /// the GP stays well-conditioned).
    fn training_data(&self) -> FidelityDataSet {
        let mut mins = [f64::INFINITY; N_OBJECTIVES];
        let mut maxs = [f64::NEG_INFINITY; N_OBJECTIVES];
        for fid in &self.obs {
            for (_, o) in fid {
                if let Observation::Valid(y) = o {
                    for d in 0..N_OBJECTIVES {
                        mins[d] = mins[d].min(y[d]);
                        maxs[d] = maxs[d].max(y[d]);
                    }
                }
            }
        }
        let mut spans = [1.0; N_OBJECTIVES];
        for d in 0..N_OBJECTIVES {
            if !mins[d].is_finite() {
                mins[d] = 0.0;
                maxs[d] = 1.0;
            }
            spans[d] = (maxs[d] - mins[d]).max(1e-12);
        }
        let mut data = FidelityDataSet::default();
        for (f, fid) in self.obs.iter().enumerate() {
            for (c, o) in fid {
                data.xs[f].push(self.space.encode(*c));
                data.ys[f].push(match o {
                    Observation::Valid(y) => (0..N_OBJECTIVES)
                        .map(|d| (y[d] - mins[d]) / spans[d])
                        .collect(),
                    Observation::Invalid => vec![2.0; N_OBJECTIVES],
                });
            }
        }
        data
    }
}

/// The Pareto front of `front` plus one fantasized `point`.
fn merge_into_front(front: &[Vec<f64>], point: Vec<f64>) -> Vec<Vec<f64>> {
    pareto_front(
        &front
            .iter()
            .cloned()
            .chain(std::iter::once(point))
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimizer, RunCheckpoint};
    use fidelity_sim::SimParams;
    use hls_model::benchmarks::{self, Benchmark};
    use std::sync::Arc;
    use trace::MemoryTracer;

    fn quick_cfg(seed: u64) -> CmmfConfig {
        CmmfConfig {
            n_iter: 6,
            candidate_pool: 40,
            mc_samples: 8,
            refit_every: 3,
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
            FlowSimulator::new(SimParams::for_benchmark(b)),
        )
    }

    /// Full bit-identity over every deterministic `RunResult` field.
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

    #[test]
    fn runs_to_completion_and_collects_cs() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let r = Optimizer::new(quick_cfg(1)).run(&space, &sim).unwrap();
        assert_eq!(r.candidate_set.len(), 6);
        assert_eq!(r.evaluated_configs.len(), 8 + 6);
        assert!(!r.measured_pareto.is_empty());
        assert!(r.sim_seconds > 0.0);
        assert!(r.objective_correlations.is_some());
    }

    #[test]
    fn candidate_set_configs_are_distinct() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let r = Optimizer::new(quick_cfg(2)).run(&space, &sim).unwrap();
        let mut seen: Vec<usize> = r.evaluated_configs.clone();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "a configuration was sampled twice");
    }

    #[test]
    fn deterministic_given_seed() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let a = Optimizer::new(quick_cfg(3)).run(&space, &sim).unwrap();
        let b = Optimizer::new(quick_cfg(3)).run(&space, &sim).unwrap();
        let ca: Vec<usize> = a.candidate_set.iter().map(|c| c.config).collect();
        let cb: Vec<usize> = b.candidate_set.iter().map(|c| c.config).collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn threads_do_not_change_the_result() {
        // The contract behind `CmmfConfig::threads`: every parallel reduction
        // combines per-element results in source order, so serial and
        // parallel runs must agree bit-for-bit.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let run_with = |threads: usize| {
            let mut cfg = quick_cfg(11);
            cfg.threads = threads;
            Optimizer::new(cfg).run(&space, &sim).unwrap()
        };
        let serial = run_with(1);
        for threads in [2, rayon::hardware_threads().max(3)] {
            let parallel = run_with(threads);
            assert_same_result(&serial, &parallel, &format!("threads={threads}"));
        }

        // The same contract holds on the naive acquisition escape hatch
        // (`indexed_eipv = false`), which shares the seeded chunked sampler.
        let run_naive = |threads: usize| {
            let mut cfg = quick_cfg(11);
            cfg.indexed_eipv = false;
            cfg.threads = threads;
            Optimizer::new(cfg).run(&space, &sim).unwrap()
        };
        let naive_serial = run_naive(1);
        let naive_parallel = run_naive(rayon::hardware_threads().max(2));
        assert_eq!(naive_serial.candidate_set, naive_parallel.candidate_set);
        assert_eq!(
            naive_serial.sim_seconds.to_bits(),
            naive_parallel.sim_seconds.to_bits()
        );
        assert_eq!(naive_serial.hv_history, naive_parallel.hv_history);
    }

    #[test]
    fn arena_does_not_change_the_result() {
        // The contract behind `CmmfConfig::arena`: pooled buffers come back
        // zero-filled, exactly like fresh allocations, so which recycled
        // buffer a fit or prediction receives — which varies with thread
        // interleaving — cannot influence any computed value. A pooled run
        // must be bit-identical to a fresh-allocation run at any thread
        // count.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let run_with = |arena: bool, threads: usize| {
            let mut cfg = quick_cfg(47);
            cfg.arena = arena;
            cfg.threads = threads;
            Optimizer::new(cfg).run(&space, &sim).unwrap()
        };
        let fresh = run_with(false, 1);
        for threads in [1, 2] {
            let pooled = run_with(true, threads);
            assert_same_result(&fresh, &pooled, &format!("arena threads={threads}"));
        }
    }

    #[test]
    fn tracer_does_not_change_the_result() {
        // The contract behind `CmmfConfig::tracer`: a tracer observes a run,
        // it never influences it. A run with a recording tracer must be
        // bit-identical to the untraced run.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let untraced = Optimizer::new(quick_cfg(23)).run(&space, &sim).unwrap();

        let sink = Arc::new(MemoryTracer::new());
        let mut cfg = quick_cfg(23);
        cfg.tracer = TracerHandle::new(sink.clone());
        let traced = Optimizer::new(cfg).run(&space, &sim).unwrap();
        assert_same_result(&untraced, &traced, "traced");

        // The journal actually observed the run: lifecycle events frame it,
        // every step logged a fit, an argmax, tool runs, and a front update.
        let events = sink.events();
        assert!(matches!(
            events.first(),
            Some(TraceEvent::RunStarted { .. })
        ));
        assert!(matches!(
            events.last(),
            Some(TraceEvent::RunFinished { .. })
        ));
        let metrics = trace::aggregate_step_metrics(&events);
        assert_eq!(metrics.len(), traced.candidate_set.len());
        for (m, choice) in metrics.iter().zip(&traced.candidate_set) {
            assert!(m.fit_mode.is_some(), "step {} has no fit", m.step);
            assert_eq!(m.picks, vec![(choice.config, choice.stage.index())]);
            assert!(m.tool_runs >= 1);
            assert!(m.hv.is_some());
        }
        // Init tool runs carry no step label.
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ToolRun { step: None, .. })));
    }

    #[test]
    fn resume_is_bit_identical() {
        // The checkpoint/resume contract: killing a run after step k and
        // resuming from the checkpoint yields the same `RunResult`, bit for
        // bit, as never stopping — at any thread count, whether k lands on a
        // hyperparameter-refit boundary (refit_every = 3 here) or not.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let full = Optimizer::new(quick_cfg(31)).run(&space, &sim).unwrap();
        for k in [1, 3, 5] {
            let ckpt = Optimizer::new(quick_cfg(31))
                .run_until(&space, &sim, k)
                .unwrap();
            assert_eq!(ckpt.completed_steps, k);
            for threads in [0, 1, 2] {
                let mut cfg = quick_cfg(31);
                cfg.threads = threads;
                let resumed = Optimizer::new(cfg).resume(&ckpt, &space, &sim).unwrap();
                assert_same_result(&full, &resumed, &format!("k={k} threads={threads}"));
            }
        }
        // A checkpoint also survives its JSON round trip intact.
        let ckpt = Optimizer::new(quick_cfg(31))
            .run_until(&space, &sim, 2)
            .unwrap();
        let reparsed = RunCheckpoint::from_json(&ckpt.to_json()).unwrap();
        let resumed = Optimizer::new(quick_cfg(31))
            .resume(&reparsed, &space, &sim)
            .unwrap();
        assert_same_result(&full, &resumed, "json round trip");
    }

    #[test]
    fn run_with_checkpoints_resumes_from_disk() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let dir = std::env::temp_dir().join(format!("cmmf-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.json");
        std::fs::remove_file(&path).ok();

        let full = Optimizer::new(quick_cfg(37)).run(&space, &sim).unwrap();
        // Simulate a kill after 2 steps by checkpointing there...
        Optimizer::new(quick_cfg(37))
            .run_until(&space, &sim, 2)
            .unwrap()
            .save(&path)
            .unwrap();
        // ...then "re-run the same command": it must pick the file up,
        // finish the run identically, and leave a final checkpoint behind.
        let resumed = Optimizer::new(quick_cfg(37))
            .run_with_checkpoints(&space, &sim, &path)
            .unwrap();
        assert_same_result(&full, &resumed, "disk resume");
        let last = RunCheckpoint::load(&path).unwrap();
        assert_eq!(last.completed_steps, 6);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let ckpt = Optimizer::new(quick_cfg(41))
            .run_until(&space, &sim, 1)
            .unwrap();
        let mut other = quick_cfg(42); // different seed -> different fingerprint
        assert!(matches!(
            Optimizer::new(other.clone()).resume(&ckpt, &space, &sim),
            Err(CmmfError::Checkpoint { .. })
        ));
        // threads, arena, and tracer do not participate in the fingerprint.
        other.seed = 41;
        other.threads = 2;
        other.arena = false;
        other.tracer = TracerHandle::new(Arc::new(MemoryTracer::new()));
        assert!(Optimizer::new(other).resume(&ckpt, &space, &sim).is_ok());
    }

    #[test]
    fn indexed_eipv_matches_naive_path() {
        // Equivalence contract behind `CmmfConfig::indexed_eipv`: both paths
        // draw identical posterior samples, and the cell-indexed oracle
        // agrees with the from-scratch hypervolume contribution to float
        // rounding (≤ 1e-12 per query, documented in `pareto::FrontIndex`).
        // Every discrete decision must therefore coincide — chosen configs,
        // stages, simulated cost, measured front — while the acquisition
        // values may differ in the last bits; they are compared at 1e-9
        // relative. Holds at any thread count.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let run_with = |indexed: bool, threads: usize| {
            let mut cfg = quick_cfg(29);
            cfg.indexed_eipv = indexed;
            cfg.threads = threads;
            Optimizer::new(cfg).run(&space, &sim).unwrap()
        };
        let naive = run_with(false, 1);
        for threads in [1, rayon::hardware_threads().max(2)] {
            let fast = run_with(true, threads);
            assert_eq!(naive.candidate_set.len(), fast.candidate_set.len());
            for (a, b) in naive.candidate_set.iter().zip(&fast.candidate_set) {
                assert_eq!(a.config, b.config, "threads={threads}");
                assert_eq!(a.stage, b.stage, "threads={threads}");
                assert!(
                    (a.acquisition - b.acquisition).abs() <= 1e-9 * a.acquisition.abs().max(1e-12),
                    "threads={threads}: acquisition {} vs {}",
                    a.acquisition,
                    b.acquisition
                );
            }
            assert_eq!(naive.evaluated_configs, fast.evaluated_configs);
            assert_eq!(naive.measured_pareto, fast.measured_pareto);
            assert_eq!(naive.sim_seconds.to_bits(), fast.sim_seconds.to_bits());
            assert_eq!(naive.hv_history, fast.hv_history);
        }
    }

    #[test]
    fn incremental_updates_do_not_change_the_result() {
        // The contract behind `CmmfConfig::incremental`: extending the cached
        // Cholesky factors on hyperparameter-reusing steps runs the exact
        // same recurrence as refactorizing from scratch, so the full
        // `RunResult` must agree bit-for-bit — at any thread count.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let run_with = |incremental: bool, threads: usize| {
            let mut cfg = quick_cfg(19);
            cfg.incremental = incremental;
            cfg.threads = threads;
            Optimizer::new(cfg).run(&space, &sim).unwrap()
        };
        let full = run_with(false, 1);
        for threads in [1, rayon::hardware_threads().max(2)] {
            let fast = run_with(true, threads);
            assert_same_result(&full, &fast, &format!("threads={threads}"));
        }
    }

    /// Sums warm-start telemetry over a journal's `ModelFit` events.
    fn warm_counts(events: &[TraceEvent]) -> (usize, usize) {
        let (mut hits, mut misses) = (0, 0);
        for e in events {
            if let TraceEvent::ModelFit {
                warm_start_hits,
                warm_start_misses,
                ..
            } = e
            {
                hits += warm_start_hits;
                misses += warm_start_misses;
            }
        }
        (hits, misses)
    }

    #[test]
    fn warm_start_off_matches_cold_search() {
        // The contract behind `CmmfConfig::warm_start_hyperopt`: warm
        // starting only ever changes results through a *hit* — a probe that
        // converges in place and sheds the cold multi-start; a miss discards
        // the probe, leaving the cold search's result untouched bit for bit.
        // Whether a given run hits depends on budget and seed, so scan a few
        // seeds: every run must keep the off path probe-free, and a run whose
        // probes all missed must be bit-identical to the warm-off run — the
        // pre-warm-start path. At least one scanned seed must produce such an
        // all-miss run for the bitwise pin to have bitten.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let run_with = |seed: u64, warm: bool| {
            let sink = Arc::new(MemoryTracer::new());
            let mut cfg = quick_cfg(seed);
            cfg.warm_start_hyperopt = warm;
            cfg.tracer = TracerHandle::new(sink.clone());
            (Optimizer::new(cfg).run(&space, &sim).unwrap(), sink)
        };
        let mut pinned_a_miss_only_run = false;
        for seed in [53, 54, 55] {
            let (on, sink_on) = run_with(seed, true);
            let (off, sink_off) = run_with(seed, false);
            assert_eq!(warm_counts(&sink_off.events()), (0, 0), "off never probes");
            let (hits, misses) = warm_counts(&sink_on.events());
            assert!(hits + misses > 0, "warm probes must actually run on-path");
            if hits == 0 {
                assert_same_result(&on, &off, &format!("warm off, seed {seed}"));
                pinned_a_miss_only_run = true;
            }
        }
        assert!(
            pinned_a_miss_only_run,
            "no scanned seed produced an all-miss run; extend the seed list \
             so the miss-transparency pin keeps biting"
        );
    }

    #[test]
    fn resume_is_bit_identical_with_warm_start_off() {
        // `warm_start_hyperopt: false` keeps the old restore shortcut
        // (replay fits only from the last Optimize step); it must still
        // reproduce the uninterrupted run exactly.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let cold_cfg = || {
            let mut cfg = quick_cfg(67);
            cfg.warm_start_hyperopt = false;
            cfg
        };
        let full = Optimizer::new(cold_cfg()).run(&space, &sim).unwrap();
        for k in [2, 4] {
            let ckpt = Optimizer::new(cold_cfg())
                .run_until(&space, &sim, k)
                .unwrap();
            let resumed = Optimizer::new(cold_cfg())
                .resume(&ckpt, &space, &sim)
                .unwrap();
            assert_same_result(&full, &resumed, &format!("cold resume k={k}"));
        }
    }

    #[test]
    fn hyperopt_speed_flags_stay_out_of_the_fingerprint() {
        // `warm_start_hyperopt` and `mixed_precision` are deliberately
        // excluded from the checkpoint fingerprint: restore replays the full
        // fit chain under the *resuming* process's flags, so a checkpoint
        // from either setting resumes under the other (see
        // `RunCheckpoint::fingerprint_of`).
        let base = quick_cfg(71);
        let mut flipped = quick_cfg(71);
        flipped.warm_start_hyperopt = !base.warm_start_hyperopt;
        flipped.mixed_precision = !base.mixed_precision;
        assert_eq!(
            RunCheckpoint::fingerprint_of(&base),
            RunCheckpoint::fingerprint_of(&flipped)
        );
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let ckpt = Optimizer::new(base).run_until(&space, &sim, 1).unwrap();
        assert!(Optimizer::new(flipped).resume(&ckpt, &space, &sim).is_ok());
    }

    #[test]
    fn mixed_precision_run_completes_sanely() {
        // `mixed_precision` screens NLL evaluations through the f32 +
        // refinement factorization; accepted hyperparameters always get a
        // final f64 factorize. The run must complete with a sane front —
        // the toleranced numeric contract itself lives in `cmmf-gp`
        // (`mixed_precision_screen_stays_within_tolerance`).
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(73);
        cfg.mixed_precision = true;
        let r = Optimizer::new(cfg).run(&space, &sim).unwrap();
        assert_eq!(r.candidate_set.len(), 6);
        assert!(!r.measured_pareto.is_empty());
        assert!(r.hv_history.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn fpl18_variant_runs() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(4);
        cfg.variant = ModelVariant::fpl18();
        let r = Optimizer::new(cfg).run(&space, &sim).unwrap();
        assert_eq!(r.candidate_set.len(), 6);
        assert!(r.objective_correlations.is_none());
    }

    #[test]
    fn cost_penalty_prefers_cheap_fidelities() {
        // With the penalty on, a clear majority of iteration runs should stay
        // below Impl (the paper's motivation for PEIPV). Any single seed can
        // hit a stretch where the model keeps demanding implementation runs,
        // so aggregate over a few.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut impl_runs = 0;
        let mut total = 0;
        for seed in [1, 2, 5] {
            let mut cfg = quick_cfg(seed);
            cfg.n_iter = 10;
            let r = Optimizer::new(cfg).run(&space, &sim).unwrap();
            impl_runs += r
                .candidate_set
                .iter()
                .filter(|c| c.stage == Stage::Impl)
                .count();
            total += r.candidate_set.len();
        }
        assert!(
            impl_runs < total / 2,
            "{impl_runs}/{total} runs went to full implementation despite the cost penalty"
        );
    }

    #[test]
    fn hv_history_is_recorded_per_step() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let r = Optimizer::new(quick_cfg(17)).run(&space, &sim).unwrap();
        assert_eq!(r.hv_history.len(), 6);
        // Hypervolume never decreases within a fidelity (the normalization
        // window can shift values slightly, so allow a small tolerance).
        for f in 0..3 {
            for w in r.hv_history.windows(2) {
                assert!(
                    w[1][f] >= w[0][f] - 0.35,
                    "fidelity {f} hv dropped sharply: {:?} -> {:?}",
                    w[0][f],
                    w[1][f]
                );
            }
        }
    }

    #[test]
    fn batch_mode_runs_q_configs_per_step() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(8);
        cfg.batch_size = 3;
        cfg.n_iter = 4;
        let r = Optimizer::new(cfg).run(&space, &sim).unwrap();
        assert_eq!(r.candidate_set.len(), 12);
        // Batch members within one run are distinct configurations.
        let mut ids: Vec<usize> = r.candidate_set.iter().map(|c| c.config).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn batched_runs_resume_bit_identically() {
        // Resume must partition picks by step, not assume `batch_size` picks
        // per step — pin it with a batched run.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(43);
        cfg.batch_size = 3;
        cfg.n_iter = 4;
        let full = Optimizer::new(cfg.clone()).run(&space, &sim).unwrap();
        let ckpt = Optimizer::new(cfg.clone())
            .run_until(&space, &sim, 2)
            .unwrap();
        let resumed = Optimizer::new(cfg).resume(&ckpt, &space, &sim).unwrap();
        assert_same_result(&full, &resumed, "batched resume");
    }

    #[test]
    fn space_too_small_is_rejected() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(6);
        cfg.n_iter = space.len(); // cannot fit init + iters
        assert!(matches!(
            Optimizer::new(cfg).run(&space, &sim),
            Err(CmmfError::SpaceTooSmall { .. })
        ));
    }

    #[test]
    fn bad_nesting_is_rejected() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(7);
        cfg.n_init_impl = 0;
        assert!(matches!(
            Optimizer::new(cfg).run(&space, &sim),
            Err(CmmfError::Internal { .. })
        ));
    }

    #[test]
    fn batch_with_async_slots_is_rejected() {
        // `batch_size` belongs to the barrier policy; the refill policy
        // makes single-pick decisions, so the combination would silently
        // ignore the batch. Every entry point refuses it.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(7);
        cfg.batch_size = 2;
        cfg.async_slots = 3;
        let opt = Optimizer::new(cfg);
        assert!(matches!(
            opt.run(&space, &sim),
            Err(CmmfError::InvalidConfig { .. })
        ));
        assert!(matches!(
            opt.run_until(&space, &sim, 1),
            Err(CmmfError::InvalidConfig { .. })
        ));
        let ckpt = Optimizer::new(quick_cfg(7))
            .run_until(&space, &sim, 1)
            .unwrap();
        assert!(matches!(
            opt.resume(&ckpt, &space, &sim),
            Err(CmmfError::InvalidConfig { .. })
        ));
    }
}
