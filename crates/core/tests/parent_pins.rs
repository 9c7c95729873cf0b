//! Result pins recorded by the two-driver build that preceded the single
//! event-clock loop, so a change that shifts *both* dispatch policies at once
//! cannot pass unnoticed (the in-crate pins only compare two runs of the same
//! build against each other).
//!
//! * `fixtures/digest_*.txt` — bit-pattern digests of complete `RunResult`s
//!   on the quick configuration below: barrier q ∈ {1, 2} (the former
//!   sequential `Optimizer` with `batch_size = q`) and refill k ∈ {1, 2, 3}
//!   (the former `AsyncOptimizer` with `async_slots = k`).
//! * `fixtures/v2_*.json` — version-2 checkpoints written by that build: a
//!   sequential-shape file (`batch_size = 2`, killed after step 2) and an
//!   asynchronous-shape file (`async_slots = 2`, killed after two
//!   completions with a run still in flight). Resuming either through the
//!   current `Optimizer` must reproduce the uninterrupted run's digest.

use cmmf::{CmmfConfig, CmmfError, Optimizer, RunCheckpoint, RunResult};
use fidelity_sim::{FlowSimulator, SimParams};
use gp::GpConfig;
use hls_model::benchmarks::{self, Benchmark};
use hls_model::DesignSpace;
use std::fmt::Write;

fn quick_cfg() -> CmmfConfig {
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
        seed: 2021,
        ..Default::default()
    }
}

fn barrier(q: usize) -> CmmfConfig {
    CmmfConfig {
        batch_size: q,
        ..quick_cfg()
    }
}

fn refill(k: usize) -> CmmfConfig {
    CmmfConfig {
        async_slots: k,
        ..quick_cfg()
    }
}

fn setup() -> (DesignSpace, FlowSimulator) {
    let b = Benchmark::SpmvCrs;
    (
        benchmarks::build(b).unwrap().pruned_space().unwrap(),
        FlowSimulator::new(SimParams::for_benchmark(b)),
    )
}

/// Every deterministic `RunResult` field as bit patterns, one line per field.
fn digest(r: &RunResult) -> String {
    let mut out = String::from("candidate_set");
    for c in &r.candidate_set {
        let acq = c.acquisition.to_bits();
        write!(out, " {}:{}:{acq:016x}", c.config, c.stage.index()).unwrap();
    }
    out.push_str("\nevaluated_configs");
    for c in &r.evaluated_configs {
        write!(out, " {c}").unwrap();
    }
    out.push_str("\nmeasured_pareto");
    for p in &r.measured_pareto {
        let [a, b, c] = p.map(f64::to_bits);
        write!(out, " {a:016x},{b:016x},{c:016x}").unwrap();
    }
    write!(
        out,
        "\nsim_seconds {:016x}\nhv_history",
        r.sim_seconds.to_bits()
    )
    .unwrap();
    for h in &r.hv_history {
        let [a, b, c] = h.map(f64::to_bits);
        write!(out, " {a:016x},{b:016x},{c:016x}").unwrap();
    }
    out.push('\n');
    out
}

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn results_match_the_pinned_digests() {
    let (space, sim) = setup();
    let cases = [
        ("digest_barrier_q1.txt", barrier(1)),
        ("digest_barrier_q2.txt", barrier(2)),
        ("digest_refill_k1.txt", refill(1)),
        ("digest_refill_k3.txt", refill(3)),
    ];
    for (name, cfg) in cases {
        let r = Optimizer::new(cfg).run(&space, &sim).unwrap();
        assert_eq!(digest(&r), fixture(name), "{name}");
    }
}

#[test]
fn v2_sequential_checkpoint_resumes_bit_identically() {
    let (space, sim) = setup();
    let ckpt = RunCheckpoint::from_json(&fixture("v2_barrier_q2_step2.json")).unwrap();
    assert_eq!(ckpt.completed_steps, 2);
    assert!(ckpt.in_flight.is_empty());
    let r = Optimizer::new(barrier(2))
        .resume(&ckpt, &space, &sim)
        .unwrap();
    assert_eq!(digest(&r), fixture("digest_barrier_q2.txt"));
}

#[test]
fn v2_async_checkpoint_resumes_bit_identically() {
    let (space, sim) = setup();
    let ckpt = RunCheckpoint::from_json(&fixture("v2_refill_k2_completion2.json")).unwrap();
    assert_eq!(ckpt.completed_steps, 2);
    assert!(!ckpt.in_flight.is_empty(), "fixture should be mid-overlap");
    let r = Optimizer::new(refill(2))
        .resume(&ckpt, &space, &sim)
        .unwrap();
    assert_eq!(digest(&r), fixture("digest_refill_k2.txt"));
}

#[test]
fn v2_checkpoint_with_a_foreign_fingerprint_is_rejected() {
    let (space, sim) = setup();
    let seq = RunCheckpoint::from_json(&fixture("v2_barrier_q2_step2.json")).unwrap();
    let asy = RunCheckpoint::from_json(&fixture("v2_refill_k2_completion2.json")).unwrap();
    // Each file resumes only under the configuration that wrote it.
    for (ckpt, cfg) in [
        (&seq, barrier(1)),
        (&seq, refill(2)),
        (&asy, refill(3)),
        (&asy, barrier(2)),
        (
            &asy,
            CmmfConfig {
                seed: 7,
                ..refill(2)
            },
        ),
    ] {
        let err = Optimizer::new(cfg).resume(ckpt, &space, &sim).unwrap_err();
        assert!(matches!(err, CmmfError::Checkpoint { .. }), "{err}");
    }
    // A v2 run with serial tool accounting has no v3 equivalent.
    let serial = fixture("v2_barrier_q2_step2.json")
        .replace("batch_parallel_tools=true", "batch_parallel_tools=false");
    let err = RunCheckpoint::from_json(&serial).unwrap_err();
    assert!(matches!(err, CmmfError::Checkpoint { .. }), "{err}");
}
