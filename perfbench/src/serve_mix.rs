//! The `cmmf-serve` session mix, run at the end of `paper-default`'s
//! traced run: a closed loop of two client connections against a
//! `cmmf-serve daemon` with two workers.
//!
//! Each client keeps a window of quick-profile sessions outstanding across
//! four tenants, rotating over the six Table-I benchmarks: it waits on the
//! oldest and submits a replacement, so the queue sits deeper than the
//! worker count. Every twelfth session of a client is streamed
//! (`stream: true`, read to its end) after a `status` probe under load.
//! Sessions are small (n ≤ 15 observations), so the daemon's costs
//! dominate: per-step checkpoints, journal appends, `job.json`/`result.json`,
//! event fan-out and one design-space prune per session.
//!
//! The mix gives the checkpoint and `serve` layer metrics and checks the
//! daemon's results; its own timings go to the human report only: they
//! depend on the host's disk and wake-up latency, and spread too widely
//! between runs to gate on (see STEADINESS.md).

use crate::dse;
use crate::layers::TraceSummary;
use crate::report::{median, percentile, Outcome};
use cmmf::{CmmfConfig, Optimizer, RunCheckpoint, RunResult};
use hls_model::benchmarks::Benchmark;
use rand::derive_stream_seed;
use serve::job::derived_seeds;
use serve::session::SessionPaths;
use serve::{Client, Endpoint, JobSpec, Overrides, Problem, SessionResult};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use trace::json::{self, JsonValue};
use trace::Stopwatch;

/// Client connections (and bench threads): the host's two cores.
const CLIENTS: usize = 2;
/// Sessions each client keeps outstanding.
const BATCH: usize = 6;
/// Every this many sessions of a client, one is streamed.
const STREAM_EVERY: usize = 2 * BATCH;
/// Optimizer steps per session.
const ITERS: usize = 10;
/// Tenants the sessions rotate over.
const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];
/// Journals read for the checkpoint layer.
const JOURNALS_READ: usize = 200;
/// Sessions per benchmark re-run in process (once at each thread count).
const SAMPLES_PER_BENCHMARK: usize = 4;

/// A spawned daemon, killed on drop if it has not exited.
struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    endpoint: Endpoint,
    root: PathBuf,
}

impl Daemon {
    fn start(bin: &Path, work: &Path, name: &str) -> Result<Daemon, String> {
        let root = work.join(name);
        let socket = work.join(format!("{name}.sock"));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        let mut child = Command::new(bin)
            .arg("daemon")
            .arg("--root")
            .arg(&root)
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .args(["--workers", "2", "--no-recover"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            endpoint: Endpoint::Unix(socket),
            root,
        };
        let mut line = String::new();
        let read = daemon.stdout.read_line(&mut line);
        if !matches!(read, Ok(n) if n > 0) || !line.starts_with("listening on") {
            return Err(format!("daemon did not start: {line:?}"));
        }
        let mut client = daemon.connect()?;
        let pong = client
            .round_trip(r#"{"cmd": "ping"}"#)
            .map_err(|e| e.to_string())?;
        if !serve::protocol::frame_is_ok(&pong) {
            return Err(format!("daemon ping failed: {pong}"));
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("connecting: {e}"))
    }

    /// Asks the daemon to stop and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut client = self.connect()?;
        let ack = client
            .round_trip(r#"{"cmd": "shutdown"}"#)
            .map_err(|e| e.to_string())?;
        if !serve::protocol::frame_is_ok(&ack) {
            return Err(format!("daemon refused to shut down: {ack}"));
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The job for session `i` of a run seeded with `seed`.
fn session_spec(seed: u64, i: usize) -> JobSpec {
    let six = Benchmark::all();
    let bench = six[(i + (seed % 6) as usize) % six.len()];
    let tenant =
        TENANTS[(derive_stream_seed(seed, &[i as u64, 1]) % TENANTS.len() as u64) as usize];
    let mut spec = JobSpec::new(tenant, format!("s{i}"), Problem::Benchmark(bench));
    spec.iters = ITERS;
    spec.seed = derive_stream_seed(seed, &[i as u64]);
    spec.overrides = Overrides::quick();
    spec
}

fn submit_line(spec: &JobSpec, stream: bool, wait: bool) -> String {
    format!(
        "{{\"cmd\": \"submit\", \"job\": {}, \"stream\": {stream}, \"wait\": {wait}}}",
        spec.to_json()
    )
}

fn addressed_line(cmd: &str, spec: &JobSpec) -> String {
    format!(
        "{{\"cmd\": \"{cmd}\", \"tenant\": \"{}\", \"session\": \"{}\"}}",
        spec.tenant, spec.session
    )
}

/// A frame's error kind, or `None` for an ok frame.
fn frame_error(frame: &JsonValue) -> Option<String> {
    if frame.get("ok").and_then(JsonValue::as_bool) == Some(true) {
        return None;
    }
    let kind = frame
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(JsonValue::as_str);
    Some(kind.unwrap_or("malformed-frame").to_string())
}

fn parse_frame(line: &str) -> Result<JsonValue, String> {
    json::parse(line).map_err(|e| format!("unparsable frame {line:?}: {e}"))
}

/// One finished session as its client saw it.
struct Record {
    index: usize,
    spec: JobSpec,
    latency_ms: f64,
    result: SessionResult,
}

/// What one client connection measured.
#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    attempted: u64,
    failures: Vec<String>,
    rejects: u64,
    ack_ms: Vec<f64>,
    first_event_ms: Vec<f64>,
    status_ms: Vec<f64>,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    fn rejected(&mut self, spec: &JobSpec, kind: &str) {
        self.rejects += u64::from(kind == "admission-rejected");
        self.fail(format!("submit {}/{}: {kind}", spec.tenant, spec.session));
    }

    /// Reads a terminal `finished` frame into a record.
    fn finish(&mut self, index: usize, spec: &JobSpec, frame: &JsonValue, latency_ms: f64) {
        let result = match frame_error(frame) {
            Some(kind) => Err(kind),
            None => frame
                .get("result")
                .ok_or_else(|| "no result".to_string())
                .and_then(|r| SessionResult::from_json(r).map_err(|e| e.to_string())),
        };
        match result {
            Ok(result) => self.records.push(Record {
                index,
                spec: spec.clone(),
                latency_ms,
                result,
            }),
            Err(e) => self.fail(format!("session {}/{}: {e}", spec.tenant, spec.session)),
        }
    }
}

/// One client's closed loop. It keeps `BATCH` sessions outstanding —
/// waiting on the oldest, then submitting a replacement — until
/// `loop_seconds` have passed (always at least one round), then drains.
/// Every `STREAM_EVERY`-th session is streamed, which holds the connection
/// until that session finishes: the client first probes `status` of its
/// oldest session under load and drains its window, so no other session's
/// wait queues behind the stream.
fn client_loop(
    daemon: &Daemon,
    c: usize,
    seed: u64,
    loop_seconds: f64,
    clock: &Stopwatch,
) -> Result<ClientLog, String> {
    let mut client = daemon.connect()?;
    let mut log = ClientLog::default();
    let mut outstanding: VecDeque<(usize, JobSpec, f64)> = VecDeque::new();
    let mut k = 0;
    loop {
        let open = k < STREAM_EVERY || clock.seconds() < loop_seconds;
        let i = k * CLIENTS + c;
        if open && k % STREAM_EVERY == STREAM_EVERY - 1 {
            if let Some((_, oldest, _)) = outstanding.front() {
                let (frame, ms) = round_trip(&mut client, &addressed_line("status", oldest))?;
                log.status_ms.push(ms);
                if let Some(kind) = frame_error(&frame) {
                    log.fail(format!(
                        "status {}/{}: {kind}",
                        oldest.tenant, oldest.session
                    ));
                }
            }
            while let Some(entry) = outstanding.pop_front() {
                wait_for(&mut client, &mut log, clock, entry)?;
            }
            log.attempted += 1;
            let spec = session_spec(seed, i);
            stream_session(&mut client, &mut log, i, &spec)?;
            k += 1;
        } else if open && outstanding.len() < BATCH {
            let spec = session_spec(seed, i);
            log.attempted += 1;
            let submitted = clock.seconds();
            let (frame, ms) = round_trip(&mut client, &submit_line(&spec, false, false))?;
            match frame_error(&frame) {
                None => {
                    log.ack_ms.push(ms);
                    outstanding.push_back((i, spec, submitted));
                }
                Some(kind) => log.rejected(&spec, &kind),
            }
            k += 1;
        } else if let Some(entry) = outstanding.pop_front() {
            wait_for(&mut client, &mut log, clock, entry)?;
        } else {
            return Ok(log);
        }
    }
}

/// One request and its single response frame, with the round trip in ms.
fn round_trip(client: &mut Client, line: &str) -> Result<(JsonValue, f64), String> {
    let sw = Stopwatch::start();
    let frame = client.round_trip(line).map_err(|e| e.to_string())?;
    Ok((parse_frame(&frame)?, sw.seconds() * 1e3))
}

/// Waits on an outstanding session: `(index, job, submit time)`.
fn wait_for(
    client: &mut Client,
    log: &mut ClientLog,
    clock: &Stopwatch,
    (i, spec, submitted): (usize, JobSpec, f64),
) -> Result<(), String> {
    let (frame, _) = round_trip(client, &addressed_line("wait", &spec))?;
    log.finish(i, &spec, &frame, (clock.seconds() - submitted) * 1e3);
    Ok(())
}

/// Submits a streamed session and reads its ack, its events and its
/// terminal frame.
fn stream_session(
    client: &mut Client,
    log: &mut ClientLog,
    i: usize,
    spec: &JobSpec,
) -> Result<(), String> {
    let sw = Stopwatch::start();
    client
        .send(&submit_line(spec, true, false))
        .map_err(|e| e.to_string())?;
    let (mut acked, mut first_event) = (false, None);
    loop {
        let line = client
            .recv()
            .map_err(|e| e.to_string())?
            .ok_or("daemon closed the stream")?;
        let frame = parse_frame(&line)?;
        let ms = sw.seconds() * 1e3;
        if !acked {
            acked = true;
            log.ack_ms.push(ms);
            if let Some(kind) = frame_error(&frame) {
                log.rejected(spec, &kind);
                return Ok(());
            }
        } else if frame.get("event").is_some() {
            if first_event.is_none() {
                first_event = Some(ms);
                log.first_event_ms.push(ms);
            }
        } else {
            log.finish(i, spec, &frame, ms);
            return Ok(());
        }
    }
}

/// The optimizer configuration of a quick session, built from the public
/// quick profile and the tenant-derived seeds — independently of the
/// daemon's own job-to-config mapping.
fn reference_config(spec: &JobSpec) -> CmmfConfig {
    let (seed, gp_seed) = derived_seeds(&spec.tenant, spec.seed);
    let q = Overrides::quick();
    let d = CmmfConfig::default();
    let mut cfg = CmmfConfig {
        n_iter: spec.iters,
        seed,
        n_init: q.n_init.unwrap_or(d.n_init),
        n_init_syn: q.n_init_syn.unwrap_or(d.n_init_syn),
        n_init_impl: q.n_init_impl.unwrap_or(d.n_init_impl),
        candidate_pool: q.candidate_pool.unwrap_or(d.candidate_pool),
        mc_samples: q.mc_samples.unwrap_or(d.mc_samples),
        refit_every: q.refit_every.unwrap_or(d.refit_every),
        final_prediction_pool: q.final_prediction_pool.unwrap_or(d.final_prediction_pool),
        ..d
    };
    cfg.gp.seed = gp_seed;
    cfg.gp.restarts = q.gp_restarts.unwrap_or(cfg.gp.restarts);
    cfg.gp.max_evals = q.gp_max_evals.unwrap_or(cfg.gp.max_evals);
    cfg
}

/// Runs the session mix for `loop_seconds` against the `cmmf-serve` binary
/// `bin`, with daemon state under `work`, and adds its checks and layer
/// metrics to `out`.
pub fn run(
    bin: &Path,
    work: &Path,
    seed: u64,
    loop_seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ran = run_in(bin, work, seed, loop_seconds, out);
    let _ = std::fs::remove_dir_all(work);
    ran
}

fn run_in(
    bin: &Path,
    work: &Path,
    seed: u64,
    loop_seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    // Set-up: six spaces and true fronts for the in-process checks, a
    // fresh daemon, one warm-up session.
    let (problems, _, _) = dse::set_up(&Benchmark::all())?;
    let daemon = Daemon::start(bin, work, "serve")?;
    let mut warm = JobSpec::new("warmup", "w0", Problem::Benchmark(Benchmark::Gemm));
    warm.iters = ITERS;
    warm.overrides = Overrides::quick();
    let frame = daemon
        .connect()?
        .round_trip(&submit_line(&warm, false, true))
        .map_err(|e| e.to_string())?;
    if let Some(kind) = frame_error(&parse_frame(&frame)?) {
        return Err(format!("warm-up session failed: {kind}"));
    }

    // The closed loop: client 0 on this thread, client 1 on one more.
    let clock = Stopwatch::start();
    let (log0, log1) = std::thread::scope(|s| {
        let other = s.spawn(|| client_loop(&daemon, 1, seed, loop_seconds, &clock));
        let mine = client_loop(&daemon, 0, seed, loop_seconds, &clock);
        (mine, other.join())
    });
    let loop_s = clock.seconds();
    let log1 = log1.map_err(|_| "client thread panicked".to_string())?;
    let logs = [log0?, log1?];
    let mut records: Vec<&Record> = logs.iter().flat_map(|l| &l.records).collect();
    records.sort_by_key(|r| r.index);
    for log in &logs {
        out.attempted += log.attempted;
        out.failures.extend(log.failures.iter().cloned());
    }
    if records.is_empty() {
        return Err("no session finished".into());
    }
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    eprintln!(
        "  serve mix: {} sessions in {loop_s:.1} s ({:.1}/s), latency p50 {:.0} ms, p95 {:.0} ms",
        records.len(),
        records.len() as f64 / loop_s,
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0)
    );

    // Every result.json must match what its client was sent.
    for r in &records {
        let path = SessionPaths::new(&daemon.root, &r.spec.tenant, &r.spec.session).result();
        let on_disk = SessionResult::load(&path).map_err(|e| e.to_string());
        out.check(match on_disk {
            Ok(d) if d == r.result => None,
            Ok(_) => Some(format!(
                "{}: result.json differs from the wait frame",
                path.display()
            )),
            Err(e) => Some(e),
        });
    }

    // Sampled sessions of every benchmark, re-run in process at one thread
    // and at all cores: their Pareto bits must equal the daemon's.
    for b in Benchmark::all() {
        let of_b: Vec<&Record> = records
            .iter()
            .copied()
            .filter(|r| r.spec.problem == Problem::Benchmark(b))
            .collect();
        let n = of_b.len();
        let p = dse::Problem::of(&problems, b)?;
        for j in 0..SAMPLES_PER_BENCHMARK.min(n) {
            let r = of_b[(seed as usize % n + j * n / SAMPLES_PER_BENCHMARK) % n];
            for threads in [1, 0] {
                let mut cfg = reference_config(&r.spec);
                cfg.threads = threads;
                out.check(match Optimizer::new(cfg).run(&p.space, &p.sim) {
                    Ok(run) => mismatch(&run, r),
                    Err(e) => Some(format!("reference run of {}: {e}", r.spec.session)),
                });
            }
        }
    }

    set_daemon_layers(out, &daemon, &records, &logs, work)?;
    daemon.shutdown()
}

/// Why an in-process run differs from a daemon session's result, if it does.
fn mismatch(run: &RunResult, r: &Record) -> Option<String> {
    let bits: Vec<[u64; 3]> = run
        .measured_pareto
        .iter()
        .map(|p| p.map(f64::to_bits))
        .collect();
    let same = bits == r.result.pareto_bits
        && run.sim_seconds.to_bits() == r.result.sim_seconds_bits
        && run.evaluated_configs.len() == r.result.evaluated;
    (!same).then(|| {
        format!(
            "session {}/{}: in-process run differs from the daemon's result",
            r.spec.tenant, r.spec.session
        )
    })
}

/// Sets the daemon-side layers: checkpoint volume per session (from the
/// first sessions' journals), a checkpoint save/load replay, and the
/// client-observed protocol latencies.
fn set_daemon_layers(
    out: &mut Outcome,
    daemon: &Daemon,
    records: &[&Record],
    logs: &[ClientLog],
    work: &Path,
) -> Result<(), String> {
    let mut journals = Vec::new();
    for r in records.iter().take(JOURNALS_READ) {
        let path = SessionPaths::new(&daemon.root, &r.spec.tenant, &r.spec.session).journal();
        let (events, _) =
            trace::read_journal(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        journals.push(TraceSummary::of_journal(&events, bytes));
    }
    let j = TraceSummary::mean_of(&journals);
    out.set("checkpoint.writes", j.checkpoint_writes);
    out.set("checkpoint.bytes", j.checkpoint_bytes);

    let first = records.first().ok_or("no session")?;
    let ckpt =
        SessionPaths::new(&daemon.root, &first.spec.tenant, &first.spec.session).checkpoint();
    let copy = work.join("replayed-checkpoint.json");
    let mut save_load = Vec::new();
    for _ in 0..20 {
        let sw = Stopwatch::start();
        let loaded = RunCheckpoint::load(&ckpt).map_err(|e| e.to_string())?;
        loaded.save(&copy).map_err(|e| e.to_string())?;
        save_load.push(sw.seconds() * 1e3);
    }
    out.set("checkpoint.save_load_ms", median(&save_load));

    let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    out.set(
        "serve.submit_ack_ms_p50",
        percentile(&all(|l| &l.ack_ms), 50.0),
    );
    out.set(
        "serve.submit_ack_ms_p95",
        percentile(&all(|l| &l.ack_ms), 95.0),
    );
    out.set("serve.first_event_ms", median(&all(|l| &l.first_event_ms)));
    out.set(
        "serve.status_ms_p95",
        percentile(&all(|l| &l.status_ms), 95.0),
    );
    out.set("serve.rejects", logs.iter().map(|l| l.rejects as f64).sum());
    Ok(())
}
