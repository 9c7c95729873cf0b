//! Versioned JSON checkpoints for the Algorithm-2 event loop.
//!
//! A checkpoint records the *decisions* of a run — the initialization draw,
//! every dispatched pick, the dispatch/completion event log, the
//! candidate-ordering state, and the RNG stream position — not the derived
//! state (observations, surrogates). Because the flow simulator and the GP
//! fits are deterministic, [`Optimizer::resume`] replays those decisions to
//! reconstruct the observation sets, the surrogate stack, and the virtual
//! clock bit-for-bit, then continues the loop as if it had never stopped;
//! the resumed [`RunResult`] is bit-identical to an uninterrupted run
//! (pinned by `resume_is_bit_identical` and `async_resume_is_bit_identical`).
//! Both dispatch policies share the one shape.
//!
//! Floating-point state is stored as `u64` bit patterns (`_bits` fields), so
//! the round-trip is exact; the JSON layer keeps raw number tokens precisely
//! so these survive (see [`trace::json`]). The `fingerprint` field pins every
//! result-relevant configuration field — resuming under a different
//! configuration is an error, not a silent divergence. `threads` and `tracer`
//! are excluded: neither can change a result (see ARCHITECTURE.md,
//! "Determinism & parallelism").
//!
//! Version-2 files are migrated on load: their sequential shape (per-step
//! `picks`) becomes the equivalent barrier event log, their asynchronous
//! shape drops the `is_async` flag, and their fingerprint drops the
//! `batch_parallel_tools=true` field (a file written with `false` has no
//! equivalent run and is refused).
//!
//! [`Optimizer::resume`]: crate::Optimizer::resume
//! [`RunResult`]: crate::RunResult

use crate::optimizer::CmmfConfig;
use crate::CmmfError;
use std::path::Path;
use trace::json::{self, JsonValue};

/// Current checkpoint schema version. Bumped on any incompatible change;
/// loading a version other than this or the migratable version 2 is a
/// [`CmmfError::Checkpoint`]. Version 2 added the event-log section and the
/// `async_slots` fingerprint field; version 3 made the event log the only
/// shape (dropping `picks` and `is_async`) and dropped
/// `batch_parallel_tools` from the fingerprint.
pub const CHECKPOINT_VERSION: u64 = 3;

/// One recorded pick of a dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PickRecord {
    /// Chosen configuration index.
    pub config: usize,
    /// Chosen fidelity as [`fidelity_sim::Stage::index`].
    pub stage_index: usize,
    /// The winning (penalized) acquisition value, as `f64` bits.
    pub acquisition_bits: u64,
}

/// One event of a run's BO phase, in virtual-clock order. The event log is
/// what makes a kill resumable, even mid-overlap: replaying it interleaves
/// the recorded dispatch decisions and completions exactly as the
/// interrupted run did, reconstructing the surrogate-fit chain and the
/// virtual clock bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleEvent {
    /// The `i`-th entry of `dispatches` entered the scheduler. Under the
    /// barrier policy, consecutive dispatches belong to one decision.
    Dispatch(usize),
    /// The `i`-th entry of `dispatches` finished its simulated flow and was
    /// observed.
    Complete(usize),
    /// The candidate pool was found empty at a dispatch attempt (the loop
    /// stops dispatching but keeps draining in-flight runs). Records the
    /// surrogate fit the attempt performed.
    Exhausted,
}

impl ScheduleEvent {
    /// The `[kind, index]` encoding used by the JSON schema.
    fn encode(self) -> [u64; 2] {
        match self {
            ScheduleEvent::Dispatch(i) => [0, i as u64],
            ScheduleEvent::Complete(i) => [1, i as u64],
            ScheduleEvent::Exhausted => [2, 0],
        }
    }

    fn decode(kind: u64, index: u64) -> Option<Self> {
        // `index` comes from untrusted on-disk JSON: a value past the
        // platform's usize range is corruption, not a valid event.
        match kind {
            0 => Some(ScheduleEvent::Dispatch(usize::try_from(index).ok()?)),
            1 => Some(ScheduleEvent::Complete(usize::try_from(index).ok()?)),
            2 => Some(ScheduleEvent::Exhausted),
            _ => None,
        }
    }
}

/// A serializable snapshot of the loop after `completed_steps` completion
/// phases.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Fingerprint of every result-relevant [`CmmfConfig`] field.
    pub fingerprint: String,
    /// Completion phases so far: steps under the barrier policy, single
    /// completions under refill.
    pub completed_steps: usize,
    /// The initialization draw, in rank order (rank decides each
    /// configuration's top stage).
    pub init: Vec<usize>,
    /// The BO picks in dispatch order.
    pub dispatches: Vec<PickRecord>,
    /// The interleaved dispatch/completion event log of the BO phase
    /// (initialization runs replay implicitly from `init`).
    pub schedule: Vec<ScheduleEvent>,
    /// The in-flight set — runs dispatched but not complete at the snapshot,
    /// as `[dispatch index, finish-time f64 bits]` in dispatch order. Always
    /// empty under the barrier policy, which checkpoints between steps.
    /// Redundant with a `schedule` replay; stored so resume can verify the
    /// replayed schedule against the recorded one (a mismatched simulator or
    /// space fails loudly instead of diverging).
    pub in_flight: Vec<[u64; 2]>,
    /// The not-yet-sampled configuration indices, in the exact (shuffled)
    /// order the interrupted run held them.
    pub unsampled: Vec<usize>,
    /// The master RNG's xoshiro256++ state at the snapshot.
    pub rng_state: [u64; 4],
    /// The virtual-clock reading (simulated tool seconds so far), as `f64`
    /// bits.
    pub sim_seconds_bits: u64,
    /// Per completion phase, the observed-front hypervolume per fidelity, as
    /// `f64` bits.
    pub hv_history_bits: Vec<[u64; 3]>,
}

impl RunCheckpoint {
    /// The configuration fingerprint a checkpoint of `cfg` carries: every
    /// field that can influence the result, formatted deterministically
    /// (floats as bit patterns). `threads`, `arena` and `tracer` are
    /// deliberately absent — all are result-transparent. `warm_start_hyperopt`
    /// and `mixed_precision` are also absent: they steer only the
    /// hyperparameter *search*, and restore replays the full Optimize chain
    /// from step 0 under the resuming process's flags, so a checkpoint stays
    /// loadable when they differ.
    pub fn fingerprint_of(cfg: &CmmfConfig) -> String {
        format!(
            "v{CHECKPOINT_VERSION};n_init={};n_init_syn={};n_init_impl={};n_iter={};\
             variant={:?};use_cost_penalty={};cost_exponent={:#x};candidate_pool={};\
             mc_samples={};batch_size={};final_prediction_pool={};\
             escalate_threshold={:#x};refit_every={};incremental={};indexed_eipv={};\
             async_slots={};gp={:?};seed={}",
            cfg.n_init,
            cfg.n_init_syn,
            cfg.n_init_impl,
            cfg.n_iter,
            cfg.variant,
            cfg.use_cost_penalty,
            cfg.cost_exponent.to_bits(),
            cfg.candidate_pool,
            cfg.mc_samples,
            cfg.batch_size,
            cfg.final_prediction_pool,
            cfg.escalate_threshold.to_bits(),
            cfg.refit_every,
            cfg.incremental,
            cfg.indexed_eipv,
            cfg.async_slots,
            cfg.gp,
            cfg.seed,
        )
    }

    /// Serializes the checkpoint as one JSON document.
    pub fn to_json(&self) -> String {
        let nums = |row: &[u64]| fmt_list(row, u64::to_string);
        let schedule: Vec<[u64; 2]> = self.schedule.iter().map(|ev| ev.encode()).collect();
        format!(
            "{{\n  \"version\": {},\n  \"fingerprint\": \"{}\",\n  \"completed_steps\": {},\n  \
             \"init\": {},\n  \"dispatches\": {},\n  \"schedule\": {},\n  \"in_flight\": {},\n  \
             \"unsampled\": {},\n  \"rng_state\": {},\n  \"sim_seconds_bits\": {},\n  \
             \"hv_history_bits\": {}\n}}\n",
            self.version,
            json::escape(&self.fingerprint),
            self.completed_steps,
            fmt_list(&self.init, usize::to_string),
            fmt_list(&self.dispatches, |p| {
                format!("[{},{},{}]", p.config, p.stage_index, p.acquisition_bits)
            }),
            fmt_list(&schedule, |row| nums(row)),
            fmt_list(&self.in_flight, |row| nums(row)),
            fmt_list(&self.unsampled, usize::to_string),
            nums(&self.rng_state),
            self.sim_seconds_bits,
            fmt_list(&self.hv_history_bits, |row| nums(row)),
        )
    }

    /// Parses a checkpoint from its JSON document, migrating a version-2
    /// document to the current shape.
    ///
    /// # Errors
    ///
    /// [`CmmfError::Checkpoint`] on malformed JSON, missing fields, a version
    /// other than [`CHECKPOINT_VERSION`] or 2, or a version-2 document that
    /// cannot be migrated.
    pub fn from_json(text: &str) -> Result<Self, CmmfError> {
        let doc = json::parse(text).map_err(|e| CmmfError::Checkpoint {
            reason: format!("malformed checkpoint: {e}"),
        })?;
        let version = req_u64(&doc, "version")?;
        if version != CHECKPOINT_VERSION && version != 2 {
            return Err(CmmfError::Checkpoint {
                reason: format!(
                    "checkpoint version {version} is neither the supported \
                     {CHECKPOINT_VERSION} nor the migratable 2"
                ),
            });
        }
        let mut fingerprint = doc
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| missing("fingerprint"))?
            .to_string();
        let completed_steps = usize::try_from(req_u64(&doc, "completed_steps")?)
            .map_err(|_| malformed("completed_steps"))?;
        let mut dispatches = pick_records(array(&doc, "dispatches")?, "dispatches")?;
        let mut schedule: Vec<ScheduleEvent> = rows(&doc, "schedule")?
            .into_iter()
            .map(|[kind, index]| ScheduleEvent::decode(kind, index))
            .collect::<Option<_>>()
            .ok_or_else(|| malformed("schedule"))?;
        let in_flight = rows(&doc, "in_flight")?;
        if version == 2 {
            fingerprint = migrate_v2_fingerprint(&fingerprint)?;
            let is_async = doc
                .get("is_async")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| missing("is_async"))?;
            let picks = array(&doc, "picks")?;
            let consistent = if is_async {
                picks.is_empty()
            } else {
                picks.len() == completed_steps
                    && dispatches.is_empty()
                    && schedule.is_empty()
                    && in_flight.is_empty()
            };
            if !consistent {
                return Err(CmmfError::Checkpoint {
                    reason: "inconsistent version-2 checkpoint shape".into(),
                });
            }
            // A sequential step is one barrier decision: its picks dispatch
            // together, then complete in pick order.
            for step in picks {
                let first = dispatches.len();
                let step = step.as_array().ok_or_else(|| malformed("picks"))?;
                dispatches.extend(pick_records(step, "picks")?);
                schedule.extend((first..dispatches.len()).map(ScheduleEvent::Dispatch));
                schedule.extend((first..dispatches.len()).map(ScheduleEvent::Complete));
            }
        }
        let rng_state = doc
            .get("rng_state")
            .ok_or_else(|| missing("rng_state"))
            .and_then(|v| u64_row(v).ok_or_else(|| malformed("rng_state")))?;
        let hv_history_bits = rows(&doc, "hv_history_bits")?;
        // Every completion phase observes at least one run and records one
        // front. (The exact phase structure depends on the dispatch policy
        // and is checked on resume.)
        let completions = schedule
            .iter()
            .filter(|ev| matches!(ev, ScheduleEvent::Complete(_)))
            .count();
        if hv_history_bits.len() != completed_steps || completions < completed_steps {
            return Err(CmmfError::Checkpoint {
                reason: format!(
                    "inconsistent checkpoint: {completed_steps} steps but {} hv rows and \
                     {completions} completions",
                    hv_history_bits.len()
                ),
            });
        }
        Ok(RunCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint,
            completed_steps,
            init: usizes(&doc, "init")?,
            dispatches,
            schedule,
            in_flight,
            unsampled: usizes(&doc, "unsampled")?,
            rng_state,
            sim_seconds_bits: req_u64(&doc, "sim_seconds_bits")?,
            hv_history_bits,
        })
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename), so a
    /// kill mid-write leaves the previous checkpoint intact. Returns the
    /// number of bytes written (reported by `checkpoint_written` journal
    /// events).
    ///
    /// # Errors
    ///
    /// [`CmmfError::Checkpoint`] wrapping the I/O failure.
    pub fn save(&self, path: &Path) -> Result<usize, CmmfError> {
        let tmp = path.with_extension("tmp");
        let io = |e: std::io::Error| CmmfError::Checkpoint {
            reason: format!("writing {}: {e}", path.display()),
        };
        let text = self.to_json();
        std::fs::write(&tmp, &text).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)?;
        Ok(text.len())
    }

    /// Reads and parses a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CmmfError::Checkpoint`] on I/O failure or any [`Self::from_json`]
    /// error.
    pub fn load(path: &Path) -> Result<Self, CmmfError> {
        let text = std::fs::read_to_string(path).map_err(|e| CmmfError::Checkpoint {
            reason: format!("reading {}: {e}", path.display()),
        })?;
        Self::from_json(&text)
    }
}

/// The current fingerprint of the configuration a version-2 fingerprint
/// describes: version 2 carried a `batch_parallel_tools` field right after
/// `batch_size`. Only `true` (parallel tool licenses, the one accounting the
/// virtual clock implements) migrates.
fn migrate_v2_fingerprint(fp: &str) -> Result<String, CmmfError> {
    fp.strip_prefix("v2;")
        .and_then(|rest| rest.split_once(";batch_parallel_tools=true;"))
        .map(|(head, tail)| format!("v{CHECKPOINT_VERSION};{head};{tail}"))
        .ok_or_else(|| CmmfError::Checkpoint {
            reason: format!(
                "version-2 fingerprint cannot be migrated (only batch_parallel_tools=true \
                 runs have a current equivalent): {fp}"
            ),
        })
}

/// `[a,b,…]` of the formatted items.
fn fmt_list<T>(items: &[T], fmt: impl Fn(&T) -> String) -> String {
    let mut out = String::with_capacity(2 + 4 * items.len());
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt(item));
    }
    out.push(']');
    out
}

fn missing(field: &str) -> CmmfError {
    CmmfError::Checkpoint {
        reason: format!("checkpoint is missing field `{field}`"),
    }
}

fn malformed(field: &str) -> CmmfError {
    CmmfError::Checkpoint {
        reason: format!("checkpoint field `{field}` is malformed"),
    }
}

fn array<'d>(doc: &'d JsonValue, field: &str) -> Result<&'d [JsonValue], CmmfError> {
    doc.get(field)
        .ok_or_else(|| missing(field))?
        .as_array()
        .ok_or_else(|| malformed(field))
}

/// An array of exactly `N` unsigned integers.
fn u64_row<const N: usize>(v: &JsonValue) -> Option<[u64; N]> {
    let values: Vec<u64> = v
        .as_array()?
        .iter()
        .map(JsonValue::as_u64)
        .collect::<Option<_>>()?;
    values.try_into().ok()
}

fn rows<const N: usize>(doc: &JsonValue, field: &str) -> Result<Vec<[u64; N]>, CmmfError> {
    array(doc, field)?
        .iter()
        .map(u64_row)
        .collect::<Option<_>>()
        .ok_or_else(|| malformed(field))
}

fn pick_records(values: &[JsonValue], field: &str) -> Result<Vec<PickRecord>, CmmfError> {
    values
        .iter()
        .map(|v| {
            let [config, stage_index, acquisition_bits] = u64_row(v)?;
            Some(PickRecord {
                config: usize::try_from(config).ok()?,
                stage_index: usize::try_from(stage_index).ok()?,
                acquisition_bits,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| malformed(field))
}

fn req_u64(doc: &JsonValue, field: &str) -> Result<u64, CmmfError> {
    doc.get(field)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| missing(field))
}

fn usizes(doc: &JsonValue, field: &str) -> Result<Vec<usize>, CmmfError> {
    array(doc, field)?
        .iter()
        .map(|v| v.as_usize().ok_or_else(|| malformed(field)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A barrier-policy snapshot after two steps: one pick, then a batch of
    /// two observed in pick order.
    fn sample() -> RunCheckpoint {
        RunCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: RunCheckpoint::fingerprint_of(&CmmfConfig::default()),
            completed_steps: 2,
            init: vec![5, 9, 1, 0, 12, 3, 7, 2],
            dispatches: sample_async().dispatches,
            schedule: vec![
                ScheduleEvent::Dispatch(0),
                ScheduleEvent::Complete(0),
                ScheduleEvent::Dispatch(1),
                ScheduleEvent::Dispatch(2),
                ScheduleEvent::Complete(1),
                ScheduleEvent::Complete(2),
            ],
            in_flight: Vec::new(),
            unsampled: vec![11, 4, 6, 8, 10],
            rng_state: [u64::MAX, 1, 0x9E37_79B9_7F4A_7C15, 7],
            sim_seconds_bits: 1234.5f64.to_bits(),
            hv_history_bits: vec![
                [1.0f64.to_bits(), 2.0f64.to_bits(), 3.0f64.to_bits()],
                [1.5f64.to_bits(), 2.5f64.to_bits(), 3.5f64.to_bits()],
            ],
        }
    }

    /// A mid-overlap refill snapshot: two runs dispatched and completed, one
    /// still in flight, and a pool-exhaustion event.
    fn sample_async() -> RunCheckpoint {
        RunCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: RunCheckpoint::fingerprint_of(&CmmfConfig::default()),
            completed_steps: 2,
            init: vec![5, 9, 1, 0, 12, 3, 7, 2],
            dispatches: vec![
                PickRecord {
                    config: 42,
                    stage_index: 1,
                    acquisition_bits: 0.125f64.to_bits(),
                },
                PickRecord {
                    config: 17,
                    stage_index: 0,
                    acquisition_bits: f64::MAX.to_bits(),
                },
                PickRecord {
                    config: 18,
                    stage_index: 2,
                    acquisition_bits: 0,
                },
            ],
            schedule: vec![
                ScheduleEvent::Dispatch(0),
                ScheduleEvent::Dispatch(1),
                ScheduleEvent::Complete(1),
                ScheduleEvent::Dispatch(2),
                ScheduleEvent::Exhausted,
                ScheduleEvent::Complete(0),
            ],
            in_flight: vec![[2, 3100.25f64.to_bits()]],
            unsampled: vec![11, 4, 6, 8, 10],
            rng_state: [u64::MAX, 1, 0x9E37_79B9_7F4A_7C15, 7],
            sim_seconds_bits: 1234.5f64.to_bits(),
            hv_history_bits: vec![
                [1.0f64.to_bits(), 2.0f64.to_bits(), 3.0f64.to_bits()],
                [1.5f64.to_bits(), 2.5f64.to_bits(), 3.5f64.to_bits()],
            ],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        for ckpt in [sample(), sample_async()] {
            let parsed = RunCheckpoint::from_json(&ckpt.to_json()).unwrap();
            assert_eq!(ckpt, parsed);
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut ckpt = sample();
        ckpt.version = CHECKPOINT_VERSION + 1;
        assert!(matches!(
            RunCheckpoint::from_json(&ckpt.to_json()),
            Err(CmmfError::Checkpoint { .. })
        ));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in ["", "{", "{}", "[1,2,3]", r#"{"version": 1}"#] {
            assert!(
                matches!(
                    RunCheckpoint::from_json(text),
                    Err(CmmfError::Checkpoint { .. })
                ),
                "accepted {text:?}"
            );
        }
        // A truncated front history is inconsistent with completed_steps...
        let mut ckpt = sample();
        ckpt.hv_history_bits.pop();
        assert!(RunCheckpoint::from_json(&ckpt.to_json()).is_err());
        // ...and so is an event log with fewer completions than steps.
        let mut ckpt = sample_async();
        ckpt.schedule.pop();
        assert!(RunCheckpoint::from_json(&ckpt.to_json()).is_err());
        // A version-2 document must carry the shape its `is_async` flag
        // names.
        let v2 = sample_async()
            .to_json()
            .replace("\"version\": 3", "\"version\": 2")
            .replace(";batch_size=1;", ";batch_size=1;batch_parallel_tools=true;")
            .replace(
                "\"completed_steps\"",
                "\"is_async\": false,\n  \"picks\": [],\n  \"completed_steps\"",
            )
            .replacen("v3;", "v2;", 1);
        assert!(RunCheckpoint::from_json(&v2).is_err());
        assert!(RunCheckpoint::from_json(&v2.replace("false", "true")).is_ok());
    }

    #[test]
    fn fingerprint_pins_result_relevant_fields_only() {
        let base = CmmfConfig::default();
        let fp = RunCheckpoint::fingerprint_of(&base);
        // threads and tracer are result-transparent: same fingerprint.
        let mut threaded = base.clone();
        threaded.threads = 7;
        assert_eq!(fp, RunCheckpoint::fingerprint_of(&threaded));
        // Anything that steers the run changes it.
        let mut other = base.clone();
        other.seed += 1;
        assert_ne!(fp, RunCheckpoint::fingerprint_of(&other));
        let mut other = base.clone();
        other.mc_samples += 1;
        assert_ne!(fp, RunCheckpoint::fingerprint_of(&other));
        // The in-flight slot count steers the async schedule.
        let mut other = base.clone();
        other.async_slots = 7;
        assert_ne!(fp, RunCheckpoint::fingerprint_of(&other));
        let mut other = base;
        other.gp.seed ^= 1;
        assert_ne!(fp, RunCheckpoint::fingerprint_of(&other));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("cmmf-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        assert_eq!(RunCheckpoint::load(&path).unwrap(), ckpt);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_and_corrupt_files_load_as_typed_errors() {
        let dir = std::env::temp_dir().join(format!("cmmf-ckpt-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = sample().to_json();

        // Every strict prefix of a valid checkpoint — the on-disk states a
        // kill mid-write could leave without the atomic rename — must come
        // back as a typed error, never a panic. (save() writes temp+rename,
        // so these arise only from foreign writers, but load must not trust.)
        // Prefixes keeping the closing `}` (only trailing whitespace cut) are
        // complete documents, so stop before it.
        for cut in 0..full.trim_end().len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            let path = dir.join("truncated.json");
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(
                    RunCheckpoint::load(&path),
                    Err(CmmfError::Checkpoint { .. })
                ),
                "accepted truncation at byte {cut}"
            );
        }

        // Overwritten garbage and binary junk are equally typed.
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"\x00\xff\xfeRIFF not json at all").unwrap();
        assert!(matches!(
            RunCheckpoint::load(&path),
            Err(CmmfError::Checkpoint { .. })
        ));

        // A missing file is a typed error too (callers gate resume on
        // path.exists(), but a racing delete must not panic).
        assert!(matches!(
            RunCheckpoint::load(&dir.join("nope.json")),
            Err(CmmfError::Checkpoint { .. })
        ));

        // Out-of-range indices in the schedule section are corruption, not
        // panics: past u64 the number fails to parse as an index, and past
        // usize (32-bit targets) ScheduleEvent::decode refuses the cast.
        let async_full = sample_async().to_json();
        let big = async_full.replace(
            "\"schedule\": [[0,0]",
            "\"schedule\": [[0,99999999999999999999]",
        );
        assert_ne!(big, async_full, "sample_async schedule shape changed");
        assert!(matches!(
            RunCheckpoint::from_json(&big),
            Err(CmmfError::Checkpoint { .. })
        ));

        std::fs::remove_dir_all(&dir).ok();
    }
}
