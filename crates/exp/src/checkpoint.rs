//! Durable, resumable study execution: [`Study::run_all`](crate::study::Study::run_all)
//! with a checkpoint store attached.
//!
//! A durable study runs through the same engine as an in-memory one —
//! per cell, [`plan_scenario`] → [`crate::exec::drive`] →
//! [`crate::reduce::reduce`], via [`crate::runner::run_cell`] — and the
//! store is a log of that engine's task results:
//!
//! * a **manifest** — every plan task the study is known to need before
//!   it runs (roster policies, lower bounds and coarse candidates, one
//!   [`WorkItem`] per task), keyed by the plan's task id offset per
//!   cell, persisted once per study with a content **fingerprint** over
//!   everything the numbers depend on (scenario labels,
//!   [`DistId`](ckpt_policies::DistId)s, rosters, runner options, the
//!   SIMD lane width, the committed golden hash). A resume whose rebuilt
//!   fingerprint differs is *rejected*, never silently reused. Refine
//!   tasks depend on the coarse incumbent, so the manifest cannot list
//!   them; they take their ids from the same id space;
//! * a **checkpoint store** — versioned JSON snapshots under
//!   `<root>/<id>/ckpt-NNNNNN.json`, each holding the whole task log
//!   (floats as exact `u64` bit patterns). The engine cuts each wave
//!   into slices of `interval_items` tasks; after a slice a snapshot is
//!   written when `interval_items` tasks completed since the last one
//!   *or* `interval_seconds` elapsed — the latter read through the one
//!   sanctioned clock in [`ckpt_obs::clock`] — with retention
//!   (`max_checkpoints`, `keep_final`). Snapshots are full-state, so
//!   "move in-progress tasks back to pending" is implicit: a resume
//!   seeds the log from the newest snapshot and the engine skips every
//!   task the log holds.
//!
//! Live and resumed runs reduce the same log through the same code, so
//! a SIGKILL'd-and-resumed study writes byte-identical aggregates to an
//! uninterrupted run, at any worker count (`tests/study_resume.rs` pins
//! this).
//!
//! Nothing in this module ever stores a wall-clock timestamp: the clock
//! gates *when* a snapshot is written, never *what* is written.

use crate::error::Error;
use crate::exec::{Recorder, TaskLog, Wave};
use crate::plan::{plan_scenario, SimTask};
use crate::policies_spec::PolicyKind;
use crate::progress::StudyProgress;
use crate::runner::{RunnerOptions, ScenarioResult};
use crate::scenario::{BuiltDist, Scenario};
use crate::{jsonio, jsonio::Json};
use ckpt_policies::DistId;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use crate::exec::{ItemPayload, TraceStatsBits};

/// On-disk format version of manifests and checkpoints. Documents of
/// any other version are rejected at parse time.
pub const STORE_VERSION: u64 = 2;

/// Knobs of the checkpoint store and run loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Store root; each study lives under `<root>/<id>/`.
    pub root: PathBuf,
    /// Tasks per slice of a wave, and a checkpoint after this many
    /// newly completed tasks.
    pub interval_items: u64,
    /// … or after this many seconds since the last write, whichever
    /// comes first (read through the sanctioned `ckpt_obs` clock).
    pub interval_seconds: f64,
    /// Keep at most this many checkpoint files (newest win).
    pub max_checkpoints: usize,
    /// Keep the final snapshot after the study completes; `false`
    /// removes every `ckpt-*.json` once the aggregates are written.
    pub keep_final: bool,
    /// Directory of committed golden files to fold into the manifest
    /// fingerprint (`None` ⇒ a zero golden hash).
    pub golden_dir: Option<PathBuf>,
    /// Test hook: abort the run (no status, no checkpoint — as if
    /// killed between snapshots) once this many tasks executed.
    pub stop_after_items: Option<u64>,
    /// CLI hook: SIGKILL our own process once `completed ≥ frac·total`,
    /// *before* the snapshot that would cover those tasks.
    pub kill_at: Option<f64>,
    /// Emit live progress lines on stderr (`run --study … --progress`).
    /// `progress.json` snapshots are written to the store regardless.
    pub progress: bool,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            root: PathBuf::from("results/study"),
            interval_items: 64,
            interval_seconds: 30.0,
            max_checkpoints: 3,
            keep_final: true,
            golden_dir: None,
            stop_after_items: None,
            kill_at: None,
            progress: false,
        }
    }
}

/// One cell of a study: a scenario with its roster and runner options,
/// plus the (unique) stem its aggregate file is written under.
#[derive(Debug, Clone)]
pub struct StudyCell {
    /// Aggregate file stem (`aggregate/<stem>.json`), unique per study.
    pub stem: String,
    /// The experimental cell.
    pub scenario: Scenario,
    /// Roster to run on it.
    pub kinds: Vec<PolicyKind>,
    /// Runner options (grid, search strategy, lower bound, engine).
    pub options: RunnerOptions,
}

/// A named, fully-specified batch of cells — the unit of durability.
#[derive(Debug, Clone)]
pub struct StudyDef {
    /// Study id: the directory name under the store root.
    pub id: String,
    /// The cells, in commit order.
    pub cells: Vec<StudyCell>,
}

impl StudyDef {
    /// Build a definition from `(scenario, roster, options)` triples.
    /// Stems default to the scenario labels; colliding labels get the
    /// processor count and then an index appended, so every cell owns a
    /// distinct aggregate file.
    pub fn new(
        id: impl Into<String>,
        cells: impl IntoIterator<Item = (Scenario, Vec<PolicyKind>, RunnerOptions)>,
    ) -> Self {
        let mut out = Vec::new();
        let mut stems: Vec<String> = Vec::new();
        for (scenario, kinds, options) in cells {
            let mut stem = scenario.label.clone();
            if stems.iter().any(|s| s == &stem) {
                stem = format!("{stem}-p{}", scenario.procs);
            }
            let mut n = 2usize;
            while stems.iter().any(|s| s == &stem) {
                stem = format!("{}-{}", scenario.label, n);
                n += 1;
            }
            stems.push(stem.clone());
            out.push(StudyCell { stem, scenario, kinds, options });
        }
        Self { id: id.into(), cells: out }
    }
}

/// One plan task of a study — the unit the store records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Study-wide task id: the cell's [`ManifestCell::task_base`] plus
    /// the plan's [`task_id`](crate::plan::SimPlan::task_id).
    pub id: u64,
    /// Index into [`StudyDef::cells`].
    pub cell: usize,
    /// What the task simulates.
    pub task: SimTask,
}

/// One cell's identity row in the manifest — everything its numbers
/// depend on, rendered to stable strings for fingerprinting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestCell {
    /// Scenario label (the seed root).
    pub label: String,
    /// Aggregate file stem.
    pub stem: String,
    /// Processor count.
    pub procs: u64,
    /// Trace count.
    pub traces: usize,
    /// Distribution identity: `fp:…` fingerprint when the distribution
    /// is fingerprintable, else the spec label (process-local instance
    /// ids must never be persisted).
    pub dist_id: String,
    /// Roster, as `Debug` strings (config fields included).
    pub roster: Vec<String>,
    /// Runner options, as a `Debug` string (grid floats included).
    pub options: String,
    /// Candidate grid length after dedup.
    pub grid_len: usize,
    /// Coarse-wave grid indices.
    pub coarse: Vec<usize>,
    /// Refine stride; `0` ⇒ no refine wave.
    pub refine_step: usize,
    /// Whether lower-bound tasks exist.
    pub lower_bound: bool,
    /// First task id of the cell: its plan's ids, offset by this, are
    /// unique across the study.
    pub task_base: u64,
}

/// The persisted decomposition of a study, with its content fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyManifest {
    /// Format version ([`STORE_VERSION`]).
    pub version: u64,
    /// Study id.
    pub study: String,
    /// FNV-1a 64 over the manifest's head (everything but the task
    /// list, which derives from the cell rows) serialised with this
    /// field empty, as 16 hex digits.
    pub fingerprint: String,
    /// SIMD lane width the kernels were compiled for.
    pub lanes: usize,
    /// FNV-1a 64 over the committed golden files (16 hex digits;
    /// all-zero when no golden directory was configured).
    pub golden_hash: String,
    /// Per-cell identity rows.
    pub cells: Vec<ManifestCell>,
    /// Every task known before the run, in id order. A cell whose
    /// distribution cannot be built runs none and lists none.
    pub items: Vec<WorkItem>,
}

/// What a completed (sub)study reports back.
#[derive(Debug)]
pub struct StudyReport {
    /// Study id.
    pub id: String,
    /// `(stem, result)` per cell, in definition order.
    pub results: Vec<(String, Result<ScenarioResult, Error>)>,
    /// Tasks in the manifest.
    pub items_total: u64,
    /// Task results restored from the resumed checkpoint (refine tasks
    /// included).
    pub items_resumed: u64,
    /// Tasks executed by this process (refine tasks included).
    pub items_executed: u64,
    /// Checkpoints written by this process.
    pub checkpoints_written: u64,
}

/// Outcome of [`run_study`].
#[derive(Debug)]
pub enum StudyOutcome {
    /// Ran to completion; aggregates are on disk.
    Complete(StudyReport),
    /// The `stop_after_items` hook fired (test emulation of a kill
    /// between checkpoints — nothing was written for the last slice).
    Stopped {
        /// Task results in the log at the stop, resumed ones included.
        completed: u64,
        /// Tasks in the manifest.
        total: u64,
    },
}

// ---------------------------------------------------------------------
// Fingerprints and the sanctioned clock
// ---------------------------------------------------------------------

/// FNV-1a 64 (no dependencies, stable across platforms).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seconds since process origin, for the `interval_seconds` trigger.
/// This is the module's *only* clock read, and it gates when snapshots
/// are written — never what they contain.
fn clock_seconds() -> f64 {
    // lint: allow(wall-clock-in-sim, transitive-nondeterminism) — the study checkpointer's single sanctioned clock site, routed through ckpt_obs::clock (see lint.toml)
    ckpt_obs::clock::now_micros() as f64 / 1e6
}

/// FNV-1a over the golden directory (file names + contents, sorted by
/// name), or 0 when unset/unreadable — a pipeline-identity component of
/// the manifest fingerprint: when the committed goldens change, every
/// older checkpoint store is stale by definition.
fn golden_hash(dir: Option<&Path>) -> u64 {
    let Some(dir) = dir else { return 0 };
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut names: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    let mut bytes = Vec::new();
    for p in names {
        if let Some(name) = p.file_name() {
            bytes.extend_from_slice(name.to_string_lossy().as_bytes());
        }
        bytes.push(0);
        if let Ok(content) = std::fs::read(&p) {
            bytes.extend_from_slice(&content);
        }
        bytes.push(0);
    }
    fnv1a(&bytes)
}

// ---------------------------------------------------------------------
// Manifest construction
// ---------------------------------------------------------------------

/// Stable persistent distribution identity: the value fingerprint when
/// the distribution has one, else the spec label (never the
/// process-local instance id, which would poison resume).
fn dist_identity(scenario: &Scenario, built: &Result<BuiltDist, Error>) -> String {
    match built {
        Ok(built) => match DistId::of(built.dist.as_ref()) {
            DistId::Shared(fp) => format!("fp:{fp:016x}"),
            DistId::Instance(_) => format!("label:{}", scenario.dist.label()),
        },
        Err(e) => format!("unbuildable:{e}"),
    }
}

/// Decompose a study into its manifest (typed tasks + fingerprint).
pub fn build_manifest(def: &StudyDef, config: &CheckpointConfig) -> StudyManifest {
    let mut cells = Vec::with_capacity(def.cells.len());
    let mut items: Vec<WorkItem> = Vec::new();
    let mut task_base: u64 = 0;
    for (c, cell) in def.cells.iter().enumerate() {
        let sim_plan = plan_scenario(&cell.scenario, &cell.kinds, &cell.options);
        let built = cell.scenario.dist.try_build();
        // A cell whose distribution cannot be built commits to its
        // build error without running a task, so it lists none.
        if built.is_ok() {
            let first = items.len();
            let mut tasks = sim_plan.roster_wave();
            tasks.extend(sim_plan.candidate_wave(&sim_plan.coarse));
            items.extend(tasks.into_iter().map(|task| WorkItem {
                id: task_base + sim_plan.task_id(&task),
                cell: c,
                task,
            }));
            items[first..].sort_by_key(|item| item.id);
        }
        cells.push(ManifestCell {
            label: cell.scenario.label.clone(),
            stem: cell.stem.clone(),
            procs: cell.scenario.procs,
            traces: sim_plan.traces,
            dist_id: dist_identity(&cell.scenario, &built),
            roster: cell.kinds.iter().map(|k| format!("{k:?}")).collect(),
            options: format!("{:?}", cell.options),
            grid_len: sim_plan.grid.len(),
            coarse: sim_plan.coarse.clone(),
            refine_step: sim_plan.refine_step.unwrap_or(0),
            lower_bound: sim_plan.lower_bound,
            task_base,
        });
        task_base += sim_plan.task_count();
    }
    let mut manifest = StudyManifest {
        version: STORE_VERSION,
        study: def.id.clone(),
        fingerprint: String::new(),
        lanes: ckpt_math::simd::LANES,
        golden_hash: format!("{:016x}", golden_hash(config.golden_dir.as_deref())),
        cells,
        items,
    };
    manifest.fingerprint = format!("{:016x}", fnv1a(manifest_head_json(&manifest).as_bytes()));
    manifest
}

// ---------------------------------------------------------------------
// JSON emission (read back by `jsonio`)
// ---------------------------------------------------------------------

fn json_str(s: &str) -> String {
    format!("\"{}\"", serde_json::escape_str(s))
}

/// Append one log entry: `{"id": N, "sim": [makespan, failures,
/// decisions, chunk_min, chunk_max]}`, `{"id": N, "lower_bound": bits}`
/// or `{"id": N, "unbuilt": reason}`. Written straight into the
/// snapshot buffer: a snapshot holds the whole log, so this runs for
/// every entry of every snapshot.
fn push_entry(s: &mut String, id: u64, p: &ItemPayload) {
    let _ = match p {
        ItemPayload::Sim(st) => write!(
            s,
            "{{\"id\": {id}, \"sim\": [{}, {}, {}, {}, {}]}}",
            st.makespan, st.failures, st.decisions, st.chunk_min, st.chunk_max
        ),
        ItemPayload::LowerBound(bits) => write!(s, "{{\"id\": {id}, \"lower_bound\": {bits}}}"),
        ItemPayload::Unbuilt { reason } => {
            write!(s, "{{\"id\": {id}, \"unbuilt\": {}}}", json_str(reason))
        }
    };
}

fn item_json(it: &WorkItem) -> String {
    let (kind, index) = match it.task {
        SimTask::Policy { policy, .. } => ("policy", policy as i64),
        SimTask::LowerBound { .. } => ("lower_bound", -1),
        SimTask::Candidate { candidate, .. } => ("candidate", candidate as i64),
    };
    format!(
        "{{\"id\": {}, \"cell\": {}, \"kind\": \"{kind}\", \"index\": {index}, \"trace\": {}}}",
        it.id,
        it.cell,
        it.task.trace()
    )
}

/// Serialise a manifest: its head (identity and cell rows), then the
/// task list.
pub fn manifest_json(m: &StudyManifest) -> String {
    let mut s = manifest_head_json(m);
    s.push_str("  \"items\": [\n");
    for (i, it) in m.items.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&item_json(it));
        s.push_str(if i + 1 < m.items.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The manifest's head: every field but the task list, which is a pure
/// function of the cell rows. With `fingerprint` emptied this is the
/// fingerprint's hash input, so the serialisation *is* the identity.
fn manifest_head_json(m: &StudyManifest) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"version\": {},\n", m.version));
    s.push_str(&format!("  \"study\": {},\n", json_str(&m.study)));
    s.push_str(&format!("  \"fingerprint\": {},\n", json_str(&m.fingerprint)));
    s.push_str(&format!("  \"lanes\": {},\n", m.lanes));
    s.push_str(&format!("  \"golden_hash\": {},\n", json_str(&m.golden_hash)));
    s.push_str("  \"cells\": [\n");
    for (i, c) in m.cells.iter().enumerate() {
        let roster: Vec<String> = c.roster.iter().map(|r| json_str(r)).collect();
        let coarse: Vec<String> = c.coarse.iter().map(usize::to_string).collect();
        s.push_str(&format!(
            "    {{\"label\": {}, \"stem\": {}, \"procs\": {}, \"traces\": {}, \
             \"dist_id\": {}, \"roster\": [{}], \"options\": {}, \"grid_len\": {}, \
             \"coarse\": [{}], \"refine_step\": {}, \"lower_bound\": {}, \"task_base\": {}}}",
            json_str(&c.label),
            json_str(&c.stem),
            c.procs,
            c.traces,
            json_str(&c.dist_id),
            roster.join(", "),
            json_str(&c.options),
            c.grid_len,
            coarse.join(", "),
            c.refine_step,
            c.lower_bound,
            c.task_base,
        ));
        s.push_str(if i + 1 < m.cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s
}

/// Serialise one checkpoint snapshot (the whole task log).
pub fn checkpoint_json(study: &str, fingerprint: &str, seq: u64, completed: &TaskLog) -> String {
    let mut s = String::with_capacity(128 + 96 * completed.len());
    s.push_str("{\n");
    s.push_str(&format!("  \"version\": {STORE_VERSION},\n"));
    s.push_str(&format!("  \"study\": {},\n", json_str(study)));
    s.push_str(&format!("  \"fingerprint\": {},\n", json_str(fingerprint)));
    s.push_str(&format!("  \"seq\": {seq},\n"));
    s.push_str("  \"completed\": [\n");
    for (i, (id, payload)) in completed.iter().enumerate() {
        s.push_str(if i == 0 { "    " } else { ",\n    " });
        push_entry(&mut s, *id, payload);
    }
    if !completed.is_empty() {
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

// ---------------------------------------------------------------------
// JSON parsing (via `jsonio`)
// ---------------------------------------------------------------------

fn bad(reason: impl Into<String>) -> Error {
    Error::Checkpoint { reason: reason.into() }
}

fn get_u64(v: &Json, key: &str) -> Result<u64, Error> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| bad(format!("missing u64 `{key}`")))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, Error> {
    usize::try_from(get_u64(v, key)?).map_err(|_| bad(format!("`{key}` out of range")))
}

fn get_str(v: &Json, key: &str) -> Result<String, Error> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing string `{key}`")))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, Error> {
    v.get(key).and_then(Json::as_bool).ok_or_else(|| bad(format!("missing bool `{key}`")))
}

fn get_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], Error> {
    v.get(key).and_then(Json::as_arr).ok_or_else(|| bad(format!("missing array `{key}`")))
}

/// Read a document's `version` first: a store of another version is
/// rejected by name, before any of its fields can be misread.
fn check_version(v: &Json, what: &str) -> Result<u64, Error> {
    let version = get_u64(v, "version")?;
    if version == STORE_VERSION {
        Ok(version)
    } else {
        Err(bad(format!(
            "{what} has store version {version}, but this build reads version \
             {STORE_VERSION} only — rerun the study under a new id"
        )))
    }
}

/// The finite-makespan invariant: a persisted makespan bit pattern must
/// decode to a finite float (NaN/Inf would silently poison downstream
/// means and golden bytes; chunk bounds are exempt — `chunk_min` is
/// `+∞` on decision-free runs by construction).
fn check_finite_makespan(bits: u64) -> Result<u64, Error> {
    if f64::from_bits(bits).is_finite() {
        Ok(bits)
    } else {
        Err(bad(format!("non-finite makespan bits {bits:#018x}")))
    }
}

fn parse_payload(v: &Json) -> Result<ItemPayload, Error> {
    if let Some(sim) = v.get("sim") {
        let fields = sim
            .as_arr()
            .filter(|f| f.len() == 5)
            .ok_or_else(|| bad("`sim` must hold 5 integers"))?;
        let field = |i: usize| fields[i].as_u64().ok_or_else(|| bad("bad `sim` field"));
        return Ok(ItemPayload::Sim(TraceStatsBits {
            makespan: check_finite_makespan(field(0)?)?,
            failures: field(1)?,
            decisions: field(2)?,
            chunk_min: field(3)?,
            chunk_max: field(4)?,
        }));
    }
    if v.get("lower_bound").is_some() {
        return Ok(ItemPayload::LowerBound(check_finite_makespan(get_u64(v, "lower_bound")?)?));
    }
    if v.get("unbuilt").is_some() {
        return Ok(ItemPayload::Unbuilt { reason: get_str(v, "unbuilt")? });
    }
    Err(bad("log entry holds no known payload"))
}

fn parse_item(v: &Json) -> Result<WorkItem, Error> {
    let trace = get_usize(v, "trace")?;
    let task = match get_str(v, "kind")?.as_str() {
        "policy" => SimTask::Policy { policy: get_usize(v, "index")?, trace },
        "lower_bound" => SimTask::LowerBound { trace },
        "candidate" => SimTask::Candidate { candidate: get_usize(v, "index")?, trace },
        other => return Err(bad(format!("unknown task kind `{other}`"))),
    };
    Ok(WorkItem { id: get_u64(v, "id")?, cell: get_usize(v, "cell")?, task })
}

/// Parse a manifest document back to its typed form.
///
/// # Errors
/// [`Error::Checkpoint`] on another store version, malformed JSON or
/// missing fields.
pub fn parse_manifest(src: &str) -> Result<StudyManifest, Error> {
    let v = jsonio::parse(src).map_err(|e| bad(format!("manifest: {e}")))?;
    Ok(StudyManifest {
        version: check_version(&v, "manifest")?,
        study: get_str(&v, "study")?,
        fingerprint: get_str(&v, "fingerprint")?,
        lanes: get_usize(&v, "lanes")?,
        golden_hash: get_str(&v, "golden_hash")?,
        cells: get_arr(&v, "cells")?
            .iter()
            .map(|c| {
                Ok(ManifestCell {
                    label: get_str(c, "label")?,
                    stem: get_str(c, "stem")?,
                    procs: get_u64(c, "procs")?,
                    traces: get_usize(c, "traces")?,
                    dist_id: get_str(c, "dist_id")?,
                    roster: get_arr(c, "roster")?
                        .iter()
                        .map(|r| {
                            r.as_str().map(str::to_string).ok_or_else(|| bad("bad roster"))
                        })
                        .collect::<Result<_, _>>()?,
                    options: get_str(c, "options")?,
                    grid_len: get_usize(c, "grid_len")?,
                    coarse: get_arr(c, "coarse")?
                        .iter()
                        .map(|x| {
                            x.as_u64()
                                .and_then(|u| usize::try_from(u).ok())
                                .ok_or_else(|| bad("bad coarse index"))
                        })
                        .collect::<Result<_, _>>()?,
                    refine_step: get_usize(c, "refine_step")?,
                    lower_bound: get_bool(c, "lower_bound")?,
                    task_base: get_u64(c, "task_base")?,
                })
            })
            .collect::<Result<_, Error>>()?,
        items: get_arr(&v, "items")?.iter().map(parse_item).collect::<Result<_, _>>()?,
    })
}

/// A parsed checkpoint snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFile {
    /// Format version.
    pub version: u64,
    /// Owning study id.
    pub study: String,
    /// Manifest fingerprint the snapshot was written against.
    pub fingerprint: String,
    /// Monotonic snapshot sequence number.
    pub seq: u64,
    /// The task log: results by task id.
    pub completed: TaskLog,
}

/// Parse a checkpoint document, enforcing the finite-makespan invariant.
///
/// # Errors
/// [`Error::Checkpoint`] on another store version, malformed JSON,
/// missing fields, or a non-finite persisted makespan.
pub fn parse_checkpoint(src: &str) -> Result<CheckpointFile, Error> {
    let v = jsonio::parse(src).map_err(|e| bad(format!("checkpoint: {e}")))?;
    let version = check_version(&v, "checkpoint")?;
    let mut completed = BTreeMap::new();
    for entry in get_arr(&v, "completed")? {
        completed.insert(get_u64(entry, "id")?, parse_payload(entry)?);
    }
    Ok(CheckpointFile {
        version,
        study: get_str(&v, "study")?,
        fingerprint: get_str(&v, "fingerprint")?,
        seq: get_u64(&v, "seq")?,
        completed,
    })
}

// ---------------------------------------------------------------------
// Store layout and atomic I/O
// ---------------------------------------------------------------------

fn study_dir(config: &CheckpointConfig, id: &str) -> PathBuf {
    config.root.join(id)
}

fn ckpt_name(seq: u64) -> String {
    format!("ckpt-{seq:06}.json")
}

/// Parse `ckpt-NNNNNN.json` back to its sequence number.
fn ckpt_seq(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?.strip_suffix(".json")?.parse().ok()
}

/// Write-then-rename so readers (and kills) never observe a torn file.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> Result<(), Error> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents)
        .map_err(|e| bad(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| bad(format!("rename {}: {e}", path.display())))
}

/// Checkpoint files of a study dir as `(seq, path)`, ascending.
fn list_checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut out: Vec<(u64, PathBuf)> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let seq = ckpt_seq(path.file_name()?.to_str()?)?;
            Some((seq, path))
        })
        .collect();
    out.sort();
    out
}

/// Drop all but the newest `keep` checkpoint files.
fn prune_checkpoints(dir: &Path, keep: usize) {
    let files = list_checkpoints(dir);
    let excess = files.len().saturating_sub(keep.max(1));
    for (_, path) in files.into_iter().take(excess) {
        let _ = std::fs::remove_file(path);
    }
}

/// Best-effort flight-recorder dump into the store. Diagnostic only: a
/// failed write must never fail the study. Without the `obs` feature
/// (or outside a session) this still writes a valid `recording: false`
/// document, so store tooling never has to special-case its absence.
fn write_flightrec(dir: &Path) {
    let _ = write_atomic(&dir.join("flightrec.json"), &ckpt_obs::flight_dump_json());
}

/// Resets the poisoned-wave flight-dump destination when the run loop
/// exits — normally or by unwind — so a later wave outside any study
/// cannot write into a stale store.
struct FlightDumpGuard;

impl Drop for FlightDumpGuard {
    fn drop(&mut self) {
        crate::steal::set_flight_dump(None);
    }
}

// ---------------------------------------------------------------------
// The run loop
// ---------------------------------------------------------------------

/// SIGKILL our own process (CLI `--kill-at` hook): the real thing, so
/// no destructor, no flush, no final checkpoint runs — exactly the
/// failure the resume path claims to survive.
fn kill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
    // SIGKILL cannot be handled; reaching here means `kill` was
    // unavailable. Abort still skips destructors and exit handlers.
    std::process::abort();
}

/// Load the newest usable snapshot of `dir`. Corrupt or version-skewed
/// files are skipped (counted as rejected); a *fingerprint* mismatch is
/// a hard error — the store describes different numbers than `expect`
/// and must not be silently reused.
fn load_latest(dir: &Path, study: &str, expect: &str) -> Result<Option<CheckpointFile>, Error> {
    let mut files = list_checkpoints(dir);
    files.reverse();
    for (_, path) in files {
        let Some(ckpt) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|src| parse_checkpoint(&src).ok())
            .filter(|c| c.study == study)
        else {
            ckpt_obs::counter_add("study.checkpoint_rejected", 1);
            continue;
        };
        if ckpt.fingerprint != expect {
            ckpt_obs::counter_add("study.checkpoint_rejected", 1);
            return Err(bad(format!(
                "stale checkpoint store for study `{study}`: snapshot fingerprint {} \
                 does not match the rebuilt manifest fingerprint {expect} \
                 ({}) — refusing to resume",
                ckpt.fingerprint,
                path.display()
            )));
        }
        return Ok(Some(ckpt));
    }
    Ok(None)
}

/// Why a durable run ended between two slices.
enum Halt {
    /// The `stop_after_items` hook fired.
    Stopped,
    /// A store write failed.
    Failed(Error),
}

/// The engine's recorder for a durable run: it cuts every wave into
/// slices of `interval_items` tasks, and after each slice counts the
/// work, honours the kill and stop hooks, and snapshots the log when
/// one is due.
struct Store<'a> {
    config: &'a CheckpointConfig,
    manifest: &'a StudyManifest,
    dir: PathBuf,
    progress: StudyProgress,
    next_seq: u64,
    executed: u64,
    since_ckpt: u64,
    last_ckpt: f64,
    written: u64,
}

impl Store<'_> {
    /// Write the whole log as the next snapshot, apply retention, and
    /// refresh the flight dump and progress snapshot next to it.
    fn snapshot(&mut self, log: &TaskLog) -> Result<(), Error> {
        let _span = ckpt_obs::span("study.checkpoint_write");
        let m = self.manifest;
        write_atomic(
            &self.dir.join(ckpt_name(self.next_seq)),
            &checkpoint_json(&m.study, &m.fingerprint, self.next_seq, log),
        )?;
        ckpt_obs::counter_add("study.checkpoint_writes", 1);
        self.next_seq += 1;
        self.written += 1;
        self.since_ckpt = 0;
        self.last_ckpt = clock_seconds();
        prune_checkpoints(&self.dir, self.config.max_checkpoints);
        write_flightrec(&self.dir);
        self.progress.write(&self.dir)
    }

    fn write_status(&self, state: &str) -> Result<(), Error> {
        let (done, total) = (self.progress.completed(), self.progress.total());
        write_atomic(&self.dir.join("status"), &format!("{state} {done}/{total}\n"))
    }
}

impl Recorder for Store<'_> {
    type Halt = Halt;

    fn slice_len(&self, _pending: usize) -> usize {
        usize::try_from(self.config.interval_items).unwrap_or(usize::MAX)
    }

    fn begin_slice(&mut self, wave: Wave, slice: &[SimTask]) {
        self.progress.begin_slice(wave, slice);
        self.progress.console_tick(false);
        let _ = self.progress.write(&self.dir);
    }

    fn end_slice(&mut self, log: &TaskLog, wave: Wave, slice: &[SimTask]) -> Result<(), Halt> {
        let n = slice.len() as u64;
        self.executed += n;
        self.since_ckpt += n;
        ckpt_obs::counter_add("study.items_executed", n);
        self.progress.finish_slice(wave, slice);

        if let Some(frac) = self.config.kill_at {
            if log.len() as f64 >= frac * self.manifest.items.len() as f64 {
                kill_self();
            }
        }
        if self.config.stop_after_items.is_some_and(|stop| self.executed >= stop) {
            // Emulated kill between snapshots: leave the store exactly
            // as the last checkpoint wrote it.
            return Err(Halt::Stopped);
        }
        let due_items = self.since_ckpt >= self.config.interval_items.max(1);
        let due_time = clock_seconds() - self.last_ckpt >= self.config.interval_seconds;
        if due_items || due_time {
            self.snapshot(log).and_then(|()| self.write_status("running")).map_err(Halt::Failed)?;
        }
        Ok(())
    }
}

/// Run (or resume) a study through the checkpoint store.
///
/// Fresh runs (`resume == false`) refuse to overwrite an existing study
/// directory. Resumes (`resume == true`) require the directory, rebuild
/// the manifest from `def`, validate fingerprints, seed the task log
/// from the newest snapshot, and execute only what is missing —
/// in-progress work of the killed process is implicitly back in
/// pending, logged work is reduced from its payload, never re-simulated.
///
/// # Errors
/// [`Error::Checkpoint`] for store-level failures (I/O, corrupt, stale
/// or other-version stores, id collisions). Cell-level failures are
/// values in the returned report, mirroring
/// [`Study::run_all`](crate::study::Study::run_all).
pub fn run_study(
    def: &StudyDef,
    config: &CheckpointConfig,
    resume: bool,
) -> Result<StudyOutcome, Error> {
    let manifest = build_manifest(def, config);
    let dir = study_dir(config, &def.id);
    let mut log = TaskLog::new();
    let mut next_seq: u64 = 0;

    if resume {
        let _span = ckpt_obs::span("study.resume");
        if !dir.is_dir() {
            return Err(bad(format!("no study `{}` under {}", def.id, config.root.display())));
        }
        if let Ok(src) = std::fs::read_to_string(dir.join("manifest.json")) {
            let on_disk = parse_manifest(&src)?;
            if on_disk.fingerprint != manifest.fingerprint {
                ckpt_obs::counter_add("study.checkpoint_rejected", 1);
                return Err(bad(format!(
                    "stale manifest for study `{}`: on-disk fingerprint {} does not \
                     match the rebuilt fingerprint {} — the store describes a \
                     different study; refusing to resume",
                    def.id, on_disk.fingerprint, manifest.fingerprint
                )));
            }
        }
        if let Some(ckpt) = load_latest(&dir, &def.id, &manifest.fingerprint)? {
            next_seq = ckpt.seq + 1;
            log = ckpt.completed;
        }
    } else {
        if dir.join("manifest.json").exists() {
            return Err(bad(format!(
                "study `{}` already exists under {} — resume it or pick a new id",
                def.id,
                config.root.display()
            )));
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| bad(format!("create {}: {e}", dir.display())))?;
        write_atomic(&dir.join("manifest.json"), &manifest_json(&manifest))?;
    }

    // The store directory exists either way now: point the poisoned-wave
    // flight dump at it for the duration of the run (the guard resets it
    // on every exit path, unwinds included).
    crate::steal::set_flight_dump(Some(dir.join("flightrec.json")));
    let _flight_guard = FlightDumpGuard;

    let items_total = manifest.items.len() as u64;
    let items_resumed = log.len() as u64;
    ckpt_obs::counter_add("study.items_resumed", items_resumed);
    let progress = StudyProgress::new(
        &def.id,
        &manifest.items,
        |id| log.contains_key(&id),
        config.progress,
    );
    let mut store = Store {
        config,
        manifest: &manifest,
        dir: dir.clone(),
        progress,
        next_seq,
        executed: 0,
        since_ckpt: 0,
        last_ckpt: clock_seconds(),
        written: 0,
    };
    store.write_status("running")?;
    store.progress.write(&dir)?;
    write_flightrec(&dir);

    // The engine, cell by cell in definition order: the same plan →
    // drive → reduce as an in-memory run, over the store's log.
    let mut results = Vec::with_capacity(def.cells.len());
    for (cell, row) in def.cells.iter().zip(&manifest.cells) {
        let result = match cell.scenario.dist.try_build() {
            Err(e) => Err(Error::for_cell(&cell.scenario.label, e)),
            Ok(built) => {
                let sim_plan = plan_scenario(&cell.scenario, &cell.kinds, &cell.options);
                match crate::runner::run_cell(
                    &cell.scenario,
                    &built,
                    &sim_plan,
                    row.task_base,
                    &mut log,
                    &mut store,
                ) {
                    Ok(r) => Ok(r),
                    Err(Halt::Stopped) => {
                        return Ok(StudyOutcome::Stopped {
                            completed: log.len() as u64,
                            total: items_total,
                        })
                    }
                    Err(Halt::Failed(e)) => return Err(e),
                }
            }
        };
        results.push((cell.stem.clone(), result));
    }

    // Completion: final snapshot first (a crash between here and the
    // aggregates resumes into a complete log and just re-reduces), then
    // the aggregates of every cell in definition order.
    store.snapshot(&log)?;
    store.progress.console_tick(true);
    let agg_dir = dir.join("aggregate");
    std::fs::create_dir_all(&agg_dir)
        .map_err(|e| bad(format!("create {}: {e}", agg_dir.display())))?;
    for (stem, result) in &results {
        if let Ok(r) = result {
            write_atomic(&agg_dir.join(format!("{stem}.json")), &crate::golden::golden_json(r))?;
        }
    }

    if !config.keep_final {
        for (_, path) in list_checkpoints(&dir) {
            let _ = std::fs::remove_file(path);
        }
    }
    store.write_status("done")?;

    Ok(StudyOutcome::Complete(StudyReport {
        id: def.id.clone(),
        results,
        items_total,
        items_resumed,
        items_executed: store.executed,
        checkpoints_written: store.written,
    }))
}

// ---------------------------------------------------------------------
// `study ls` / `study gc`
// ---------------------------------------------------------------------

/// One row of `study ls`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudySummary {
    /// Study id (directory name).
    pub id: String,
    /// Contents of the status file (`running N/M`, `done N/N`), or
    /// `"unknown"`.
    pub status: String,
    /// Checkpoint files on disk.
    pub checkpoints: usize,
    /// Aggregate files on disk.
    pub aggregates: usize,
    /// Items in the manifest (0 when unreadable).
    pub items: usize,
}

/// Enumerate the studies under `root`, sorted by id.
///
/// # Errors
/// Never fails on per-study damage (damaged studies list as
/// `"unknown"`); an unreadable root yields an empty list.
pub fn list_studies(root: &Path) -> Vec<StudySummary> {
    let Ok(entries) = std::fs::read_dir(root) else { return Vec::new() };
    let mut out: Vec<StudySummary> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            if !path.is_dir() {
                return None;
            }
            let id = path.file_name()?.to_str()?.to_string();
            let status = std::fs::read_to_string(path.join("status"))
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string());
            let items = std::fs::read_to_string(path.join("manifest.json"))
                .ok()
                .and_then(|s| parse_manifest(&s).ok())
                .map_or(0, |m| m.items.len());
            let aggregates = std::fs::read_dir(path.join("aggregate"))
                .map(|d| d.filter_map(Result::ok).count())
                .unwrap_or(0);
            Some(StudySummary {
                id,
                status,
                checkpoints: list_checkpoints(&path).len(),
                aggregates,
                items,
            })
        })
        .collect();
    out.sort_by(|a, b| a.id.cmp(&b.id));
    out
}

/// Garbage-collect the store: prune every study to `max_checkpoints`
/// snapshots; `purge` removes one study directory entirely. Returns a
/// human-readable action log.
///
/// # Errors
/// [`Error::Checkpoint`] when the purge target cannot be removed.
pub fn gc_studies(
    root: &Path,
    max_checkpoints: usize,
    purge: Option<&str>,
) -> Result<Vec<String>, Error> {
    let mut actions = Vec::new();
    if let Some(id) = purge {
        let dir = root.join(id);
        if dir.is_dir() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| bad(format!("purge {}: {e}", dir.display())))?;
            actions.push(format!("purged {id}"));
        } else {
            actions.push(format!("no study `{id}` to purge"));
        }
    }
    for summary in list_studies(root) {
        if Some(summary.id.as_str()) == purge {
            continue;
        }
        let before = summary.checkpoints;
        prune_checkpoints(&root.join(&summary.id), max_checkpoints);
        let after = list_checkpoints(&root.join(&summary.id)).len();
        if after < before {
            actions.push(format!("{}: pruned {} checkpoint(s)", summary.id, before - after));
        }
    }
    Ok(actions)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::runner::PeriodSearch;
    use crate::scenario::DistSpec;
    use ckpt_sim::SimOptions;

    fn tiny_def(id: &str) -> StudyDef {
        let mut s =
            Scenario::single_processor(DistSpec::Exponential { mtbf: 6.0 * 3_600.0 }, 4);
        s.total_work = 12.0 * 3_600.0;
        let options = RunnerOptions {
            lower_bound: true,
            period_lb: Some(vec![0.5, 1.0, 2.0]),
            period_search: PeriodSearch::Full,
            sim: SimOptions::default(),
        };
        StudyDef::new(id, [(s, vec![PolicyKind::Young, PolicyKind::OptExp], options)])
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Reference values of FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn manifest_decomposes_and_fingerprint_is_stable() {
        let def = tiny_def("t");
        let config = CheckpointConfig::default();
        let a = build_manifest(&def, &config);
        let b = build_manifest(&def, &config);
        assert_eq!(a, b, "manifest build must be deterministic");
        // One task per trace: 2 policies + LB + 3 candidates, 4 traces;
        // full search ⇒ no refine wave, so the id space is dense.
        assert_eq!(a.items.len(), (2 + 1 + 3) * 4);
        assert_eq!(a.lanes, ckpt_math::simd::LANES);
        for (k, item) in a.items.iter().enumerate() {
            assert_eq!(item.id, k as u64);
        }
    }

    #[test]
    fn fingerprint_tracks_content() {
        let config = CheckpointConfig::default();
        let a = build_manifest(&tiny_def("t"), &config);
        // Different roster ⇒ different fingerprint.
        let mut def = tiny_def("t");
        def.cells[0].kinds.pop();
        let b = build_manifest(&def, &config);
        assert_ne!(a.fingerprint, b.fingerprint);
        // Different candidate grid ⇒ different fingerprint.
        let mut def = tiny_def("t");
        def.cells[0].options.period_lb = Some(vec![0.5, 1.0]);
        let c = build_manifest(&def, &config);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn cells_own_disjoint_id_ranges_and_unbuildable_cells_list_no_tasks() {
        let mut bad = tiny_def("x").cells.remove(0);
        bad.scenario.dist = DistSpec::LanlLog { cluster: 99 };
        let mut def = tiny_def("ids");
        def.cells.push(bad);
        def.cells.push(tiny_def("y").cells.remove(0));
        let m = build_manifest(&def, &CheckpointConfig::default());
        let bases: Vec<u64> = m.cells.iter().map(|c| c.task_base).collect();
        assert_eq!(bases, [0, 24, 48]);
        assert!(m.cells[1].dist_id.starts_with("unbuildable:"));
        assert!(m.items.iter().all(|i| i.cell != 1));
        assert_eq!(m.items.len(), 2 * 24);
        assert!(m.items.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn stems_deduplicate() {
        let mut s =
            Scenario::single_processor(DistSpec::Exponential { mtbf: 3_600.0 }, 2);
        s.total_work = 3_600.0;
        let mut s2 = s.clone();
        s2.procs = 2;
        let s3 = s.clone();
        let opts = RunnerOptions { period_lb: None, ..RunnerOptions::default() };
        let def = StudyDef::new(
            "d",
            [
                (s, vec![PolicyKind::Young], opts.clone()),
                (s2, vec![PolicyKind::Young], opts.clone()),
                (s3, vec![PolicyKind::Young], opts),
            ],
        );
        let stems: Vec<&str> = def.cells.iter().map(|c| c.stem.as_str()).collect();
        assert_eq!(stems.len(), 3);
        assert!(stems[1].ends_with("-p2"));
        for (i, a) in stems.iter().enumerate() {
            for b in &stems[i + 1..] {
                assert_ne!(a, b, "stems must be unique");
            }
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let def = tiny_def("rt");
        let m = build_manifest(&def, &CheckpointConfig::default());
        let parsed = parse_manifest(&manifest_json(&m)).expect("parses");
        assert_eq!(parsed, m);
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_non_finite() {
        let mut completed = TaskLog::new();
        completed.insert(
            3,
            ItemPayload::Sim(TraceStatsBits {
                makespan: 1234.5f64.to_bits(),
                failures: 2,
                decisions: 7,
                chunk_min: f64::INFINITY.to_bits(),
                chunk_max: 0.0f64.to_bits(),
            }),
        );
        completed.insert(4, ItemPayload::LowerBound(99.25f64.to_bits()));
        completed.insert(6, ItemPayload::Unbuilt { reason: "Liu: \"no fit\"".into() });
        let src = checkpoint_json("s", "00ff", 7, &completed);
        let parsed = parse_checkpoint(&src).expect("parses");
        assert_eq!(parsed.seq, 7);
        assert_eq!(parsed.completed, completed);

        // A NaN makespan violates the store invariant (chunk_min may be
        // +inf — it round-tripped above).
        completed.insert(7, ItemPayload::LowerBound(f64::NAN.to_bits()));
        let bad_src = checkpoint_json("s", "00ff", 8, &completed);
        let err = parse_checkpoint(&bad_src).expect_err("NaN must be rejected");
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn ckpt_names_round_trip_and_retention_prunes() {
        assert_eq!(ckpt_seq(&ckpt_name(42)), Some(42));
        assert_eq!(ckpt_seq("manifest.json"), None);
        let dir = std::env::temp_dir()
            .join(format!("ckpt-retention-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for seq in 0..5 {
            std::fs::write(dir.join(ckpt_name(seq)), "{}").unwrap();
        }
        prune_checkpoints(&dir, 2);
        let left: Vec<u64> = list_checkpoints(&dir).into_iter().map(|(s, _)| s).collect();
        assert_eq!(left, [3, 4], "newest snapshots survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_run_refuses_existing_study_and_resume_requires_one() {
        let root = std::env::temp_dir()
            .join(format!("ckpt-store-guard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let def = tiny_def("guard");
        let config = CheckpointConfig {
            root: root.clone(),
            interval_seconds: 1e9,
            ..CheckpointConfig::default()
        };
        let missing = run_study(&def, &config, true).expect_err("nothing to resume");
        assert!(missing.to_string().contains("no study"), "{missing}");
        match run_study(&def, &config, false).expect("fresh run") {
            StudyOutcome::Complete(report) => {
                assert_eq!(report.items_resumed, 0);
                assert_eq!(report.items_executed, report.items_total);
                assert!(report.results[0].1.is_ok());
            }
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        }
        let again = run_study(&def, &config, false).expect_err("id collision");
        assert!(again.to_string().contains("already exists"), "{again}");
        // Resuming a completed study replays everything from the final
        // snapshot and re-commits identical aggregates.
        let agg = root.join("guard/aggregate").join(format!("{}.json", def.cells[0].stem));
        let before = std::fs::read_to_string(&agg).expect("aggregate written");
        match run_study(&def, &config, true).expect("resume complete study") {
            StudyOutcome::Complete(report) => {
                assert_eq!(report.items_resumed, report.items_total);
                assert_eq!(report.items_executed, 0);
            }
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        }
        assert_eq!(std::fs::read_to_string(&agg).expect("rewritten"), before);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn ls_and_gc_report_and_prune() {
        let root = std::env::temp_dir()
            .join(format!("ckpt-store-lsgc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let def = tiny_def("lsgc");
        let config = CheckpointConfig {
            root: root.clone(),
            interval_items: 1,
            interval_seconds: 1e9,
            max_checkpoints: 10,
            ..CheckpointConfig::default()
        };
        run_study(&def, &config, false).expect("runs");
        let ls = list_studies(&root);
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].id, "lsgc");
        assert!(ls[0].status.starts_with("done"), "{}", ls[0].status);
        assert!(ls[0].checkpoints > 1);
        assert_eq!(ls[0].aggregates, 1);
        assert!(ls[0].items > 0);
        let actions = gc_studies(&root, 1, None).expect("gc");
        assert_eq!(actions.len(), 1, "{actions:?}");
        assert_eq!(list_checkpoints(&root.join("lsgc")).len(), 1);
        let actions = gc_studies(&root, 1, Some("lsgc")).expect("purge");
        assert!(actions[0].contains("purged"), "{actions:?}");
        assert!(list_studies(&root).is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }
}
