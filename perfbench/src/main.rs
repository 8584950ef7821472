//! One leg of the benchmark: a cold process that sets a workload up, makes
//! one timed call into the program's public API, and prints one JSON line
//! with what it measured and the canonical output it produced.
//!
//! ```text
//! perfbench <mode> --workload <name> --seed <n> [--sample <k>] [--workers <n>] [--store <dir>]
//! ```
//!
//! Modes: `cell` (`run_scenario` per cell), `traced` (the traced re-drive
//! of `traced.rs`), `study-fresh` (`run_study` on a new store; after the
//! timed call it also measures the store's size, its parse time and a
//! resume of the complete store, which must execute no item),
//! `study-stop` (`run_study` stopped at about half the items),
//! `study-resume` (`run_study` resuming the stopped store) and
//! `study-memory` (`Study::run_all`). `--seed` and `--sample` pick the
//! inputs (see `cells.rs`). `--workers` pins the executor's
//! worker count; without it the program's default applies. `run.py`
//! drives the legs, checks their outputs and prints the metrics.

mod cells;
mod traced;

use cells::{Cell, Workload};
use ckpt_exp::checkpoint::{
    build_manifest, parse_checkpoint, parse_manifest, run_study, CheckpointConfig, StudyOutcome,
    StudyReport,
};
use ckpt_exp::golden::golden_json;
use ckpt_exp::{run_scenario, steal, Study};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use traced::{ratio, Layers};

/// A flat JSON object, written in insertion order.
#[derive(Default)]
struct Out(Vec<(String, String)>);

impl Out {
    fn num(&mut self, key: &str, v: f64) {
        let v = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".into()
        };
        self.0.push((key.into(), v));
    }
    fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.into(), v.to_string()));
    }
    fn raw(&mut self, key: &str, json: String) {
        self.0.push((key.into(), json));
    }
    fn str(&mut self, key: &str, v: &str) {
        self.0
            .push((key.into(), format!("\"{}\"", serde_json::escape_str(v))));
    }
    fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", serde_json::escape_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    sample: u64,
    store: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or("missing mode")?;
    let (mut workload, mut seed, mut sample, mut store) = (None, cells::DEFAULT_SEED, 0, None);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--sample" => sample = value()?.parse().map_err(|e| format!("--sample: {e}"))?,
            "--workers" => {
                steal::set_workers(value()?.parse().map_err(|e| format!("--workers: {e}"))?)
            }
            "--store" => store = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed,
        sample,
        store: store.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-store")),
    })
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn canonical_json(pairs: &[(String, String)]) -> String {
    let mut s = String::from("{");
    for (i, (stem, json)) in pairs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": \"{}\"",
            serde_json::escape_str(stem),
            serde_json::escape_str(json)
        );
    }
    s.push('}');
    s
}

fn checkpoint_config(store: &Path) -> CheckpointConfig {
    CheckpointConfig {
        root: store.to_path_buf(),
        // A snapshot after every executor chunk; the time trigger never
        // fires, so the store's contents are a function of the study.
        interval_items: 8,
        interval_seconds: 1e9,
        ..CheckpointConfig::default()
    }
}

const FRESH_ID: &str = "fresh";
const STOPPED_ID: &str = "stopped";

/// The committed aggregates of a completed study, in cell order.
fn read_aggregates(
    store: &Path,
    id: &str,
    report: &StudyReport,
) -> Result<Vec<(String, String)>, String> {
    report
        .results
        .iter()
        .map(|(stem, result)| {
            result.as_ref().map_err(|e| format!("cell {stem}: {e}"))?;
            let path = store
                .join(id)
                .join("aggregate")
                .join(format!("{stem}.json"));
            std::fs::read_to_string(&path)
                .map(|s| (stem.clone(), s))
                .map_err(|e| format!("read {}: {e}", path.display()))
        })
        .collect()
}

fn complete(outcome: StudyOutcome) -> Result<StudyReport, String> {
    match outcome {
        StudyOutcome::Complete(r) => Ok(r),
        StudyOutcome::Stopped { completed, total } => {
            Err(format!("study stopped at {completed}/{total} items"))
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Time `parse_manifest` and `parse_checkpoint` over a study's store.
fn parse_store(dir: &Path) -> Result<f64, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("ckpt-"))
        })
        .collect();
    files.sort();
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).map_err(|e| e.to_string())?;
    let snapshots: Vec<String> = files
        .iter()
        .map(std::fs::read_to_string)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    parse_manifest(&manifest).map_err(|e| e.to_string())?;
    for s in &snapshots {
        parse_checkpoint(s).map_err(|e| e.to_string())?;
    }
    Ok(t.elapsed().as_secs_f64())
}

fn layers_json(l: &Layers) -> String {
    let mut o = Out::default();
    o.num("traces.gen_s", l.traces_gen_s);
    o.int("traces.sets", l.traces_sets);
    o.int("traces.failures", l.traces_failures);
    o.num("dist.build_s", l.dist_build_s);
    o.num("policies.build_s", l.policies_build_s);
    o.num("policies.decide_s", l.decide_s);
    o.num("policies.dp_decide_s", l.dp_decide_s);
    o.num("policies.dp_decide_us_p50", l.dp_decide_us(0.5));
    o.num("policies.dp_decide_us_p99", l.dp_decide_us(0.99));
    o.int("policies.decisions", l.decisions);
    o.int("dp.solves", l.dp_plan_misses);
    o.num(
        "dp.plan_hit_ratio",
        ratio(l.dp_plan_hits, l.dp_plan_hits + l.dp_plan_misses),
    );
    o.num(
        "dp.row_hit_ratio",
        ratio(l.dp_row_hits, l.dp_row_hits + l.dp_row_misses),
    );
    o.int("dp.plan_entries", l.dp_plan_entries);
    o.int("dp.row_entries", l.dp_row_entries);
    o.int("sim.runs", l.sim_runs);
    o.int("sim.decisions", l.sim_decisions);
    o.int("sim.failures", l.sim_failures);
    o.num("sim.self_s", l.sim_self_s);
    o.num("sim.lower_bound_s", l.sim_lower_bound_s);
    o.int("plan.candidate_sims", l.candidate_sims);
    o.num(
        "plan.candidate_sims_per_trace",
        ratio(l.candidate_sims, l.traces),
    );
    o.num("plan.candidate_s", l.candidate_s);
    o.int("exec.tasks", l.exec_tasks);
    o.int("exec.waves", l.exec_waves);
    o.num("exec.busy_s", l.exec_busy_s);
    o.num("exec.critical_path_s", l.exec_critical_path_s);
    o.num("exec.idle_s", l.exec_idle_s);
    o.int("exec.steals", l.exec_steals);
    o.int("exec.failed_probes", l.exec_failed_probes);
    o.num("exec.claim_ratio", l.claim_ratio());
    o.num("reduce.s", l.reduce_s);
    o.num("timer_floor_s", l.timer_floor_s);
    o.render()
}

fn run(args: &Args, started: Instant) -> Result<Out, String> {
    let cells: Vec<Cell> = cells::cells(args.workload, args.seed, args.sample);
    for (_, sc, _, _) in &cells {
        sc.dist
            .try_build()
            .map_err(|e| format!("cell {}: {e}", sc.label))?;
    }
    let traces: usize = cells.iter().map(|(_, sc, _, _)| sc.traces).sum();
    let config = checkpoint_config(&args.store);
    let def = cells::study_def(
        if args.mode == "study-fresh" {
            FRESH_ID
        } else {
            STOPPED_ID
        },
        &cells,
    );
    let study_mode = args.mode.starts_with("study-");
    if study_mode {
        build_manifest(&def, &config);
        std::fs::create_dir_all(&args.store)
            .map_err(|e| format!("create {}: {e}", args.store.display()))?;
    }

    let mut out = Out::default();
    let setup_s = started.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut canonical: Vec<(String, String)> = Vec::new();
    match args.mode.as_str() {
        "cell" => {
            for (stem, sc, kinds, opts) in &cells {
                canonical.push((stem.clone(), golden_json(&run_scenario(sc, kinds, opts))));
            }
        }
        "traced" => {
            let mut layers = Layers::default();
            for (stem, sc, kinds, opts) in &cells {
                let r =
                    traced::run_traced(sc, kinds, opts, &mut layers).map_err(|e| e.to_string())?;
                canonical.push((stem.clone(), golden_json(&r)));
            }
            // The bracket a layer with no calls reads: the timer's own cost.
            let floor = Instant::now();
            layers.timer_floor_s = floor.elapsed().as_secs_f64();
            out.raw("layers", layers_json(&layers));
        }
        "study-memory" => {
            for (stem, sc, kinds, opts) in &cells {
                let study = Study::new()
                    .with_kinds(kinds.clone())
                    .with_options(opts.clone());
                let r = study
                    .run_all(std::slice::from_ref(sc))
                    .pop()
                    .ok_or("no result")?;
                canonical.push((stem.clone(), golden_json(&r.map_err(|e| e.to_string())?)));
            }
        }
        "study-fresh" | "study-resume" => {
            let resume = args.mode == "study-resume";
            let report = complete(run_study(&def, &config, resume).map_err(|e| e.to_string())?)?;
            canonical = read_aggregates(&args.store, &def.id, &report)?;
            out.int("items_total", report.items_total);
            out.int("items_resumed", report.items_resumed);
            out.int("items_executed", report.items_executed);
            out.int("snapshots", report.checkpoints_written);
        }
        "study-stop" => {
            let total = build_manifest(&def, &config).items.len() as u64;
            let stop = CheckpointConfig {
                stop_after_items: Some(total / 2),
                ..config.clone()
            };
            match run_study(&def, &stop, false).map_err(|e| e.to_string())? {
                StudyOutcome::Stopped { completed, total } => {
                    out.int("items_completed", completed);
                    out.int("items_total", total);
                }
                StudyOutcome::Complete(_) => return Err("stop hook did not fire".into()),
            }
        }
        other => return Err(format!("unknown mode {other}")),
    }
    let wall_s = t.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();

    // After the timed call, so the figures above do not include it.
    if args.mode == "study-fresh" {
        let dir = args.store.join(FRESH_ID);
        out.int("store_bytes", dir_bytes(&dir));
        out.num("parse_s", parse_store(&dir)?);
        let t = Instant::now();
        let reloaded = complete(run_study(&def, &config, true).map_err(|e| e.to_string())?)?;
        out.num("resume_load_s", t.elapsed().as_secs_f64());
        // run.py's output gate expects 0.
        out.int("reloaded_items_executed", reloaded.items_executed);
    }

    out.str("mode", &args.mode);
    out.int("seed", args.seed);
    out.int("sample", args.sample);
    out.int("workers", steal::workers() as u64);
    out.int("lanes", ckpt_math::simd::LANES as u64);
    out.int("traces", traces as u64);
    out.num("setup_s", setup_s);
    out.num("wall_s", wall_s);
    out.num("rss_mb", rss_mb);
    out.raw("canonical", canonical_json(&canonical));
    Ok(out)
}

fn main() {
    let started = Instant::now();
    let result = parse_args().and_then(|args| run(&args, started));
    match result {
        Ok(out) => println!("{}", out.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
