//! Kill-safe resume pinning: a study stopped mid-wave (the
//! `stop_after_items` hook emulates a SIGKILL landing *between*
//! checkpoints — the last slice's results are lost, the store is left
//! exactly as the last snapshot wrote it) and then resumed must commit
//! aggregates **byte-identical** to an uninterrupted run of the same
//! definition — at 1 and at 8 workers, with the interruption landing
//! early (roster wave), after the coarse wave (the refine wave plans
//! its window from coarse results read back from disk) and inside the
//! refine wave.
//!
//! Also pins the store's refusals and its completeness: a stale manifest
//! fingerprint and a store of another version are rejected, never
//! silently reused, and a complete store — unbuildable policy and
//! unbuildable distribution included — resumes without executing a
//! task.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::checkpoint::{
    build_manifest, run_study, CheckpointConfig, StudyDef, StudyOutcome, StudyReport,
};
use ckpt_exp::steal::set_workers;
use ckpt_exp::{DistSpec, PeriodSearch, PolicyKind, RunnerOptions, Scenario};
use ckpt_sim::SimOptions;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The worker count is process-global: the legs of this binary take
/// turns.
static WORKERS: Mutex<()> = Mutex::new(());

/// Run `f` at `workers` workers, serialised with every other leg.
fn at_workers(workers: usize, f: impl FnOnce()) {
    let _serial = WORKERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_workers(workers);
    f();
    set_workers(0);
}

/// Two cells: an exhaustive-search cell and a coarse-to-fine cell whose
/// refine wave depends on its coarse results — the two shapes a kill
/// can split. Eight traces, so every wave can occupy eight workers.
fn two_cell_def(id: &str) -> StudyDef {
    let mut a = Scenario::single_processor(DistSpec::Exponential { mtbf: 6.0 * 3_600.0 }, 8);
    a.total_work = 12.0 * 3_600.0;
    let full = RunnerOptions {
        lower_bound: true,
        period_lb: Some(vec![0.5, 1.0, 2.0]),
        period_search: PeriodSearch::Full,
        sim: SimOptions::default(),
    };

    let mut b = Scenario::single_processor(DistSpec::Exponential { mtbf: 3.0 * 3_600.0 }, 8);
    b.total_work = 12.0 * 3_600.0;
    let coarse_fine = RunnerOptions {
        lower_bound: true,
        // 25 factors in [0.4, 2.8]: big enough that CoarseToFine keeps a
        // refine wave (grid_len > min_full) instead of degrading to Full.
        period_lb: Some((1..=25).map(|i| 0.3 + 0.1 * f64::from(i)).collect()),
        period_search: PeriodSearch::CoarseToFine { coarse_step: 4, min_full: 8 },
        sim: SimOptions::default(),
    };

    StudyDef::new(
        id,
        [
            (a, vec![PolicyKind::Young, PolicyKind::OptExp], full),
            (b, vec![PolicyKind::Young, PolicyKind::OptExp], coarse_fine),
        ],
    )
}

fn store_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir()
        .join(format!("ckpt-study-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn config(root: &Path) -> CheckpointConfig {
    CheckpointConfig {
        root: root.to_path_buf(),
        // Slices of 8 tasks and a snapshot after every slice, so the
        // emulated kill always has a recent checkpoint to fall back to…
        interval_items: 8,
        // …and the time trigger never fires (kept deterministic).
        interval_seconds: 1e9,
        ..CheckpointConfig::default()
    }
}

fn read_aggregates(root: &Path, id: &str, def: &StudyDef) -> Vec<(String, String)> {
    def.cells
        .iter()
        .map(|cell| {
            let path = root.join(id).join("aggregate").join(format!("{}.json", cell.stem));
            let bytes = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            (cell.stem.clone(), bytes)
        })
        .collect()
}

fn complete(outcome: StudyOutcome) -> StudyReport {
    match outcome {
        StudyOutcome::Complete(report) => report,
        StudyOutcome::Stopped { completed, total } => {
            panic!("no stop hook configured, yet stopped at {completed}/{total}")
        }
    }
}

/// An uninterrupted run of `def` under `root`. Every cell that built
/// must report having run at exactly `workers` workers.
fn uninterrupted(root: &Path, def: &StudyDef, workers: usize) -> StudyReport {
    let report = complete(run_study(def, &config(root), false).expect("uninterrupted run"));
    for (stem, result) in &report.results {
        if let Ok(r) = result {
            assert_eq!(
                r.perf.exec.map(|e| e.workers),
                Some(workers as u64),
                "cell {stem} ran at another worker count"
            );
        }
    }
    report
}

/// Stop a run after `stop(total)` executed tasks — `total` the
/// manifest's task count — resume it, and require the committed
/// aggregates to match an uninterrupted run byte for byte. Returns
/// `(total, tasks the resume restored)`.
fn check_kill_and_resume(tag: &str, workers: usize, stop: impl Fn(u64) -> u64) -> (u64, u64) {
    let root = store_root(&format!("{tag}-w{workers}"));
    let clean_def = two_cell_def("uninterrupted");
    let clean = uninterrupted(&root, &clean_def, workers);
    let total = clean.items_total;
    let all = clean.items_executed;
    assert!(all > total + 16, "the refine wave spans several slices ({all} vs {total})");

    let interrupted = two_cell_def("interrupted");
    let stop = stop(total);
    assert!(stop < all, "stop hook must land mid-study ({stop} < {all})");
    let stop_cfg = CheckpointConfig { stop_after_items: Some(stop), ..config(&root) };
    assert_eq!(build_manifest(&interrupted, &stop_cfg).items.len() as u64, total);
    match run_study(&interrupted, &stop_cfg, false).expect("interrupted run starts") {
        StudyOutcome::Stopped { completed, total: t } => {
            assert!(completed >= stop, "stop fires only after `stop` tasks");
            assert_eq!(t, total);
        }
        StudyOutcome::Complete(_) => panic!("stop hook must fire before completion"),
    }
    // A stopped run commits nothing: no aggregates until the resume.
    assert!(
        !root.join("interrupted/aggregate").exists(),
        "aggregates must only exist after completion"
    );

    let report = complete(run_study(&interrupted, &config(&root), true).expect("resume runs"));
    assert!(report.items_resumed > 0, "resume must restore snapshot tasks");
    assert!(report.items_executed > 0, "the last pre-kill slice was never snapshotted");
    assert_eq!(
        report.items_resumed + report.items_executed,
        all,
        "resume replays exactly the non-snapshotted tasks"
    );
    for (stem, result) in &report.results {
        assert!(result.is_ok(), "cell {stem} failed: {result:?}");
    }

    let resumed = read_aggregates(&root, "interrupted", &interrupted);
    let clean = read_aggregates(&root, "uninterrupted", &clean_def);
    for ((stem_a, bytes_a), (stem_b, bytes_b)) in resumed.iter().zip(&clean) {
        assert_eq!(stem_a, stem_b);
        assert_eq!(
            bytes_a, bytes_b,
            "killed-and-resumed aggregate {stem_a} diverged from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    (total, report.items_resumed)
}

/// The stop lands on the second slice of the first roster wave: only
/// the first slice is in the snapshot.
fn check_mid_wave(workers: usize) {
    let (_, resumed) = check_kill_and_resume("mid", workers, |_| 16);
    assert_eq!(resumed, 8);
}

#[test]
fn kill_mid_wave_then_resume_is_bit_identical_one_worker() {
    at_workers(1, || check_mid_wave(1));
}

#[test]
fn kill_mid_wave_then_resume_is_bit_identical_eight_workers() {
    at_workers(8, || check_mid_wave(8));
}

/// The stop lands on the last coarse slice of the last cell: the whole
/// refine wave runs in the resume process, planned from coarse results
/// that crossed a process boundary.
#[test]
fn stop_after_the_coarse_wave_resumes_coarse_results_from_disk() {
    for workers in [1, 8] {
        at_workers(workers, || {
            let (total, resumed) = check_kill_and_resume("coarse", workers, |total| total);
            assert_eq!(resumed, total - 8, "all but the last coarse slice");
        });
    }
}

/// The stop lands two slices into the refine wave: the first refine
/// slice is in the snapshot, the second is lost, the rest never ran.
#[test]
fn stop_inside_the_refine_wave_resumes_bit_identical() {
    for workers in [1, 8] {
        at_workers(workers, || {
            let (total, resumed) = check_kill_and_resume("refine", workers, |total| total + 16);
            assert_eq!(resumed, total + 8, "every manifest task and one refine slice");
        });
    }
}

/// A complete store resumes without executing a task, even where the
/// study holds a policy that cannot be built (Liu's footnote-2 gap) and
/// a cell whose distribution cannot be built.
#[test]
fn complete_store_with_unbuildable_cells_resumes_with_zero_tasks() {
    for workers in [1, 8] {
        at_workers(workers, || {
            let root = store_root(&format!("complete-w{workers}"));
            let year = 365.25 * 86_400.0;
            let liu_gap = Scenario::petascale(
                DistSpec::Weibull { shape: 0.3, mtbf: 125.0 * year },
                4_096,
                4,
            );
            let mut no_dist = liu_gap.clone();
            no_dist.dist = DistSpec::LanlLog { cluster: 99 };
            no_dist.label = "unmodelled-cluster".into();
            let options = RunnerOptions { period_lb: None, ..RunnerOptions::default() };
            let def = StudyDef::new(
                "complete",
                [
                    (liu_gap, vec![PolicyKind::Liu, PolicyKind::Young], options.clone()),
                    (no_dist, vec![PolicyKind::Young], options),
                ],
            );
            let fresh = uninterrupted(&root, &def, workers);
            let liu = fresh.results[0].1.as_ref().expect("liu-gap cell runs");
            assert!(liu.get("Liu").expect("row").error.is_some(), "Liu cannot build here");
            assert!(fresh.results[1].1.is_err(), "cluster 99 is unmodelled");
            let agg = root.join("complete/aggregate").join(format!("{}.json", def.cells[0].stem));
            let before = std::fs::read_to_string(&agg).expect("aggregate written");

            let again = complete(run_study(&def, &config(&root), true).expect("resume"));
            assert_eq!(again.items_executed, 0, "a complete store executes no task");
            assert_eq!(again.items_resumed, fresh.items_executed);
            assert!(again.results[1].1.is_err());
            assert_eq!(std::fs::read_to_string(&agg).expect("rewritten"), before);
            let _ = std::fs::remove_dir_all(&root);
        });
    }
}

/// A store written by the previous format (items spanning trace ranges,
/// per-item payloads) is refused by name, never read as the new format.
#[test]
fn version_one_store_is_rejected_with_a_clear_error() {
    for workers in [1, 8] {
        at_workers(workers, || {
            let root = store_root(&format!("v1-w{workers}"));
            let def = two_cell_def("v1");
            let dir = root.join("v1");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join("manifest.json"),
                "{\"version\": 1, \"study\": \"v1\", \"fingerprint\": \"00\", \"lanes\": 4, \
                 \"golden_hash\": \"00\", \"cells\": [], \"items\": \
                 [{\"id\": 0, \"cell\": 0, \"kind\": \"policy\", \"index\": 0, \
                 \"trace_lo\": 0, \"trace_hi\": 4}]}\n",
            )
            .unwrap();
            std::fs::write(
                dir.join("ckpt-000000.json"),
                "{\"version\": 1, \"study\": \"v1\", \"fingerprint\": \"00\", \"seq\": 0, \
                 \"completed\": [{\"id\": 0, \"payload\": {\"kind\": \"coarse\", \
                 \"stats\": []}}]}\n",
            )
            .unwrap();
            let err = run_study(&def, &config(&root), true)
                .expect_err("a version-1 store must not resume");
            let msg = err.to_string();
            assert!(msg.contains("store version 1"), "{msg}");
            assert!(msg.contains("reads version 2"), "{msg}");
            let _ = std::fs::remove_dir_all(&root);
        });
    }
}

#[test]
fn stale_manifest_fingerprint_refuses_to_resume() {
    at_workers(0, || {
        let root = store_root("stale");
        let def = two_cell_def("stale");
        let stop_cfg = CheckpointConfig { stop_after_items: Some(8), ..config(&root) };
        match run_study(&def, &stop_cfg, false).expect("interrupted run starts") {
            StudyOutcome::Stopped { .. } => {}
            StudyOutcome::Complete(_) => panic!("stop hook must fire"),
        }

        // The same id now describes different work: the roster changed,
        // so the rebuilt fingerprint diverges from the persisted manifest.
        let mut altered = def;
        altered.cells[0].kinds.pop();
        let err = run_study(&altered, &config(&root), true)
            .expect_err("stale checkpoints must be rejected, not silently reused");
        let msg = err.to_string();
        assert!(msg.contains("refusing to resume"), "{msg}");
        assert!(msg.contains("fingerprint"), "{msg}");
        let _ = std::fs::remove_dir_all(&root);
    });
}
