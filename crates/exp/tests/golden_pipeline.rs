//! Golden-result pinning: the plan → execute → reduce pipeline must
//! reproduce the committed `results/golden/*.json` files **byte for
//! byte**, at any worker count of the work-stealing executor.
//!
//! The files were generated from the pre-refactor monolithic runner
//! (via the `gen_golden` bin), so this test is the refactor's
//! bit-identity contract: same seeds, same simulations, same reduction
//! order, same shortest-roundtrip float serialisation. If a change is
//! *supposed* to move the numbers, regenerate with
//! `cargo run --release -p ckpt-exp --bin gen_golden` and commit the
//! diff; anything else that trips this test is a regression.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::golden::{golden_cells, golden_json};
use ckpt_exp::runner::run_scenario;
use ckpt_exp::steal::set_workers;
use std::path::PathBuf;
use std::sync::Mutex;

/// The worker count is process-global: the legs of this binary take
/// turns.
static WORKERS: Mutex<()> = Mutex::new(());

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden")
}

/// Run every golden cell at `workers` workers and byte-compare; each
/// cell must report having run at exactly that count.
fn check_all_cells(workers: usize) {
    let _serial = WORKERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_workers(workers);
    for (stem, scenario, kinds, options) in golden_cells() {
        let path = golden_dir().join(format!("{stem}.json"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let result = run_scenario(&scenario, &kinds, &options);
        assert_eq!(
            result.perf.exec.map(|e| e.workers),
            Some(workers as u64),
            "{stem} ran at another worker count"
        );
        assert_eq!(
            golden_json(&result),
            expected,
            "pipeline output diverged from {} — bit-identity broken",
            path.display()
        );
    }
    set_workers(0);
}

#[test]
fn pipeline_reproduces_golden_results_one_worker() {
    check_all_cells(1);
}

#[test]
fn pipeline_reproduces_golden_results_eight_workers() {
    check_all_cells(8);
}
