//! The benchmark's workloads as scenario cells, derived from a seed.
//!
//! The seed and the sample index suffix every scenario label, and the
//! label is the trace seed root, so another seed, or another sample of
//! the same run, gives other traces for the same cell. Sample 0 of
//! [`DEFAULT_SEED`] leaves the labels alone and reproduces the ROADMAP
//! bench cell and the committed golden cells exactly.

use ckpt_exp::checkpoint::StudyDef;
use ckpt_exp::golden::golden_cells;
use ckpt_exp::{DistSpec, PolicyKind, RunnerOptions, Scenario};

/// The seed whose cells carry their unsuffixed labels.
pub const DEFAULT_SEED: u64 = 0;

/// Traces in the `peta-weibull` cell (the ROADMAP bench cell).
pub const PETA_TRACES: usize = 24;
/// Traces in the `lanl-log` cell.
pub const LANL_TRACES: usize = 6;

const YEAR: f64 = 365.25 * 86_400.0;

/// One cell: aggregate stem, scenario, roster and runner options.
pub type Cell = (String, Scenario, Vec<PolicyKind>, RunnerOptions);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PetaWeibull,
    LanlLog,
    StudyGolden,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "peta-weibull" => Some(Self::PetaWeibull),
            "lanl-log" => Some(Self::LanlLog),
            "study-golden" => Some(Self::StudyGolden),
            _ => None,
        }
    }
}

/// `label` as seeded by `seed` for sample `sample` of a run.
pub fn seeded(label: &str, seed: u64, sample: u64) -> String {
    if seed == DEFAULT_SEED && sample == 0 {
        label.to_string()
    } else {
        format!("{label}-s{seed}-{sample}")
    }
}

/// The workload's cells for `seed` and `sample`, in run order.
pub fn cells(workload: Workload, seed: u64, sample: u64) -> Vec<Cell> {
    let mut cells = match workload {
        Workload::PetaWeibull => {
            let sc = Scenario::petascale(
                DistSpec::Weibull {
                    shape: 0.7,
                    mtbf: 125.0 * YEAR,
                },
                1 << 12,
                PETA_TRACES,
            );
            vec![(
                sc.label.clone(),
                sc,
                PolicyKind::paper_roster(false),
                RunnerOptions::default_with_paper_grid(),
            )]
        }
        Workload::LanlLog => {
            let sc = Scenario::petascale(DistSpec::LanlLog { cluster: 19 }, 1 << 12, LANL_TRACES);
            vec![(
                sc.label.clone(),
                sc,
                PolicyKind::log_based_roster(),
                RunnerOptions::default_with_paper_grid(),
            )]
        }
        Workload::StudyGolden => {
            // The heavy Petascale cell goes last, so the half of the items
            // a resume re-executes holds most of the study's work.
            let mut cells = golden_cells();
            cells.rotate_left(1);
            cells
        }
    };
    for (stem, sc, _, _) in &mut cells {
        sc.label = seeded(&sc.label, seed, sample);
        *stem = seeded(stem, seed, sample);
    }
    cells
}

/// The cells as a durable study named `id`.
pub fn study_def(id: &str, cells: &[Cell]) -> StudyDef {
    StudyDef::new(
        id,
        cells
            .iter()
            .map(|(_, sc, k, o)| (sc.clone(), k.clone(), o.clone())),
    )
}
