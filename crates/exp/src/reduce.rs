//! Reduction layer: fold executor output into a [`ScenarioResult`].
//!
//! Implements the paper's §4.1 *average makespan degradation*: for each
//! trace `i`, `v(i,j) = res(i,j) / min_{j'} res(i,j')` where the minimum
//! runs over every heuristic (including `PeriodLB`, excluding the
//! omniscient `LowerBound`), averaged over traces. Traces where no
//! policy produced a makespan are excluded; if that leaves nothing,
//! every row reports an error instead of panicking.
//!
//! This layer is pure arithmetic over [`ExecOutput`] — no simulation,
//! no I/O — so its cost shows up as the `aggregate` perf stage and its
//! output is a deterministic function of the executor's (already
//! worker-count-independent) results. In-memory runs and durable
//! studies reach it the same way: through [`crate::runner::run_cell`].

use crate::exec::{ExecOutput, PolicyCell};
use crate::perf::PipelinePerf;
use crate::plan::SimPlan;
use crate::runner::{PolicyOutcome, ScenarioResult};
use crate::scenario::Scenario;
use ckpt_math::Summary;
use std::time::Instant;

fn no_baseline() -> String {
    "no policy produced a makespan on any trace (degradation undefined)".to_string()
}

/// Degradation + makespan summary over `(makespan, best)` sample pairs.
fn degradation_row(
    name: &str,
    samples: &[(f64, f64)],
    period_factor: Option<f64>,
) -> PolicyOutcome {
    let degr: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let mks: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let s = Summary::from_samples(&degr);
    PolicyOutcome {
        name: name.to_string(),
        avg_degradation: Some(s.mean()),
        std_degradation: Some(s.std_dev()),
        mean_makespan: Some(Summary::from_samples(&mks).mean()),
        mean_failures: None,
        max_failures: None,
        chunk_range: None,
        period_factor,
        error: None,
    }
}

/// Aggregate executor output into the scenario's result rows. Pushes
/// the `aggregate` perf stage; the caller stamps `total_seconds`.
pub fn reduce(
    scenario: &Scenario,
    sim_plan: &SimPlan,
    out: &ExecOutput,
    perf: &mut PipelinePerf,
) -> ScenarioResult {
    // lint: allow(transitive-nondeterminism) — stage timer feeds PipelinePerf only, never result rows
    let t_stage = Instant::now();
    let stage_span = ckpt_obs::span("stage.aggregate");

    // Per-trace best heuristic (incl. PeriodLB, excl. LowerBound).
    let trace_best: Vec<Option<f64>> = (0..sim_plan.traces)
        .map(|i| {
            let mut best = f64::INFINITY;
            for cells in &out.cells {
                if let Some(c) = &cells[i] {
                    best = best.min(c.makespan);
                }
            }
            if let Some(s) = &out.search {
                best = best.min(s.column[i]);
            }
            best.is_finite().then_some(best)
        })
        .collect();

    let mut outcomes = Vec::new();
    if let Some(lower_bounds) = &out.lower_bounds {
        let samples: Vec<(f64, f64)> = lower_bounds
            .iter()
            .zip(&trace_best)
            .filter_map(|(&lb, b)| b.map(|b| (lb, lb / b)))
            .collect();
        if samples.is_empty() {
            outcomes.push(PolicyOutcome::absent("LowerBound", no_baseline()));
        } else {
            outcomes.push(degradation_row("LowerBound", &samples, None));
        }
    }
    let period_lb_factor = out.search.as_ref().map(|s| s.factor);
    if let Some(sr) = &out.search {
        let samples: Vec<(f64, f64)> = sr
            .column
            .iter()
            .zip(&trace_best)
            .filter_map(|(&m, b)| b.map(|b| (m, m / b)))
            .collect();
        if samples.is_empty() {
            outcomes.push(PolicyOutcome::absent("PeriodLB", no_baseline()));
        } else {
            outcomes.push(degradation_row("PeriodLB", &samples, Some(sr.factor)));
        }
    }
    for (j, name) in sim_plan.policy_names.iter().enumerate() {
        match &out.policy_build[j] {
            Ok(()) => {
                let per_trace: Vec<PolicyCell> =
                    out.cells[j].iter().flatten().copied().collect();
                let samples: Vec<(f64, f64)> = out.cells[j]
                    .iter()
                    .zip(&trace_best)
                    .filter_map(|(c, b)| match (c, b) {
                        (Some(c), Some(b)) => Some((c.makespan, c.makespan / b)),
                        _ => None,
                    })
                    .collect();
                if samples.is_empty() {
                    outcomes.push(PolicyOutcome::absent(name, no_baseline()));
                    continue;
                }
                let fails: Vec<f64> = per_trace.iter().map(|c| c.failures as f64).collect();
                let cmin = per_trace.iter().map(|c| c.chunk_min).fold(f64::INFINITY, f64::min);
                let cmax = per_trace.iter().map(|c| c.chunk_max).fold(0.0f64, f64::max);
                let mut row = degradation_row(name, &samples, None);
                row.mean_failures = Some(Summary::from_samples(&fails).mean());
                row.max_failures = per_trace.iter().map(|c| c.failures).max();
                row.chunk_range = Some((cmin, cmax));
                outcomes.push(row);
            }
            Err(e) => outcomes.push(PolicyOutcome::absent(name, e.to_string())),
        }
    }
    drop(stage_span);
    perf.push_stage("aggregate", t_stage, outcomes.len() as u64);

    ScenarioResult {
        label: scenario.label.clone(),
        procs: scenario.procs,
        traces: sim_plan.traces,
        outcomes,
        period_lb_factor,
        perf: PipelinePerf::default(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::exec::SearchOutput;
    use crate::plan::plan_scenario;
    use crate::runner::RunnerOptions;
    use crate::scenario::DistSpec;

    fn cell(makespan: f64) -> Option<PolicyCell> {
        Some(PolicyCell { makespan, failures: 1, chunk_min: 10.0, chunk_max: 20.0 })
    }

    #[test]
    fn reduce_is_pure_arithmetic_over_exec_output() {
        let sc = Scenario::single_processor(
            DistSpec::Exponential { mtbf: 6.0 * 3_600.0 },
            2,
        );
        let sim_plan = plan_scenario(
            &sc,
            &[crate::policies_spec::PolicyKind::Young],
            &RunnerOptions {
                period_lb: Some(vec![1.0]),
                ..RunnerOptions::default()
            },
        );
        let out = ExecOutput {
            policy_build: vec![Ok(())],
            cells: vec![vec![cell(100.0), cell(200.0)]],
            lower_bounds: Some(vec![50.0, 100.0]),
            search: Some(SearchOutput { factor: 1.0, column: vec![110.0, 180.0] }),
        };
        let mut perf = PipelinePerf::default();
        let r = reduce(&sc, &sim_plan, &out, &mut perf);
        // Rows in report order: LowerBound, PeriodLB, Young.
        let names: Vec<&str> = r.outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["LowerBound", "PeriodLB", "Young"]);
        // Best per trace: min(100, 110) = 100 and min(200, 180) = 180.
        let lb = &r.outcomes[0];
        assert!((lb.avg_degradation.unwrap() - (0.5 / 2.0 + (100.0 / 180.0) / 2.0)).abs() < 1e-12);
        let young = &r.outcomes[2];
        assert_eq!(young.mean_failures, Some(1.0));
        assert_eq!(young.max_failures, Some(1));
        assert_eq!(young.chunk_range, Some((10.0, 20.0)));
        assert_eq!(r.period_lb_factor, Some(1.0));
        assert_eq!(perf.stages.len(), 1);
        assert_eq!(perf.stages[0].name, "aggregate");
    }

    #[test]
    fn all_absent_rows_degrade_gracefully() {
        let sc = Scenario::single_processor(
            DistSpec::Exponential { mtbf: 6.0 * 3_600.0 },
            2,
        );
        let sim_plan = plan_scenario(
            &sc,
            &[crate::policies_spec::PolicyKind::Liu],
            &RunnerOptions { period_lb: None, ..RunnerOptions::default() },
        );
        let out = ExecOutput {
            policy_build: vec![Err(crate::error::Error::Policy {
                name: "Liu".into(),
                reason: "Liu requires a Weibull (or Exponential) fit".into(),
            })],
            cells: vec![vec![None, None]],
            lower_bounds: Some(vec![50.0, 100.0]),
            search: None,
        };
        let mut perf = PipelinePerf::default();
        let r = reduce(&sc, &sim_plan, &out, &mut perf);
        assert_eq!(r.outcomes.len(), 2);
        assert!(r.outcomes[0].error.as_deref().unwrap().contains("degradation undefined"));
        assert_eq!(
            r.outcomes[1].error.as_deref(),
            Some("Liu requires a Weibull (or Exponential) fit")
        );
    }
}
