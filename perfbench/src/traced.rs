//! The traced re-drive: one scenario through the pipeline's public entry
//! points, in pipeline order, with a timer around every call into a layer.
//!
//! `plan_scenario` → `TraceCache::get_or_generate` (trace wave) →
//! `build_policy` → `steal::run_wave` over `ckpt_sim::simulate` with each
//! `PolicySession` wrapped in [`TimedSession`] (roster wave, then the
//! coarse and refine `PeriodLB` candidate waves) → `reduce::reduce`.
//!
//! The candidate search repeats `exec::execute` step for step (fresh-index
//! filter, means summed in trace order, `plan::winner`), so the result's
//! `golden_json` must equal `run_scenario`'s byte for byte; the caller
//! checks that against an untraced process. Spans are kept only here,
//! around the calls; nothing inside the program records.

use ckpt_exp::exec::{ExecOutput, PolicyCell, SearchOutput};
use ckpt_exp::perf::PipelinePerf;
use ckpt_exp::plan::{self, SimPlan, SimTask};
use ckpt_exp::{
    plan_scenario, steal, Error, PolicyKind, RunnerOptions, Scenario, ScenarioResult, TraceCache,
};
use ckpt_platform::AgeView;
use ckpt_policies::{DpCaches, Policy, PolicySession};
use std::time::{Duration, Instant};

/// Per-layer accumulators of one or more traced scenario runs. Times are
/// seconds summed over every call (so over every worker); counts are
/// totals.
#[derive(Debug, Default)]
pub struct Layers {
    pub traces_gen_s: f64,
    pub traces_sets: u64,
    pub traces_failures: u64,
    pub dist_build_s: f64,
    pub policies_build_s: f64,
    pub decide_s: f64,
    pub dp_decide_s: f64,
    /// Latency of every DP session call, nanoseconds.
    pub dp_decide_ns: Vec<u64>,
    pub decisions: u64,
    pub dp_plan_hits: u64,
    pub dp_plan_misses: u64,
    pub dp_row_hits: u64,
    pub dp_row_misses: u64,
    pub dp_plan_entries: u64,
    pub dp_row_entries: u64,
    pub sim_runs: u64,
    pub sim_decisions: u64,
    pub sim_failures: u64,
    /// `simulate` wall minus the wrapped policy time inside it.
    pub sim_self_s: f64,
    pub sim_lower_bound_s: f64,
    pub candidate_sims: u64,
    /// Wall of the candidate tasks (engine plus the periodic policy).
    pub candidate_s: f64,
    pub traces: u64,
    pub exec_tasks: u64,
    pub exec_waves: u64,
    pub exec_busy_s: f64,
    pub exec_critical_path_s: f64,
    pub exec_idle_s: f64,
    pub exec_steals: u64,
    pub exec_failed_probes: u64,
    pub reduce_s: f64,
    /// An empty timed bracket: what a layer that makes no call reads.
    pub timer_floor_s: f64,
}

impl Layers {
    /// Fold the DP cache counters accumulated since `before`.
    fn absorb_dp_caches(&mut self, before: &ckpt_policies::DpCacheStats) {
        let d = DpCaches::global().stats().delta_since(before);
        self.dp_plan_hits += d.plans.hits;
        self.dp_plan_misses += d.plans.misses;
        self.dp_row_hits += d.kernel_rows.hits;
        self.dp_row_misses += d.kernel_rows.misses;
        self.dp_plan_entries = d.plans.entries;
        self.dp_row_entries = d.kernel_rows.entries;
    }

    /// Fold one wrapped simulation into the sim and policy layers.
    fn absorb_sim(&mut self, st: &ckpt_sim::RunStats, timing: SimTiming) {
        self.sim_runs += 1;
        self.sim_decisions += st.decisions;
        self.sim_failures += st.failures;
        self.sim_self_s += timing.task_s - timing.policy_s;
        self.decide_s += timing.policy_s;
        self.decisions += timing.calls;
        if let Some(ns) = timing.dp_ns {
            self.dp_decide_s += timing.policy_s;
            self.dp_decide_ns.extend(ns);
        }
    }

    /// Claims that found work, over all claim attempts.
    pub fn claim_ratio(&self) -> f64 {
        ratio(self.exec_tasks, self.exec_tasks + self.exec_failed_probes)
    }

    /// DP session latency percentile, microseconds (0 without DP calls).
    pub fn dp_decide_us(&self, q: f64) -> f64 {
        let mut v = self.dp_decide_ns.clone();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        let i = ((v.len() - 1) as f64 * q).round() as usize;
        v[i] as f64 / 1e3
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A `PolicySession` that times every call into the policy layer.
pub struct TimedSession<'a> {
    inner: Box<dyn PolicySession + 'a>,
    spent: Duration,
    calls: u64,
    /// Per-call latencies, kept only for the DP policies.
    latencies: Option<Vec<u64>>,
}

impl<'a> TimedSession<'a> {
    pub fn new(inner: Box<dyn PolicySession + 'a>, keep_latencies: bool) -> Self {
        Self {
            inner,
            spent: Duration::ZERO,
            calls: 0,
            latencies: keep_latencies.then(Vec::new),
        }
    }

    fn record(&mut self, d: Duration) {
        self.spent += d;
        if let Some(l) = &mut self.latencies {
            l.push(d.as_nanos() as u64);
        }
    }
}

impl PolicySession for TimedSession<'_> {
    fn next_chunk(&mut self, remaining: f64, ages: &AgeView, now: f64) -> f64 {
        let t = Instant::now();
        let chunk = self.inner.next_chunk(remaining, ages, now);
        self.calls += 1;
        self.record(t.elapsed());
        chunk
    }

    fn on_failure(&mut self) {
        let t = Instant::now();
        self.inner.on_failure();
        self.record(t.elapsed());
    }

    fn wants_ages(&self) -> bool {
        self.inner.wants_ages()
    }
}

/// What one simulation task measured.
struct SimTiming {
    task_s: f64,
    policy_s: f64,
    calls: u64,
    dp_ns: Option<Vec<u64>>,
}

/// One wrapped `ckpt_sim::simulate` call.
fn timed_simulate(
    scenario: &Scenario,
    policy: &dyn Policy,
    ct: &ckpt_exp::cache::CachedTrace,
    sim_plan: &SimPlan,
    is_dp: bool,
) -> (ckpt_sim::RunStats, SimTiming) {
    let spec = scenario.job_spec();
    let t = Instant::now();
    let mut session = TimedSession::new(policy.session(), is_dp);
    let st = ckpt_sim::simulate(
        &spec,
        &mut session,
        &ct.events,
        ct.procs_per_unit(),
        ct.traces.start_time,
        ct.traces.horizon,
        sim_plan.sim,
    );
    let timing = SimTiming {
        task_s: t.elapsed().as_secs_f64(),
        policy_s: session.spent.as_secs_f64(),
        calls: session.calls,
        dp_ns: session.latencies,
    };
    (st, timing)
}

/// Drain one wave through `steal::run_wave`, timing every task, and fold
/// the executor's occupancy into `layers`. `run` returns the task's
/// output and its wall seconds.
fn wave<T: Sync + Copy, R: Send, F>(
    tasks: &[T],
    layers: &mut Layers,
    is_heavy: impl Fn(&T) -> bool,
    run: F,
) -> Vec<R>
where
    F: Fn(T) -> (R, f64) + Sync,
{
    let t = Instant::now();
    let (out, stats) = steal::run_wave(tasks, steal::workers(), is_heavy, |_, &task| run(task));
    let wall = t.elapsed().as_secs_f64();
    let busy: f64 = out.iter().map(|(_, s)| s).sum();
    let longest = out.iter().map(|(_, s)| *s).fold(0.0, f64::max);
    layers.exec_tasks += stats.claims();
    layers.exec_waves += 1;
    layers.exec_busy_s += busy;
    layers.exec_critical_path_s += longest;
    layers.exec_idle_s += (stats.workers as f64 * wall - busy).max(0.0);
    layers.exec_steals += stats.steals;
    layers.exec_failed_probes += stats.failed_probes;
    out.into_iter().map(|(r, _)| r).collect()
}

fn is_dp(kind: &PolicyKind) -> bool {
    matches!(
        kind,
        PolicyKind::DpNextFailure(_) | PolicyKind::DpMakespan(_)
    )
}

enum RosterOut {
    Policy(Option<(ckpt_sim::RunStats, SimTiming)>),
    LowerBound(f64, f64),
}

/// Run one scenario through the traced pipeline. The result carries the
/// same deterministic counters `run_scenario` puts on its `perf`, so its
/// `golden_json` is comparable byte for byte.
///
/// # Errors
/// When the scenario's distribution cannot be built.
pub fn run_traced(
    scenario: &Scenario,
    kinds: &[PolicyKind],
    options: &RunnerOptions,
    layers: &mut Layers,
) -> Result<ScenarioResult, Error> {
    let caches_before = DpCaches::global().stats();
    let t = Instant::now();
    let built = scenario.dist.try_build()?;
    layers.dist_build_s += t.elapsed().as_secs_f64();
    let sim_plan = plan_scenario(scenario, kinds, options);
    let mut perf = PipelinePerf::default();

    // Trace wave.
    let trace_tasks: Vec<usize> = (0..sim_plan.traces).collect();
    let generated = wave(
        &trace_tasks,
        layers,
        |_| false,
        |trace| {
            let t = Instant::now();
            let ct = TraceCache::global().get_or_generate(scenario, &built, trace);
            let s = t.elapsed().as_secs_f64();
            ((ct, s), s)
        },
    );
    let mut cached = Vec::with_capacity(generated.len());
    for (ct, s) in generated {
        layers.traces_gen_s += s;
        layers.traces_sets += 1;
        layers.traces_failures += ct.events.len() as u64;
        cached.push(ct);
    }
    layers.traces += sim_plan.traces as u64;

    // Roster build.
    let t = Instant::now();
    let policies: Vec<Result<Box<dyn Policy>, Error>> = kinds
        .iter()
        .map(|k| ckpt_exp::build_policy(k, scenario, &built))
        .collect();
    layers.policies_build_s += t.elapsed().as_secs_f64();

    // Roster wave: policy sims plus lower bounds, DP sims first.
    let tasks = sim_plan.roster_wave();
    let outputs = wave(
        &tasks,
        layers,
        |task| matches!(task, SimTask::Policy { policy, .. } if is_dp(&sim_plan.kinds[*policy])),
        |task| match task {
            SimTask::Policy { policy, trace } => match &policies[policy] {
                Ok(p) => {
                    let (st, timing) = timed_simulate(
                        scenario,
                        p.as_ref(),
                        &cached[trace],
                        &sim_plan,
                        is_dp(&sim_plan.kinds[policy]),
                    );
                    let s = timing.task_s;
                    (RosterOut::Policy(Some((st, timing))), s)
                }
                Err(_) => (RosterOut::Policy(None), 0.0),
            },
            SimTask::LowerBound { trace } => {
                let t = Instant::now();
                let lb =
                    ckpt_sim::lower_bound_makespan(&scenario.job_spec(), &cached[trace].traces);
                let s = t.elapsed().as_secs_f64();
                (RosterOut::LowerBound(lb.makespan, s), s)
            }
            SimTask::Candidate { .. } => unreachable!("candidates run in the search waves"),
        },
    );
    let mut cells: Vec<Vec<Option<PolicyCell>>> = vec![vec![None; sim_plan.traces]; kinds.len()];
    let mut lower_bounds = sim_plan.lower_bound.then(|| vec![0.0f64; sim_plan.traces]);
    for (task, out) in tasks.iter().zip(outputs) {
        match (task, out) {
            (SimTask::Policy { policy, trace }, RosterOut::Policy(Some((st, timing)))) => {
                cells[*policy][*trace] = Some(PolicyCell {
                    makespan: st.makespan,
                    failures: st.failures,
                    chunk_min: st.chunk_min,
                    chunk_max: st.chunk_max,
                });
                perf.decisions += st.decisions;
                perf.failures += st.failures;
                layers.absorb_sim(&st, timing);
            }
            (SimTask::Policy { .. }, RosterOut::Policy(None)) => {}
            (SimTask::LowerBound { trace }, RosterOut::LowerBound(makespan, s)) => {
                if let Some(lb) = &mut lower_bounds {
                    lb[*trace] = makespan;
                }
                layers.sim_lower_bound_s += s;
            }
            _ => unreachable!("wave outputs align with their tasks"),
        }
    }
    let built_policies = policies.iter().filter(|p| p.is_ok()).count() as u64;
    perf.policy_sims = built_policies * sim_plan.traces as u64;

    // PeriodLB candidate waves: coarse, then the refine window.
    let search = search(scenario, &built, &sim_plan, &cached, &mut perf, layers);

    let out = ExecOutput {
        policy_build: policies.into_iter().map(|r| r.map(|_| ())).collect(),
        cells,
        lower_bounds,
        search,
    };
    let t = Instant::now();
    let mut result = ckpt_exp::reduce::reduce(scenario, &sim_plan, &out, &mut perf);
    layers.reduce_s += t.elapsed().as_secs_f64();
    result.perf = perf;
    layers.absorb_dp_caches(&caches_before);
    Ok(result)
}

/// The `PeriodLB` candidate waves, step for step as `exec::execute` runs
/// them: the coarse indices, the incumbent, the refine window's fresh
/// indices, and the winner by mean makespan.
fn search(
    scenario: &Scenario,
    built: &ckpt_exp::scenario::BuiltDist,
    sim_plan: &SimPlan,
    cached: &[std::sync::Arc<ckpt_exp::cache::CachedTrace>],
    perf: &mut PipelinePerf,
    layers: &mut Layers,
) -> Option<SearchOutput> {
    if sim_plan.grid.is_empty() {
        return None;
    }
    perf.candidate_grid_size = sim_plan.grid.len() as u64;
    let base = ckpt_exp::registry::optexp_base(&scenario.job_spec(), built.proc_mtbf);
    let mut columns: Vec<Option<(Vec<f64>, f64)>> = vec![None; sim_plan.grid.len()];
    let evaluate = |indices: &[usize],
                    columns: &mut Vec<Option<(Vec<f64>, f64)>>,
                    perf: &mut PipelinePerf,
                    layers: &mut Layers| {
        let fresh: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| columns[i].is_none())
            .collect();
        let tasks = sim_plan.candidate_wave(&fresh);
        let outputs = wave(
            &tasks,
            layers,
            |_| false,
            |task| {
                let SimTask::Candidate { candidate, trace } = task else {
                    unreachable!("candidate waves hold candidate tasks only")
                };
                let policy = base.as_fixed_period().scaled(sim_plan.grid[candidate]);
                let (st, timing) =
                    timed_simulate(scenario, &policy, &cached[trace], sim_plan, false);
                let s = timing.task_s;
                ((st, timing), s)
            },
        );
        perf.candidate_sims += tasks.len() as u64;
        layers.candidate_sims += tasks.len() as u64;
        for (task, (st, timing)) in tasks.iter().zip(outputs) {
            let SimTask::Candidate { candidate, trace } = task else {
                unreachable!("candidate waves hold candidate tasks only")
            };
            columns[*candidate]
                .get_or_insert_with(|| (vec![0.0; sim_plan.traces], 0.0))
                .0[*trace] = st.makespan;
            perf.decisions += st.decisions;
            perf.failures += st.failures;
            layers.candidate_s += timing.task_s;
            layers.absorb_sim(&st, timing);
        }
        for &i in &fresh {
            if let Some((col, mean)) = &mut columns[i] {
                *mean = col.iter().sum::<f64>() / col.len().max(1) as f64;
            }
        }
    };

    evaluate(&sim_plan.coarse, &mut columns, perf, layers);
    if sim_plan.refine_step.is_some() {
        let means: Vec<Option<f64>> = columns
            .iter()
            .map(|c| c.as_ref().map(|(_, m)| *m))
            .collect();
        if let Some(incumbent) = plan::winner(&means) {
            let window: Vec<usize> = sim_plan.refine_window(incumbent).collect();
            evaluate(&window, &mut columns, perf, layers);
        }
    }
    let means: Vec<Option<f64>> = columns
        .iter()
        .map(|c| c.as_ref().map(|(_, m)| *m))
        .collect();
    let winner = plan::winner(&means)?;
    let (column, _) = columns[winner].take()?;
    Some(SearchOutput {
        factor: sim_plan.grid[winner],
        column,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_exp::golden::{golden_cells, golden_json};
    use ckpt_exp::{run_scenario, DistSpec, PeriodSearch};

    fn assert_redrive_matches(sc: &Scenario, kinds: &[PolicyKind], opts: &RunnerOptions) {
        let mut layers = Layers::default();
        let traced = run_traced(sc, kinds, opts, &mut layers).expect("cell builds");
        assert_eq!(
            golden_json(&traced),
            golden_json(&run_scenario(sc, kinds, opts)),
            "{}",
            sc.label
        );
        assert_eq!(layers.sim_decisions, traced.perf.decisions);
        assert_eq!(
            layers.decisions, layers.sim_decisions,
            "every decision goes through the wrapper"
        );
    }

    #[test]
    fn tiny_cell_redrive_equals_run_scenario() {
        let year = 365.25 * 86_400.0;
        let mut sc = Scenario::petascale(
            DistSpec::Weibull {
                shape: 0.7,
                mtbf: 125.0 * year,
            },
            64,
            3,
        );
        sc.label = "perfbench-tiny".into();
        // The default 49-factor grid keeps a refine wave after the coarse one.
        let opts = RunnerOptions {
            period_search: PeriodSearch::default(),
            ..RunnerOptions::default()
        };
        assert_redrive_matches(&sc, &PolicyKind::paper_roster(false), &opts);
    }

    #[test]
    fn redrive_matches_the_light_golden_cells() {
        // The Liu-gap cell (an unbuildable policy) and the DPMakespan cell.
        for (_, sc, kinds, opts) in golden_cells()
            .into_iter()
            .filter(|(_, sc, _, _)| sc.traces <= 10)
        {
            assert_redrive_matches(&sc, &kinds, &opts);
        }
    }

    #[test]
    fn timed_session_counts_and_times_dp_calls() {
        let mut sc = Scenario::single_processor(
            DistSpec::Exponential {
                mtbf: 6.0 * 3_600.0,
            },
            2,
        );
        sc.total_work = 12.0 * 3_600.0;
        let mut layers = Layers::default();
        let kinds = [
            PolicyKind::Young,
            PolicyKind::DpNextFailure(Default::default()),
        ];
        let opts = RunnerOptions {
            period_lb: None,
            ..RunnerOptions::default()
        };
        run_traced(&sc, &kinds, &opts, &mut layers).expect("cell builds");
        assert!(layers.dp_decide_s > 0.0 && layers.dp_decide_s <= layers.decide_s);
        assert!(!layers.dp_decide_ns.is_empty());
        assert!(layers.dp_decide_us(0.5) <= layers.dp_decide_us(0.99));
        assert_eq!(layers.sim_runs, 4);
        assert_eq!(
            layers.exec_waves, 2,
            "trace wave and roster wave, no search"
        );
    }
}
