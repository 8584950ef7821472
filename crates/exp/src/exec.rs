//! Execution layer: the one engine. Drains a [`SimPlan`]'s waves through
//! the work-stealing wave executor ([`crate::steal`]) into a [`TaskLog`].
//!
//! [`drive`] is the only place the pipeline touches the engine, for
//! in-memory runs ([`execute`]) and durable studies
//! ([`crate::checkpoint::run_study`]) alike. It fetches traces through
//! the shared [`TraceCache`], instantiates the roster through the
//! policy [`registry`](crate::registry), and drains the roster wave, the
//! coarse candidate wave and the refine wave, with DP sims marked heavy
//! so they seed the per-worker deques and start first. Every task's
//! result is recorded in the log under its plan task id
//! ([`SimPlan::task_id`], offset per study cell), tasks already in the
//! log are skipped, and the [`ExecOutput`] is assembled from the log
//! alone — so a resumed study and an uninterrupted run reduce the same
//! bits by construction, at any worker count ([`steal::workers`],
//! settable via the CLI `--threads`).
//!
//! A [`Recorder`] decides how the waves are cut: the in-memory path
//! ([`InMemory`]) runs each wave whole, the checkpoint store cuts it
//! into slices and snapshots the log between them.
//!
//! Failures are values here: a policy that cannot be instantiated for
//! the cell (Liu's footnote-2 cases) records its tasks as
//! [`ItemPayload::Unbuilt`], which becomes an [`Error`] in
//! [`ExecOutput::policy_build`] and a column of absent cells — never a
//! panic, never an aborted scenario. Per-stage wall-clock and work
//! counters (including the wave scheduling counters on
//! [`PipelinePerf::exec`]) feed the caller's [`PipelinePerf`].

use crate::cache::{CachedTrace, TraceCache};
use crate::error::Error;
use crate::perf::PipelinePerf;
use crate::plan::{self, SimPlan, SimTask};
use crate::scenario::{BuiltDist, Scenario};
use crate::steal;
use ckpt_policies::Policy;
use ckpt_sim::{lower_bound_makespan, RunStats};
use ckpt_workload::JobSpec;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::time::Instant;

/// One roster-policy simulation result on one trace.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCell {
    /// Makespan, seconds.
    pub makespan: f64,
    /// Failures hit during the run.
    pub failures: u64,
    /// Smallest chunk attempted.
    pub chunk_min: f64,
    /// Largest chunk attempted.
    pub chunk_max: f64,
}

/// Outcome of the `PeriodLB` candidate search.
#[derive(Debug, Clone)]
pub struct SearchOutput {
    /// Winning factor.
    pub factor: f64,
    /// Winning candidate's per-trace makespans, in trace order.
    pub column: Vec<f64>,
}

/// Everything the executor measured, keyed back to plan indices.
pub struct ExecOutput {
    /// Per roster entry: `Err` ⇒ the policy could not be instantiated
    /// for this cell (failure as a value, reported as an absent row).
    pub policy_build: Vec<Result<(), Error>>,
    /// `cells[policy][trace]`; `None` for unbuildable policies.
    pub cells: Vec<Vec<Option<PolicyCell>>>,
    /// Lower-bound makespans in trace order, when the plan enables them.
    pub lower_bounds: Option<Vec<f64>>,
    /// `PeriodLB` search outcome, when the plan has a candidate grid.
    pub search: Option<SearchOutput>,
}

/// One simulation's stats, floats as exact bit patterns. Makespans must
/// decode finite (the checkpoint store's NaN/Inf-free invariant);
/// `chunk_min` is legitimately `+∞` when a run made no decisions, so
/// chunk bounds are exempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStatsBits {
    /// `RunStats::makespan` bits.
    pub makespan: u64,
    /// Failures hit.
    pub failures: u64,
    /// Decision points.
    pub decisions: u64,
    /// `RunStats::chunk_min` bits.
    pub chunk_min: u64,
    /// `RunStats::chunk_max` bits.
    pub chunk_max: u64,
}

impl TraceStatsBits {
    fn of(st: &RunStats) -> Self {
        Self {
            makespan: st.makespan.to_bits(),
            failures: st.failures,
            decisions: st.decisions,
            chunk_min: st.chunk_min.to_bits(),
            chunk_max: st.chunk_max.to_bits(),
        }
    }

    /// The makespan as a float.
    pub fn makespan_f64(&self) -> f64 {
        f64::from_bits(self.makespan)
    }
}

/// The recorded result of one plan task.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemPayload {
    /// A roster-policy or `PeriodLB` candidate simulation.
    Sim(TraceStatsBits),
    /// A lower-bound makespan, as bits.
    LowerBound(u64),
    /// The task's roster policy could not be built for the cell, so
    /// nothing was simulated; the reason becomes the row's error.
    Unbuilt {
        /// Display of the build error.
        reason: String,
    },
}

/// Task results keyed by task id — the engine's only output channel,
/// and the checkpoint store's persisted state.
pub type TaskLog = BTreeMap<u64, ItemPayload>;

/// The wave a task runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wave {
    /// Roster-policy sims and lower bounds.
    Roster,
    /// The first `PeriodLB` candidate wave.
    Coarse,
    /// The candidate wave around the coarse incumbent.
    Refine,
}

impl Wave {
    /// Label of the wave on candidate spans and counters.
    pub fn name(self) -> &'static str {
        match self {
            Self::Roster => "roster",
            Self::Coarse => "coarse",
            Self::Refine => "refine",
        }
    }
}

/// How [`drive`] cuts its waves, and what runs between the cuts.
pub(crate) trait Recorder {
    /// Why a run stopped early.
    type Halt;
    /// Tasks per slice of a wave with `pending` tasks left to run.
    fn slice_len(&self, pending: usize) -> usize;
    /// A slice enters the executor.
    fn begin_slice(&mut self, wave: Wave, slice: &[SimTask]);
    /// A slice's results are in `log`; `Err` ends the run here.
    fn end_slice(&mut self, log: &TaskLog, wave: Wave, slice: &[SimTask])
        -> Result<(), Self::Halt>;
}

/// The in-memory path: no store, every wave runs whole.
pub(crate) struct InMemory;

impl Recorder for InMemory {
    type Halt = Infallible;

    fn slice_len(&self, pending: usize) -> usize {
        pending
    }

    fn begin_slice(&mut self, _: Wave, _: &[SimTask]) {}

    fn end_slice(&mut self, _: &TaskLog, _: Wave, _: &[SimTask]) -> Result<(), Infallible> {
        Ok(())
    }
}

/// Is this policy kind a wave long pole (a DP sim)?
fn heavy_policy_kind(k: &crate::policies_spec::PolicyKind) -> bool {
    matches!(
        k,
        crate::policies_spec::PolicyKind::DpNextFailure(_)
            | crate::policies_spec::PolicyKind::DpMakespan(_)
    )
}

/// Run one policy session on one cached trace.
fn simulate_on(
    spec: &JobSpec,
    policy: &dyn Policy,
    ct: &CachedTrace,
    sim: ckpt_sim::SimOptions,
) -> RunStats {
    let mut session = policy.session();
    ckpt_sim::simulate(
        spec,
        &mut *session,
        &ct.events,
        ct.procs_per_unit(),
        ct.traces.start_time,
        ct.traces.horizon,
        sim,
    )
}

/// The log of one cell: task ids are the plan's, offset by `base`.
struct CellLog<'a, R> {
    sim_plan: &'a SimPlan,
    base: u64,
    log: &'a mut TaskLog,
    recorder: &'a mut R,
}

impl<R: Recorder> CellLog<'_, R> {
    fn id(&self, task: &SimTask) -> u64 {
        self.base + self.sim_plan.task_id(task)
    }

    fn get(&self, task: &SimTask) -> Option<&ItemPayload> {
        self.log.get(&self.id(task))
    }

    /// Drain the tasks of `tasks` the log does not hold yet, slice by
    /// slice. Heavy tasks seed the per-worker deques (each worker starts
    /// on a long pole instead of trailing it); the cheap bulk drains
    /// through the shared injector. A cut wave puts its heavy tasks in
    /// the first slices, so each slice barrier waits on peers rather
    /// than on one long pole among cheap tasks. Results come back in
    /// task order and land in the log under their ids, so the log's
    /// contents never depend on worker count or scheduling; the waves'
    /// scheduling counters accumulate on `perf.exec`.
    fn drain<H, F>(
        &mut self,
        wave: Wave,
        tasks: &[SimTask],
        perf: &mut PipelinePerf,
        is_heavy: H,
        run: F,
    ) -> Result<(), R::Halt>
    where
        H: Fn(&SimTask) -> bool,
        F: Fn(SimTask) -> ItemPayload + Sync,
    {
        let mut pending: Vec<SimTask> =
            tasks.iter().copied().filter(|t| self.get(t).is_none()).collect();
        let len = self.recorder.slice_len(pending.len()).max(1);
        if len < pending.len() {
            pending.sort_by_key(|t| !is_heavy(t));
        }
        for slice in pending.chunks(len) {
            self.recorder.begin_slice(wave, slice);
            let (outs, stats) =
                steal::run_wave(slice, steal::workers(), &is_heavy, |_, &t| run(t));
            perf.exec.get_or_insert_with(Default::default).absorb(&stats);
            if wave != Wave::Roster {
                let n = slice.len() as u64;
                ckpt_obs::counter_add_labeled("period_search.candidate_sims", wave.name(), n);
            }
            for (task, out) in slice.iter().zip(outs) {
                let id = self.id(task);
                self.log.insert(id, out);
            }
            self.recorder.end_slice(self.log, wave, slice)?;
        }
        Ok(())
    }

    /// A candidate's per-trace stats, once every trace is logged.
    fn column(&self, candidate: usize) -> Option<Vec<TraceStatsBits>> {
        (0..self.sim_plan.traces)
            .map(|trace| match self.get(&SimTask::Candidate { candidate, trace }) {
                Some(ItemPayload::Sim(st)) => Some(*st),
                _ => None,
            })
            .collect()
    }
}

/// Mean makespan of a column, summed in trace order.
fn mean(column: &[TraceStatsBits]) -> f64 {
    column.iter().map(TraceStatsBits::makespan_f64).sum::<f64>() / column.len().max(1) as f64
}

/// Execute a plan in memory: [`drive`] with an empty log and whole
/// waves. Pushes the `trace_gen`, `policy_sims` and `period_search`
/// stages onto `perf`.
pub fn execute(
    scenario: &Scenario,
    built: &BuiltDist,
    sim_plan: &SimPlan,
    perf: &mut PipelinePerf,
) -> ExecOutput {
    match drive(scenario, built, sim_plan, perf, 0, &mut TaskLog::new(), &mut InMemory) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Drain a plan into `log` — every task it does not hold yet, ids offset
/// by `base` — then assemble the [`ExecOutput`] from the log: build the
/// roster, drain the roster wave, then the candidate waves. Pushes the
/// `trace_gen`, `policy_sims` and `period_search` stages onto `perf`.
///
/// # Errors
/// Whatever the recorder halts with between two slices.
pub(crate) fn drive<R: Recorder>(
    scenario: &Scenario,
    built: &BuiltDist,
    sim_plan: &SimPlan,
    perf: &mut PipelinePerf,
    base: u64,
    log: &mut TaskLog,
    recorder: &mut R,
) -> Result<ExecOutput, R::Halt> {
    let spec = scenario.job_spec();
    let cache = TraceCache::global();
    let trace = |idx: usize| cache.get_or_generate(scenario, built, idx);
    let mut cell = CellLog { sim_plan, base, log, recorder };
    let roster = sim_plan.roster_wave();
    let coarse = sim_plan.candidate_wave(&sim_plan.coarse);

    // Stage 1: generate (process-wide cache, shared via Arc) every trace
    // a pending roster or coarse task reads. Refine tasks, planned only
    // after the coarse wave, fetch theirs through the cache.
    // lint: allow(transitive-nondeterminism) — stage timer feeds PipelinePerf only, never result rows
    let t_stage = Instant::now();
    let stage_span = ckpt_obs::span("stage.trace_gen");
    let mut needed = vec![false; sim_plan.traces];
    for t in roster.iter().chain(&coarse).filter(|t| cell.get(t).is_none()) {
        needed[t.trace()] = true;
    }
    let trace_tasks: Vec<usize> = (0..sim_plan.traces).filter(|&i| needed[i]).collect();
    if !trace_tasks.is_empty() {
        let (_, stats) =
            steal::run_wave(&trace_tasks, steal::workers(), |_| false, |_, &i| drop(trace(i)));
        perf.exec.get_or_insert_with(Default::default).absorb(&stats);
    }
    drop(stage_span);
    perf.push_stage("trace_gen", t_stage, trace_tasks.len() as u64);

    // Stage 2: the roster wave (policy sims plus lower bounds). Only
    // policies with pending tasks are instantiated; build failures
    // become values. The shared plan/kernel-row caches are snapshotted
    // around the wave so the perf report attributes exactly this run's
    // hits/misses/evictions.
    // lint: allow(transitive-nondeterminism) — stage timer feeds PipelinePerf only, never result rows
    let t_stage = Instant::now();
    let stage_span = ckpt_obs::span("stage.policy_sims");
    let caches_before = ckpt_policies::DpCaches::global().stats();
    let policies: Vec<Option<Result<Box<dyn Policy>, Error>>> = (sim_plan.kinds.iter().enumerate())
        .map(|(policy, k)| {
            (0..sim_plan.traces)
                .any(|trace| cell.get(&SimTask::Policy { policy, trace }).is_none())
                .then(|| crate::registry::build_policy(k, scenario, built))
        })
        .collect();
    let is_heavy = |task: &SimTask| match task {
        SimTask::Policy { policy, .. } => heavy_policy_kind(&sim_plan.kinds[*policy]),
        _ => false,
    };
    ckpt_obs::gauge_max("wave.roster_tasks", roster.len() as u64);
    cell.drain(Wave::Roster, &roster, perf, is_heavy, |task| {
        // Task id = plan position: deterministic, so the merged span
        // order is identical at any worker count.
        let id = base + sim_plan.task_id(&task);
        match task {
            SimTask::Policy { policy, trace: t } => match &policies[policy] {
                Some(Ok(p)) => {
                    let mut span = ckpt_obs::task_span("task.policy_sim", id);
                    if ckpt_obs::active() {
                        span.label("policy", p.name().to_string());
                        span.label("dist", scenario.label.clone());
                        span.label("p", scenario.procs.to_string());
                    }
                    let st = simulate_on(&spec, p.as_ref(), &trace(t), sim_plan.sim);
                    ItemPayload::Sim(TraceStatsBits::of(&st))
                }
                Some(Err(e)) => ItemPayload::Unbuilt { reason: e.to_string() },
                None => unreachable!("policies with pending tasks are built"),
            },
            SimTask::LowerBound { trace: t } => {
                let _span = ckpt_obs::task_span("task.lower_bound", id);
                let lb = lower_bound_makespan(&spec, &trace(t).traces);
                ItemPayload::LowerBound(lb.makespan.to_bits())
            }
            SimTask::Candidate { .. } => {
                unreachable!("candidate tasks are drained in the search waves")
            }
        }
    })?;

    // Assemble the roster half of the output from the log.
    let mut policy_build: Vec<Result<(), Error>> = sim_plan.kinds.iter().map(|_| Ok(())).collect();
    let mut cells: Vec<Vec<Option<PolicyCell>>> =
        vec![vec![None; sim_plan.traces]; sim_plan.kinds.len()];
    let mut lower_bounds = sim_plan.lower_bound.then(|| vec![0.0f64; sim_plan.traces]);
    for task in &roster {
        match (task, cell.get(task)) {
            (SimTask::Policy { policy, trace }, Some(ItemPayload::Sim(st))) => {
                cells[*policy][*trace] = Some(PolicyCell {
                    makespan: st.makespan_f64(),
                    failures: st.failures,
                    chunk_min: f64::from_bits(st.chunk_min),
                    chunk_max: f64::from_bits(st.chunk_max),
                });
                perf.decisions += st.decisions;
                perf.failures += st.failures;
            }
            (SimTask::Policy { policy, .. }, Some(ItemPayload::Unbuilt { reason })) => {
                let name = sim_plan.policy_names[*policy].clone();
                policy_build[*policy] = Err(Error::Policy { name, reason: reason.clone() });
            }
            (SimTask::LowerBound { trace }, Some(ItemPayload::LowerBound(bits))) => {
                if let Some(lb) = &mut lower_bounds {
                    lb[*trace] = f64::from_bits(*bits);
                }
            }
            _ => {}
        }
    }
    let ran_policies = policy_build.iter().filter(|b| b.is_ok()).count() as u64;
    perf.policy_sims = ran_policies * sim_plan.traces as u64;
    perf.plan_cache =
        ckpt_policies::DpCaches::global().stats().delta_since(&caches_before).into();
    drop(stage_span);
    perf.push_stage("policy_sims", t_stage, perf.policy_sims);

    // Stage 3: PeriodLB candidate waves (coarse, then refine).
    // lint: allow(transitive-nondeterminism) — stage timer feeds PipelinePerf only, never result rows
    let t_stage = Instant::now();
    let stage_span = ckpt_obs::span("stage.period_search");
    let search = if sim_plan.grid.is_empty() {
        None
    } else {
        perf.candidate_grid_size = sim_plan.grid.len() as u64;
        let optexp = crate::registry::optexp_base(&spec, built.proc_mtbf);
        let (optexp, spec, trace) = (&optexp, &spec, &trace);
        let run = |wave: Wave| {
            move |task: SimTask| {
                let SimTask::Candidate { candidate, trace: t } = task else {
                    unreachable!("candidate waves contain only candidate tasks")
                };
                let mut span =
                    ckpt_obs::task_span("task.candidate_sim", base + sim_plan.task_id(&task));
                if ckpt_obs::active() {
                    span.label("wave", wave.name());
                    span.label("factor", format!("{}", sim_plan.grid[candidate]));
                }
                let policy = optexp.as_fixed_period().scaled(sim_plan.grid[candidate]);
                let st = simulate_on(spec, &policy, &trace(t), sim_plan.sim);
                ItemPayload::Sim(TraceStatsBits::of(&st))
            }
        };
        ckpt_obs::gauge_max("wave.candidate_tasks", coarse.len() as u64);
        cell.drain(Wave::Coarse, &coarse, perf, |_| false, run(Wave::Coarse))?;
        if sim_plan.refine_step.is_some() {
            // The plan's only inter-wave dependency: the refine window
            // is a function of the coarse incumbent. Candidates the
            // coarse wave already evaluated are not re-simulated.
            let mut means = vec![None; sim_plan.grid.len()];
            for &i in &sim_plan.coarse {
                means[i] = cell.column(i).map(|col| mean(&col));
            }
            if let Some(incumbent) = plan::winner(&means) {
                let fresh: Vec<usize> = (sim_plan.refine_window(incumbent))
                    .filter(|i| !sim_plan.coarse.contains(i))
                    .collect();
                let refine = sim_plan.candidate_wave(&fresh);
                ckpt_obs::gauge_max("wave.candidate_tasks", refine.len() as u64);
                cell.drain(Wave::Refine, &refine, perf, |_| false, run(Wave::Refine))?;
            }
        }
        // The winner among every evaluated column, by mean makespan
        // (ties toward the smaller factor).
        let columns: Vec<Option<Vec<TraceStatsBits>>> =
            (0..sim_plan.grid.len()).map(|i| cell.column(i)).collect();
        for st in columns.iter().flatten().flatten() {
            perf.candidate_sims += 1;
            perf.decisions += st.decisions;
            perf.failures += st.failures;
        }
        let means: Vec<Option<f64>> = columns.iter().map(|c| c.as_deref().map(mean)).collect();
        plan::winner(&means).and_then(|w| {
            let column = columns[w].as_ref()?.iter().map(TraceStatsBits::makespan_f64).collect();
            Some(SearchOutput { factor: sim_plan.grid[w], column })
        })
    };
    drop(stage_span);
    perf.push_stage("period_search", t_stage, perf.candidate_sims);

    Ok(ExecOutput { policy_build, cells, lower_bounds, search })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::plan::plan_scenario;
    use crate::policies_spec::PolicyKind;
    use crate::runner::{PeriodSearch, RunnerOptions};
    use crate::scenario::DistSpec;
    use ckpt_sim::SimOptions;

    fn tiny() -> Scenario {
        let mut s =
            Scenario::single_processor(DistSpec::Exponential { mtbf: 6.0 * 3_600.0 }, 4);
        s.total_work = 12.0 * 3_600.0;
        s
    }

    #[test]
    fn execute_fills_every_built_policy_cell() {
        let sc = tiny();
        let opts = RunnerOptions {
            period_lb: Some(vec![0.5, 1.0, 2.0]),
            period_search: PeriodSearch::Full,
            lower_bound: true,
            sim: SimOptions::default(),
        };
        let sim_plan = plan_scenario(&sc, &[PolicyKind::Young], &opts);
        let built = sc.dist.build();
        let mut perf = PipelinePerf::default();
        let out = execute(&sc, &built, &sim_plan, &mut perf);
        assert!(out.policy_build[0].is_ok());
        assert!(out.cells[0].iter().all(Option::is_some));
        assert_eq!(out.lower_bounds.as_ref().map(Vec::len), Some(4));
        let s = out.search.expect("grid present");
        assert_eq!(s.column.len(), 4);
        assert!([0.5, 1.0, 2.0].contains(&s.factor));
        assert_eq!(perf.policy_sims, 4);
        assert_eq!(perf.candidate_sims, 12);
    }

    #[test]
    fn unbuildable_policy_is_a_value_not_a_panic() {
        let year = 365.25 * 86_400.0;
        let sc =
            Scenario::petascale(DistSpec::Weibull { shape: 0.3, mtbf: 125.0 * year }, 4_096, 2);
        let opts = RunnerOptions { period_lb: None, lower_bound: false, ..Default::default() };
        let sim_plan = plan_scenario(&sc, &[PolicyKind::Liu], &opts);
        let built = sc.dist.build();
        let mut perf = PipelinePerf::default();
        let out = execute(&sc, &built, &sim_plan, &mut perf);
        assert!(out.policy_build[0].is_err());
        assert!(out.cells[0].iter().all(Option::is_none));
        assert_eq!(perf.policy_sims, 0);
        assert!(out.search.is_none());
    }

    /// Failure-as-value must survive the threaded drain: an unbuildable
    /// policy at 8 workers yields the same absent column, no panic, no
    /// hang, and the buildable sibling policy still fills every cell.
    #[test]
    fn unbuildable_policy_stays_a_value_under_many_workers() {
        let year = 365.25 * 86_400.0;
        let sc =
            Scenario::petascale(DistSpec::Weibull { shape: 0.3, mtbf: 125.0 * year }, 4_096, 4);
        let opts = RunnerOptions { period_lb: None, lower_bound: false, ..Default::default() };
        let sim_plan = plan_scenario(&sc, &[PolicyKind::Liu, PolicyKind::Young], &opts);
        let built = sc.dist.build();
        let mut perf = PipelinePerf::default();
        let out = steal::with_workers(8, || execute(&sc, &built, &sim_plan, &mut perf));
        assert!(out.policy_build[0].is_err());
        assert!(out.cells[0].iter().all(Option::is_none));
        assert!(out.policy_build[1].is_ok());
        assert!(out.cells[1].iter().all(Option::is_some));
        assert_eq!(perf.policy_sims, 4);
        assert_eq!(perf.exec.map(|e| e.workers), Some(8));
    }

    /// The core contract of the steal executor: `execute` output is
    /// bit-identical at 1 and 8 workers (cells, lower bounds, search
    /// column and the deterministic perf counters alike).
    #[test]
    fn execute_is_bit_identical_across_worker_counts() {
        let mut sc = tiny();
        sc.traces = 8;
        let opts = RunnerOptions {
            period_lb: Some(vec![0.5, 1.0, 2.0]),
            period_search: PeriodSearch::Full,
            lower_bound: true,
            sim: SimOptions::default(),
        };
        let kinds = [PolicyKind::Young, PolicyKind::OptExp];
        let sim_plan = plan_scenario(&sc, &kinds, &opts);
        let built = sc.dist.build();

        let run_at = |workers: usize| {
            let mut perf = PipelinePerf::default();
            let out = steal::with_workers(workers, || execute(&sc, &built, &sim_plan, &mut perf));
            assert_eq!(perf.exec.map(|e| e.workers), Some(workers as u64));
            (out, perf)
        };
        let (seq, perf_seq) = run_at(1);
        let (par, perf_par) = run_at(8);

        for (a, b) in seq.cells.iter().zip(&par.cells) {
            for (ca, cb) in a.iter().zip(b) {
                match (ca, cb) {
                    (Some(ca), Some(cb)) => {
                        assert_eq!(ca.makespan.to_bits(), cb.makespan.to_bits());
                        assert_eq!(ca.failures, cb.failures);
                    }
                    (None, None) => {}
                    _ => panic!("cell presence differs across worker counts"),
                }
            }
        }
        assert_eq!(
            seq.lower_bounds.as_ref().map(|l| l.iter().map(|m| m.to_bits()).collect::<Vec<_>>()),
            par.lower_bounds.as_ref().map(|l| l.iter().map(|m| m.to_bits()).collect::<Vec<_>>()),
        );
        let (sa, sb) = (seq.search.expect("grid"), par.search.expect("grid"));
        assert_eq!(sa.factor.to_bits(), sb.factor.to_bits());
        assert_eq!(
            sa.column.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            sb.column.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
        );
        // Work counters are schedule-independent; only perf.exec varies.
        assert_eq!(perf_seq.policy_sims, perf_par.policy_sims);
        assert_eq!(perf_seq.candidate_sims, perf_par.candidate_sims);
        assert_eq!(perf_seq.decisions, perf_par.decisions);
        assert_eq!(perf_seq.failures, perf_par.failures);
    }

    /// A log that already holds some results is only topped up: the
    /// driver skips logged tasks and reduces the same bits as a run from
    /// an empty log.
    #[test]
    fn drive_skips_logged_tasks_and_matches_a_fresh_run() {
        let sc = tiny();
        let opts = RunnerOptions {
            period_lb: Some((1..=25).map(|i| 0.3 + 0.1 * f64::from(i)).collect()),
            period_search: PeriodSearch::CoarseToFine { coarse_step: 4, min_full: 8 },
            lower_bound: true,
            sim: SimOptions::default(),
        };
        let sim_plan = plan_scenario(&sc, &[PolicyKind::Young], &opts);
        let built = sc.dist.build();
        let run = |log: &mut TaskLog, perf: &mut PipelinePerf| {
            drive(&sc, &built, &sim_plan, perf, 7, log, &mut InMemory)
                .unwrap_or_else(|never| match never {})
        };
        let mut full = TaskLog::new();
        let fresh = run(&mut full, &mut PipelinePerf::default());
        assert!(full.keys().all(|&id| (7..7 + sim_plan.task_count()).contains(&id)));
        // Keep every other result, then let the driver fill the gaps.
        let mut partial: TaskLog =
            full.iter().step_by(2).map(|(k, v)| (*k, v.clone())).collect();
        let mut perf = PipelinePerf::default();
        let topped = run(&mut partial, &mut perf);
        assert_eq!(partial, full);
        let (a, b) = (fresh.search.expect("grid"), topped.search.expect("grid"));
        assert_eq!(a.factor.to_bits(), b.factor.to_bits());
        // Candidate sims count every logged candidate result.
        assert_eq!(perf.candidate_sims, full.len() as u64 - 4 - 4);
    }
}
