//! Work-stealing wave executor with a deterministic commit.
//!
//! This is the execution substrate under [`crate::exec`], the one
//! engine of in-memory runs and durable studies alike: one injector
//! queue, per-worker deques, randomized stealing — the coordinator
//! shape of `DistributedExecution.tla` (SNIPPETS.md Snippet 2) — with
//! one crucial addition that makes the whole repository's determinism
//! story work: **results are buffered per worker and committed in
//! task-ID order** after the wave drains, so every reduction
//! downstream (and every golden, and every checkpoint payload) sees
//! the same bytes at any worker count.
//!
//! Scheduling is split from execution so it can be machine-checked:
//!
//! * [`WaveState`] is the pure coordinator state machine — injector,
//!   deques, in-flight claims, completion set. Every transition
//!   (`claim`, `complete`) is a plain method on `&mut self` with no
//!   I/O and no clock, so `tests/steal_model.rs` can drive it through
//!   arbitrary interleavings (steal races, worker stalls, a poisoned
//!   task) and assert no-task-loss, no-duplication, and progress.
//! * [`run_wave`] wraps that state machine in real threads: the state
//!   sits behind one mutex (claims and completions are O(1) pops; the
//!   task bodies — policy sims, DP solves — run unlocked and dwarf
//!   them), workers buffer `(task_id, result)` pairs locally, and the
//!   commit loop scatters them into a task-ID-indexed vector.
//!
//! A panicking task does not hang or poison the wave: the worker
//! catches it, the wave drains every sibling, and the commit step
//! re-raises the panic of the **lowest** poisoned task ID — the same
//! task a sequential drain would have panicked on first.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker count, settable from the CLI (`--threads N`).
/// 0 means "not configured": fall back to `CKPT_THREADS`, then to the
/// machine's available parallelism.
// lint: allow(shared-mutable-in-exec) — the worker-count knob: written
// once at CLI parse time, read at wave start; never touches results.
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide worker count (`0` resets to auto-detection).
pub fn set_workers(n: usize) {
    WORKERS.store(n, Ordering::Relaxed);
}

/// Where a poisoned wave dumps the flight recorder, if anywhere.
/// The study runner points this at `<store>/flightrec.json` for the
/// duration of a run so a panicking task leaves its last-N-events
/// record next to the checkpoint store.
// lint: allow(shared-mutable-in-exec) — the flight-dump destination:
// set once by the study runner, read on the poison path; a diagnostic
// side channel that never touches results.
static FLIGHT_DUMP: std::sync::Mutex<Option<PathBuf>> = std::sync::Mutex::new(None);

/// Lock the dump destination, surviving poisoning: the lock is touched
/// on panic paths by design, and the value inside is always coherent.
fn flight_dump_lock() -> std::sync::MutexGuard<'static, Option<PathBuf>> {
    FLIGHT_DUMP.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Point the poisoned-wave flight dump at `path` (`None` disables it).
pub fn set_flight_dump(path: Option<PathBuf>) {
    *flight_dump_lock() = path;
}

/// Best-effort flight-recorder dump to the configured path. Called on
/// the poison path only, right before the panic is re-raised; without
/// the `obs` feature (or outside a session) it still writes a valid
/// `recording: false` document so tooling never reads a torn file.
fn dump_flight() {
    let path = flight_dump_lock().clone();
    if let Some(path) = path {
        let _ = std::fs::write(&path, ckpt_obs::flight_dump_json());
    }
}

/// Record a poisoned task on the flight ring (no-op unless a session
/// records). The label names the failing task, so the dump's tail
/// identifies it even after the ring has evicted the task's own spans.
fn mark_poisoned(id: usize) {
    if ckpt_obs::active() {
        ckpt_obs::counter_add_labeled("exec.task_poisoned", &format!("task{id:06}"), 1);
    }
}

/// Run `f` at `n` workers, restoring the previous setting afterwards —
/// on unwind too. Unit tests that set the worker count go through here:
/// one lock serialises them, so no test runs at a count another test
/// wrote.
#[cfg(test)]
pub(crate) fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_workers(self.0);
        }
    }
    let _serial = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _restore = Restore(WORKERS.load(Ordering::Relaxed));
    set_workers(n);
    f()
}

/// The effective worker count for the next wave: the explicitly
/// configured value, else `CKPT_THREADS`, else available parallelism.
pub fn workers() -> usize {
    let n = WORKERS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    if let Some(n) = std::env::var("CKPT_THREADS").ok().and_then(|v| v.parse().ok()) {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Scheduling counters of one wave. These describe *how* the wave ran
/// (and so vary with worker count and timing); the results themselves
/// never do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Workers the wave ran with.
    pub workers: usize,
    /// Claims served from the worker's own deque (seeded heavy tasks).
    pub local_claims: u64,
    /// Claims served from the shared injector (the cheap bulk).
    pub injector_claims: u64,
    /// Claims served by stealing from another worker's deque.
    pub steals: u64,
    /// Steal probes that found the victim's deque empty.
    pub failed_probes: u64,
    /// Tasks executed per worker (occupancy; sums to the task count).
    pub per_worker: Vec<u64>,
}

impl WaveStats {
    /// Total tasks claimed (= executed, once the wave drains).
    pub fn claims(&self) -> u64 {
        self.local_claims + self.injector_claims + self.steals
    }
}

/// The pure coordinator state machine of one wave.
///
/// Tasks are `0..n` by ID. Heavy tasks are dealt round-robin into the
/// per-worker deques at seed time (each worker starts on its own long
/// poles — the heavy-first schedule the old rayon drain approximated
/// with `with_max_len(1)`); everything else waits in the injector in
/// task order. A worker claims from its own deque first (LIFO end),
/// then the injector (FIFO), then steals from a random victim's
/// opposite end (FIFO) — so thieves drain a loaded worker's backlog
/// oldest-first while the owner keeps its cache-warm tail.
///
/// Tasks never spawn tasks, so `claim` returning `None` is a stable
/// exit condition: new work can never appear after the queues and the
/// claimant's own slot are empty.
pub struct WaveState {
    /// Shared FIFO of the cheap bulk, in task order.
    injector: VecDeque<usize>,
    /// Per-worker deques, seeded with the heavy tasks.
    deques: Vec<VecDeque<usize>>,
    /// The task each worker currently executes, if any.
    executing: Vec<Option<usize>>,
    /// Completion flags (no-duplication is checked here).
    done: Vec<bool>,
    /// Tasks not yet completed.
    remaining: usize,
    /// Per-worker victim-selection RNG, deterministically seeded.
    rngs: Vec<StdRng>,
    /// Scheduling counters.
    pub stats: WaveStats,
}

impl WaveState {
    /// Seed a wave of `heavy.len()` tasks over `workers` workers.
    /// `heavy[id]` marks the long poles; `seed` fixes every victim
    /// RNG (per-worker streams are split by worker index).
    pub fn new(heavy: &[bool], workers: usize, seed: u64) -> Self {
        let workers = workers.max(1);
        let mut deques = vec![VecDeque::new(); workers];
        let mut injector = VecDeque::new();
        let mut dealt = 0usize;
        for (id, &h) in heavy.iter().enumerate() {
            if h {
                deques[dealt % workers].push_back(id);
                dealt += 1;
            } else {
                injector.push_back(id);
            }
        }
        Self {
            injector,
            deques,
            executing: vec![None; workers],
            done: vec![false; heavy.len()],
            remaining: heavy.len(),
            rngs: (0..workers)
                .map(|w| StdRng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect(),
            stats: WaveStats { workers, per_worker: vec![0; workers], ..WaveStats::default() },
        }
    }

    /// Worker `w` claims its next task: own deque (LIFO), injector
    /// (FIFO), then randomized steal. `None` ⇒ no claimable work
    /// exists anywhere; since tasks never spawn tasks, the worker can
    /// exit. Panics if `w` already holds an uncompleted claim.
    pub fn claim(&mut self, w: usize) -> Option<usize> {
        assert!(self.executing[w].is_none(), "worker {w} claimed while executing");
        let id = self.deques[w]
            .pop_back()
            .inspect(|_| self.stats.local_claims += 1)
            .or_else(|| {
                self.injector.pop_front().inspect(|_| self.stats.injector_claims += 1)
            })
            .or_else(|| self.steal(w))?;
        self.executing[w] = Some(id);
        self.stats.per_worker[w] += 1;
        Some(id)
    }

    /// One randomized steal attempt: probe every other worker once, in
    /// an order drawn from `w`'s own RNG (a Fisher–Yates shuffle), and
    /// take the FIFO end of the first non-empty victim deque.
    fn steal(&mut self, w: usize) -> Option<usize> {
        let workers = self.deques.len();
        let mut victims: Vec<usize> = (0..workers).filter(|&v| v != w).collect();
        for i in (1..victims.len()).rev() {
            let j = (self.rngs[w].next_u64() % (i as u64 + 1)) as usize;
            victims.swap(i, j);
        }
        for v in victims {
            if let Some(id) = self.deques[v].pop_front() {
                self.stats.steals += 1;
                return Some(id);
            }
            self.stats.failed_probes += 1;
        }
        None
    }

    /// Worker `w` reports its claimed task complete. Returns the task
    /// ID. Panics on double completion or completion without a claim —
    /// the no-duplication invariant is enforced, not just tested.
    pub fn complete(&mut self, w: usize) -> usize {
        let Some(id) = self.executing[w].take() else {
            panic!("worker {w} completed without a claim")
        };
        assert!(!self.done[id], "task {id} completed twice");
        self.done[id] = true;
        self.remaining -= 1;
        id
    }

    /// Every task completed?
    pub fn drained(&self) -> bool {
        self.remaining == 0
    }

    /// Tasks not yet completed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The task worker `w` currently holds, if any.
    pub fn executing(&self, w: usize) -> Option<usize> {
        self.executing[w]
    }

    /// Worker count this wave was seeded with.
    pub fn worker_count(&self) -> usize {
        self.deques.len()
    }

    /// Structural invariant, checked by the model tests after every
    /// transition: each task is in **exactly one** place — queued
    /// (injector or one deque), executing on one worker, or done — and
    /// `remaining` agrees with the completion flags.
    ///
    /// # Panics
    /// When the invariant is violated (that is the point).
    pub fn check_invariants(&self) {
        let n = self.done.len();
        let mut seen = vec![0u32; n];
        for &id in &self.injector {
            seen[id] += 1;
        }
        for d in &self.deques {
            for &id in d {
                seen[id] += 1;
            }
        }
        for id in self.executing.iter().flatten() {
            seen[*id] += 1;
        }
        for (id, (&count, &done)) in seen.iter().zip(&self.done).enumerate() {
            let expected = u32::from(!done);
            assert!(
                count == expected,
                "task {id}: present {count} times, done={done} (expected {expected})"
            );
        }
        assert!(
            self.remaining == self.done.iter().filter(|&&d| !d).count(),
            "remaining counter disagrees with completion flags"
        );
    }
}

/// Fixed wave seed: the steal pattern is irrelevant to results, so one
/// constant stream (split per worker) keeps runs reproducible enough
/// to read steal-rate counters across repeats.
const WAVE_SEED: u64 = 0xC0FF_EE00_5EED_CAFE;

type TaskPanic = Box<dyn std::any::Any + Send + 'static>;

/// Drain `tasks` over `workers` threads and commit the results in
/// task-ID order: `out[i] == run(i, &tasks[i])`, bit-identical at any
/// worker count.
///
/// `is_heavy` marks long-pole tasks for deque seeding (they start
/// first, one per worker); everything else drains through the shared
/// injector. With `workers <= 1` (or one task) no thread is spawned
/// and tasks run sequentially in task order.
///
/// # Panics
/// If a task panics, every sibling still runs to completion, and the
/// panic of the lowest poisoned task ID is re-raised at commit time —
/// the same task a sequential drain panics on, so error surfacing is
/// deterministic too.
pub fn run_wave<T, R, F, H>(tasks: &[T], workers: usize, is_heavy: H, run: F) -> (Vec<R>, WaveStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    H: Fn(&T) -> bool,
{
    let n = tasks.len();
    let w = workers.max(1).min(n.max(1));
    if w <= 1 {
        // Same poison protocol as the threaded path: record the event
        // and dump the flight ring before re-raising, so a 1-worker
        // run leaves the same diagnostic record an 8-worker run does.
        let mut out: Vec<R> = Vec::with_capacity(n);
        for (i, t) in tasks.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| run(i, t))) {
                Ok(r) => out.push(r),
                Err(payload) => {
                    mark_poisoned(i);
                    dump_flight();
                    resume_unwind(payload);
                }
            }
        }
        let stats = WaveStats {
            workers: 1,
            injector_claims: n as u64,
            per_worker: vec![n as u64],
            ..WaveStats::default()
        };
        publish(&stats);
        return (out, stats);
    }

    let heavy: Vec<bool> = tasks.iter().map(is_heavy).collect();
    // lint: allow(shared-mutable-in-exec) — the sanctioned commit path:
    // the one coordinator lock every claim/complete goes through.
    let state = parking_lot::Mutex::new(WaveState::new(&heavy, w, WAVE_SEED));

    // One result bucket per worker; merged in task-ID order below.
    let buckets: Vec<Vec<(usize, Result<R, TaskPanic>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w)
            .map(|wid| {
                let state = &state;
                let run = &run;
                scope.spawn(move || {
                    let mut local: Vec<(usize, Result<R, TaskPanic>)> = Vec::new();
                    loop {
                        // The claim must be its own statement: a guard
                        // living in a `while let` scrutinee would span
                        // the body and self-deadlock on `complete`.
                        let claimed = state.lock().claim(wid);
                        let Some(id) = claimed else { break };
                        // The task body runs unlocked; a panic is a
                        // value here so siblings keep draining.
                        let out = catch_unwind(AssertUnwindSafe(|| run(id, &tasks[id])));
                        if out.is_err() {
                            mark_poisoned(id);
                        }
                        state.lock().complete(wid);
                        local.push((id, out));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(bucket) => bucket,
                // Only a coordinator bug panics outside a task; don't
                // swallow it.
                Err(p) => resume_unwind(p),
            })
            .collect()
    });

    let stats = {
        let state = state.into_inner();
        debug_assert!(state.drained(), "wave exited with tasks remaining");
        state.stats
    };
    publish(&stats);

    // Deterministic commit: scatter the buckets into task-ID order,
    // then surface the lowest poisoned task (if any) before unwrapping.
    let mut slots: Vec<Option<Result<R, TaskPanic>>> = (0..n).map(|_| None).collect();
    for (id, out) in buckets.into_iter().flatten() {
        debug_assert!(slots[id].is_none(), "task {id} committed twice");
        slots[id] = Some(out);
    }
    for slot in slots.iter_mut() {
        if matches!(slot, Some(Err(_))) {
            if let Some(Err(payload)) = slot.take() {
                dump_flight();
                resume_unwind(payload);
            }
        }
    }
    let out: Vec<R> = slots
        .into_iter()
        .enumerate()
        .map(|(id, slot)| match slot {
            Some(Ok(r)) => r,
            _ => panic!("task {id} was never committed"),
        })
        .collect();
    (out, stats)
}

/// Publish a wave's scheduling counters to `ckpt-obs` (no-op unless a
/// session records). Steal rate = `exec.steals / exec.claims_*`;
/// per-worker occupancy lands on the labeled `exec.worker_tasks`.
fn publish(stats: &WaveStats) {
    if !ckpt_obs::active() {
        return;
    }
    ckpt_obs::gauge_max("exec.workers", stats.workers as u64);
    ckpt_obs::counter_add("exec.claims_local", stats.local_claims);
    ckpt_obs::counter_add("exec.claims_injector", stats.injector_claims);
    ckpt_obs::counter_add("exec.steals", stats.steals);
    ckpt_obs::counter_add("exec.failed_probes", stats.failed_probes);
    for (w, &count) in stats.per_worker.iter().enumerate() {
        ckpt_obs::counter_add_labeled("exec.worker_tasks", &format!("w{w:02}"), count);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn seeding_deals_heavy_round_robin_and_queues_rest_in_order() {
        // Tasks 0..6; 1, 3, 5 heavy; 2 workers.
        let heavy = [false, true, false, true, false, true];
        let st = WaveState::new(&heavy, 2, 7);
        assert_eq!(st.injector.iter().copied().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(st.deques[0].iter().copied().collect::<Vec<_>>(), vec![1, 5]);
        assert_eq!(st.deques[1].iter().copied().collect::<Vec<_>>(), vec![3]);
        st.check_invariants();
    }

    #[test]
    fn sequential_path_preserves_task_order() {
        let tasks: Vec<u64> = (0..10).collect();
        let order = parking_lot::Mutex::new(Vec::new());
        let (out, stats) = run_wave(&tasks, 1, |_| false, |i, &t| {
            order.lock().push(i);
            t * 2
        });
        assert_eq!(out, (0..10).map(|t| t * 2).collect::<Vec<_>>());
        assert_eq!(*order.lock(), (0..10).collect::<Vec<_>>());
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.claims(), 10);
    }

    #[test]
    fn threaded_wave_commits_in_task_id_order() {
        let tasks: Vec<u64> = (0..97).collect();
        for w in [2, 3, 8] {
            let (out, stats) =
                run_wave(&tasks, w, |&t| t % 7 == 0, |i, &t| (i as u64) * 1000 + t);
            assert_eq!(out, (0..97).map(|t| t * 1000 + t).collect::<Vec<_>>());
            assert_eq!(stats.workers, w);
            assert_eq!(stats.claims(), 97);
            assert_eq!(stats.per_worker.iter().sum::<u64>(), 97);
        }
    }

    #[test]
    fn empty_and_single_task_waves_work() {
        let (out, _) = run_wave(&[] as &[u64], 8, |_| false, |_, &t| t);
        assert!(out.is_empty());
        let (out, stats) = run_wave(&[41u64], 8, |_| true, |_, &t| t + 1);
        assert_eq!(out, [42]);
        // One task clamps to one worker: no thread spawn.
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn more_workers_than_tasks_is_clamped() {
        let tasks: Vec<u64> = (0..3).collect();
        let (out, stats) = run_wave(&tasks, 64, |_| false, |_, &t| t);
        assert_eq!(out, [0, 1, 2]);
        assert_eq!(stats.workers, 3);
    }

    #[test]
    fn panicking_task_surfaces_lowest_id_after_all_siblings_ran() {
        let executed = AtomicU64::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_wave(
                &(0..20).collect::<Vec<u64>>(),
                4,
                |_| false,
                |i, _| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    assert!(i != 7 && i != 13, "poisoned task {i}");
                    i
                },
            )
        }));
        let payload = caught.expect_err("wave must re-raise the task panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("assert! panics carry a String");
        // Lowest poisoned ID wins, deterministically.
        assert!(msg.contains("poisoned task 7"), "{msg}");
        // ... and no sibling was dropped on the floor.
        assert_eq!(executed.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn victim_order_is_deterministic_per_seed() {
        let mut a = WaveState::new(&[true; 16], 4, 99);
        let mut b = WaveState::new(&[true; 16], 4, 99);
        // Drain both from worker 3 only: claim order includes steals,
        // which must replay identically for an identical seed.
        let mut ids_a = Vec::new();
        while let Some(id) = a.claim(3) {
            a.complete(3);
            ids_a.push(id);
        }
        let mut ids_b = Vec::new();
        while let Some(id) = b.claim(3) {
            b.complete(3);
            ids_b.push(id);
        }
        assert_eq!(ids_a, ids_b);
        assert!(a.drained());
    }

    #[test]
    fn with_workers_sets_the_count_and_survives_a_panic() {
        assert_eq!(with_workers(5, workers), 5);
        let unwound = catch_unwind(|| with_workers(3, || -> () { panic!("task failed") }));
        assert!(unwound.is_err());
        // The lock was released on unwind: the next leg runs.
        assert_eq!(with_workers(2, workers), 2);
        // 0 resets to auto-detection.
        assert!(with_workers(0, workers) >= 1);
    }
}
