//! Bounded fair-share session scheduler.
//!
//! Sessions are `Send` closures queued per tenant and executed by a
//! fixed set of runner threads, each lending its matcher scratch to
//! the chase runs it executes. Three properties matter more than raw throughput:
//!
//! * **Fairness** — runners pick the next job round-robin across
//!   tenants (ordered `BTreeMap` + rotating cursor), so one tenant
//!   queueing a hundred sessions cannot starve another's first.
//! * **Admission control** — a per-tenant queue cap and a global cap
//!   bound memory; a rejected submit returns a typed [`Rejected`]
//!   carrying a retry hint instead of blocking or silently dropping.
//! * **Containment** — every job runs behind `catch_unwind`; a
//!   panicking session costs its runner nothing but a fresh
//!   [`RunnerCtx`] (the scratch is discarded in case the panic left it
//!   mid-search).
//!
//! The scheduler drains on [`Scheduler::shutdown`]: submits are
//! refused, queued and running sessions finish, runner threads exit
//! and are joined. Drain is also what the server's `shutdown` request
//! triggers, so "graceful" is a scheduler property, not server-loop
//! heroics.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use chase_core::hom::HomScratch;

/// One queued session: a closure over its request, connection writer
/// and registry handles.
pub type Job = Box<dyn FnOnce(&mut RunnerCtx) + Send>;

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Runner threads = maximum concurrently running sessions.
    pub runners: usize,
    /// Maximum queued (not yet running) sessions per tenant.
    pub tenant_queue_cap: usize,
    /// Maximum queued sessions across all tenants.
    pub global_queue_cap: usize,
    /// Base retry hint handed to shed clients, scaled by queue depth.
    pub retry_after_ms: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            runners: 2,
            tenant_queue_cap: 8,
            global_queue_cap: 64,
            retry_after_ms: 25,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// Queues are full; retry after the hinted backoff.
    Overloaded {
        /// Suggested client-side wait before retrying.
        retry_after_ms: u64,
    },
    /// The scheduler is draining; there is no point retrying.
    ShuttingDown,
}

/// Per-runner scratch state: one matcher [`HomScratch`] that every
/// chase run on the runner borrows, so back-to-back sessions reuse its
/// arenas. The scratch carries no run-scoped state, so lent-scratch
/// runs are bit-identical to fresh-scratch runs (see
/// `chase_engine::task`).
#[derive(Default)]
pub struct RunnerCtx {
    scratch: HomScratch,
}

impl RunnerCtx {
    /// The runner's matcher scratch. `threads` is the request's wire
    /// field, accepted and ignored: every run is sequential, so all
    /// requests share the one scratch.
    pub fn pool_for(&mut self, _threads: Option<usize>) -> &mut HomScratch {
        &mut self.scratch
    }
}

struct State {
    queues: BTreeMap<String, VecDeque<Job>>,
    /// Round-robin position: index into the sorted tenant keys.
    cursor: usize,
    queued: usize,
    running: usize,
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued or drain begins (runners wait).
    available: Condvar,
    /// Signalled when the scheduler may have gone idle (drain waits).
    idle: Condvar,
    cfg: SchedulerConfig,
}

impl Shared {
    /// Pops the next job round-robin across tenants. Caller holds the
    /// lock via `state`.
    fn take_next(state: &mut State) -> Option<Job> {
        if state.queued == 0 {
            return None;
        }
        let tenants: Vec<String> = state.queues.keys().cloned().collect();
        let n = tenants.len();
        for offset in 0..n {
            let tenant = &tenants[(state.cursor + offset) % n];
            if let Some(queue) = state.queues.get_mut(tenant) {
                if let Some(job) = queue.pop_front() {
                    if queue.is_empty() {
                        state.queues.remove(tenant);
                    }
                    state.queued -= 1;
                    // Advance past the tenant we just served.
                    state.cursor = (state.cursor + offset + 1) % n.max(1);
                    return Some(job);
                }
            }
        }
        None
    }
}

/// The fair-share scheduler; see the module docs.
pub struct Scheduler {
    shared: Arc<Shared>,
    runners: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `cfg.runners` runner threads (at least one).
    pub fn new(cfg: SchedulerConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queues: BTreeMap::new(),
                cursor: 0,
                queued: 0,
                running: 0,
                draining: false,
            }),
            available: Condvar::new(),
            idle: Condvar::new(),
            cfg,
        });
        let mut runners = Vec::new();
        for i in 0..cfg.runners.max(1) {
            let shared = Arc::clone(&shared);
            runners.push(
                std::thread::Builder::new()
                    .name(format!("chase-runner-{i}"))
                    .spawn(move || runner_loop(&shared))
                    .expect("spawn runner thread"),
            );
        }
        Scheduler {
            shared,
            runners: Mutex::new(runners),
        }
    }

    /// Queues `job` under `tenant`, or sheds it with a typed reason.
    pub fn submit(&self, tenant: &str, job: Job) -> Result<(), Rejected> {
        let mut state = self.shared.state.lock().expect("scheduler poisoned");
        if state.draining {
            return Err(Rejected::ShuttingDown);
        }
        let cfg = &self.shared.cfg;
        let tenant_depth = state.queues.get(tenant).map_or(0, VecDeque::len);
        if state.queued >= cfg.global_queue_cap || tenant_depth >= cfg.tenant_queue_cap {
            // Deeper queues ⇒ longer hint, so a retry storm spreads out
            // instead of stampeding the moment one slot frees up.
            let depth = tenant_depth.max(state.queued / cfg.tenant_queue_cap.max(1));
            return Err(Rejected::Overloaded {
                retry_after_ms: cfg.retry_after_ms * (depth as u64 + 1),
            });
        }
        state
            .queues
            .entry(tenant.to_string())
            .or_default()
            .push_back(job);
        state.queued += 1;
        drop(state);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Queued (not yet running) sessions.
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("scheduler poisoned").queued
    }

    /// Currently running sessions.
    pub fn running(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("scheduler poisoned")
            .running
    }

    /// Drains and stops: refuses new submits, waits for queued and
    /// running sessions to finish, then joins the runner threads.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("scheduler poisoned");
            state.draining = true;
            self.shared.available.notify_all();
            while state.queued > 0 || state.running > 0 {
                state = self
                    .shared
                    .idle
                    .wait(state)
                    .expect("scheduler poisoned while draining");
            }
        }
        let handles = std::mem::take(&mut *self.runners.lock().expect("scheduler poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn runner_loop(shared: &Shared) {
    let mut ctx = RunnerCtx::default();
    loop {
        let job = {
            let mut state = shared.state.lock().expect("scheduler poisoned");
            loop {
                if let Some(job) = Shared::take_next(&mut state) {
                    state.running += 1;
                    break job;
                }
                if state.draining {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .expect("scheduler poisoned while idle");
            }
        };
        // Session code is panic-contained one level down
        // (run_chase_task); this boundary catches everything else —
        // decide sessions, reply plumbing — so a runner never dies.
        if catch_unwind(AssertUnwindSafe(|| job(&mut ctx))).is_err() {
            // The panic may have left the scratch mid-search; start
            // clean rather than hand the next session a dirty one.
            ctx = RunnerCtx::default();
        }
        let mut state = shared.state.lock().expect("scheduler poisoned");
        state.running -= 1;
        if state.queued == 0 && state.running == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn counter_job(counter: &Arc<AtomicUsize>) -> Job {
        let counter = Arc::clone(counter);
        Box::new(move |_ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn runs_submitted_jobs_and_drains() {
        let sched = Scheduler::new(SchedulerConfig {
            runners: 2,
            tenant_queue_cap: 16,
            ..SchedulerConfig::default()
        });
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            sched.submit("t", counter_job(&done)).unwrap();
        }
        sched.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 10);
        assert_eq!(sched.queued(), 0);
        assert_eq!(sched.running(), 0);
    }

    #[test]
    fn submits_after_shutdown_are_refused() {
        let sched = Scheduler::new(SchedulerConfig::default());
        sched.shutdown();
        let done = Arc::new(AtomicUsize::new(0));
        assert_eq!(
            sched.submit("t", counter_job(&done)),
            Err(Rejected::ShuttingDown)
        );
    }

    #[test]
    fn tenant_queue_cap_sheds_with_retry_hint() {
        // One runner blocked on a gate, so submits pile up in queues.
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            tenant_queue_cap: 2,
            global_queue_cap: 64,
            retry_after_ms: 10,
        });
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        sched
            .submit(
                "a",
                Box::new(move |_| {
                    started_tx.send(()).unwrap();
                    gate_rx.recv().unwrap();
                }),
            )
            .unwrap();
        started_rx.recv().unwrap(); // runner is now busy
        let done = Arc::new(AtomicUsize::new(0));
        sched.submit("a", counter_job(&done)).unwrap();
        sched.submit("a", counter_job(&done)).unwrap();
        match sched.submit("a", counter_job(&done)) {
            Err(Rejected::Overloaded { retry_after_ms }) => assert!(retry_after_ms >= 10),
            other => panic!("expected overload, got {other:?}"),
        }
        // Another tenant still has room.
        sched.submit("b", counter_job(&done)).unwrap();
        gate_tx.send(()).unwrap();
        sched.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        // Single runner; tenant "a" floods first, then "b" submits two.
        // Fair-share must not run all of "a" before "b" starts.
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            tenant_queue_cap: 16,
            global_queue_cap: 64,
            retry_after_ms: 10,
        });
        let order = Arc::new(Mutex::new(Vec::new()));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        sched
            .submit(
                "hold",
                Box::new(move |_| {
                    started_tx.send(()).unwrap();
                    gate_rx.recv().unwrap();
                }),
            )
            .unwrap();
        started_rx.recv().unwrap();
        let tag_job = |tag: &'static str| -> Job {
            let order = Arc::clone(&order);
            Box::new(move |_| order.lock().unwrap().push(tag))
        };
        for _ in 0..4 {
            sched.submit("a", tag_job("a")).unwrap();
        }
        for _ in 0..2 {
            sched.submit("b", tag_job("b")).unwrap();
        }
        gate_tx.send(()).unwrap();
        sched.shutdown();
        let order = order.lock().unwrap().clone();
        assert_eq!(order.len(), 6);
        let first_b = order.iter().position(|&t| t == "b").unwrap();
        assert!(
            first_b <= 2,
            "tenant b's first job should run early despite a's flood: {order:?}"
        );
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_runner() {
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            ..SchedulerConfig::default()
        });
        chase_engine::faults::silence_injected_panics();
        sched
            .submit("t", Box::new(|_| chase_engine::faults::inject_panic()))
            .unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        sched.submit("t", counter_job(&done)).unwrap();
        sched.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1, "runner survived the panic");
    }

    #[test]
    fn runner_ctx_lends_one_scratch_whatever_the_threads() {
        let mut ctx = RunnerCtx::default();
        let two: *const HomScratch = ctx.pool_for(Some(2));
        let none: *const HomScratch = ctx.pool_for(None);
        assert_eq!(two, none);
    }
}
