//! A persistent worker pool for parallel chase phases.
//!
//! PR 2's driver fanned every discovery batch out over a fresh
//! [`std::thread::scope`], paying a thread spawn + join and fresh
//! scratch allocations *per batch* — measurably negative scaling on
//! workloads with many small batches. This module replaces that with a
//! pool owned by the engine for the whole run:
//!
//! * worker threads are spawned **once** (lazily, on the first batch
//!   that wants them) and parked on a condvar between batches;
//! * each worker owns a persistent [`WorkerScratch`] (matcher arena
//!   and activeness probe arena) reused across every batch of the
//!   run — the per-batch allocation noted in PR 2's docs is
//!   gone;
//! * batches are dispatched as borrowed jobs: the driving thread
//!   publishes a closure, wakes the workers, and blocks until every
//!   participating worker has finished, so the closure may freely
//!   borrow per-batch locals.
//!
//! ## Safety
//!
//! Worker threads are `'static` (plain [`std::thread::spawn`]) but
//! jobs borrow run-local state, so [`ChasePool::run_batch`] erases the
//! job's lifetime behind a raw pointer. This is sound because the
//! pool enforces a strict epoch protocol: `run_batch` does not return
//! until every participating worker has reported completion of *this*
//! epoch, a new epoch cannot begin before the previous one's
//! `run_batch` returned (it requires `&mut self`), and workers that
//! sleep through an epoch never touch its job (a sleeping participant
//! would have blocked `run_batch` from returning in the first place).
//! The `unsafe` is confined to this module; the rest of the crate
//! stays `deny(unsafe_code)`-clean.
//!
//! ## Panic safety
//!
//! Jobs run under [`std::panic::catch_unwind`]; a panicking worker
//! reports the panic, replaces its (possibly mid-mutation) scratch,
//! and parks again — the pool survives for the rest of the run. The
//! driver sees the panic count and recomputes the batch sequentially,
//! preserving the bit-identity and fault-injection contracts from
//! PR 2/4.
#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use chase_core::hom::HomScratch;

/// Per-worker reusable scratch state, persisting across batches for
/// the lifetime of the pool (or the run, for the driving thread's
/// inline scratch).
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// Drives trigger enumeration (homomorphism search).
    pub matcher: HomScratch,
}

impl WorkerScratch {
    /// A fresh scratch (empty arenas; allocates nothing until used).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A batch job: called once per participating worker with the worker
/// index and that worker's persistent scratch.
type Job<'a> = dyn Fn(usize, &mut WorkerScratch) + Sync + 'a;

/// A lifetime-erased pointer to the current batch's job. Only ever
/// dereferenced by workers participating in the epoch the pointer was
/// published for, which [`ChasePool::run_batch`] outlives by
/// construction (see the module docs).
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

// SAFETY: the pointee is `Sync` (the `Job` bound) and the epoch
// protocol guarantees it outlives every dereference.
unsafe impl Send for JobPtr {}

/// Pool state guarded by one mutex; workers park on `work_ready`, the
/// driver parks on `done`.
struct PoolState {
    /// Monotone batch counter; a changed epoch is the wake signal.
    epoch: u64,
    /// The published job for the current epoch (`None` between
    /// batches).
    job: Option<JobPtr>,
    /// Workers with index `< participants` run the current epoch's
    /// job; the rest go straight back to sleep.
    participants: usize,
    /// Participants that have not yet finished the current epoch.
    remaining: usize,
    /// Panics observed in the current epoch.
    panicked: u32,
    /// Fault injection: this worker index panics instead of running
    /// the job (see [`crate::faults`]).
    inject_panic_worker: Option<u32>,
    /// Set once at drop; workers exit their loop.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    done: Condvar,
}

/// A persistent pool of parked chase workers (see the module docs).
pub struct ChasePool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ChasePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChasePool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

impl ChasePool {
    /// Spawns a pool of `threads` parked workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                participants: 0,
                remaining: 0,
                panicked: 0,
                inject_panic_worker: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("chase-worker-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("spawn chase worker")
            })
            .collect();
        ChasePool { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `job` on workers `0..participants` (clamped to the pool
    /// size) and blocks until all of them finish. Returns the number
    /// of workers that panicked; panicked workers' effects on shared
    /// batch state are whatever the job made visible before the panic,
    /// so callers treat any non-zero count as "discard and recompute".
    ///
    /// `inject_panic_worker` makes that worker panic instead of
    /// running the job (deterministic fault injection; `None` in
    /// production).
    pub fn run_batch(
        &mut self,
        participants: usize,
        inject_panic_worker: Option<u32>,
        job: &Job<'_>,
    ) -> u32 {
        let participants = participants.clamp(1, self.handles.len());
        // SAFETY: erasing the lifetime is sound because this function
        // does not return until `remaining == 0`, i.e. until every
        // worker that will ever dereference the pointer has finished
        // doing so (module docs, "Safety").
        let job: JobPtr = JobPtr(unsafe {
            std::mem::transmute::<*const Job<'_>, *const Job<'static>>(job as *const Job<'_>)
        });
        let mut st = self.shared.state.lock().unwrap();
        st.epoch += 1;
        st.job = Some(job);
        st.participants = participants;
        st.remaining = participants;
        st.panicked = 0;
        st.inject_panic_worker = inject_panic_worker;
        self.shared.work_ready.notify_all();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
        st.panicked
    }
}

impl Drop for ChasePool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, index: usize) {
    let mut scratch = WorkerScratch::new();
    let mut last_epoch = 0u64;
    loop {
        let (job, inject);
        {
            let mut st = shared.state.lock().unwrap();
            while !st.shutdown && st.epoch == last_epoch {
                st = shared.work_ready.wait(st).unwrap();
            }
            if st.shutdown {
                return;
            }
            last_epoch = st.epoch;
            if index >= st.participants {
                // Not drafted this epoch; the job may already be gone
                // by the time we woke. Never touch it.
                continue;
            }
            job = st.job.expect("participant woken with a published job");
            inject = st.inject_panic_worker == Some(index as u32);
        }
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                crate::faults::inject_worker_panic();
            }
            // SAFETY: `run_batch` keeps the pointee alive until this
            // epoch's participants (us included) report completion.
            let f = unsafe { &*job.0 };
            f(index, &mut scratch);
        }))
        .is_err();
        if panicked {
            // The scratch may have been abandoned mid-mutation.
            scratch = WorkerScratch::new();
        }
        let mut st = shared.state.lock().unwrap();
        if panicked {
            st.panicked += 1;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// The engine-facing pool handle: a lazily spawned [`ChasePool`] plus
/// the driving thread's own persistent [`WorkerScratch`] for batches
/// that run inline.
///
/// Engines create one per run. Sequential runs (and parallel runs
/// whose batches never clear the gate) never spawn a thread —
/// construction allocates nothing, preserving the zero-alloc proof
/// for the sequential hot path.
#[derive(Debug)]
pub struct DiscoveryPool {
    target: usize,
    pool: Option<ChasePool>,
    inline: WorkerScratch,
}

impl DiscoveryPool {
    /// Creates a handle targeting `cap` workers (`None` = one per
    /// available core). No threads are spawned until
    /// [`DiscoveryPool::pool`] is first called.
    pub fn new(cap: Option<usize>) -> Self {
        let target = cap
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);
        DiscoveryPool {
            target,
            pool: None,
            inline: WorkerScratch::new(),
        }
    }

    /// The worker count this handle targets (pool size once spawned).
    pub fn target_workers(&self) -> usize {
        self.target
    }

    /// Whether worker threads have been spawned.
    pub fn spawned(&self) -> bool {
        self.pool.is_some()
    }

    /// The driving thread's persistent scratch for inline batches.
    pub fn inline_scratch(&mut self) -> &mut WorkerScratch {
        &mut self.inline
    }

    /// The underlying pool, spawning its threads on first use.
    pub fn pool(&mut self) -> &mut ChasePool {
        let target = self.target;
        self.pool.get_or_insert_with(|| ChasePool::new(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_jobs_on_all_participants() {
        let mut pool = ChasePool::new(4);
        assert_eq!(pool.threads(), 4);
        let hits = AtomicUsize::new(0);
        let panics = pool.run_batch(4, None, &|w, _scratch| {
            assert!(w < 4);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(panics, 0);
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pool_reuses_workers_across_batches() {
        // Worker-local scratch state persists between batches: mark it
        // in batch 1, observe the mark in batch 2.
        let mut pool = ChasePool::new(2);
        let seen_mark = AtomicUsize::new(0);
        pool.run_batch(2, None, &|w, scratch| {
            let mut mark = chase_core::subst::Binding::new();
            mark.push(chase_core::ids::VarId(w as u32), {
                chase_core::term::Term::Const(chase_core::ids::ConstId(7))
            });
            scratch.matcher.put_binding(mark);
        });
        pool.run_batch(2, None, &|w, scratch| {
            let mark = scratch.matcher.take_binding();
            if mark.get(chase_core::ids::VarId(w as u32)).is_some() {
                seen_mark.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(seen_mark.load(Ordering::SeqCst), 2, "scratches persisted");
    }

    #[test]
    fn pool_limits_participants() {
        let mut pool = ChasePool::new(4);
        let hits = AtomicUsize::new(0);
        pool.run_batch(2, None, &|w, _| {
            assert!(w < 2, "non-participant ran the job");
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        // Over-asking clamps to the pool size.
        let hits = AtomicUsize::new(0);
        pool.run_batch(64, None, &|_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pool_survives_worker_panics() {
        crate::faults::silence_injected_panics();
        let mut pool = ChasePool::new(3);
        let panics = pool.run_batch(3, Some(1), &|w, _| {
            assert_ne!(w, 1, "injected worker must panic before the job");
        });
        assert_eq!(panics, 1);
        // The pool is still fully operational afterwards.
        let hits = AtomicUsize::new(0);
        let panics = pool.run_batch(3, None, &|_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(panics, 0);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn discovery_pool_is_lazy() {
        let mut dp = DiscoveryPool::new(Some(3));
        assert_eq!(dp.target_workers(), 3);
        assert!(!dp.spawned(), "construction must not spawn threads");
        let _ = dp.inline_scratch();
        assert!(!dp.spawned());
        assert_eq!(dp.pool().threads(), 3);
        assert!(dp.spawned());
    }

    #[test]
    fn many_batches_reuse_one_spawn() {
        // A smoke test for the dispatch protocol under churn: many
        // small batches against the same pool must all complete.
        let mut pool = ChasePool::new(3);
        let total = AtomicUsize::new(0);
        for i in 0..200 {
            let n = 1 + (i % 3);
            pool.run_batch(n, None, &|_, _| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        let expect: usize = (0..200).map(|i| 1 + (i % 3)).sum();
        assert_eq!(total.load(Ordering::SeqCst), expect);
    }
}
