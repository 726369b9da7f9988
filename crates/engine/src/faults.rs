//! Deterministic fault injection for resilience testing.
//!
//! A [`FaultPlan`] scripts, ahead of time, exactly which faults a run
//! will suffer: a deadline "expiring" at a chosen step, a
//! cancellation request at a chosen step, a telemetry sink whose
//! writes start failing after a chosen count, and (one level up) a
//! task panic or a failing socket. Plans are plain `Copy` data — no
//! clocks, no global state — so the same plan replays the same faults
//! on every run, which is what lets the proptest suite in
//! `tests/faults.rs` assert that *every* fault yields a clean
//! [`Outcome`](crate::governor::Outcome), intact telemetry and no
//! poisoned state.
//!
//! The plan is carried by a
//! [`ResourceGovernor`](crate::governor::ResourceGovernor); the engines
//! consult it at the exact hook points named in the field docs. An empty plan (the default) is free: every check is
//! an `Option` test on `Copy` data.

use std::io::{self, Write};
use std::sync::Once;

use crate::restricted::XorShift64;

/// A deterministic, replayable script of faults for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Report the deadline as expired once `steps >= n` (checked at
    /// every governor poll).
    pub deadline_at_step: Option<usize>,
    /// Trip the run's cancellation token once `steps >= n` (checked at
    /// every governor poll).
    pub cancel_at_step: Option<usize>,
    /// Fail every telemetry sink write after the first `n` succeed
    /// (consumed by [`FlakyWriter`]).
    pub sink_fail_after: Option<u64>,
    /// Panic the session task itself once `steps >= n` (checked at
    /// every governor poll): the deterministic stand-in for a poisoned
    /// rule set blowing up mid-run. The panic unwinds the whole engine
    /// call; only a task-level
    /// `catch_unwind` boundary (see `chase_engine::task`, and the
    /// chase server's per-session containment) survives it, which is
    /// exactly what it exists to prove. Not drawn by
    /// [`FaultPlan::from_seed`]: the seeded proptest suites assert
    /// clean in-run recovery, and a task-level panic is by design not
    /// recoverable in-run.
    pub task_panic_at_step: Option<usize>,
    /// Fail every *socket* write of the session's connection after the
    /// first `n` succeed (consumed by the chase server's connection
    /// writer, mirroring [`FaultPlan::sink_fail_after`] for the wire).
    /// A degraded connection drops telemetry lines and keeps the
    /// session running; the server process must survive. Not drawn by
    /// [`FaultPlan::from_seed`] — it is meaningless outside a server.
    pub socket_fail_after: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// A pseudo-random plan derived from `seed` (xorshift64): each
    /// fault arm is enabled independently with small parameters. The
    /// same seed always produces the same plan.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed);
        let deadline_at_step = (rng.below(2) == 0).then(|| rng.below(6));
        let cancel_at_step = (rng.below(2) == 0).then(|| rng.below(6));
        let sink_fail_after = (rng.below(2) == 0).then(|| rng.below(10) as u64);
        FaultPlan {
            deadline_at_step,
            cancel_at_step,
            sink_fail_after,
            // Deliberately never seeded (see the field docs): the
            // seeded suites assert in-run recovery, and these two arms
            // are only containable one level up (task / connection).
            task_panic_at_step: None,
            socket_fail_after: None,
        }
    }

    /// Whether the injected deadline has "expired" at `steps`.
    pub fn deadline_due(&self, steps: usize) -> bool {
        self.deadline_at_step.is_some_and(|n| steps >= n)
    }

    /// Whether the injected cancellation is due at `steps`.
    pub fn cancel_due(&self, steps: usize) -> bool {
        self.cancel_at_step.is_some_and(|n| steps >= n)
    }

    /// Whether the injected task-level panic is due at `steps`.
    pub fn task_panic_due(&self, steps: usize) -> bool {
        self.task_panic_at_step.is_some_and(|n| steps >= n)
    }
}

/// The panic payload used by [`inject_panic`]; recognised by
/// the quiet panic hook so injected panics do not spam test output.
#[derive(Debug)]
pub struct InjectedPanic;

/// Installs (once, process-wide) a panic hook that swallows
/// [`InjectedPanic`] payloads and forwards every other panic to
/// the previously installed hook. Idempotent and thread-safe.
pub fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Panics the calling thread with an [`InjectedPanic`] payload,
/// quietly (the silencing hook is installed first). Called by the
/// governor when [`FaultPlan::task_panic_at_step`] is due.
pub fn inject_panic() -> ! {
    silence_injected_panics();
    std::panic::panic_any(InjectedPanic);
}

/// An [`io::Write`] adapter whose writes succeed `ok_writes` times and
/// then fail forever with [`io::ErrorKind::BrokenPipe`]; flushes always
/// succeed. Pair it with
/// [`JsonlWriter`](chase_telemetry::JsonlWriter) to exercise the
/// sink's degrade-on-failure path at an exact event index.
#[derive(Debug)]
pub struct FlakyWriter<W> {
    inner: W,
    ok_writes: u64,
}

impl<W> FlakyWriter<W> {
    /// A writer over `inner` that fails after `ok_writes` successes.
    pub fn new(inner: W, ok_writes: u64) -> Self {
        FlakyWriter { inner, ok_writes }
    }

    /// The wrapped writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FlakyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.ok_writes == 0 {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected sink fault",
            ));
        }
        self.ok_writes -= 1;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in 0..64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
    }

    #[test]
    fn seeds_cover_every_fault_arm() {
        let plans: Vec<FaultPlan> = (0..256).map(FaultPlan::from_seed).collect();
        assert!(plans.iter().any(|p| p.deadline_at_step.is_some()));
        assert!(plans.iter().any(|p| p.cancel_at_step.is_some()));
        assert!(plans.iter().any(|p| p.sink_fail_after.is_some()));
        assert!(plans.iter().any(|p| p.is_empty()));
    }

    #[test]
    fn step_indexed_faults_are_monotone() {
        let plan = FaultPlan {
            deadline_at_step: Some(3),
            cancel_at_step: Some(5),
            ..FaultPlan::default()
        };
        assert!(!plan.deadline_due(2));
        assert!(plan.deadline_due(3));
        assert!(plan.deadline_due(100));
        assert!(!plan.cancel_due(4));
        assert!(plan.cancel_due(5));
        let plan = FaultPlan {
            task_panic_at_step: Some(2),
            ..FaultPlan::default()
        };
        assert!(!plan.task_panic_due(1));
        assert!(plan.task_panic_due(2));
        assert!(plan.task_panic_due(9));
    }

    #[test]
    fn task_level_arms_are_never_seeded() {
        // The seeded proptest suites assert clean *in-run* recovery;
        // the task-level arms are only containable one level up, so
        // `from_seed` must never arm them.
        for seed in 0..512 {
            let plan = FaultPlan::from_seed(seed);
            assert_eq!(plan.task_panic_at_step, None);
            assert_eq!(plan.socket_fail_after, None);
        }
    }

    #[test]
    fn flaky_writer_fails_after_quota() {
        let mut w = FlakyWriter::new(Vec::new(), 2);
        assert!(w.write(b"a").is_ok());
        assert!(w.write(b"b").is_ok());
        let err = w.write(b"c").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(w.write(b"d").is_err(), "stays broken");
        assert!(w.flush().is_ok());
        assert_eq!(w.into_inner(), b"ab");
    }

    #[test]
    fn injected_panics_are_quiet_and_recognisable() {
        silence_injected_panics();
        let result = std::panic::catch_unwind(|| inject_panic());
        let payload = result.unwrap_err();
        assert!(payload.downcast_ref::<InjectedPanic>().is_some());
    }
}
