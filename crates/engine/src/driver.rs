//! Batched, optionally parallel trigger discovery.
//!
//! The chase engines discover candidate triggers in batches: the seed
//! batch (all triggers on the database) and, after each application,
//! the delta batch (triggers whose body uses a newly inserted atom).
//! This module evaluates a batch either sequentially or fanned out
//! over the engine's persistent [`DiscoveryPool`] workers, which
//! *steal* work at `(slot, TGD)` cell granularity: an atomic cursor
//! hands out chunks of the slot-major cell grid, so an uneven cell
//! (one TGD with a quadratic join against one hot slot) no longer
//! serialises the batch the way the old static per-TGD partition did.
//!
//! ## Determinism invariants
//!
//! Parallel discovery is **bit-identical** to sequential discovery:
//!
//! 1. Workers only *read* the instance; all mutation (seen-set
//!    insertion, queue pushes, telemetry) happens on the driving
//!    thread after the merge.
//! 2. Every `(slot, TGD)` cell is enumerated wholly by one worker, in
//!    the matcher's canonical order, so a stable sort of the combined
//!    output by `(slot position, TGD id)` reproduces the exact
//!    sequential discovery order regardless of scheduling, stealing
//!    order or worker count.
//! 3. Workers only *discover*: activeness is never judged during a
//!    batch, so no trigger is dropped or annotated and queue length
//!    and contents stay identical to the sequential run, which keeps
//!    even the `Random` strategy reproducible. Every restriction check
//!    runs at pop time on the driving thread, against exactly the
//!    instance the preceding steps left.
//!
//! These invariants make the *default* telemetry stream of a parallel
//! run identical to the sequential one. The opt-in profiling stream is
//! deterministic in shape only: per-worker `worker` spans appear in
//! worker-index order with run-varying timings.
//!
//! Worker threads and their scratches live in the engine-owned
//! [`DiscoveryPool`] for the whole run (see [`crate::pool`]); a batch
//! costs a condvar wake instead of the thread spawns + scratch
//! allocations PR 2 paid, which is what fixed the negative scaling
//! this crate used to show on small-batch workloads.

use chase_core::cancel::CancelToken;
use chase_core::hom::HomScratch;
use chase_core::ids::VarId;
use chase_core::instance::Instance;
use chase_core::tgd::{Tgd, TgdId, TgdSet};

use crate::pool::DiscoveryPool;
use crate::trigger::{
    for_each_trigger_of_tgd_using_with, for_each_trigger_of_tgd_with, Trigger, TriggerFp,
};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Whether a chase engine may fan trigger discovery out over threads.
/// Restriction checks and trigger application always run on the
/// driving thread, in queue order.
///
/// `On` is observationally identical to `Off` — same final instance,
/// same step count, same telemetry stream — by the invariants
/// documented in [`crate::driver`]. It only changes wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded discovery (allocation-free steady state).
    #[default]
    Off,
    /// Discovery batches above the engine's `parallel_threshold` are
    /// evaluated by the persistent worker pool, work-stealing over
    /// `(slot, TGD)` cells.
    On,
}

/// Which variable layout identifies a trigger fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpVars {
    /// All body variables in sorted order (restricted & oblivious).
    SortedBody,
    /// Frontier variables only (semi-oblivious identification).
    Frontier,
}

impl FpVars {
    /// The identifying variable slice of `tgd` under this layout.
    #[inline]
    pub fn of(self, tgd: &Tgd) -> &[VarId] {
        match self {
            FpVars::SortedBody => tgd.sorted_body_vars(),
            FpVars::Frontier => tgd.frontier(),
        }
    }
}

/// One discovered candidate trigger, in canonical discovery order
/// after the merge.
#[derive(Debug, Clone)]
pub struct Discovered {
    /// The trigger itself (owned binding).
    pub trigger: Trigger,
    /// Its interned fingerprint under the batch's [`FpVars`] layout.
    pub fp: TriggerFp,
}

/// Minimum number of batch rows (delta slots, or seed atoms) before
/// parallel discovery can amortise its dispatch overhead.
pub const MIN_PARALLEL_ROWS: usize = 2;

/// Cap on the per-row fan-out factor charged to join bodies in
/// [`estimated_batch_work`]: beyond this the index-driven matcher's
/// real cost stops growing with the batch.
const JOIN_ROW_CAP: usize = 256;

/// Estimated matcher work of a discovery batch of `rows` rows (delta
/// slots, or database atoms for the seed batch) against `set`.
///
/// Single-atom ("narrow") bodies cost about one index probe per row;
/// join bodies fan each row out against candidates drawn from the rest
/// of the batch, costing roughly `rows` probes per row (capped).
/// [`go_parallel`] compares this against the engine's
/// `parallel_threshold`, so large-but-narrow batches (hundreds of rows
/// against width-1 bodies, where a sequential pass is a few
/// microseconds) stay sequential while genuinely quadratic batches fan
/// out.
pub fn estimated_batch_work(set: &TgdSet, rows: usize) -> usize {
    let narrow = set.len() - set.join_bodies();
    rows.saturating_mul(narrow).saturating_add(
        rows.saturating_mul(rows.min(JOIN_ROW_CAP))
            .saturating_mul(set.join_bodies()),
    )
}

/// The engines' fan-out gate for a discovery batch of `rows` rows:
/// never under [`Parallelism::Off`], always under a `threshold` of 0,
/// and otherwise once the batch has at least [`MIN_PARALLEL_ROWS`]
/// rows and its [`estimated_batch_work`] reaches `threshold`.
pub fn go_parallel(set: &TgdSet, parallelism: Parallelism, threshold: usize, rows: usize) -> bool {
    if parallelism != Parallelism::On {
        return false;
    }
    if threshold == 0 {
        return true;
    }
    rows >= MIN_PARALLEL_ROWS && estimated_batch_work(set, rows) >= threshold
}

/// Sort key slot for the merge: position of the delta slot in the
/// batch (0 for seed batches) and the TGD id.
struct Keyed {
    slot_ord: u32,
    tgd: u32,
    item: Discovered,
}

/// Enumerates one `(slot_ord, tgd)` cell into `out`. `slot` of `None`
/// means full (seed) enumeration of the TGD.
#[allow(clippy::too_many_arguments)]
fn collect_cell(
    scratch: &mut HomScratch,
    id: TgdId,
    tgd: &Tgd,
    instance: &Instance,
    slot_ord: u32,
    slot: Option<usize>,
    vars: FpVars,
    out: &mut Vec<Keyed>,
) {
    let mut visit = |id: TgdId, b: &chase_core::subst::Binding| {
        out.push(Keyed {
            slot_ord,
            tgd: id.0,
            item: Discovered {
                trigger: Trigger {
                    tgd: id,
                    binding: b.clone(),
                },
                fp: TriggerFp::of(id, b, vars.of(tgd)),
            },
        });
        ControlFlow::Continue(())
    };
    let _ = match slot {
        Some(s) => for_each_trigger_of_tgd_using_with(scratch, id, tgd, instance, s, &mut visit),
        None => for_each_trigger_of_tgd_with(scratch, id, tgd, instance, &mut visit),
    };
}

/// The batch's cell grid: slot-major, TGD-minor, so cell index `i`
/// maps to `(slot_ord, tgd) = (i / ntgds, i % ntgds)`. Seed batches
/// are a single row of `ntgds` cells.
#[derive(Clone, Copy)]
struct CellGrid<'a> {
    slots: Option<&'a [usize]>,
    ntgds: usize,
    ncells: usize,
}

impl<'a> CellGrid<'a> {
    fn new(set: &TgdSet, slots: Option<&'a [usize]>) -> Self {
        let ntgds = set.len();
        let ncells = slots.map_or(1, <[usize]>::len).saturating_mul(ntgds);
        CellGrid {
            slots,
            ntgds,
            ncells,
        }
    }

    /// Enumerates cells `range` (cell indices) in order into `out`,
    /// polling `cancel` between cells.
    #[allow(clippy::too_many_arguments)]
    fn collect_range(
        &self,
        scratch: &mut HomScratch,
        set: &TgdSet,
        instance: &Instance,
        vars: FpVars,
        cancel: Option<&CancelToken>,
        range: std::ops::Range<usize>,
        out: &mut Vec<Keyed>,
    ) -> ControlFlow<()> {
        for cell in range {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return ControlFlow::Break(());
            }
            let slot_ord = cell / self.ntgds;
            let id = TgdId((cell % self.ntgds) as u32);
            collect_cell(
                scratch,
                id,
                set.tgd(id),
                instance,
                slot_ord as u32,
                self.slots.map(|s| s[slot_ord]),
                vars,
                out,
            );
        }
        ControlFlow::Continue(())
    }
}

/// Out-of-band controls for one discovery batch: a cancellation token
/// polled by workers between cells, and (for fault-injection tests) a
/// worker index instructed to panic.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchControl<'a> {
    /// Polled by every worker between cells; a cancelled batch returns
    /// early with partial output, which the governed engine then
    /// discards by stopping at its next poll point.
    pub cancel: Option<&'a CancelToken>,
    /// Fault injection: the worker with this index (if drafted) panics
    /// instead of enumerating. `None` in production.
    pub inject_panic_worker: Option<u32>,
    /// Caps the worker count for this batch below the pool's size
    /// (`None` = use the whole pool). Always bounded by the cell count
    /// — extra workers would idle. Used by the bench harness's thread
    /// scaling curve and the engines' `workers` builder knob.
    pub worker_cap: Option<usize>,
}

/// The result of one discovery batch.
#[derive(Debug)]
pub struct Batch {
    /// Discovered triggers in canonical (sequential) discovery order.
    pub discovered: Vec<Discovered>,
    /// Number of workers whose batch reported a panic. Non-zero means
    /// the partial parallel output was discarded and the whole batch
    /// recomputed sequentially, so `discovered` is complete and
    /// bit-identical to a panic-free run either way.
    pub panicked_workers: u32,
    /// Wall-clock nanoseconds each worker spent on its share, in
    /// worker-index order (a single entry when the batch ran on the
    /// calling thread — including the sequential recompute after a
    /// panic). Feeds the profiler's deterministic per-worker spans;
    /// the *values* vary run to run, the count and order do not.
    pub worker_nanos: Vec<u64>,
}

/// Evaluates a discovery batch (spinning up a throwaway pool) and
/// returns the discovered triggers in canonical (sequential) discovery
/// order. `slots` of `None` requests the seed batch (full
/// enumeration); otherwise the delta batch over the given new slots.
/// Engines use [`collect_batch`] with their own persistent pool; this
/// entry point exists for one-shot callers and tests.
pub fn collect_parallel(
    set: &TgdSet,
    instance: &Instance,
    slots: Option<&[usize]>,
    vars: FpVars,
) -> Vec<Discovered> {
    let mut pool = DiscoveryPool::new(None);
    collect_batch(
        set,
        instance,
        slots,
        vars,
        BatchControl::default(),
        &mut pool,
    )
    .discovered
}

/// Evaluates a discovery batch on `pool`'s persistent workers, with
/// out-of-band [`BatchControl`]s, reporting worker panics instead of
/// propagating them.
///
/// ## Scheduling
///
/// The batch is a slot-major grid of `(slot, TGD)` cells. Workers
/// claim chunks of consecutive cells from an atomic cursor
/// (work-stealing): a skewed cell costs its own worker but never
/// idles the rest, and because each cell is still enumerated wholly
/// by one worker the canonical merge order is unaffected. Batches
/// that resolve to a single worker run inline on the calling thread
/// with the pool's resident scratch — no dispatch, no allocation
/// beyond the output.
///
/// ## Panic safety
///
/// Workers only read shared state, so a panicking worker cannot poison
/// anything; the only loss is its share of the batch. Rather than
/// propagate the panic (taking the whole chase down) or merge a hole
/// (silently losing triggers — unsound for the chase), the driver
/// discards all partial output and recomputes the batch sequentially
/// on the calling thread. The recomputation enumerates cells in
/// canonical order, so the result is bit-identical to a panic-free
/// batch; the panic count is surfaced for telemetry. The pool itself
/// survives (workers catch their panics and park again).
pub fn collect_batch(
    set: &TgdSet,
    instance: &Instance,
    slots: Option<&[usize]>,
    vars: FpVars,
    ctrl: BatchControl<'_>,
    pool: &mut DiscoveryPool,
) -> Batch {
    let grid = CellGrid::new(set, slots);
    let workers = pool
        .target_workers()
        .min(ctrl.worker_cap.unwrap_or(usize::MAX))
        .min(grid.ncells)
        .max(1);
    let inline = |pool: &mut DiscoveryPool| {
        let start = std::time::Instant::now();
        let scratch = pool.inline_scratch();
        let mut out = Vec::new();
        let _ = grid.collect_range(
            &mut scratch.matcher,
            set,
            instance,
            vars,
            ctrl.cancel,
            0..grid.ncells,
            &mut out,
        );
        (out, elapsed_nanos(start))
    };
    let mut panicked = 0u32;
    let mut worker_nanos: Vec<u64> = Vec::with_capacity(workers);
    let mut keyed: Vec<Keyed> = if workers == 1 {
        let (out, nanos) = inline(pool);
        worker_nanos.push(nanos);
        out
    } else {
        // Chunked work-stealing cursor: small enough chunks to balance
        // skew, large enough to keep cursor contention negligible.
        let chunk = (grid.ncells / (workers * 4)).max(1);
        let cursor = AtomicUsize::new(0);
        let outputs: Vec<Mutex<(Vec<Keyed>, u64)>> =
            (0..workers).map(|_| Mutex::new((Vec::new(), 0))).collect();
        let job = |w: usize, scratch: &mut crate::pool::WorkerScratch| {
            let start = std::time::Instant::now();
            let mut out = Vec::new();
            loop {
                let begin = cursor.fetch_add(chunk, Ordering::Relaxed);
                if begin >= grid.ncells {
                    break;
                }
                let end = (begin + chunk).min(grid.ncells);
                if grid
                    .collect_range(
                        &mut scratch.matcher,
                        set,
                        instance,
                        vars,
                        ctrl.cancel,
                        begin..end,
                        &mut out,
                    )
                    .is_break()
                {
                    break;
                }
            }
            *outputs[w].lock().unwrap() = (out, elapsed_nanos(start));
        };
        panicked = pool
            .pool()
            .run_batch(workers, ctrl.inject_panic_worker, &job);
        if panicked > 0 {
            // Canonical sequential recompute; partial output discarded.
            let (out, nanos) = inline(pool);
            worker_nanos.push(nanos);
            out
        } else {
            let mut merged = Vec::new();
            for slot in &outputs {
                let (part, nanos) = std::mem::take(&mut *slot.lock().unwrap());
                merged.extend(part);
                worker_nanos.push(nanos);
            }
            merged
        }
    };
    // Each (slot_ord, tgd) cell lives wholly in one worker's output in
    // matcher order; a stable sort on the cell key therefore restores
    // the exact sequential discovery order.
    keyed.sort_by_key(|k| (k.slot_ord, k.tgd));
    Batch {
        discovered: keyed.into_iter().map(|k| k.item).collect(),
        panicked_workers: panicked,
        worker_nanos,
    }
}

#[inline]
fn elapsed_nanos(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::for_each_trigger_with;
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    #[test]
    fn parallel_seed_matches_sequential_order() {
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "R(a,b). R(b,c). R(c,a). S(a).
             R(x,y), R(y,z) -> exists w. R(z,w).
             S(x) -> exists u. T(x,u).
             R(x,y) -> S(y).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let par = collect_parallel(&set, &p.database, None, FpVars::SortedBody);
        let mut seq = Vec::new();
        let mut scratch = HomScratch::new();
        let _ = for_each_trigger_with(&mut scratch, &set, &p.database, &mut |id, b| {
            seq.push(Trigger {
                tgd: id,
                binding: b.clone(),
            });
            ControlFlow::Continue(())
        });
        assert_eq!(par.len(), seq.len());
        for (d, t) in par.iter().zip(seq.iter()) {
            assert_eq!(&d.trigger, t);
            assert_eq!(d.fp, t.fingerprint(set.tgd(t.tgd)));
        }
    }

    #[test]
    fn worker_cap_bounds_fanout_and_preserves_order() {
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "R(a,b). R(b,c). R(c,a). S(a).
             R(x,y), R(y,z) -> exists w. R(z,w).
             S(x) -> exists u. T(x,u).
             R(x,y) -> S(y).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let free = collect_parallel(&set, &p.database, None, FpVars::SortedBody);
        let mut pool = DiscoveryPool::new(None);
        for cap in [1usize, 2, 8] {
            let batch = collect_batch(
                &set,
                &p.database,
                None,
                FpVars::SortedBody,
                BatchControl {
                    worker_cap: Some(cap),
                    ..BatchControl::default()
                },
                &mut pool,
            );
            // One timing per drafted worker, capped by the request and
            // the seed batch's cell count (one cell per TGD).
            assert!(!batch.worker_nanos.is_empty());
            assert!(batch.worker_nanos.len() <= cap.min(set.len()));
            assert_eq!(batch.discovered.len(), free.len(), "cap={cap}");
            for (a, b) in batch.discovered.iter().zip(free.iter()) {
                assert_eq!(a.trigger, b.trigger, "cap={cap}");
            }
        }
        // cap=1 batches run inline: the pool never spawned for them
        // alone, but the uncapped/over-1 batches above did.
        assert!(pool.spawned() || pool.target_workers() == 1);
    }

    #[test]
    fn pool_reuse_across_batches_is_bit_identical() {
        // The same pool serving many batches (the engine's real usage
        // pattern) must give the same answers as throwaway pools.
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "R(a,b). R(b,c). R(c,a). S(a).
             R(x,y), R(y,z) -> exists w. R(z,w).
             S(x) -> exists u. T(x,u).
             R(x,y) -> S(y).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let reference = collect_parallel(&set, &p.database, None, FpVars::SortedBody);
        let mut pool = DiscoveryPool::new(Some(3));
        for round in 0..10 {
            let batch = collect_batch(
                &set,
                &p.database,
                None,
                FpVars::SortedBody,
                BatchControl::default(),
                &mut pool,
            );
            assert_eq!(batch.discovered.len(), reference.len(), "round {round}");
            for (a, b) in batch.discovered.iter().zip(reference.iter()) {
                assert_eq!(a.trigger, b.trigger, "round {round}");
                assert_eq!(a.fp, b.fp, "round {round}");
            }
        }
    }

    #[test]
    fn parallel_delta_matches_sequential_order() {
        use crate::trigger::for_each_trigger_using_with;
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "R(a,b). R(b,c).
             R(x,y), R(y,z) -> exists w. R(z,w).
             R(x,y) -> S(y).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let mut inst = p.database.clone();
        let r = vocab.lookup_pred("R").unwrap();
        let c = vocab.constant("c");
        let d = vocab.constant("d");
        let (s1, _) = inst.insert(chase_core::atom::Atom::new(
            r,
            vec![
                chase_core::term::Term::Const(c),
                chase_core::term::Term::Const(d),
            ],
        ));
        let slots = [s1];
        let par = collect_parallel(&set, &inst, Some(&slots), FpVars::SortedBody);
        let mut seq = Vec::new();
        let mut scratch = HomScratch::new();
        for &slot in &slots {
            let _ = for_each_trigger_using_with(&mut scratch, &set, &inst, slot, &mut |id, b| {
                seq.push(Trigger {
                    tgd: id,
                    binding: b.clone(),
                });
                ControlFlow::Continue(())
            });
        }
        assert_eq!(par.len(), seq.len());
        for (d, t) in par.iter().zip(seq.iter()) {
            assert_eq!(&d.trigger, t);
            assert_eq!(d.fp, t.fingerprint(set.tgd(t.tgd)));
        }
    }

    #[test]
    fn batch_work_model_separates_narrow_from_join() {
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "R(x,y), R(y,z) -> exists w. R(z,w).
             S(x) -> exists u. T(x,u).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        assert_eq!(set.join_bodies(), 1);
        // rows * narrow + rows^2 * join
        assert_eq!(estimated_batch_work(&set, 10), 10 + 100);
        // Join fan-out is capped; narrow cost keeps scaling linearly.
        let big = estimated_batch_work(&set, 100_000);
        assert_eq!(big, 100_000 + 100_000 * 256);
    }
}
