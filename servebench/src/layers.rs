//! The traced run's per-layer metrics. Each one times calls into a
//! public entry point of one layer from outside, on the workload's own
//! inputs (the requests of the traced window), or reads what the
//! client recorded on the wire. A layer the workload does not exercise
//! reports 0 and says so in its note.
//!
//! Which end-to-end metric each layer should move, and where:
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | protocol | `parse_ns_p50`, `bytes_per_req` | `chase_p50_ms` on `warm_mix_open` |
//! | cache | `lookup_ref_ns_p50`, `resolve_{hit,miss}_ns_p50`, `program_hit_ratio`, `evictions`, `resident_bytes`, `decide_hit_ratio` | `chase_p50_ms`, `decide_p50_ms` on `warm_mix_open`; nothing on `cold_*` |
//! | compile | `ns_p50`, `ns_per_kib` | `chase_p50_ms` on `cold_chase_closed`, `setup_s` on `large_chase_threads2` |
//! | scheduler | `queue_wait_ns_p50/p95`, `shed`, `runner_busy_share` | `chase_p95_ms` on `warm_mix_open` |
//! | task / engine | `run_ns_p50`, `steps_per_s`, `engine.*_ns` | `atoms_per_s`, `chase_p50_ms` on `cold_chase_closed` |
//! | pool | `threads2_over_seq` | `chase_p50_ms` on `large_chase_threads2` (and nothing on `cold_chase_closed`) |
//! | termination | `decide.*_ns`, `decide.unknown_share.<class>` | `decide_p50_ms`, `unknown_share` on `cold_decide_closed` |
//! | telemetry | `events_per_req`, `ns_per_event` | `chase_p95_ms` on `warm_mix_open` |
//! | wire | `accept_ns_p50`, `result_ns_p50`, `residual_share`, `tracing_overhead_ms` | what the layers above leave unexplained |

use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chase_core::compile::{compile, CompiledProgram, ProgramFingerprint};
use chase_engine::task::run_chase_task;
use chase_server::cache::{DecideCache, ProgramCache, ProgramCacheConfig, Resolution};
use chase_server::parse_request;
use chase_server::scheduler::{Job, Rejected, RunnerCtx, Scheduler, SchedulerConfig};
use chase_telemetry::{spans, NullObserver, SpanObserver};
use chase_termination::{decide, decide_with_telemetry, DeciderConfig, TerminationVerdict};

use crate::gen::{salt, Req, Workload};
use crate::oracle::{chase_spec, Expect, Memo};
use crate::stats::{percentile, sorted};
use crate::wire::{round_trip, Conn, Window};
use crate::Metric;

/// How long one layer's replay may run before it stops sampling.
const LAYER_BUDGET: Duration = Duration::from_secs(2);

/// Plain and telemetry sessions per program in the telemetry probe.
const PROBE_REPS: usize = 3;

/// Jobs the scheduler replay submits at least.
const MIN_SCHEDULER_JOBS: usize = 10;

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn p(values: Vec<f64>, pct: f64) -> Result<f64, String> {
    let s = sorted(values);
    percentile(&s, pct)
        .map(|p| p.value)
        .map_err(|e| format!("p{pct}: {e}"))
}

/// The p95, or the maximum with a note saying so when too few samples
/// lie beyond the p95 (the maximum then bounds it from above).
pub fn p95_or_max(values: Vec<f64>) -> Result<(f64, String), String> {
    let s = sorted(values);
    match percentile(&s, 95.0) {
        Ok(p) => Ok((p.value, format!("p95 of {} samples", p.samples))),
        Err(e) => match s.last() {
            Some(&max) => Ok((max, format!("maximum: no p95 ({e})"))),
            None => Err("no samples".into()),
        },
    }
}

fn p50_or_zero(values: Vec<f64>) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        p(values, 50.0).expect("median of a non-empty set")
    }
}

/// Up to `max` distinct-program requests of `reqs` matching `keep`.
fn distinct(reqs: &[Req], max: usize, keep: impl Fn(&Req) -> bool) -> Vec<&Req> {
    let mut seen = HashSet::new();
    reqs.iter()
        .filter(|r| keep(r) && seen.insert((Arc::clone(&r.program), r.op.clone())))
        .take(max)
        .collect()
}

/// Compiled programs by source, so replays compile each program once.
#[derive(Default)]
struct Compiled(HashMap<Arc<str>, Arc<CompiledProgram>>);

impl Compiled {
    fn get(&mut self, req: &Req) -> Arc<CompiledProgram> {
        Arc::clone(
            self.0
                .entry(Arc::clone(&req.program))
                .or_insert_with(|| compile(&req.program).expect("generated programs compile")),
        )
    }
}

/// Result of the wire telemetry probe.
pub struct TelemetryProbe {
    /// Mean events per telemetry session.
    pub events_per_req: f64,
    /// Extra latency per received event.
    pub ns_per_event: f64,
    /// Programs probed.
    pub programs: usize,
}

/// Sends never-seen variants of the window's programs, alternating
/// without and with `telemetry:true` ([`PROBE_REPS`] of each), and
/// charges the difference of their median latencies to the events
/// received.
pub fn telemetry_probe(conn: &mut Conn, window: &Window) -> Result<TelemetryProbe, String> {
    let sample = distinct(&window.reqs, 16, |_| true);
    let started = Instant::now();
    let (mut extra, mut events, mut programs) = (0.0, 0.0, 0usize);
    let mut id = 1u64 << 50;
    for (k, req) in sample.iter().enumerate() {
        if programs > 0 && started.elapsed() > LAYER_BUDGET {
            break;
        }
        let mut lat = [Vec::new(), Vec::new()];
        let mut seen = 0u64;
        for rep in 0..PROBE_REPS {
            for (j, telemetry) in [false, true].into_iter().enumerate() {
                let mut variant = (*req).clone();
                variant.program = salt(&req.program, &format!("tp{k}r{rep}x{j}")).into();
                variant.by_ref = false;
                variant.telemetry = telemetry;
                id += 1;
                let rec = round_trip(conn, &variant, id, false)?;
                rec.result
                    .as_ref()
                    .map_err(|e| format!("telemetry probe: {e}"))?;
                lat[j].push(ns(rec.done - rec.sent));
                seen += rec.events;
            }
        }
        let [plain, traced] = lat;
        extra += p(traced, 50.0)? - p(plain, 50.0)?;
        events += seen as f64 / PROBE_REPS as f64;
        programs += 1;
    }
    Ok(TelemetryProbe {
        events_per_req: events / programs.max(1) as f64,
        ns_per_event: if events == 0.0 { 0.0 } else { extra / events },
        programs,
    })
}

/// Replays the window's arrivals against an in-process [`Scheduler`]
/// configured like the server under test, with each job doing the
/// request's real work. Returns queue waits, sheds and busy share.
fn scheduler_replay(workload: Workload, window: &Window) -> Result<(Vec<f64>, u64, f64), String> {
    let scheduler = Scheduler::new(SchedulerConfig::default());
    let mut compiled = Compiled::default();
    let waits = Arc::new(Mutex::new(Vec::new()));
    let busy = Arc::new(Mutex::new(Duration::ZERO));
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut make_job = |req: &Req, cached: bool| -> Job {
        let waits = Arc::clone(&waits);
        let busy = Arc::clone(&busy);
        let done_tx = done_tx.clone();
        let task: Box<dyn FnOnce(&mut RunnerCtx) + Send> = if req.is_chase() {
            let spec = chase_spec(req, compiled.get(req));
            Box::new(move |ctx: &mut RunnerCtx| {
                let _ = run_chase_task(&spec, &mut NullObserver, Some(ctx.pool_for(spec.threads)));
            })
        } else if cached {
            Box::new(|_: &mut RunnerCtx| {})
        } else {
            let program = compiled.get(req);
            Box::new(move |_: &mut RunnerCtx| {
                let _ = decide(
                    program.tgd_set(),
                    program.vocab(),
                    &DeciderConfig::default(),
                );
            })
        };
        let submit = Instant::now();
        Box::new(move |ctx: &mut RunnerCtx| {
            let start = Instant::now();
            waits.lock().expect("waits").push(ns(start - submit));
            task(ctx);
            *busy.lock().expect("busy") += start.elapsed();
            let _ = done_tx.send(());
        })
    };
    let cached = |k: usize| {
        window.records[k]
            .result
            .as_ref()
            .map(|r| r.cached)
            .unwrap_or(false)
    };
    let n = window.reqs.len();
    let started = Instant::now();
    let mut shed = 0u64;
    let mut submitted = 0usize;
    let enough =
        |submitted: usize| submitted >= MIN_SCHEDULER_JOBS && started.elapsed() > LAYER_BUDGET;
    let submit = |job: Job, tenant: u8, shed: &mut u64| -> bool {
        match scheduler.submit(&format!("t{tenant}"), job) {
            Ok(()) => true,
            Err(Rejected::Overloaded { .. }) => {
                *shed += 1;
                false
            }
            Err(Rejected::ShuttingDown) => false,
        }
    };
    if workload.clients() == 0 {
        // Open loop: the window's own arrival offsets.
        for k in 0..n {
            if enough(submitted) {
                break;
            }
            let due = started + (window.records[k].due - window.start);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let job = make_job(&window.reqs[k], cached(k));
            submit(job, window.reqs[k].tenant, &mut shed);
            submitted += 1;
        }
    } else {
        // Closed loop: keep `clients` jobs in flight, cycling the window.
        let mut in_flight = 0;
        let mut k = 0;
        while !enough(submitted) {
            if in_flight == workload.clients() {
                done_rx.recv().map_err(|e| e.to_string())?;
                in_flight -= 1;
            }
            let job = make_job(&window.reqs[k % n], cached(k % n));
            if submit(job, window.reqs[k % n].tenant, &mut shed) {
                in_flight += 1;
            }
            submitted += 1;
            k += 1;
        }
    }
    scheduler.shutdown();
    let wall = started.elapsed();
    let busy = *busy.lock().expect("busy");
    let share =
        busy.as_secs_f64() / (SchedulerConfig::default().runners as f64 * wall.as_secs_f64());
    let waits = std::mem::take(&mut *waits.lock().expect("waits"));
    Ok((waits, shed, share))
}

/// Computes every per-layer metric for a traced window.
pub fn per_layer(
    workload: Workload,
    warm: &[Req],
    window: &Window,
    untraced_p50_ms: f64,
    memo: &Memo,
    probe: &TelemetryProbe,
) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();
    let mut compiled = Compiled::default();
    // Warm pools reused across direct runs, as on a server runner.
    let mut runner = RunnerCtx::default();
    let reqs = &window.reqs;
    let n = reqs.len().max(1) as f64;
    let chases = reqs.iter().filter(|r| r.is_chase()).count();
    let decides = reqs.len() - chases;

    // protocol
    let mut parse = Vec::new();
    let started = Instant::now();
    for (k, req) in reqs.iter().enumerate() {
        if k > 0 && started.elapsed() > LAYER_BUDGET {
            break;
        }
        let line = req.line(&format!("r{k}"), false);
        let t = Instant::now();
        let parsed = parse_request(&line);
        parse.push(ns(t.elapsed()));
        parsed.map_err(|e| format!("parse_request rejected a generated line: {e}"))?;
    }
    let parse_p50 = p50_or_zero(parse);
    let bytes: u64 = window.records.iter().map(|r| r.bytes).sum();
    m.push(Metric::new(
        "protocol.parse_ns_p50",
        parse_p50,
        "ns",
        "parse_request on the window's lines",
    ));
    m.push(Metric::new(
        "protocol.bytes_per_req",
        bytes as f64 / n,
        "bytes",
        "request bytes sent, mean",
    ));

    // cache: replay the window's admissions in order.
    let cache = ProgramCache::new(ProgramCacheConfig::default());
    for w in warm {
        cache
            .resolve_source(&w.program, "t0")
            .map_err(|e| e.to_string())?;
    }
    let before = cache.counters().snapshot();
    let (mut lookup, mut hit, mut miss, mut admit) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for req in reqs {
        let tenant = format!("t{}", req.tenant);
        let t = Instant::now();
        let mut resolved = false;
        if req.by_ref {
            let fp = ProgramFingerprint::parse_hex(&req.fingerprint).ok_or("bad fingerprint")?;
            resolved = cache.lookup_ref(fp, &tenant).is_some();
            lookup.push(ns(t.elapsed()));
        }
        if !resolved {
            let t2 = Instant::now();
            let r = cache
                .resolve_source(&req.program, &tenant)
                .map_err(|e| e.to_string())?;
            match r.resolution {
                Resolution::Hit => hit.push(ns(t2.elapsed())),
                Resolution::Compiled => miss.push(ns(t2.elapsed())),
            }
        }
        admit.push(ns(t.elapsed()));
    }
    let after = cache.counters().snapshot();
    let (hits, misses, evictions) = (
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
    );
    let resident = cache.resident_bytes();
    // Buckets the window's own sequence left empty are timed on a
    // second cache over the same programs.
    let probe_cache = ProgramCache::new(ProgramCacheConfig::default());
    let (mut probed_hit, mut probed_miss, mut probed_lookup) = (false, false, false);
    for req in distinct(reqs, 16, |_| true) {
        let t = Instant::now();
        let r = probe_cache
            .resolve_source(&req.program, "probe")
            .map_err(|e| e.to_string())?;
        if miss.is_empty() || probed_miss {
            probed_miss = true;
            miss.push(ns(t.elapsed()));
        }
        let t = Instant::now();
        probe_cache
            .resolve_source(&req.program, "probe")
            .map_err(|e| e.to_string())?;
        if hit.is_empty() || probed_hit {
            probed_hit = true;
            hit.push(ns(t.elapsed()));
        }
        let t = Instant::now();
        probe_cache.lookup_ref(r.program.fingerprint(), "probe");
        if lookup.is_empty() || probed_lookup {
            probed_lookup = true;
            lookup.push(ns(t.elapsed()));
        }
    }
    let src = |probed: bool| {
        if probed {
            "timed on a second cache: the window has none"
        } else {
            "replay of the window's admissions"
        }
    };
    m.push(Metric::new(
        "cache.lookup_ref_ns_p50",
        p50_or_zero(lookup),
        "ns",
        src(probed_lookup),
    ));
    m.push(Metric::new(
        "cache.resolve_hit_ns_p50",
        p50_or_zero(hit),
        "ns",
        src(probed_hit),
    ));
    m.push(Metric::new(
        "cache.resolve_miss_ns_p50",
        p50_or_zero(miss),
        "ns",
        src(probed_miss),
    ));
    m.push(Metric::new(
        "cache.program_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        &format!(
            "CacheCounters::snapshot over the replay, base {} lookups",
            hits + misses
        ),
    ));
    m.push(Metric::new(
        "cache.evictions",
        evictions as f64,
        "count",
        "during the replay",
    ));
    m.push(Metric::new(
        "cache.resident_bytes",
        resident as f64,
        "bytes",
        "after the replay",
    ));

    // Decide memoization, replayed over the window's decides.
    let decide_cache = DecideCache::new(1024);
    for w in warm.iter().filter(|w| !w.is_chase()) {
        if let Expect::Decide { verdict, class, .. } = &*memo.get(w) {
            decide_cache.insert(compiled.get(w).fingerprint(), class, verdict);
        }
    }
    let (mut dhits, mut get_ns) = (0u64, Vec::new());
    for req in reqs.iter().filter(|r| !r.is_chase()) {
        if let Expect::Decide { verdict, class, .. } = &*memo.get(req) {
            let fp = compiled.get(req).fingerprint();
            let t = Instant::now();
            let got = decide_cache.get(fp, class);
            get_ns.push(ns(t.elapsed()));
            match got {
                Some(_) => dhits += 1,
                None => decide_cache.insert(fp, class, verdict),
            }
        }
    }
    m.push(Metric::new(
        "cache.decide_hit_ratio",
        dhits as f64 / decides.max(1) as f64,
        "ratio",
        &format!("base {decides} decide requests"),
    ));

    // compile
    let (mut compile_ns, mut kib) = (Vec::new(), 0.0);
    let started = Instant::now();
    for req in distinct(reqs, usize::MAX, |_| true) {
        if !compile_ns.is_empty() && started.elapsed() > LAYER_BUDGET {
            break;
        }
        let t = Instant::now();
        let compiled = compile(&req.program);
        compile_ns.push(ns(t.elapsed()));
        compiled.map_err(|e| e.to_string())?;
        kib += req.program.len() as f64 / 1024.0;
    }
    let compile_total: f64 = compile_ns.iter().sum();
    m.push(Metric::new(
        "compile.ns_p50",
        p50_or_zero(compile_ns),
        "ns",
        "compile() on the window's distinct programs",
    ));
    m.push(Metric::new(
        "compile.ns_per_kib",
        compile_total / kib.max(1e-9),
        "ns/KiB",
        "total compile time over total source KiB",
    ));

    // scheduler
    let (waits, shed, busy_share) = scheduler_replay(workload, window)?;
    let wait_p50 = p(waits.clone(), 50.0)?;
    m.push(Metric::new(
        "scheduler.queue_wait_ns_p50",
        wait_p50,
        "ns",
        &format!("{} replayed jobs", waits.len()),
    ));
    let (wait_p95, note) = p95_or_max(waits)?;
    m.push(Metric::new(
        "scheduler.queue_wait_ns_p95",
        wait_p95,
        "ns",
        &format!("Scheduler::submit until the job starts, {note}"),
    ));
    m.push(Metric::new(
        "scheduler.shed",
        shed as f64,
        "count",
        "Rejected::Overloaded during the replay",
    ));
    m.push(Metric::new(
        "scheduler.runner_busy_share",
        busy_share,
        "ratio",
        "job time over runners x replay wall time",
    ));

    // task: the oracle's direct runs, one per request.
    let (mut run_ns, mut steps, mut run_s) = (Vec::new(), 0u64, 0.0);
    for req in reqs.iter().filter(|r| r.is_chase()) {
        if let Expect::Chase { run, steps: s, .. } = &*memo.get(req) {
            run_ns.push(ns(*run));
            steps += s;
            run_s += run.as_secs_f64();
        }
    }
    let task_p50 = p50_or_zero(run_ns);
    let none = |what: &str| {
        if chases == 0 {
            format!("0: the workload sends no chase requests ({what})")
        } else {
            what.to_string()
        }
    };
    m.push(Metric::new(
        "task.run_ns_p50",
        task_p50,
        "ns",
        &none("run_chase_task, direct"),
    ));
    m.push(Metric::new(
        "task.steps_per_s",
        if run_s > 0.0 {
            steps as f64 / run_s
        } else {
            0.0
        },
        "1/s",
        &none("steps over run_chase_task time"),
    ));
    let mut profiled = 0usize;
    let mut totals = [0u64; 5];
    let names = [
        spans::MATCH,
        spans::RESTRICTION_CHECK,
        spans::INSERT,
        spans::SEED,
        spans::INDEX_MAINTAIN,
    ];
    let started = Instant::now();
    for req in distinct(reqs, 32, Req::is_chase) {
        if profiled > 0 && started.elapsed() > LAYER_BUDGET {
            break;
        }
        let mut obs = SpanObserver::new();
        let spec = chase_spec(req, compiled.get(req));
        run_chase_task(&spec, &mut obs, Some(runner.pool_for(spec.threads)))
            .map_err(|e| e.to_string())?;
        let profile = obs.profile();
        for (t, name) in totals.iter_mut().zip(names) {
            *t += profile.span_total(name);
        }
        profiled += 1;
    }
    for (name, total) in [
        "engine.match_ns",
        "engine.restriction_check_ns",
        "engine.insert_ns",
        "engine.seed_ns",
        "engine.index_maintain_ns",
    ]
    .into_iter()
    .zip(totals)
    {
        m.push(Metric::new(
            name,
            total as f64 / profiled.max(1) as f64,
            "ns",
            &none(&format!(
                "SpanObserver total per run, {profiled} runs, step spans sampled 1 in 64"
            )),
        ));
    }

    // pool: threads:2 against sequential on the same programs.
    let mut ratio_num = 0.0;
    let mut ratio_den = 0.0;
    let started = Instant::now();
    for req in distinct(reqs, 8, Req::is_chase) {
        if ratio_den > 0.0 && started.elapsed() > LAYER_BUDGET {
            break;
        }
        let mut seq_spec = chase_spec(req, compiled.get(req));
        seq_spec.threads = None;
        let mut par_spec = seq_spec.clone();
        par_spec.threads = Some(2);
        let (mut seq, mut par) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            for (spec, out) in [(&seq_spec, &mut seq), (&par_spec, &mut par)] {
                let pool = runner.pool_for(spec.threads);
                let t = Instant::now();
                run_chase_task(spec, &mut NullObserver, Some(pool)).map_err(|e| e.to_string())?;
                out.push(ns(t.elapsed()));
            }
        }
        ratio_num += p(par, 50.0)?;
        ratio_den += p(seq, 50.0)?;
    }
    m.push(Metric::new(
        "pool.threads2_over_seq",
        if ratio_den > 0.0 {
            ratio_num / ratio_den
        } else {
            0.0
        },
        "ratio",
        &none("p50 run_chase_task time, threads:2 over sequential"),
    ));

    // termination
    let (mut classify, mut sticky, mut guarded, mut decided) = (0u64, 0u64, 0u64, 0usize);
    let started = Instant::now();
    for req in distinct(reqs, 64, |r| !r.is_chase()) {
        if decided > 0 && started.elapsed() > LAYER_BUDGET {
            break;
        }
        let program = compile(&req.program).map_err(|e| e.to_string())?;
        let (_, summary) = decide_with_telemetry(
            program.tgd_set(),
            program.vocab(),
            &DeciderConfig::default(),
        );
        for (phase, nanos) in &summary.phases {
            if phase == "classify" {
                classify += nanos;
            } else if phase.starts_with("sticky.") {
                sticky += nanos;
            } else if phase.starts_with("guarded.") {
                guarded += nanos;
            }
        }
        decided += 1;
    }
    let per = |total: u64| total as f64 / decided.max(1) as f64;
    let dnote = |what: &str| {
        if decides == 0 {
            format!("0: the workload sends no decide requests ({what})")
        } else {
            what.to_string()
        }
    };
    m.push(Metric::new(
        "decide.classify_ns",
        per(classify),
        "ns",
        &dnote("decide_with_telemetry phase time per decide"),
    ));
    m.push(Metric::new(
        "decide.sticky_ns",
        per(sticky),
        "ns",
        &dnote("sticky.* phases per decide"),
    ));
    m.push(Metric::new(
        "decide.guarded_ns",
        per(guarded),
        "ns",
        &dnote("guarded.* phases per decide"),
    ));
    for class in ["sticky", "guarded"] {
        let (mut total, mut unknown) = (0usize, 0usize);
        for req in reqs.iter().filter(|r| !r.is_chase()) {
            if let Expect::Decide {
                verdict, class: c, ..
            } = &*memo.get(req)
            {
                if *c == class {
                    total += 1;
                    unknown += matches!(verdict, TerminationVerdict::Unknown { .. }) as usize;
                }
            }
        }
        m.push(Metric::new(
            &format!("decide.unknown_share.{class}"),
            unknown as f64 / total.max(1) as f64,
            "ratio",
            &format!("base {total} {class}-class decide requests"),
        ));
    }

    // telemetry
    m.push(Metric::new(
        "telemetry.events_per_req",
        probe.events_per_req,
        "count",
        &format!("{} probe programs on the wire", probe.programs),
    ));
    m.push(Metric::new(
        "telemetry.ns_per_event",
        probe.ns_per_event,
        "ns",
        "telemetry session latency over its plain twin, per event",
    ));

    // wire
    let traced: Vec<_> = window
        .records
        .iter()
        .filter(|r| r.result.is_ok() && r.accepted.is_some())
        .collect();
    let accept = traced
        .iter()
        .map(|r| ns(r.accepted.expect("filtered") - r.sent))
        .collect();
    let result = traced
        .iter()
        .map(|r| ns(r.done - r.accepted.expect("filtered")))
        .collect();
    let e2e: Vec<f64> = traced.iter().map(|r| ns(r.done - r.sent)).collect();
    let e2e_p50 = p(e2e, 50.0)?;
    // Per-request server work: the direct run, or the memo lookup for
    // a decide the server answered from its cache.
    let mut work = Vec::new();
    for (req, rec) in reqs.iter().zip(&window.records) {
        let cached = rec.result.as_ref().map(|r| r.cached).unwrap_or(false);
        work.push(if cached {
            p50_or_zero(get_ns.clone())
        } else {
            ns(memo.get(req).run())
        });
    }
    let layers_sum = parse_p50 + p50_or_zero(admit) + wait_p50 + p50_or_zero(work);
    m.push(Metric::new(
        "wire.accept_ns_p50",
        p(accept, 50.0)?,
        "ns",
        "send until accepted",
    ));
    m.push(Metric::new(
        "wire.result_ns_p50",
        p(result, 50.0)?,
        "ns",
        "accepted until result",
    ));
    m.push(Metric::new(
        "wire.residual_share",
        1.0 - layers_sum / e2e_p50,
        "ratio",
        &format!(
            "1 - (parse + admit + queue wait + work p50s = {:.0} ns) / send-to-result p50 {:.0} ns",
            layers_sum, e2e_p50
        ),
    ));
    let traced_p50 = p(
        window
            .records
            .iter()
            .filter(|r| r.result.is_ok())
            .map(|r| r.latency().as_secs_f64() * 1e3)
            .collect(),
        50.0,
    )?;
    m.push(Metric::new(
        "wire.tracing_overhead_ms",
        traced_p50 - untraced_p50_ms,
        "ms",
        "traced window p50 minus untraced window p50",
    ));
    Ok(m)
}
