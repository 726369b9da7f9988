//! `servebench`: the serving benchmark for `chasectl serve`.
//!
//! One run starts a fresh `chasectl serve --runners 2` child, drives one
//! workload over unix sockets for `--seconds`, checks every reply
//! against a direct in-process library call, and prints the metrics:
//! a host/configuration line, a table of every metric with its unit
//! and note, and as the last line one JSON object with the contract's
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//!
//! ```text
//! servebench --chasectl PATH --workload NAME --seed N --seconds S --trace 0|1
//!            [--steady K]
//! ```
//!
//! `--steady K` runs the workload K times (seeds N..N+K) and prints each
//! end-to-end metric's median, quartiles and range against its bound.
//! `run.sh` next to this crate builds everything and is the entry
//! point `BENCHMARK.json` names.

mod gen;
mod layers;
mod oracle;
mod stats;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use chase_server::cache::ProgramCacheConfig;
use chase_server::scheduler::SchedulerConfig;

use gen::{Generator, Op, Req, Workload, OFFERED_RPS, WORKING_SET};
use oracle::{check, Expect, Memo};
use stats::{percentile, quartiles, sorted};
use wire::{ServerProc, Window};

/// What `loadgen.late_p95_ms` measures.
const LATE_NOTE: &str = "open loop: send after due, closed loop: result to next send";

/// Set-ups per run: at least [`MIN_SETUPS`], and more until they have
/// taken [`SETUP_BUDGET`] (a spawn-and-ping set-up takes about a
/// millisecond, so one run's median then rests on many samples), at
/// most [`MAX_SETUPS`]. `setup_s` is their median.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_millis(250);

/// `(name, unit, better, bound)` of every gated end-to-end metric, as
/// `BENCHMARK.json` lists them (a test keeps the two in step). Latency
/// and throughput are printed but not gated: on a 2-vCPU shared VM
/// their run-to-run spread follows the hypervisor's stolen time (sub-ms
/// medians moved 1.4 to 2.5 times between runs of the same code), wider
/// than the largest bound allowed. Server CPU time per request moved
/// far less.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("server_cpu_ms_per_req", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of every per-layer metric of the traced run.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("protocol.parse_ns_p50", "ns", "lower"),
    ("protocol.bytes_per_req", "bytes", "lower"),
    ("cache.lookup_ref_ns_p50", "ns", "lower"),
    ("cache.resolve_hit_ns_p50", "ns", "lower"),
    ("cache.resolve_miss_ns_p50", "ns", "lower"),
    ("cache.program_hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.resident_bytes", "bytes", "lower"),
    ("cache.decide_hit_ratio", "ratio", "higher"),
    ("compile.ns_p50", "ns", "lower"),
    ("compile.ns_per_kib", "ns/KiB", "lower"),
    ("scheduler.queue_wait_ns_p50", "ns", "lower"),
    ("scheduler.queue_wait_ns_p95", "ns", "lower"),
    ("scheduler.shed", "count", "lower"),
    ("scheduler.runner_busy_share", "ratio", "lower"),
    ("task.run_ns_p50", "ns", "lower"),
    ("task.steps_per_s", "1/s", "higher"),
    ("engine.match_ns", "ns", "lower"),
    ("engine.restriction_check_ns", "ns", "lower"),
    ("engine.insert_ns", "ns", "lower"),
    ("engine.seed_ns", "ns", "lower"),
    ("engine.index_maintain_ns", "ns", "lower"),
    ("pool.threads2_over_seq", "ratio", "lower"),
    ("decide.classify_ns", "ns", "lower"),
    ("decide.sticky_ns", "ns", "lower"),
    ("decide.guarded_ns", "ns", "lower"),
    ("decide.unknown_share.sticky", "ratio", "lower"),
    ("decide.unknown_share.guarded", "ratio", "lower"),
    ("telemetry.events_per_req", "count", "lower"),
    ("telemetry.ns_per_event", "ns", "lower"),
    ("wire.accept_ns_p50", "ns", "lower"),
    ("wire.result_ns_p50", "ns", "lower"),
    ("wire.residual_share", "ratio", "lower"),
    ("wire.tracing_overhead_ms", "ms", "lower"),
    ("loadgen.late_p95_ms", "ms", "lower"),
    ("error_share", "ratio", "lower"),
    ("unknown_share", "ratio", "lower"),
    ("atoms_per_s", "1/s", "higher"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Base, sample count or how it was measured.
    pub note: String,
}

impl Metric {
    /// A metric with its note.
    pub fn new(name: &str, value: f64, unit: &'static str, note: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.to_string(),
        }
    }
}

struct Args {
    chasectl: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    Ok(Args {
        chasectl: PathBuf::from(need("--chasectl")?),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        steady: get("--steady")
            .map(|k| k.parse().map_err(|e| format!("--steady: {e}")))
            .transpose()?,
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host and configuration line printed with every result.
fn config_line(args: &Args, seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sched = SchedulerConfig::default();
    let cache = ProgramCacheConfig::default();
    let w = args.workload;
    let sizes = match w {
        Workload::WarmMixOpen => format!(
            "working set {WORKING_SET} programs = {:.2} of the {}-entry program cache, plus ~10% never-seen programs",
            WORKING_SET as f64 / cache.max_entries as f64,
            cache.max_entries
        ),
        Workload::ColdChaseClosed | Workload::ColdDecideClosed => format!(
            "every request a never-seen program: the stream is unbounded against the {}-entry program cache",
            cache.max_entries
        ),
        Workload::LargeChaseThreads2 => format!(
            "1 program = {:.3} of the {}-entry program cache",
            1.0 / cache.max_entries as f64,
            cache.max_entries
        ),
    };
    let mut out = String::from("{\"servebench\":\"config\"");
    let mut field = |k: &str, v: &str| {
        out.push_str(&format!(",\"{k}\":\""));
        chase_telemetry::event::escape_json(&mut out, v);
        out.push('"');
    };
    field("workload", w.name());
    field("why", w.why());
    field("seed", &seed.to_string());
    field("seconds", &args.seconds.to_string());
    field("trace", if args.trace { "1" } else { "0" });
    field("nproc", &nproc.to_string());
    field("cpu_model", &cpu);
    field("rustc", &command_output("rustc", &["-V"]));
    // Only ask git inside a checkout of its own: a plain copy of the
    // tree must not report (or read) an enclosing repository.
    let commit = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    field("git_commit", &commit);
    field("server_flags", "serve --socket unix:<run dir> --runners 2");
    field(
        "scheduler",
        &format!(
            "runners {} tenant_queue_cap {} global_queue_cap {} retry_after_ms {}",
            sched.runners, sched.tenant_queue_cap, sched.global_queue_cap, sched.retry_after_ms
        ),
    );
    field(
        "caches",
        &format!(
            "program cache {} entries / {} bytes, decide cache 1024 entries",
            cache.max_entries, cache.max_bytes
        ),
    );
    field(
        "load",
        &match w.clients() {
            0 => format!("open loop, {OFFERED_RPS} requests/s offered, 1 connection, 4 tenants"),
            n => format!("closed loop, {n} client(s), one connection each"),
        },
    );
    field("sizes", &sizes);
    out.push('}');
    out
}

/// Spawns a server, waits for `pong`, sends the warm requests once and
/// checks their replies were accepted. Returns the server, the set-up
/// time and the warm records.
fn set_up(
    chasectl: &Path,
    socket: &Path,
    warm: &[Req],
) -> Result<(ServerProc, Duration, Vec<wire::Record>), String> {
    let started = Instant::now();
    let server = ServerProc::spawn(chasectl, socket)?;
    let mut records = Vec::new();
    {
        let mut conn = server.connect()?;
        for (k, req) in warm.iter().enumerate() {
            let rec = wire::round_trip(&mut conn, req, (1 << 60) + k as u64, false)?;
            if rec.result.as_ref().map_or(true, |r| r.status != "ok") {
                return Err(format!("warm-up request {k} failed: {:?}", rec.result));
            }
            records.push(rec);
        }
    }
    Ok((server, started.elapsed(), records))
}

/// Runs one measured window on `server`, from stream index `first`.
fn measure(
    server: &ServerProc,
    gen: &Generator,
    args: &Args,
    seed: u64,
    first: u64,
    trace: bool,
) -> Result<Window, String> {
    match args.workload.clients() {
        0 => {
            let schedule = wire::arrivals(seed ^ first, OFFERED_RPS, args.seconds);
            let reqs = (0..schedule.len() as u64)
                .map(|k| gen.request(first + k))
                .collect();
            wire::open_loop(server, reqs, first, &schedule, trace)
        }
        clients => wire::closed_loop(server, gen, clients, first, args.seconds, trace),
    }
}

/// Failures of a window after the oracle check: `(attempted, failed,
/// first failure)`.
fn verify(window: &Window, memo: &Memo) -> (usize, usize, Option<String>) {
    let mut failed = 0;
    let mut first = None;
    for (req, rec) in window.reqs.iter().zip(&window.records) {
        let verdict = match &rec.result {
            Ok(fields) => check(req, fields, &memo.get(req)),
            Err(e) => Err(e.clone()),
        };
        if let Err(e) = verdict {
            failed += 1;
            first.get_or_insert_with(|| format!("request r{} ({}): {e}", rec.index, req.family));
        }
    }
    (window.records.len(), failed, first)
}

/// Direct results for every request of `windows` and the warm-up.
fn memo_for(windows: &[&Window], warm: &[Req]) -> Memo {
    let all: Vec<&Req> = windows
        .iter()
        .flat_map(|w| w.reqs.iter())
        .chain(warm.iter())
        .collect();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut memo = Memo::default();
    memo.fill(&all, threads);
    memo
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn latency_pct(
    window: &Window,
    keep: impl Fn(&Req) -> bool,
    pct: f64,
) -> Result<(f64, usize), String> {
    let lat: Vec<f64> = window
        .reqs
        .iter()
        .zip(&window.records)
        .filter(|(req, rec)| keep(req) && rec.result.is_ok())
        .map(|(_, rec)| ms(rec.latency()))
        .collect();
    let p = percentile(&sorted(lat), pct).map_err(|e| format!("p{pct}: {e}"))?;
    Ok((p.value, p.samples))
}

/// The end-to-end metrics of an untraced window: those of
/// [`END_TO_END`] and the ones reported beside them.
fn end_to_end(
    window: &Window,
    memo: &Memo,
    setups: &[Duration],
    cpu: Duration,
    rss_mib: f64,
) -> Result<Vec<Metric>, String> {
    let secs = (window.end - window.start).as_secs_f64();
    let ok: Vec<(&Req, &wire::Record)> = window
        .reqs
        .iter()
        .zip(&window.records)
        .filter(|(_, r)| r.result.as_ref().is_ok_and(|f| f.status == "ok"))
        .collect();
    let completed = window.records.iter().filter(|r| r.result.is_ok()).count();
    let (p50, n) = latency_pct(window, |_| true, 50.0)?;
    let setup = stats::median(&setups.iter().map(|d| d.as_secs_f64()).collect::<Vec<_>>())
        .ok_or("no set-up")?;
    let mut m = vec![
        Metric::new("p50_ms", p50, "ms", &format!("all requests, {n} samples")),
        Metric::new(
            "throughput_rps",
            ok.len() as f64 / secs,
            "1/s",
            &format!("{} ok in {secs:.3} s", ok.len()),
        ),
        Metric::new(
            "server_cpu_ms_per_req",
            ms(cpu) / completed.max(1) as f64,
            "ms",
            &format!("utime+stime over {completed} completed requests"),
        ),
        Metric::new(
            "peak_rss_mb",
            rss_mib,
            "MiB",
            "server VmHWM at the end of the run",
        ),
        Metric::new(
            "setup_s",
            setup,
            "s",
            &format!("median of {} set-ups", setups.len()),
        ),
    ];
    m.push(match latency_pct(window, |_| true, 95.0) {
        Ok((v, n)) => Metric::new("p95_ms", v, "ms", &format!("all requests, {n} samples")),
        Err(e) => Metric::new("p95_ms", f64::NAN, "ms", &format!("not reported: {e}")),
    });
    for (kind, is) in [("chase", true), ("decide", false)] {
        let keep = |r: &Req| r.is_chase() == is;
        if let Ok((v, n)) = latency_pct(window, keep, 50.0) {
            m.push(Metric::new(
                &format!("{kind}_p50_ms"),
                v,
                "ms",
                &format!("{n} samples"),
            ));
            match latency_pct(window, keep, 95.0) {
                Ok((v, n)) => m.push(Metric::new(
                    &format!("{kind}_p95_ms"),
                    v,
                    "ms",
                    &format!("{n} samples"),
                )),
                Err(e) => m.push(Metric::new(
                    &format!("{kind}_p95_ms"),
                    f64::NAN,
                    "ms",
                    &format!("not reported: {e}"),
                )),
            }
        }
    }
    let atoms: u64 = ok
        .iter()
        .filter(|(q, _)| q.is_chase())
        .map(|(_, r)| r.result.as_ref().map_or(0, |f| f.atoms))
        .sum();
    m.push(Metric::new(
        "atoms_per_s",
        atoms as f64 / secs,
        "1/s",
        "atoms of ok chase results over the window",
    ));
    let (attempted, failed, _) = verify(window, memo);
    m.push(Metric::new(
        "error_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        &format!("base {attempted} requests attempted"),
    ));
    let mut decides = 0usize;
    let mut unknown = std::collections::BTreeMap::<&str, (usize, usize)>::new();
    for req in window.reqs.iter().filter(|r| r.op == Op::Decide) {
        if let Expect::Decide { verdict, class, .. } = &*memo.get(req) {
            decides += 1;
            let e = unknown.entry(class).or_default();
            e.0 += 1;
            e.1 += verdict.is_unknown() as usize;
        }
    }
    let total: usize = unknown.values().map(|e| e.1).sum();
    m.push(Metric::new(
        "unknown_share",
        total as f64 / decides.max(1) as f64,
        "ratio",
        &format!("base {decides} decide requests"),
    ));
    for (class, (n, u)) in unknown {
        m.push(Metric::new(
            &format!("unknown_share.{class}"),
            u as f64 / n as f64,
            "ratio",
            &format!("base {n} {class}-class decide requests"),
        ));
    }
    let (late, note) = layers::p95_or_max(window.late.iter().map(|d| ms(*d)).collect())?;
    m.push(Metric::new(
        "loadgen.late_p95_ms",
        late,
        "ms",
        &format!("{note}; {LATE_NOTE}"),
    ));
    let retries: u32 = window.records.iter().map(|r| r.retries).sum();
    let shed: u32 = window.records.iter().map(|r| r.shed).sum();
    m.push(Metric::new(
        "client.retries",
        retries as f64,
        "count",
        &format!("resends, {shed} after overloaded"),
    ));
    Ok(m)
}

/// Everything one run reports.
struct RunOutput {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn runtime_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".servebench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args, seed: u64) -> Result<RunOutput, String> {
    // Input generation and the oracle stay outside every timed span.
    let gen = Generator::new(args.workload, seed);
    let warm = gen.warmup();
    let socket = runtime_dir()?.join(format!("s{}.sock", std::process::id()));
    let mut setups = Vec::new();
    let mut server = None;
    let mut warm_records = Vec::new();
    let started = Instant::now();
    let more = |n: usize| n < MIN_SETUPS || (n < MAX_SETUPS && started.elapsed() < SETUP_BUDGET);
    while setups.is_empty() || (!args.trace && more(setups.len())) {
        if let Some(previous) = server.take() {
            ServerProc::shutdown(previous)?;
        }
        let (s, took, recs) = set_up(&args.chasectl, &socket, &warm)?;
        setups.push(took);
        server = Some(s);
        warm_records = recs;
    }
    let server = server.expect("at least one set-up");
    let cpu0 = server.cpu_time()?;
    let window = measure(&server, &gen, args, seed, 0, false)?;
    let cpu = server.cpu_time()? - cpu0;
    let rss = server.peak_rss_mib()?;
    // The traced run measures a second window on the same server, then
    // the telemetry probe; the untraced window gives the overhead base.
    let traced = if args.trace {
        let traced = measure(&server, &gen, args, seed, 1 << 40, true)?;
        let mut conn = server.connect()?;
        let probe = layers::telemetry_probe(&mut conn, &traced)?;
        Some((traced, probe))
    } else {
        None
    };
    server.shutdown()?;
    let _ = std::fs::remove_dir(socket.parent().expect("socket has a directory"));

    let mut windows = vec![&window];
    windows.extend(traced.as_ref().map(|(w, _)| w));
    let memo = memo_for(&windows, &warm);
    check_warm(&warm, &warm_records, &memo)?;
    let (mut attempted, mut failed) = (0, 0);
    for w in &windows {
        let (a, f, first) = verify(w, &memo);
        attempted += a;
        failed += f;
        if let Some(e) = first {
            eprintln!("servebench: {f} failed request(s); first: {e}");
        }
    }
    let mut metrics = end_to_end(&window, &memo, &setups, cpu, rss)?;
    if let Some((traced, probe)) = &traced {
        let untraced_p50 = metrics
            .iter()
            .find(|m| m.name == "p50_ms")
            .expect("end_to_end reports p50_ms")
            .value;
        metrics.extend(layers::per_layer(
            args.workload,
            &warm,
            traced,
            untraced_p50,
            &memo,
            probe,
        )?);
    }
    Ok(RunOutput {
        attempted,
        failed,
        metrics,
    })
}

fn check_warm(warm: &[Req], records: &[wire::Record], memo: &Memo) -> Result<(), String> {
    for (req, rec) in warm.iter().zip(records) {
        let fields = rec.result.as_ref().map_err(Clone::clone)?;
        check(req, fields, &memo.get(req)).map_err(|e| format!("warm-up reply: {e}"))?;
    }
    Ok(())
}

fn print_table(metrics: &[Metric]) {
    println!("{:<32} {:>18} {:<7} note", "metric", "value", "unit");
    for m in metrics {
        let value = if m.value.is_nan() {
            "-".to_string()
        } else {
            format!("{:.6}", m.value)
        };
        println!("{:<32} {:>18} {:<7} {}", m.name, value, m.unit, m.note);
    }
}

fn contract_names(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
    }
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &[(&str, f64, &str)],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

fn contract_values(
    metrics: &[Metric],
    trace: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    contract_names(trace)
        .into_iter()
        .map(|(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not a number: {}", m.note));
            }
            Ok((name, m.value, unit))
        })
        .collect()
}

fn steady(args: &Args, k: usize) -> Result<String, String> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let (mut attempted, mut failed) = (0, 0);
    for seed in args.seed..args.seed + k as u64 {
        let out = run(args, seed)?;
        attempted += out.attempted;
        failed += out.failed;
        for (slot, (name, v, _)) in samples
            .iter_mut()
            .zip(contract_values(&out.metrics, false)?)
        {
            slot.push(v);
            eprintln!("servebench: seed {seed} {name} {v}");
        }
    }
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "metric", "median", "q1", "q3", "min", "max", "spread", "bound"
    );
    let mut medians = Vec::new();
    for ((name, unit, _, bound), v) in END_TO_END.iter().zip(&samples) {
        let [q1, med, q3] = quartiles(v).ok_or("--steady needs at least 2 runs")?;
        let spread = (q3 - q1) / med;
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let verdict = if *name == "setup_s" {
            "spread not gated"
        } else if spread <= bound / 3.0 {
            "steady"
        } else if spread <= *bound {
            "within bound"
        } else {
            "TOO NOISY"
        };
        println!(
            "{name:<24} {med:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {spread:>8.4} {bound:>6}  {verdict}"
        );
        medians.push((*name, med, *unit));
    }
    Ok(result_line(failed == 0, attempted, failed, &medians))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        println!("{}", config_line(&args, args.seed));
        if let Some(k) = args.steady {
            return steady(&args, k);
        }
        let out = run(&args, args.seed)?;
        print_table(&out.metrics);
        let values = contract_values(&out.metrics, args.trace)?;
        Ok(result_line(
            out.failed == 0,
            out.attempted,
            out.failed,
            &values,
        ))
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "missing {entry}");
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
