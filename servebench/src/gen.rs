//! Seeded input generation: the four workloads' request streams.
//!
//! Everything here is a pure function of the workload and the seed, so
//! the same seed gives a byte-identical stream of request lines (pinned
//! by a test). The server only ever sees the generated lines.

use std::sync::Arc;

use chase_core::compile::compile;
use chase_workloads::families;
use chase_workloads::random::{random_tgds, RandomTgdParams};
use chase_workloads::scale::{scale_workload, ScaleParams, Shape};
use chase_workloads::suite::{labelled_suite, Expected, SuiteEntry};
use tgd_classes::guarded::{all_guarded, all_linear};
use tgd_classes::sticky::is_sticky;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, one connection, 4 tenants, a 64-program working set.
    WarmMixOpen,
    /// Closed loop, 2 clients, never-seen chase programs.
    ColdChaseClosed,
    /// Closed loop, 2 clients, never-seen decide programs.
    ColdDecideClosed,
    /// Closed loop, 1 client, one large program chased with 2 threads.
    LargeChaseThreads2,
}

/// Programs in `warm_mix_open`'s working set (the server's program
/// cache holds 128 entries, so the set fits with room for the
/// never-seen submissions beside it).
pub const WORKING_SET: usize = 64;

/// `warm_mix_open`'s offered rate in requests per second: about a
/// quarter of the rate at which the server saturates on this mix
/// (offered 8,000/s, it completed about 7,700/s on a 2-CPU Xeon VM). At
/// half that rate, bursts of stolen CPU on a shared host queued enough
/// requests to triple the median for whole runs.
pub const OFFERED_RPS: f64 = 2000.0;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::WarmMixOpen,
        Workload::ColdChaseClosed,
        Workload::ColdDecideClosed,
        Workload::LargeChaseThreads2,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMixOpen => "warm_mix_open",
            Workload::ColdChaseClosed => "cold_chase_closed",
            Workload::ColdDecideClosed => "cold_decide_closed",
            Workload::LargeChaseThreads2 => "large_chase_threads2",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::WarmMixOpen => {
                "protocol, program cache, scheduler, wire and event streaming do the work; \
                 the engine and deciders do little"
            }
            Workload::ColdChaseClosed => {
                "compile and the sequential engine dominate; the program cache only misses, \
                 so it bypasses warm_mix_open's cache mechanisms"
            }
            Workload::ColdDecideClosed => {
                "classification, the sticky automaton and the guarded portfolio dominate; \
                 the decide cache always misses"
            }
            Workload::LargeChaseThreads2 => {
                "the only workload above the engine's parallel threshold: the parallel \
                 driver, the pool and the staged apply run"
            }
        }
    }

    /// Concurrent closed-loop clients (`0` for the open loop).
    pub fn clients(self) -> usize {
        match self {
            Workload::WarmMixOpen => 0,
            Workload::ColdChaseClosed | Workload::ColdDecideClosed => 2,
            Workload::LargeChaseThreads2 => 1,
        }
    }
}

/// Engine selection of a chase request, as the wire spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Restricted chase, FIFO.
    Fifo,
    /// Restricted chase, LIFO.
    Lifo,
    /// Restricted chase, per-TGD priority.
    Priority,
    /// Oblivious chase.
    Oblivious,
    /// Semi-oblivious chase.
    Semi,
}

/// What one request asks for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// A chase run.
    Chase {
        /// Engine and strategy.
        engine: Engine,
        /// Step cap, if any.
        max_steps: Option<u64>,
        /// Worker threads, if parallel.
        threads: Option<u64>,
    },
    /// A termination decision.
    Decide,
}

/// One request of a stream, with what the oracle needs to check it.
#[derive(Debug, Clone)]
pub struct Req {
    /// Chase or decide, and how.
    pub op: Op,
    /// Fair-share tenant.
    pub tenant: u8,
    /// Full program source (database and rules).
    pub program: Arc<str>,
    /// The program's canonical fingerprint (hex), for `by_ref`
    /// requests (empty otherwise).
    pub fingerprint: Arc<str>,
    /// Send `program_ref` instead of the source.
    pub by_ref: bool,
    /// Ask for streamed telemetry.
    pub telemetry: bool,
    /// Hand-derived ground truth, for suite-derived decide programs.
    pub expected: Option<Expected>,
    /// Generator family, for reporting.
    pub family: &'static str,
}

impl Req {
    fn new(op: Op, program: String, family: &'static str) -> Req {
        Req {
            op,
            tenant: 0,
            program: program.into(),
            fingerprint: "".into(),
            by_ref: false,
            telemetry: false,
            expected: None,
            family,
        }
    }

    /// Computes the fingerprint `by_ref` requests send.
    fn with_fingerprint(mut self) -> Req {
        let program = compile(&self.program)
            .unwrap_or_else(|e| panic!("generated {} program must compile: {e}", self.family));
        self.fingerprint = program.fingerprint().to_hex().into();
        self
    }

    /// Whether this is a chase request.
    pub fn is_chase(&self) -> bool {
        matches!(self.op, Op::Chase { .. })
    }

    /// The request line for session `id` (no trailing newline). A
    /// `by_ref` request whose program the server no longer holds is
    /// resent with `force_source`.
    pub fn line(&self, id: &str, force_source: bool) -> String {
        let mut out = String::with_capacity(self.program.len() + 160);
        out.push_str("{\"op\":\"");
        out.push_str(if self.is_chase() { "chase" } else { "decide" });
        out.push_str("\",\"id\":\"");
        out.push_str(id);
        out.push_str("\",\"tenant\":\"t");
        out.push_str(&self.tenant.to_string());
        out.push('"');
        if self.by_ref && !force_source {
            out.push_str(",\"program_ref\":\"");
            out.push_str(&self.fingerprint);
            out.push('"');
        } else {
            out.push_str(",\"program\":\"");
            chase_telemetry::event::escape_json(&mut out, &self.program);
            out.push('"');
        }
        if let Op::Chase {
            engine,
            max_steps,
            threads,
        } = &self.op
        {
            let (engine, strategy) = match engine {
                Engine::Fifo => ("restricted", Some("fifo")),
                Engine::Lifo => ("restricted", Some("lifo")),
                Engine::Priority => ("restricted", Some("priority")),
                Engine::Oblivious => ("oblivious", None),
                Engine::Semi => ("semi", None),
            };
            out.push_str(",\"engine\":\"");
            out.push_str(engine);
            out.push('"');
            if let Some(s) = strategy {
                out.push_str(",\"strategy\":\"");
                out.push_str(s);
                out.push('"');
            }
            if let Some(n) = max_steps {
                out.push_str(&format!(",\"max_steps\":{n}"));
            }
            if let Some(n) = threads {
                out.push_str(&format!(",\"threads\":{n}"));
            }
        }
        if self.telemetry {
            out.push_str(",\"telemetry\":true");
        }
        out.push('}');
        out
    }
}

/// A small deterministic PRNG (splitmix64 seeding, xorshift64* steps).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so independent
    /// streams of one seed do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)).max(1))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Renames every predicate `P` of `source` to `P_<salt>` (an identifier
/// directly followed by `(` is a predicate), so the program is new to
/// every cache while its chase and its verdict stay the same.
pub fn salt(source: &str, salt: &str) -> String {
    let mut out = String::with_capacity(source.len() + source.len() / 4);
    let bytes = source.as_bytes();
    let mut start = None;
    for (i, &b) in bytes.iter().enumerate() {
        let ident = b.is_ascii_alphanumeric() || b == b'_';
        match (start, ident) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                out.push_str(&source[s..i]);
                if b == b'(' {
                    out.push('_');
                    out.push_str(salt);
                }
                start = None;
            }
            _ => {}
        }
        if !ident {
            out.push(b as char);
        }
    }
    if let Some(s) = start {
        out.push_str(&source[s..]);
    }
    out
}

fn edges(rng: &mut Rng, pred: &str, nodes: usize, edges: usize) -> String {
    families::edge_database(pred, nodes, edges, rng.next())
}

/// Facts `S_i(c_{j mod 5}, d_{j mod 7}, e_j)` feeding the
/// wide-existential family (`width` relations, `facts` each).
fn wide_facts(width: usize, facts: usize) -> String {
    let mut db = String::new();
    for i in 0..width {
        for j in 0..facts {
            db.push_str(&format!("S{i}(c{},d{},e{j}).\n", j % 5, j % 7));
        }
    }
    db
}

fn wide_rules(width: usize) -> String {
    let mut rules = String::new();
    for i in 0..width {
        rules.push_str(&format!("S{i}(x,y,u) -> exists z. T{i}(x,y,z).\n"));
        rules.push_str(&format!("T{i}(p,q,r) -> W{i}(p,q).\n"));
    }
    rules
}

/// Facts `S_i(c_j, d_{j mod 7})` feeding the data-exchange family.
fn exchange_facts(width: usize, facts: usize) -> String {
    let mut db = String::new();
    for i in 0..width {
        for j in 0..facts {
            db.push_str(&format!("S{i}(c{j},d{}).\n", j % 7));
        }
    }
    db
}

const TRIANGLE: &str = "E(x,y), E(y,z), E(x,z) -> exists w. M(x,z,w).\n";

/// A program of family `pick` (0..4) scaled by `size` in `[0, 1]`:
/// closure, triangle, wide-existential or data-exchange. `small` sizes
/// it for `warm_mix_open` (about 0.1 ms of engine time), otherwise for
/// `cold_chase_closed` (about 1 to 40 ms).
fn chase_program(rng: &mut Rng, pick: usize, size: f64, small: bool) -> (String, &'static str) {
    let lerp = |lo: f64, hi: f64| (lo + (hi - lo) * size).round() as usize;
    match (pick, small) {
        (0, true) => {
            let n = lerp(5.0, 8.0);
            let e = lerp(6.0, 12.0);
            (
                families::full_closure(1) + &edges(rng, "E", n, e),
                "closure",
            )
        }
        (1, true) => (
            TRIANGLE.to_string() + &edges(rng, "E", lerp(5.0, 8.0), lerp(8.0, 14.0)),
            "triangle",
        ),
        (2, true) => (
            wide_rules(1) + &wide_facts(1, lerp(4.0, 10.0)),
            "wide_existential",
        ),
        (_, true) => {
            let w = lerp(1.0, 2.0);
            (
                families::data_exchange(w) + &exchange_facts(w, lerp(3.0, 6.0)),
                "data_exchange",
            )
        }
        (0, false) => {
            let n = lerp(24.0, 44.0);
            let e = n * lerp(2.0, 3.0);
            (
                families::full_closure(lerp(1.0, 3.0)) + &edges(rng, "E", n, e),
                "closure",
            )
        }
        (1, false) => {
            let n = lerp(100.0, 160.0);
            (
                TRIANGLE.to_string() + &edges(rng, "E", n, n * lerp(10.0, 16.0)),
                "triangle",
            )
        }
        (2, false) => {
            let w = lerp(2.0, 6.0);
            (
                wide_rules(w) + &wide_facts(w, lerp(800.0, 2000.0)),
                "wide_existential",
            )
        }
        (_, false) => {
            let w = lerp(2.0, 6.0);
            (
                families::data_exchange(w) + &exchange_facts(w, lerp(1200.0, 3000.0)),
                "data_exchange",
            )
        }
    }
}

/// The generator of one workload's stream for one seed.
pub struct Generator {
    workload: Workload,
    seed: u64,
    /// `warm_mix_open`'s working set, or `large_chase_threads2`'s one
    /// program (chase requests, submitted by source during set-up).
    warm: Vec<Req>,
    /// The labelled suite `cold_decide_closed` salts entries from.
    suite: Vec<SuiteEntry>,
}

impl Generator {
    /// Builds the workload's fixed programs for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let warm = match workload {
            Workload::WarmMixOpen => (0..WORKING_SET)
                .map(|k| {
                    let mut rng = Rng::new(seed, 1_000_000 + k as u64);
                    let pick = rng.range(0, 3);
                    let size = rng.unit();
                    let (src, family) = chase_program(&mut rng, pick, size, true);
                    let fifo = Op::Chase {
                        engine: Engine::Fifo,
                        max_steps: None,
                        threads: None,
                    };
                    Req::new(fifo, salt(&src, &format!("w{k}")), family).with_fingerprint()
                })
                .collect(),
            Workload::LargeChaseThreads2 => vec![Req::new(
                Op::Chase {
                    engine: Engine::Fifo,
                    max_steps: None,
                    threads: Some(2),
                },
                salt(&large_program(), &format!("s{seed}")),
                "scale_chain",
            )
            .with_fingerprint()],
            _ => Vec::new(),
        };
        Generator {
            workload,
            seed,
            warm,
            suite: labelled_suite(),
        }
    }

    /// Requests to send once, by source, before the measured window:
    /// each working-set program as a chase and as a decide (which
    /// memoizes its verdict), or the large program once.
    pub fn warmup(&self) -> Vec<Req> {
        let mut out = Vec::new();
        for req in &self.warm {
            out.push(req.clone());
            if self.workload == Workload::WarmMixOpen {
                let mut decide = req.clone();
                decide.op = Op::Decide;
                out.push(decide);
            }
        }
        out
    }

    /// The `i`-th request of the measured stream.
    pub fn request(&self, i: u64) -> Req {
        let mut rng = Rng::new(self.seed, i);
        match self.workload {
            Workload::WarmMixOpen => {
                let draw = rng.range(0, 99);
                let tenant = rng.range(0, 3) as u8;
                let mut req = if draw < 10 {
                    // A never-seen program, by source: a compile and a
                    // cache insert beside the reads.
                    let pick = rng.range(0, 3);
                    let size = rng.unit();
                    let (src, family) = chase_program(&mut rng, pick, size, true);
                    let fifo = Op::Chase {
                        engine: Engine::Fifo,
                        max_steps: None,
                        threads: None,
                    };
                    Req::new(fifo, salt(&src, &format!("n{i}")), family)
                } else {
                    let mut req = self.warm[rng.range(0, WORKING_SET - 1)].clone();
                    req.by_ref = true;
                    if draw < 25 {
                        req.op = Op::Decide;
                    } else if draw < 30 {
                        req.telemetry = true;
                    }
                    req
                };
                req.tenant = tenant;
                req
            }
            Workload::ColdChaseClosed => {
                let pick = rng.range(0, 3);
                let size = rng.unit();
                let (src, family) = chase_program(&mut rng, pick, size, false);
                let draw = rng.range(0, 99);
                let engine = match draw {
                    0..=59 => Engine::Fifo,
                    60..=69 => Engine::Lifo,
                    70..=79 => Engine::Priority,
                    80..=89 => Engine::Oblivious,
                    _ => Engine::Semi,
                };
                let max_steps =
                    matches!(engine, Engine::Oblivious | Engine::Semi).then_some(200_000);
                let op = Op::Chase {
                    engine,
                    max_steps,
                    threads: None,
                };
                Req::new(op, salt(&src, &format!("c{i}")), family)
            }
            Workload::ColdDecideClosed => decide_program(&self.suite, self.seed, &mut rng, i),
            Workload::LargeChaseThreads2 => {
                let mut req = self.warm[0].clone();
                req.by_ref = true;
                req
            }
        }
    }
}

/// `large_chase_threads2`'s program: a `chase_workloads::scale` chain
/// rendered to rule-file text, with more atoms than the engine's
/// 32,768-atom parallel threshold. The shape is fixed; the benchmark
/// seed only salts its predicate names, so every seed asks for the same
/// work (the scale generator's seed also decides which rules invent
/// nulls, which would make run length vary from seed to seed).
fn large_program() -> String {
    let params = ScaleParams {
        shape: Shape::Chain,
        predicates: 24,
        facts: 36_000,
        constants: 64,
        existential_density: 0.9,
        shards: 8,
        seed: 7,
    };
    let (vocab, set, db) = scale_workload(&params);
    let mut out = String::new();
    for atom in db.iter() {
        out.push_str(&atom.display(&vocab));
        out.push_str(".\n");
    }
    // `TgdSet::display` marks variables with `?`, which the rule-file
    // syntax does not use.
    for rule in set.display(&vocab).lines() {
        out.push_str(&rule.replace('?', "").replace(" . ", ". "));
        out.push_str(".\n");
    }
    out
}

/// One never-seen decide program: a salted suite entry, a scaled
/// family member, or a class-stratified random rule set.
fn decide_program(suite: &[SuiteEntry], seed: u64, rng: &mut Rng, i: u64) -> Req {
    // Request `i` fills slot `i mod 10` of a fixed pattern (4 suite,
    // 3 family, 3 random slots), and each kind cycles through its
    // entries, families and strata in order from a seed-chosen start.
    // Every window then holds the same mix of cheap and costly
    // decisions; the seed picks the salts, the start and the random
    // sets.
    let tag = format!("d{i}");
    let (round, slot) = (i / 10, i % 10);
    let mut req = if slot < 4 {
        let k = (round * 4 + slot + seed) as usize;
        let entry = &suite[k % suite.len()];
        let mut req = Req::new(Op::Decide, salt(&entry.source, &tag), "suite");
        req.expected = Some(entry.expected);
        req
    } else if slot < 7 {
        let k = (round * 3 + slot - 4 + seed) as usize;
        let step = k / 6;
        let (src, family) = match k % 6 {
            0 => (families::arity_shift(2 + step % 4), "arity_shift"),
            1 => (families::sticky_join_loop(1 + step % 3), "sticky_join_loop"),
            2 => (families::linear_cycle(2 + step % 5), "linear_cycle"),
            3 => (
                families::guarded_side_bounded(1 + step % 3),
                "guarded_side_bounded",
            ),
            4 => (families::linear_chain(2 + step % 7), "linear_chain"),
            _ => (families::arity_keep(2 + step % 4), "arity_keep"),
        };
        Req::new(Op::Decide, salt(&src, &tag), family)
    } else {
        // Class-stratified: draw rule sets until one lands in the
        // stratum picked for this request. Sets that are neither sticky
        // nor guarded are left out: the guarded portfolio's fallback on
        // them is unbounded (seconds and gigabytes on 4-rule sets).
        let (stratum, family) = match (round * 3 + slot - 7) % 3 {
            0 => (0, "random_linear"),
            1 => (1, "random_sticky"),
            _ => (2, "random_guarded"),
        };
        loop {
            let params = RandomTgdParams {
                predicates: rng.range(2, 4),
                max_arity: rng.range(1, 3),
                rules: rng.range(2, 4),
                max_body: rng.range(1, 2),
                existential_pct: 30,
            };
            let src = random_tgds(&params, rng.next());
            let program = compile(&src).expect("random rule sets compile");
            let set = program.tgd_set();
            let class = if all_linear(set) {
                0
            } else if is_sticky(set) {
                1
            } else if all_guarded(set) {
                2
            } else {
                3
            };
            if class == stratum {
                break Req::new(Op::Decide, salt(&src, &tag), family);
            }
        }
    };
    req.tenant = (i % 4) as u8;
    req
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64, n: u64) -> String {
        let g = Generator::new(w, seed);
        let mut out = String::new();
        for (k, r) in g.warmup().iter().enumerate() {
            out.push_str(&r.line(&format!("w{k}"), false));
            out.push('\n');
        }
        for i in 0..n {
            out.push_str(&g.request(i).line(&format!("r{i}"), false));
            out.push('\n');
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for w in Workload::ALL {
            let n = if w == Workload::LargeChaseThreads2 {
                3
            } else {
                40
            };
            let a = stream(w, 7, n);
            assert_eq!(a, stream(w, 7, n), "{}", w.name());
            assert_ne!(a, stream(w, 8, n), "{}: seed must matter", w.name());
        }
    }

    #[test]
    fn salting_renames_predicates_only() {
        assert_eq!(
            salt("E(n1,n2).\nE(x,y), E(y,z) -> exists w. M_2(x,w).", "s9"),
            "E_s9(n1,n2).\nE_s9(x,y), E_s9(y,z) -> exists w. M_2_s9(x,w)."
        );
    }

    #[test]
    fn request_lines_parse_on_the_server_side() {
        for w in Workload::ALL {
            let g = Generator::new(w, 3);
            for i in 0..20 {
                let line = g.request(i).line("x", false);
                chase_server::parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            }
        }
    }
}
