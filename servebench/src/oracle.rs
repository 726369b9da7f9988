//! The in-process oracle: every reply is checked against a direct
//! library call with the same spec, computed after the measured window.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chase_core::compile::{compile, CompiledProgram};
use chase_engine::governor::Budget;
use chase_engine::restricted::Strategy;
use chase_engine::task::{run_chase_task, ChaseTaskSpec, TaskEngine};
use chase_server::protocol::outcome_name;
use chase_server::scheduler::RunnerCtx;
use chase_telemetry::NullObserver;
use chase_termination::{decide, decider_class, DeciderConfig, TerminationVerdict};
use chase_workloads::suite::Expected;

use crate::gen::{Engine, Op, Req};

/// The fields of a `result` reply the oracle compares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResultFields {
    /// `status` (`ok`, `parse_error`, `panicked`).
    pub status: String,
    /// Chase outcome name.
    pub outcome: String,
    /// Chase steps.
    pub steps: u64,
    /// Chase result atoms.
    pub atoms: u64,
    /// Chase result fingerprint (hex).
    pub fingerprint: String,
    /// Decide verdict name.
    pub verdict: String,
    /// Whether a decide verdict came from the memo cache.
    pub cached: bool,
}

/// What a direct run says a request must return.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A chase run's observable result.
    Chase {
        /// Outcome name.
        outcome: &'static str,
        /// Steps.
        steps: u64,
        /// Atoms.
        atoms: u64,
        /// `TaskOutput::fingerprint`, hex.
        fingerprint: String,
        /// Wall time of the direct run.
        run: Duration,
    },
    /// A decision.
    Decide {
        /// The verdict.
        verdict: TerminationVerdict,
        /// The decider class `decide` dispatched to.
        class: &'static str,
        /// Wall time of the direct call.
        run: Duration,
    },
}

impl Expect {
    /// Wall time of the direct call.
    pub fn run(&self) -> Duration {
        match self {
            Expect::Chase { run, .. } | Expect::Decide { run, .. } => *run,
        }
    }
}

/// The wire name of a verdict.
pub fn verdict_name(v: &TerminationVerdict) -> &'static str {
    match v {
        TerminationVerdict::AllInstancesTerminating(_) => "terminating",
        TerminationVerdict::NonTerminating(_) => "non_terminating",
        TerminationVerdict::Unknown { .. } => "unknown",
    }
}

/// The task spec the server builds for a chase request over its
/// compiled program.
pub fn chase_spec(req: &Req, program: Arc<CompiledProgram>) -> ChaseTaskSpec {
    let Op::Chase {
        engine,
        max_steps,
        threads,
    } = &req.op
    else {
        panic!("not a chase request")
    };
    let mut spec = ChaseTaskSpec::compiled(program);
    spec.engine = match engine {
        Engine::Fifo => TaskEngine::Restricted {
            strategy: Strategy::Fifo,
        },
        Engine::Lifo => TaskEngine::Restricted {
            strategy: Strategy::Lifo,
        },
        Engine::Priority => TaskEngine::Restricted {
            strategy: Strategy::PriorityTgd,
        },
        Engine::Oblivious => TaskEngine::Oblivious { semi: false },
        Engine::Semi => TaskEngine::Oblivious { semi: true },
    };
    if let Some(n) = max_steps {
        spec.budget = Budget {
            max_steps: *n as usize,
            max_atoms: usize::MAX,
        };
    }
    spec.threads = threads.map(|n| n as usize);
    spec
}

/// Runs the direct library call for `req`. Chase runs take their
/// worker pool from `ctx`, as the server's runners do, so the timing
/// leaves out pool construction the server does once per runner.
pub fn expect(req: &Req, ctx: &mut RunnerCtx) -> Expect {
    match req.op {
        Op::Chase { .. } => {
            let program = compile(&req.program).expect("generated programs compile");
            let spec = chase_spec(req, program);
            let started = Instant::now();
            let out = run_chase_task(&spec, &mut NullObserver, Some(ctx.pool_for(spec.threads)))
                .unwrap_or_else(|e| panic!("direct run of a generated program failed: {e}"));
            let run = started.elapsed();
            Expect::Chase {
                outcome: outcome_name(out.outcome),
                steps: out.steps as u64,
                atoms: out.atoms() as u64,
                fingerprint: format!("{:016x}", out.fingerprint()),
                run,
            }
        }
        Op::Decide => {
            let program = compile(&req.program).expect("generated programs compile");
            let started = Instant::now();
            let verdict = decide(
                program.tgd_set(),
                program.vocab(),
                &DeciderConfig::default(),
            );
            let run = started.elapsed();
            Expect::Decide {
                verdict,
                class: decider_class(program.tgd_set()),
                run,
            }
        }
    }
}

/// Checks one reply against the direct call (and, for suite-derived
/// decide programs, against the hand-derived label).
pub fn check(req: &Req, got: &ResultFields, want: &Expect) -> Result<(), String> {
    if got.status != "ok" {
        return Err(format!("status {}", got.status));
    }
    match want {
        Expect::Chase {
            outcome,
            steps,
            atoms,
            fingerprint,
            ..
        } => {
            if got.outcome != *outcome
                || got.steps != *steps
                || got.atoms != *atoms
                || got.fingerprint != *fingerprint
            {
                return Err(format!(
                    "chase mismatch: server {}/{}/{}/{}, direct {outcome}/{steps}/{atoms}/{fingerprint}",
                    got.outcome, got.steps, got.atoms, got.fingerprint
                ));
            }
        }
        Expect::Decide { verdict, .. } => {
            let name = verdict_name(verdict);
            if got.verdict != name {
                return Err(format!(
                    "verdict mismatch: server {}, direct {name}",
                    got.verdict
                ));
            }
            let label = match req.expected {
                Some(Expected::Terminating) => Some("terminating"),
                Some(Expected::NonTerminating) => Some("non_terminating"),
                None => None,
            };
            if let Some(label) = label {
                if label != name {
                    return Err(format!(
                        "verdict {name} contradicts the suite label {label}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Direct results keyed by program text and op, so a working set's
/// repeated requests cost one direct call each.
#[derive(Default)]
pub struct Memo {
    map: HashMap<(Arc<str>, Op), Arc<Expect>>,
}

impl Memo {
    /// The direct results for `reqs`, computing missing ones on up to
    /// `threads` threads.
    pub fn fill(&mut self, reqs: &[&Req], threads: usize) {
        let mut todo: Vec<&Req> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for r in reqs {
            let key = (Arc::clone(&r.program), r.op.clone());
            if !self.map.contains_key(&key) && seen.insert(key) {
                todo.push(r);
            }
        }
        let chunks: Vec<Vec<(Arc<str>, Op, Expect)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|t| {
                    let todo = &todo;
                    s.spawn(move || {
                        let mut ctx = RunnerCtx::default();
                        todo.iter()
                            .skip(t)
                            .step_by(threads.max(1))
                            .map(|r| (Arc::clone(&r.program), r.op.clone(), expect(r, &mut ctx)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        for (program, op, e) in chunks.into_iter().flatten() {
            self.map.insert((program, op), Arc::new(e));
        }
    }

    /// The direct result for `req` (after [`Memo::fill`]).
    pub fn get(&self, req: &Req) -> Arc<Expect> {
        let key = (Arc::clone(&req.program), req.op.clone());
        Arc::clone(
            self.map
                .get(&key)
                .expect("oracle memo filled for every request"),
        )
    }
}
