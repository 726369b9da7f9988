//! Pinned fingerprint values. The program cache is keyed by
//! [`ProgramFingerprint`] and every server `result` reply carries a
//! [`TaskOutput::fingerprint`]; both hash the canonical text rendering
//! of a program or a result instance. These tests pin the exact values
//! for a handful of fixed programs, so any change to the renderer, the
//! parser or the hashing that moves a single output byte fails here
//! rather than silently invalidating cache keys and reply fingerprints.
//!
//! The programs cover invented nulls (including `_:n1` vs `_:n10`
//! ordering), mixed arities, and names that collide by prefix
//! (`R(a)`, `R2(a)`, `Ra(b)`, `R_(a)`), whose sort order depends on
//! the bytes after the shared prefix.

use chase_core::compile::compile;
use chase_engine::governor::Budget;
use chase_engine::restricted::Strategy;
use chase_engine::task::{run_chase_task, ChaseTaskSpec, TaskEngine};
use chase_telemetry::NullObserver;

struct Pin {
    name: &'static str,
    source: &'static str,
    engine: TaskEngine,
    max_steps: Option<usize>,
    program_fp: &'static str,
    output_fp: u64,
}

const FIFO: TaskEngine = TaskEngine::Restricted {
    strategy: Strategy::Fifo,
};

fn pins() -> Vec<Pin> {
    vec![
        Pin {
            name: "null chain under a step budget",
            source: "R(a,b).\nR(x,y) -> exists z. R(y,z).\n",
            engine: FIFO,
            max_steps: Some(12),
            program_fp: "289615f06a2e4792f6e40ec7667933ae",
            output_fp: 0xa2c2_14ac_148e_bd1a,
        },
        Pin {
            name: "mixed arities",
            source: "A(a). B(a,b). C(a,b,c).\n\
                     A(x) -> exists y. B(x,y).\n\
                     B(x,y) -> exists z. C(x,y,z).\n\
                     C(x,y,z) -> A(z).\n",
            engine: TaskEngine::Restricted {
                strategy: Strategy::Lifo,
            },
            max_steps: Some(40),
            program_fp: "f2bf85a0f47497e73f7e95056d635efb",
            output_fp: 0x071b_3ae9_bf62_7766,
        },
        Pin {
            name: "prefix-colliding unary names",
            source: "R(a). R2(a). Ra(b). R_(a). R(ab). R(a2). Ra(a).\n\
                     R(x) -> S(x,x).\n\
                     Ra(x) -> exists y. S(x,y).\n",
            engine: FIFO,
            max_steps: None,
            program_fp: "87eb9a407815733aeceaada0a4dac6b6",
            output_fp: 0xe3dc_c387_ebef_ed10,
        },
        Pin {
            name: "prefix-colliding binary names",
            source: "R(a,b). R(a,b2). R(a2,b). Rb(a,b). R2(b,a).\n\
                     R(x,y) -> exists z. Rb(y,z).\n\
                     Rb(x,y) -> R2(y,x).\n",
            engine: TaskEngine::Oblivious { semi: true },
            max_steps: Some(30),
            program_fp: "9357854a1344a8498e0668cf5f9988c8",
            output_fp: 0xa31c_d4fe_99ac_bff6,
        },
        Pin {
            name: "closure example",
            source: include_str!("../../../examples/rules/closure.chase"),
            engine: TaskEngine::Restricted {
                strategy: Strategy::PriorityTgd,
            },
            max_steps: Some(2_000),
            program_fp: "e1fc586d4534fe483caa553cb2e5861f",
            output_fp: 0x50b3_e103_4af9_312f,
        },
    ]
}

#[test]
fn program_and_output_fingerprints_are_pinned() {
    let mut mismatches = Vec::new();
    for pin in pins() {
        let program = compile(pin.source).expect("pinned programs compile");
        let mut spec = ChaseTaskSpec::restricted(pin.source);
        spec.engine = pin.engine;
        if let Some(n) = pin.max_steps {
            spec.budget = Budget::steps(n);
        }
        let out = run_chase_task(&spec, &mut NullObserver, None).expect("pinned runs succeed");
        let program_fp = program.fingerprint().to_hex();
        let output_fp = out.fingerprint();
        if program_fp != pin.program_fp || output_fp != pin.output_fp {
            mismatches.push(format!(
                "{}: program_fp {program_fp} (pinned {}), output_fp {output_fp:#018x} (pinned {:#018x})",
                pin.name, pin.program_fp, pin.output_fp
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
