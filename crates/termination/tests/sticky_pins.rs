//! Regression pins for the sticky decider's on-the-fly emptiness
//! search: verdicts, witnesses and `sticky.automaton_states` counts.
//!
//! The emptiness search stops at the first accepting cycle, so on
//! non-terminating sets it explores a fragment of the caterpillar
//! automaton. Each non-terminating row records the full reachable
//! state count of the explorer that built the whole graph first (the
//! count it reported) next to the count explored now. The verdict must
//! not depend on the search order (Carral et al., arXiv 2505.16551,
//! show that chase strategies can matter), and every witness must
//! still be finitary and pass `Derivation::validate` replay.

use chase_core::parser::parse_tgds;
use chase_core::vocab::Vocabulary;
use chase_telemetry::{names, ChaseObserver, Event};
use chase_termination::sticky::decide_sticky_observed;
use chase_termination::{DeciderConfig, TerminationCertificate, TerminationVerdict};
use chase_workloads::families;
use chase_workloads::suite::{labelled_suite, Expected};

/// Sums the `sticky.automaton_states` counter.
#[derive(Default)]
struct StateCount(u64);

impl ChaseObserver for StateCount {
    fn on_event(&mut self, event: &Event) {
        if let Event::CounterAdd { name, delta } = event {
            if *name == names::AUTOMATON_STATES {
                self.0 += delta;
            }
        }
    }
}

/// Runs the sticky decider on `src`; returns the verdict, the explored
/// state count and the parsed set.
fn decide(src: &str) -> (TerminationVerdict, u64, chase_core::tgd::TgdSet) {
    let mut vocab = Vocabulary::new();
    let set = parse_tgds(src, &mut vocab).expect("pinned source parses");
    let mut count = StateCount::default();
    let verdict = decide_sticky_observed(&set, &vocab, &DeciderConfig::default(), &mut count);
    (verdict, count.0, set)
}

/// (name, full reachable count before, states explored now). Only
/// `R(x,y) → ∃z R(y,z)` (`arity_shift(2)`, `intro-right-recursion`)
/// still explores its whole 7-state graph: in depth-first order every
/// state is met before its lasso closes.
const NON_TERMINATING: &[(&str, u64, u64)] = &[
    ("arity_shift(2)", 7, 7),
    ("arity_shift(3)", 94, 10),
    ("arity_shift(4)", 967, 13),
    ("arity_shift(5)", 9159, 16),
    ("linear_cycle(2)", 38, 11),
    ("linear_cycle(3)", 75, 15),
    ("linear_cycle(4)", 124, 19),
    ("linear_cycle(5)", 185, 23),
    ("linear_cycle(6)", 258, 27),
    ("sticky_join_loop(1)", 37, 11),
    ("sticky_join_loop(2)", 123, 17),
    ("sticky_join_loop(3)", 237, 23),
    ("intro-right-recursion", 7, 7),
    ("sticky-join-loop-1", 37, 11),
    ("sticky-join-loop-2", 123, 17),
    ("two-phase-existential-loop", 38, 11),
    ("guarded-unary-loop", 16, 9),
    ("linear-cycle-3", 75, 15),
    ("arity-shift-3", 94, 10),
    ("sticky-tuv-join", 35, 11),
    ("guarded-binary-regen", 8, 7),
    ("semi-oblivious-gap", 7, 6),
    ("ternary-guard-shift", 94, 10),
    ("three-stage-null-cycle", 75, 15),
];

/// The rows whose full graph has no smaller lasso-closing fragment.
const WHOLE_GRAPH: &[&str] = &["arity_shift(2)", "intro-right-recursion"];

/// The source of a pinned row: a family member or a suite entry.
fn source(name: &str) -> String {
    let arg = |prefix: &str| -> Option<usize> {
        name.strip_prefix(prefix)?.strip_suffix(')')?.parse().ok()
    };
    if let Some(a) = arg("arity_shift(") {
        families::arity_shift(a)
    } else if let Some(n) = arg("linear_cycle(") {
        families::linear_cycle(n)
    } else if let Some(k) = arg("sticky_join_loop(") {
        families::sticky_join_loop(k)
    } else {
        labelled_suite()
            .into_iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no suite entry {name}"))
            .source
    }
}

#[test]
fn non_terminating_sets_stop_early_with_replayable_witnesses() {
    let mut failures = Vec::new();
    for &(name, full, pinned) in NON_TERMINATING {
        let (verdict, explored, set) = decide(&source(name));
        let TerminationVerdict::NonTerminating(witness) = verdict else {
            failures.push(format!("{name}: expected NonTerminating, got {verdict:?}"));
            continue;
        };
        if !witness.finitary {
            failures.push(format!("{name}: witness is not finitary"));
        }
        if let Err(f) = witness.derivation.validate(&witness.database, &set, false) {
            failures.push(format!("{name}: witness replay failed: {f}"));
        }
        if explored != pinned {
            failures.push(format!(
                "{name}: explored {explored} states, pinned {pinned}"
            ));
        }
        let below = explored < full || (explored == full && WHOLE_GRAPH.contains(&name));
        if !below {
            failures.push(format!(
                "{name}: explored {explored} of {full} reachable states"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Every sticky single-head non-terminating suite entry is pinned
/// above, so a new one cannot slip past these checks.
#[test]
fn every_sticky_non_terminating_suite_entry_is_pinned() {
    for entry in labelled_suite() {
        let (_, set) = entry.build();
        let sticky = set.require_single_head().is_ok() && tgd_classes::sticky::is_sticky(&set);
        if sticky && entry.expected == Expected::NonTerminating {
            assert!(
                NON_TERMINATING
                    .iter()
                    .any(|&(name, _, _)| name == entry.name),
                "suite entry {} is sticky and non-terminating but not pinned",
                entry.name
            );
        }
    }
}

/// Empty languages are still explored in full (EXPERIMENTS E6).
#[test]
fn arity_keep_explores_every_reachable_state() {
    for (a, pinned) in [(2, 3), (3, 10), (4, 37), (5, 151)] {
        let (verdict, explored, _) = decide(&families::arity_keep(a));
        match verdict {
            TerminationVerdict::AllInstancesTerminating(
                TerminationCertificate::StickyAutomatonEmpty { states },
            ) => {
                assert_eq!(states, pinned, "arity_keep({a})");
                assert_eq!(explored, pinned as u64, "arity_keep({a}) counter");
            }
            other => panic!("arity_keep({a}): expected an empty automaton, got {other:?}"),
        }
    }
}
