//! Decider-level governor edge cases, mirroring the engine-level suite
//! in `crates/engine/tests/governor.rs`: a deadline that is already
//! over when `decide` is called, degenerate (zero) budgets, and a
//! cancellation raised before the first poll must each yield a *typed*
//! [`TerminationVerdict`] — never a panic, and never a confident
//! verdict the decider did not actually earn.

use std::time::Duration;

use chase_core::cancel::CancelToken;
use chase_core::parser::parse_program;
use chase_core::vocab::Vocabulary;
use chase_termination::sticky::decide_sticky;
use chase_termination::{decide, DeciderConfig, TerminationVerdict};

/// Sticky and non-terminating: `R(a,b)` chases forever.
const INFINITE: &str = "R(x,y) -> exists z. R(y,z).";
/// Guarded and terminating on every instance.
const FINITE: &str = "R(x,y) -> S(x).";

fn tgd_set(src: &str, vocab: &mut Vocabulary) -> chase_core::tgd::TgdSet {
    let program = parse_program(src, vocab).expect("test program parses");
    program.tgd_set(vocab).expect("test program is a TGD set")
}

fn unknown_reason(verdict: TerminationVerdict) -> String {
    match verdict {
        TerminationVerdict::Unknown { reason } => reason,
        other => panic!("expected Unknown, got {other:?}"),
    }
}

#[test]
fn deadline_already_past_yields_typed_unknown() {
    let mut vocab = Vocabulary::new();
    let set = tgd_set(INFINITE, &mut vocab);
    let config = DeciderConfig {
        deadline: Some(Duration::ZERO),
        ..DeciderConfig::default()
    };
    let reason = unknown_reason(decide(&set, &vocab, &config));
    assert!(
        reason.starts_with("deadline exceeded"),
        "reason should name the deadline, got: {reason}"
    );
}

#[test]
fn cancel_before_first_poll_yields_typed_unknown() {
    let mut vocab = Vocabulary::new();
    let set = tgd_set(INFINITE, &mut vocab);
    let cancel = CancelToken::new();
    cancel.cancel();
    let config = DeciderConfig {
        cancel,
        ..DeciderConfig::default()
    };
    let reason = unknown_reason(decide(&set, &vocab, &config));
    assert!(
        reason.starts_with("cancelled"),
        "reason should name the cancellation, got: {reason}"
    );
}

#[test]
fn cancellation_wins_over_an_expired_deadline() {
    let mut vocab = Vocabulary::new();
    let set = tgd_set(FINITE, &mut vocab);
    let cancel = CancelToken::new();
    cancel.cancel();
    let config = DeciderConfig {
        deadline: Some(Duration::ZERO),
        cancel,
        ..DeciderConfig::default()
    };
    let reason = unknown_reason(decide(&set, &vocab, &config));
    assert!(
        reason.starts_with("cancelled"),
        "cancellation takes precedence, got: {reason}"
    );
}

/// A state cap below what the sticky emptiness search needs yields an
/// `Unknown` that names the phase that ran out. `INFINITE`'s automaton
/// has 3 initial states and its lasso needs 4 more, so a cap of 6
/// stops the search and a cap of 7 lets it find the lasso.
#[test]
fn sticky_state_cap_names_the_emptiness_phase() {
    let mut vocab = Vocabulary::new();
    let set = tgd_set(INFINITE, &mut vocab);
    let capped = |max_automaton_states| DeciderConfig {
        max_automaton_states,
        ..DeciderConfig::default()
    };
    let reason = unknown_reason(decide_sticky(&set, &vocab, &capped(6)));
    assert!(
        reason.starts_with("sticky.emptiness: automaton state cap 6 reached"),
        "reason should name the sticky emptiness phase and its cap, got: {reason}"
    );
    let verdict = decide_sticky(&set, &vocab, &capped(7));
    assert!(verdict.is_non_terminating(), "{verdict:?}");
}

/// Zero budgets must never panic and must never manufacture a verdict
/// the starved search could not have established: an unknown is fine,
/// the *correct* verdict is fine, the opposite verdict is not.
#[test]
fn zero_budgets_never_panic_or_invert_the_verdict() {
    let starved = DeciderConfig {
        chase_budget: 0,
        witness_steps: 0,
        max_seeds: 0,
        max_automaton_states: 0,
        ..DeciderConfig::default()
    };

    let mut vocab = Vocabulary::new();
    let set = tgd_set(INFINITE, &mut vocab);
    let verdict = decide(&set, &vocab, &starved);
    assert!(
        !verdict.is_terminating(),
        "a starved decider must not claim termination of {INFINITE:?}: {verdict:?}"
    );

    let mut vocab = Vocabulary::new();
    let set = tgd_set(FINITE, &mut vocab);
    let verdict = decide(&set, &vocab, &starved);
    assert!(
        !verdict.is_non_terminating(),
        "a starved decider must not claim non-termination of {FINITE:?}: {verdict:?}"
    );
}

/// A pre-cancelled decider must stay typed for every input class the
/// portfolio routes differently (sticky vs guarded), not just one.
#[test]
fn pre_cancelled_decider_is_typed_for_both_portfolio_routes() {
    for src in [INFINITE, FINITE] {
        let mut vocab = Vocabulary::new();
        let set = tgd_set(src, &mut vocab);
        let cancel = CancelToken::new();
        cancel.cancel();
        let config = DeciderConfig {
            cancel,
            ..DeciderConfig::default()
        };
        let reason = unknown_reason(decide(&set, &vocab, &config));
        assert!(reason.starts_with("cancelled"), "{src:?}: {reason}");
    }
}
