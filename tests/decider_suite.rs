//! Integration test: the termination deciders against the labelled
//! ground-truth suite (experiments E6/E7 in test form).
//!
//! Every entry must be decided (no `Unknown`), agree with the
//! hand-derived label, and every non-termination verdict must carry a
//! replay-valid witness whose database really blows a chase budget.

use restricted_chase::prelude::*;

#[test]
fn deciders_agree_with_ground_truth_on_the_entire_suite() {
    let config = DeciderConfig::default();
    let mut failures = Vec::new();
    for entry in labelled_suite() {
        let (vocab, set) = entry.build();
        let verdict = decide(&set, &vocab, &config);
        let ok = match entry.expected {
            Expected::Terminating => verdict.is_terminating(),
            Expected::NonTerminating => verdict.is_non_terminating(),
        };
        if !ok {
            failures.push(format!(
                "{}: expected {:?}, got {:?}",
                entry.name, entry.expected, verdict
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn non_termination_witnesses_replay_and_diverge() {
    let config = DeciderConfig::default();
    for entry in labelled_suite() {
        if entry.expected != Expected::NonTerminating {
            continue;
        }
        let (vocab, set) = entry.build();
        let TerminationVerdict::NonTerminating(witness) = decide(&set, &vocab, &config) else {
            continue; // covered by the agreement test
        };
        // (a) the recorded derivation is a valid restricted chase
        // derivation from the witness database;
        witness
            .derivation
            .validate(&witness.database, &set, false)
            .unwrap_or_else(|f| panic!("{}: witness replay failed: {f}", entry.name));
        // (b) a fair (FIFO) chase from the same database exhausts a
        // generous budget — independent evidence of divergence.
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&witness.database, Budget::steps(2_000));
        assert_eq!(
            run.outcome,
            Outcome::BudgetExhausted,
            "{}: witness database saturated unexpectedly",
            entry.name
        );
    }
}

#[test]
fn sticky_entries_get_automaton_certificates() {
    let config = DeciderConfig::default();
    for entry in labelled_suite() {
        let (vocab, set) = entry.build();
        if !is_sticky(&set) {
            continue;
        }
        let verdict = decide_sticky(&set, &vocab, &config);
        match (&verdict, entry.expected) {
            (TerminationVerdict::AllInstancesTerminating(cert), Expected::Terminating) => {
                assert!(
                    matches!(cert, TerminationCertificate::StickyAutomatonEmpty { .. }),
                    "{}: unexpected certificate {cert:?}",
                    entry.name
                );
            }
            (TerminationVerdict::NonTerminating(w), Expected::NonTerminating) => {
                assert!(w.description.contains("caterpillar word"), "{}", entry.name);
            }
            other => panic!("{}: sticky decider mismatch: {other:?}", entry.name),
        }
    }
}

#[test]
fn baselines_are_strictly_weaker_than_the_deciders() {
    // E8's containments, in test form:
    //   WA ⊆ SO-critical-terminating ⊆ CT^res_∀∀,
    // with suite members witnessing strictness of each inclusion.
    let budget = Budget::steps(20_000);
    let mut wa_count = 0usize;
    let mut so_count = 0usize;
    let mut ct_count = 0usize;
    let mut wa_not_so = Vec::new();
    let mut so_without_wa = Vec::new();
    let mut ct_without_so = Vec::new();
    for entry in labelled_suite() {
        let (vocab, set) = entry.build();
        let mut scratch = vocab.clone();
        let wa = is_weakly_acyclic(&set, &vocab);
        let so = semi_oblivious_critical(&set, &mut scratch, budget).holds();
        let ct = entry.expected == Expected::Terminating;
        if wa {
            wa_count += 1;
            if !so {
                wa_not_so.push(entry.name);
            }
            assert!(ct, "{}: WA must imply CT", entry.name);
        }
        if so {
            so_count += 1;
            assert!(ct, "{}: SO-critical must imply CT", entry.name);
            if !wa {
                so_without_wa.push(entry.name);
            }
        }
        if ct {
            ct_count += 1;
            if !so {
                ct_without_so.push(entry.name);
            }
        }
    }
    assert!(wa_not_so.is_empty(), "WA ⊆ SO violated: {wa_not_so:?}");
    assert!(
        !so_without_wa.is_empty(),
        "expected a suite member separating SO from WA"
    );
    assert!(
        !ct_without_so.is_empty(),
        "expected a suite member separating CT from SO (e.g. the intro rule)"
    );
    assert!(wa_count < so_count && so_count < ct_count);
}

/// A `Terminating` verdict the server's decide cache memoises is a
/// claim about every derivation, not about one strategy's: for every
/// suite entry the cache stores as terminating, a budgeted restricted
/// chase of the entry's probe database terminates under FIFO, LIFO,
/// per-TGD priority and seeded random order (the derivation strategy
/// matters for the restricted chase; Carral et al., arXiv 2505.16551).
#[test]
fn memoised_terminating_verdicts_hold_under_every_strategy() {
    use restricted_chase::core::compile::compile;
    use restricted_chase::server::DecideCache;
    use restricted_chase::termination::decider_class;

    let config = DeciderConfig::default();
    let cache = DecideCache::new(1024);
    let suite = labelled_suite();
    let mut checked = 0;
    for entry in &suite {
        let program = compile(&format!("{}\n{}", entry.source, entry.probe_database))
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let (set, fp) = (program.tgd_set(), program.fingerprint());
        let class = decider_class(set);
        cache.insert(fp, class, &decide(set, program.vocab(), &config));
        let Some(verdict) = cache.get(fp, class) else {
            continue; // `Unknown` is never memoised
        };
        if !verdict.is_terminating() {
            continue;
        }
        for strategy in [
            Strategy::Fifo,
            Strategy::Lifo,
            Strategy::PriorityTgd,
            Strategy::Random(1),
            Strategy::Random(0xC0FFEE),
        ] {
            let run = RestrictedChase::new(set)
                .strategy(strategy)
                .record_derivation(false)
                .run(program.database(), Budget::steps(100_000));
            assert_eq!(
                run.outcome,
                Outcome::Terminated,
                "{}: memoised terminating verdict, but {strategy:?} did not terminate",
                entry.name
            );
        }
        checked += 1;
    }
    // Every entry labelled terminating is decided and memoised as such.
    let labelled = suite
        .iter()
        .filter(|e| e.expected == Expected::Terminating)
        .count();
    assert!(labelled > 0);
    assert_eq!(checked, labelled);
}
