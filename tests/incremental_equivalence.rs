//! Equivalence property suite for the restriction-check machinery:
//! the frontier memo, composite two-position indexes, and the
//! dedup-map instance layout must leave the engines **bit-identical**
//! to the frozen seed baseline — same outcome, same step count, same
//! final instance, same recorded derivation — on random programs, and
//! the optimised engine's telemetry must not depend on how the run is
//! driven (a lent matcher scratch, the instance's shard count).
//!
//! The random generator emits single-head rules only, so a second
//! property runs small `chase_workloads::scale` programs, whose
//! existential rules have two-atom heads sharing the invented null —
//! the frontier memo's main case. The seed engine has no observer
//! hook and records no derivation, so telemetry equality is checked
//! between optimised runs, and derivations are checked by replaying
//! them through [`Derivation::validate`].

use proptest::prelude::*;
use restricted_chase::prelude::*;
// `proptest::prelude` exports a `Strategy` trait that shadows the
// chase engine's `Strategy` enum in glob imports; re-import explicitly.
use restricted_chase::core::hom::HomScratch;
use restricted_chase::engine::derivation::Derivation;
use restricted_chase::engine::governor::ResourceGovernor;
use restricted_chase::engine::restricted::Strategy;
use restricted_chase::telemetry::{NullObserver, RecordingObserver};
use restricted_chase::workloads::scale::{scale_workload, ScaleParams, Shape};

/// Parses a generated (rules, database) pair.
fn build(seed: u64, db_seed: u64) -> (Vocabulary, TgdSet, Instance) {
    let params = RandomTgdParams::default();
    let rules = random_tgds(&params, seed);
    let db = random_database(&params, 12, seed, db_seed);
    let mut vocab = Vocabulary::new();
    let program = parse_program(&format!("{rules}{db}"), &mut vocab).expect("generated input");
    let set = program.tgd_set(&vocab).expect("generated set");
    (vocab, set, program.database)
}

/// Structural derivation equality (`Derivation` does not implement
/// `PartialEq`): same step count, and per step the same trigger (TGD +
/// binding) and the same added atoms in the same order.
fn assert_derivations_equal(
    a: &Derivation,
    b: &Derivation,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "derivation length: {}", label);
    for (i, (sa, sb)) in a.steps.iter().zip(&b.steps).enumerate() {
        prop_assert_eq!(
            &sa.trigger,
            &sb.trigger,
            "derivation step {} trigger: {}",
            i,
            label
        );
        prop_assert_eq!(
            &sa.added,
            &sb.added,
            "derivation step {} added atoms: {}",
            i,
            label
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 40,
        .. ProptestConfig::default()
    })]

    /// The optimised restricted chase agrees exactly with the frozen
    /// seed engine on outcome, step count, and final instance; a run
    /// with a lent matcher scratch (as the chase server's runners
    /// drive it) records the identical derivation.
    #[test]
    fn watermarked_restricted_equals_seed(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        let mut scratch = HomScratch::new();
        for strategy in [
            Strategy::Fifo,
            Strategy::Lifo,
            Strategy::Random((seed ^ db_seed) | 1),
            Strategy::PriorityTgd,
        ] {
            let reference = SeedRestrictedChase::new(&set).strategy(strategy).run(&db, budget);
            let engine = RestrictedChase::new(&set).strategy(strategy);
            let run = engine.run(&db, budget);
            let label = format!("{strategy:?}");
            prop_assert_eq!(reference.outcome, run.outcome, "outcome: {}", &label);
            prop_assert_eq!(reference.steps, run.steps, "steps: {}", &label);
            prop_assert_eq!(
                reference.instance.len(),
                run.instance.len(),
                "len: {}",
                &label
            );
            prop_assert_eq!(&reference.instance, &run.instance, "instance: {}", &label);
            let lent = engine.run_governed_observed_in(
                &db,
                &ResourceGovernor::from_budget(budget),
                &mut NullObserver,
                &mut scratch,
            );
            prop_assert_eq!(&run.instance, &lent.instance, "lent instance: {}", &label);
            assert_derivations_equal(
                &run.derivation,
                &lent.derivation,
                &format!("{label} fresh-vs-lent scratch"),
            )?;
        }
    }

    /// Recorded derivations of the optimised engine replay cleanly:
    /// every step is an active trigger at its point in the sequence,
    /// every added atom is `result(σ,h)`, and terminated runs leave no
    /// active trigger. This is the soundness check for memoised
    /// activeness short-cuts — a wrong memo entry would skip a trigger
    /// that was in fact still active.
    #[test]
    fn watermarked_derivation_replays(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        let run = RestrictedChase::new(&set).run(&db, budget);
        let must_saturate = run.outcome == Outcome::Terminated;
        let replayed = run.derivation.validate(&db, &set, must_saturate);
        match replayed {
            Ok(final_instance) => prop_assert_eq!(&final_instance, &run.instance),
            Err(fault) => prop_assert!(false, "replay fault: {}", fault),
        }
    }

    /// A fresh-scratch run and a run on a matcher scratch already used
    /// by an earlier run emit identical telemetry event streams (the
    /// seed engine has no observer hook), including the per-run
    /// `triggers.memo_hits` counter.
    #[test]
    fn watermarked_event_streams_identical(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let gov = ResourceGovernor::from_budget(Budget::new(200, 2_000));
        let engine = RestrictedChase::new(&set);
        let mut fresh_obs = RecordingObserver::default();
        let fresh = engine.run_governed_observed(&db, &gov, &mut fresh_obs);
        let mut scratch = HomScratch::new();
        let _ = engine.run_governed_observed_in(&db, &gov, &mut NullObserver, &mut scratch);
        let mut lent_obs = RecordingObserver::default();
        let lent = engine.run_governed_observed_in(&db, &gov, &mut lent_obs, &mut scratch);
        prop_assert_eq!(fresh.outcome, lent.outcome);
        prop_assert_eq!(fresh_obs.events, lent_obs.events);
    }

    /// Sharded runs against the frozen seed oracle: over every shard
    /// count {1, 2, 4, 7} the run must still equal the seed run
    /// (outcome, steps, instance), emit the exact unsharded telemetry
    /// stream, and record a derivation that replays cleanly through
    /// `Derivation::validate`. (The name predates the removal of
    /// parallel discovery, whose thread sweep this test also ran.)
    #[test]
    fn parallel_apply_equals_seed_across_threads_and_shards(
        seed in 0u64..5_000,
        db_seed in 0u64..5_000,
    ) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        let reference = SeedRestrictedChase::new(&set).run(&db, budget);
        let mut seq_obs = RecordingObserver::default();
        let seq = RestrictedChase::new(&set).run_observed(&db, budget, &mut seq_obs);
        for shards in [1usize, 2, 4, 7] {
            let mut sdb = Instance::with_shards(shards);
            for atom in db.iter() {
                sdb.insert(atom.to_atom());
            }
            let label = format!("{shards} shards");
            let mut obs = RecordingObserver::default();
            let run = RestrictedChase::new(&set).run_observed(&sdb, budget, &mut obs);
            prop_assert_eq!(reference.outcome, run.outcome, "outcome: {}", &label);
            prop_assert_eq!(reference.steps, run.steps, "steps: {}", &label);
            prop_assert_eq!(&reference.instance, &run.instance, "instance: {}", &label);
            prop_assert_eq!(&seq_obs.events, &obs.events, "telemetry: {}", &label);
            let must_saturate = run.outcome == Outcome::Terminated;
            let replayed = run.derivation.validate(&sdb, &set, must_saturate)
                .map_err(|f| TestCaseError::fail(format!("{label}: replay fault: {f}")))?;
            prop_assert_eq!(&replayed, &run.instance, "replay: {}", &label);
            prop_assert_eq!(&seq.instance, &run.instance, "unsharded instance: {}", &label);
        }
    }

    /// Small seeded scale programs (chain and clique predicate graphs,
    /// a few hundred facts, existential rules with two-atom heads)
    /// under every strategy: outcome, steps and instance equal the
    /// frozen seed engine, and every recorded derivation replays
    /// through `Derivation::validate`.
    #[test]
    fn multi_head_scale_equals_seed(
        clique in 0u8..2,
        predicates in 3usize..7,
        facts in 100usize..400,
        constants in 2usize..12,
        density in 5u32..=10,
        seed in 0u64..5_000,
    ) {
        let params = ScaleParams {
            shape: if clique == 1 { Shape::Clique } else { Shape::Chain },
            predicates,
            facts,
            constants,
            existential_density: f64::from(density) / 10.0,
            shards: 4,
            seed,
        };
        let (_vocab, set, db) = scale_workload(&params);
        let budget = Budget::new(2_000, 20_000);
        for strategy in [
            Strategy::Fifo,
            Strategy::Lifo,
            Strategy::PriorityTgd,
            Strategy::Random(seed | 1),
        ] {
            let reference = SeedRestrictedChase::new(&set).strategy(strategy).run(&db, budget);
            let run = RestrictedChase::new(&set).strategy(strategy).run(&db, budget);
            let label = format!("{} {strategy:?}", params.name());
            prop_assert_eq!(reference.outcome, run.outcome, "outcome: {}", &label);
            prop_assert_eq!(reference.steps, run.steps, "steps: {}", &label);
            prop_assert_eq!(&reference.instance, &run.instance, "instance: {}", &label);
            let must_saturate = run.outcome == Outcome::Terminated;
            let replayed = run.derivation.validate(&db, &set, must_saturate)
                .map_err(|f| TestCaseError::fail(format!("{label}: replay fault: {f}")))?;
            prop_assert_eq!(&replayed, &run.instance, "replay: {}", &label);
        }
    }
}
