//! Equivalence property suite for the restriction-check machinery:
//! the frontier memo, composite two-position indexes, and the
//! dedup-map instance layout must leave the engines **bit-identical**
//! to the frozen seed baseline — same outcome, same step count, same
//! final instance, same recorded derivation — on random programs, and
//! the sequential and parallel optimised engines must emit identical
//! telemetry event streams.
//!
//! The random generator emits single-head rules only, so a second
//! property runs small `chase_workloads::scale` programs, whose
//! existential rules have two-atom heads sharing the invented null —
//! the frontier memo's main case. The seed engine has no observer
//! hook, so telemetry equality is checked between the two optimised
//! drivers; derivation equality against the seed is checked
//! structurally and by replaying the recorded derivation through
//! [`Derivation::validate`].

use proptest::prelude::*;
use restricted_chase::prelude::*;
// `proptest::prelude` exports a `Strategy` trait that shadows the
// chase engine's `Strategy` enum in glob imports; re-import explicitly.
use restricted_chase::engine::derivation::Derivation;
use restricted_chase::engine::restricted::Strategy;
use restricted_chase::telemetry::RecordingObserver;
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

    /// The optimised restricted chase (sequential and force-parallel
    /// with two workers, so discovery fans out on any host) agrees
    /// exactly with the frozen seed engine on outcome, step count, and
    /// final instance; the seq and par drivers additionally record
    /// identical derivations (the seed engine records none).
    #[test]
    fn watermarked_restricted_equals_seed(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        for strategy in [
            Strategy::Fifo,
            Strategy::Lifo,
            Strategy::Random((seed ^ db_seed) | 1),
            Strategy::PriorityTgd,
        ] {
            let reference = SeedRestrictedChase::new(&set).strategy(strategy).run(&db, budget);
            let mut recorded = Vec::new();
            for (label, parallel) in [("Off", false), ("On", true)] {
                let engine = RestrictedChase::new(&set).strategy(strategy);
                let engine = if parallel {
                    engine
                        .parallelism(Parallelism::On)
                        .parallel_threshold(0)
                        .workers(2)
                } else {
                    engine.parallelism(Parallelism::Off)
                };
                let run = engine.run(&db, budget);
                let label = format!("{strategy:?}/{label}");
                prop_assert_eq!(reference.outcome, run.outcome, "outcome: {}", &label);
                prop_assert_eq!(reference.steps, run.steps, "steps: {}", &label);
                prop_assert_eq!(
                    reference.instance.len(),
                    run.instance.len(),
                    "len: {}",
                    &label
                );
                prop_assert_eq!(&reference.instance, &run.instance, "instance: {}", &label);
                recorded.push(run.derivation);
            }
            assert_derivations_equal(
                &recorded[0],
                &recorded[1],
                &format!("{strategy:?} seq-vs-par"),
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
        for parallelism in [Parallelism::Off, Parallelism::On] {
            let run = RestrictedChase::new(&set)
                .parallelism(parallelism)
                .parallel_threshold(0)
                .run(&db, budget);
            let must_saturate = run.outcome == Outcome::Terminated;
            let replayed = run.derivation.validate(&db, &set, must_saturate);
            match replayed {
                Ok(final_instance) => {
                    prop_assert_eq!(&final_instance, &run.instance, "{:?}", parallelism)
                }
                Err(fault) => prop_assert!(false, "{:?}: replay fault: {}", parallelism, fault),
            }
        }
    }

    /// Sequential and parallel optimised drivers emit identical
    /// telemetry event streams (the seed engine has no observer hook),
    /// including the per-run `triggers.memo_hits` counter.
    #[test]
    fn watermarked_event_streams_identical(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        let mut seq_obs = RecordingObserver::default();
        let seq = RestrictedChase::new(&set)
            .parallelism(Parallelism::Off)
            .run_observed(&db, budget, &mut seq_obs);
        let mut par_obs = RecordingObserver::default();
        let par = RestrictedChase::new(&set)
            .parallelism(Parallelism::On)
            .parallel_threshold(0)
            .run_observed(&db, budget, &mut par_obs);
        prop_assert_eq!(seq.outcome, par.outcome);
        prop_assert_eq!(seq_obs.events, par_obs.events);
    }

    /// Force-parallel runs against the frozen seed oracle: with every
    /// discovery batch fanned out and checks and applications run in
    /// queue order on the driving thread, every worker count
    /// {1, 2, 4} × shard count {1, 2, 4, 7} must still equal the seed
    /// run (outcome, steps, instance), emit the exact sequential
    /// telemetry stream, and record a derivation that replays cleanly
    /// through `Derivation::validate`.
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
            for threads in [1usize, 2, 4] {
                let label = format!("{shards} shards / {threads} threads");
                let mut obs = RecordingObserver::default();
                let run = RestrictedChase::new(&set)
                    .parallelism(Parallelism::On)
                    .parallel_threshold(0)
                    .workers(threads)
                    .run_observed(&sdb, budget, &mut obs);
                prop_assert_eq!(reference.outcome, run.outcome, "outcome: {}", &label);
                prop_assert_eq!(reference.steps, run.steps, "steps: {}", &label);
                prop_assert_eq!(&reference.instance, &run.instance, "instance: {}", &label);
                prop_assert_eq!(&seq_obs.events, &obs.events, "telemetry: {}", &label);
                let must_saturate = run.outcome == Outcome::Terminated;
                let replayed = run.derivation.validate(&sdb, &set, must_saturate)
                    .map_err(|f| TestCaseError::fail(format!("{label}: replay fault: {f}")))?;
                prop_assert_eq!(&replayed, &run.instance, "replay: {}", &label);
                prop_assert_eq!(&seq.instance, &run.instance, "seq instance: {}", &label);
            }
        }
    }

    /// The default parallel gating heuristic (delta size × body width)
    /// must never change results — whichever side of the threshold a
    /// batch lands on, the run is the same.
    #[test]
    fn default_gating_preserves_results(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        let reference = RestrictedChase::new(&set)
            .parallelism(Parallelism::Off)
            .run(&db, budget);
        // Default threshold: the heuristic decides per batch.
        let gated = RestrictedChase::new(&set)
            .parallelism(Parallelism::On)
            .run(&db, budget);
        prop_assert_eq!(reference.outcome, gated.outcome);
        prop_assert_eq!(reference.steps, gated.steps);
        prop_assert_eq!(&reference.instance, &gated.instance);
    }

    /// Small seeded scale programs (chain and clique predicate graphs,
    /// a few hundred facts, existential rules with two-atom heads)
    /// under every strategy, sequential and with two forced workers:
    /// outcome, steps and instance equal the frozen seed engine, and
    /// every recorded derivation replays through `Derivation::validate`.
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
            for workers in [1usize, 2] {
                let engine = RestrictedChase::new(&set).strategy(strategy);
                let engine = if workers > 1 {
                    engine
                        .parallelism(Parallelism::On)
                        .parallel_threshold(0)
                        .workers(workers)
                } else {
                    engine
                };
                let run = engine.run(&db, budget);
                let label = format!("{} {strategy:?} workers={workers}", params.name());
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
}
