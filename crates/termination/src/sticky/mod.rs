//! The sticky decision procedure (Section 6 + Appendix D.2):
//! `CT^res_∀∀(S)` via emptiness of a Büchi automaton over caterpillar
//! words.
//!
//! # The symbolic caterpillar
//!
//! A *caterpillar word* `w = w₁w₂⋯` over the finite alphabet `Λ_T` of
//! triples `(σ, γ, P)` — a TGD, a designated body atom, and an
//! optional pass-on marker — describes the canonical **free**
//! caterpillar: at step `i`, the body atom `γᵢ` of `σᵢ` is matched to
//! the previous body atom `α_{i-1}`; every other body variable takes a
//! globally fresh *leg* term (a database constant in the finitary
//! realisation); existential head variables take fresh nulls.
//! Freeness (Definition 6.8) makes this canonical choice lossless:
//! stickiness guarantees every repeated body variable occurs in the
//! head, so all term equalities between caterpillar atoms are forced
//! through consecutive body atoms — which is what lets a finite
//! automaton track them.
//!
//! The product automaton combines the paper's three components:
//!
//! * `A_pc` — tracks the equality type of the current body atom (here
//!   enriched with per-class *constant* flags: terms originating from
//!   the database versus invented nulls, which the stop relation
//!   treats differently because homomorphisms fix constants);
//! * `A_qc` — tracks the set `Θ` of T-equality types of all previous
//!   body atoms relative to the current one (Lemma D.3) and rejects
//!   when an earlier atom stops the new one (caterpillar condition
//!   (2); condition (1) — legs never stop body atoms — is automatic
//!   for free connected caterpillars by Lemma D.1);
//! * `A_cc` — tracks the positions of the relay terms (`Π₁`, `Π₂`) and
//!   enforces connectedness: the current relay must survive every
//!   step, no relay may ever sit at an *immortal* position, and
//!   accepting states are exactly the pass-on points, so Büchi
//!   acceptance means infinitely many relays — condition (4) and the
//!   batton-passing of Definition 6.6.

pub mod witness;

use chase_automata::buchi::{BuchiAutomaton, Emptiness, Explorer};
use chase_core::eqtype::{EqType, LabeledEqType};
use chase_core::ids::{PredId, VarId};
use chase_core::term::Term;
use chase_core::tgd::{TgdId, TgdSet};
use chase_core::vocab::Vocabulary;
use chase_telemetry::{emit, names, time_phase, ChaseObserver, Event, NullObserver};
use tgd_classes::sticky::Marking;

use crate::common::{DeciderConfig, TerminationCertificate, TerminationVerdict};
use crate::partitions::set_partitions;

/// One letter of the caterpillar alphabet `Λ_T`: which TGD fires,
/// which body atom is matched to the previous caterpillar atom, and
/// whether this step is a pass-on point (and if so, which existential
/// variable carries the new relay term).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CatSymbol {
    /// The TGD applied at this step.
    pub tgd: TgdId,
    /// Index into `body(σ)` of the atom matched to the previous body
    /// atom (the paper's `γ`).
    pub gamma: usize,
    /// `Some(z)` marks a pass-on point: the new relay term is the null
    /// invented for existential variable `z` (the paper's `P` is then
    /// `pos(head(σ), z)`).
    pub pass_on: Option<VarId>,
}

/// A state of the product automaton.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CatState {
    /// Predicate of the current body atom.
    pub pred: PredId,
    /// Canonical equality-type classes of the current body atom.
    pub classes: Vec<u8>,
    /// Per-class constant flags: `true` = the term originates from the
    /// database (the start atom or a leg), `false` = an invented null.
    pub is_const: Vec<bool>,
    /// `Θ`: T-equality types of all earlier body atoms, labelled by
    /// the classes of the current atom; sorted for canonical identity.
    pub theta: Vec<LabeledEqType>,
    /// `Π₁`: positions of the current relay term (sorted).
    pub relay: Vec<u8>,
    /// `Π₂`: positions of every still-alive relay term (sorted).
    pub relays_all: Vec<u8>,
    /// Whether the last step was a pass-on point (Büchi acceptance).
    pub accepting: bool,
}

/// The paper's `A_T` for a sticky TGD set, exposed as an implicit
/// Büchi automaton.
pub struct StickyAutomaton<'a> {
    set: &'a TgdSet,
    vocab: &'a Vocabulary,
    marking: Marking,
    alphabet: Vec<CatSymbol>,
}

impl<'a> StickyAutomaton<'a> {
    /// Builds the automaton for a single-head TGD set. The caller is
    /// responsible for checking stickiness (the decider does).
    pub fn new(set: &'a TgdSet, vocab: &'a Vocabulary) -> Self {
        let marking = Marking::compute(set);
        let mut alphabet = Vec::new();
        for (id, tgd) in set.iter() {
            for gamma in 0..tgd.body().len() {
                alphabet.push(CatSymbol {
                    tgd: id,
                    gamma,
                    pass_on: None,
                });
                for &z in tgd.existentials() {
                    alphabet.push(CatSymbol {
                        tgd: id,
                        gamma,
                        pass_on: Some(z),
                    });
                }
            }
        }
        StickyAutomaton {
            set,
            vocab,
            marking,
            alphabet,
        }
    }

    /// The variable marking (shared with the witness realiser).
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// `δpos` (Appendix D.2): the head positions reached by the terms
    /// at positions `pi` of the previous atom, flowing through the
    /// match of `gamma`.
    fn delta_pos(
        pi: &[u8],
        gamma: &chase_core::atom::Atom,
        head: &chase_core::atom::Atom,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        for (l, ht) in head.args.iter().enumerate() {
            let Term::Var(x) = *ht else { continue };
            let flows = pi.iter().any(|&p| gamma.args[p as usize] == Term::Var(x));
            if flows {
                out.push(l as u8);
            }
        }
        out
    }
}

impl<'a> BuchiAutomaton for StickyAutomaton<'a> {
    type State = CatState;
    type Symbol = CatSymbol;

    fn initial_states(&self) -> Vec<CatState> {
        // All pairs (e₀, Π₀): an equality type for the start atom α₀
        // (whose terms are all database constants) and one of its
        // classes as the first relay term.
        let mut out = Vec::new();
        for &pred in self.set.schema_preds() {
            let arity = self.vocab.arity(pred);
            for classes in set_partitions(arity) {
                let ty = EqType {
                    pred,
                    classes: classes.clone(),
                };
                let class_count = ty.class_count();
                for relay_class in 0..class_count as u8 {
                    let relay: Vec<u8> = classes
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c == relay_class)
                        .map(|(i, _)| i as u8)
                        .collect();
                    out.push(CatState {
                        pred,
                        classes: classes.clone(),
                        is_const: vec![true; class_count],
                        theta: vec![LabeledEqType::identity(ty.clone())],
                        relay: relay.clone(),
                        relays_all: relay,
                        accepting: false,
                    });
                }
            }
        }
        out
    }

    fn alphabet(&self) -> Vec<CatSymbol> {
        self.alphabet.clone()
    }

    fn is_accepting(&self, state: &CatState) -> bool {
        state.accepting
    }

    fn next(&self, state: &CatState, symbol: &CatSymbol) -> Option<CatState> {
        let tgd = self.set.tgd(symbol.tgd);
        let head = tgd.single_head()?;
        let gamma = &tgd.body()[symbol.gamma];
        if gamma.pred != state.pred {
            return None;
        }
        debug_assert_eq!(gamma.arity(), state.classes.len());

        // ── A_pc: match γ against the current atom ────────────────
        // Bind each γ-variable to a class of the current atom;
        // repeated variables must see equal classes.
        let mut bind: Vec<(VarId, u8)> = Vec::new();
        for (p, t) in gamma.args.iter().enumerate() {
            let Term::Var(v) = *t else { return None };
            let cls = state.classes[p];
            match bind.iter().find(|(w, _)| *w == v) {
                Some(&(_, c)) if c != cls => return None,
                Some(_) => {}
                None => bind.push((v, cls)),
            }
        }
        let class_of = |v: VarId| bind.iter().find(|(w, _)| *w == v).map(|&(_, c)| c);

        // Leg realisability: every other body atom must be a database
        // atom in the finitary realisation, so a variable shared
        // between γ and a leg may only carry a *constant* term — a leg
        // can never contain a null invented along the path.
        for (i, leg) in tgd.body().iter().enumerate() {
            if i == symbol.gamma {
                continue;
            }
            for v in leg.vars() {
                if let Some(c) = class_of(v) {
                    if !state.is_const[c as usize] {
                        return None;
                    }
                }
            }
        }

        // Head instantiation under the canonical free-caterpillar
        // semantics: γ-variables carry path terms, other frontier
        // variables fresh leg constants, existentials fresh nulls.
        #[derive(PartialEq, Clone, Copy)]
        enum Tag {
            Path(u8),
            Leg(VarId),
            New(VarId),
        }
        let mut tags: Vec<Tag> = Vec::with_capacity(head.arity());
        for t in &head.args {
            let Term::Var(v) = *t else { return None };
            let tag = if let Some(c) = class_of(v) {
                Tag::Path(c)
            } else if tgd.is_frontier(v) {
                Tag::Leg(v)
            } else {
                Tag::New(v)
            };
            tags.push(tag);
        }
        // Canonicalise tags into classes.
        let mut reps: Vec<Tag> = Vec::new();
        let mut new_classes: Vec<u8> = Vec::with_capacity(tags.len());
        for &t in &tags {
            match reps.iter().position(|&r| r == t) {
                Some(i) => new_classes.push(i as u8),
                None => {
                    new_classes.push(reps.len() as u8);
                    reps.push(t);
                }
            }
        }
        let new_is_const: Vec<bool> = reps
            .iter()
            .map(|t| match t {
                Tag::Path(c) => state.is_const[*c as usize],
                Tag::Leg(_) => true,
                Tag::New(_) => false,
            })
            .collect();
        // Survival map: old class → new class (if it flows through γ).
        let old_count = state.is_const.len();
        let mut survival: Vec<Option<u8>> = vec![None; old_count];
        for (i, t) in reps.iter().enumerate() {
            if let Tag::Path(c) = t {
                survival[*c as usize] = Some(i as u8);
            }
        }

        // Frontier positions of the new atom and pinned classes: a
        // class is pinned for the stop check if its term is fixed by
        // h' — it is a database constant or occurs at a frontier
        // position of the generating trigger.
        let frontier_positions: Vec<usize> = head
            .args
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, Term::Var(v) if tgd.is_frontier(*v)))
            .map(|(l, _)| l)
            .collect();
        let new_count = reps.len();
        let mut pinned = new_is_const.clone();
        for &l in &frontier_positions {
            pinned[new_classes[l] as usize] = true;
        }

        // ── A_qc: update Θ and run the stop checks (Lemma D.3) ────
        let current_ty = EqType {
            pred: state.pred,
            classes: state.classes.clone(),
        };
        let mut theta: Vec<LabeledEqType> =
            state.theta.iter().map(|t| t.relabel(&survival)).collect();
        theta.push(LabeledEqType::new(current_ty, survival.clone()));
        theta.sort();
        theta.dedup();
        for t in &theta {
            if theta_stops(t, head.pred, &new_classes, new_count, &pinned) {
                return None; // an earlier body atom stops the new one
            }
        }

        // ── A_cc: relay survival, immortality, pass-on ────────────
        let new_pi1 = Self::delta_pos(&state.relay, gamma, head);
        if new_pi1.is_empty() {
            return None; // the current relay term dies — not connected
        }
        let mut new_pi2 = Self::delta_pos(&state.relays_all, gamma, head);
        for &l in &new_pi1 {
            if !new_pi2.contains(&l) {
                new_pi2.push(l);
            }
        }
        new_pi2.sort();
        // No relay term may ever occupy an immortal position.
        for &l in &new_pi2 {
            if let Term::Var(v) = head.args[l as usize] {
                if !self.marking.is_marked(v) {
                    return None;
                }
            }
        }
        let (relay, relays_all, accepting) = match symbol.pass_on {
            None => (new_pi1, new_pi2.clone(), false),
            Some(z) => {
                if !tgd.is_existential(z) {
                    return None;
                }
                if !self.marking.is_marked(z) {
                    return None; // newborn relay at an immortal position
                }
                let p: Vec<u8> = head
                    .positions_of_var(z)
                    .into_iter()
                    .map(|l| l as u8)
                    .collect();
                if p.is_empty() {
                    return None;
                }
                let mut all = new_pi2.clone();
                for &l in &p {
                    if !all.contains(&l) {
                        all.push(l);
                    }
                }
                all.sort();
                (p, all, true)
            }
        };

        Some(CatState {
            pred: head.pred,
            classes: new_classes,
            is_const: new_is_const,
            theta,
            relay,
            relays_all,
            accepting,
        })
    }
}

/// Whether the earlier atom described by `theta` (labelled relative to
/// the new atom) stops the new atom: a homomorphism `h'` maps the new
/// atom onto it, fixing every pinned term.
fn theta_stops(
    theta: &LabeledEqType,
    new_pred: PredId,
    new_classes: &[u8],
    new_class_count: usize,
    pinned: &[bool],
) -> bool {
    if theta.ty.pred != new_pred || theta.ty.classes.len() != new_classes.len() {
        return false;
    }
    let mut map: Vec<Option<u8>> = vec![None; new_class_count];
    for (&s, &c) in new_classes.iter().zip(theta.ty.classes.iter()) {
        if pinned[s as usize] {
            // h'(t) = t: the earlier atom must carry the very same
            // term at this position.
            if theta.labels[c as usize] != Some(s) {
                return false;
            }
        } else {
            // h' must be a function on terms.
            match map[s as usize] {
                None => map[s as usize] = Some(c),
                Some(c0) if c0 != c => return false,
                Some(_) => {}
            }
        }
    }
    true
}

/// Decides `CT^res_∀∀` for a sticky single-head TGD set via emptiness
/// of the caterpillar automaton (Theorem 6.1). The verdict is exact up
/// to the configured state cap; every non-termination verdict carries
/// a replay-validated witness.
pub fn decide_sticky(
    set: &TgdSet,
    vocab: &Vocabulary,
    config: &DeciderConfig,
) -> TerminationVerdict {
    decide_sticky_observed(set, vocab, config, &mut NullObserver)
}

/// [`decide_sticky`], streaming telemetry to `obs`: a
/// `sticky.emptiness` phase span around the Büchi emptiness search
/// (with the explored state count on the `sticky.automaton_states`
/// counter) and a `sticky.witness` span around lasso realisation.
pub fn decide_sticky_observed<O: ChaseObserver + ?Sized>(
    set: &TgdSet,
    vocab: &Vocabulary,
    config: &DeciderConfig,
    obs: &mut O,
) -> TerminationVerdict {
    if let Err(e) = set.require_single_head() {
        return TerminationVerdict::Unknown {
            reason: format!("not single-head: {e}"),
        };
    }
    if !tgd_classes::sticky::is_sticky(set) {
        return TerminationVerdict::Unknown {
            reason: "input is not sticky; use the guarded/portfolio decider".into(),
        };
    }
    let automaton = StickyAutomaton::new(set, vocab);
    let explorer = Explorer::new(automaton, config.max_automaton_states);
    let emptiness = time_phase(obs, "sticky.emptiness", |_| explorer.emptiness());
    let explored = match &emptiness {
        Emptiness::Empty { states } | Emptiness::NonEmpty { states, .. } => *states as u64,
        Emptiness::Capped { cap } => *cap as u64,
    };
    emit(obs, || Event::CounterAdd {
        name: names::AUTOMATON_STATES,
        delta: explored,
    });
    match emptiness {
        Emptiness::Empty { states } => TerminationVerdict::AllInstancesTerminating(
            TerminationCertificate::StickyAutomatonEmpty { states },
        ),
        Emptiness::Capped { cap } => TerminationVerdict::Unknown {
            reason: format!("sticky.emptiness: automaton state cap {cap} reached"),
        },
        Emptiness::NonEmpty { start, lasso, .. } => time_phase(obs, "sticky.witness", |_| {
            match witness::realise(set, vocab, explorer.automaton(), &start, &lasso, config) {
                Some(w) => TerminationVerdict::NonTerminating(Box::new(w)),
                None => TerminationVerdict::Unknown {
                    reason: "accepting lasso found but witness realisation failed (bug?)".into(),
                },
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_tgds;

    fn verdict(src: &str) -> TerminationVerdict {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(src, &mut vocab).unwrap();
        decide_sticky(&set, &vocab, &DeciderConfig::default())
    }

    #[test]
    fn intro_left_recursion_terminates() {
        // R(x,y) -> ∃z R(x,z): the flagship restricted-chase
        // terminating rule (oblivious chase diverges).
        let v = verdict("R(x,y) -> exists z. R(x,z).");
        assert!(v.is_terminating(), "{v:?}");
    }

    #[test]
    fn right_recursion_diverges() {
        let v = verdict("R(x,y) -> exists z. R(y,z).");
        assert!(v.is_non_terminating(), "{v:?}");
        if let TerminationVerdict::NonTerminating(w) = v {
            assert!(w.finitary);
            assert!(w.derivation.len() >= 10);
        }
    }

    #[test]
    fn full_tgds_terminate() {
        // Full (existential-free) sticky rules: no pass-on symbol can
        // ever be emitted, so the automaton has no accepting state.
        let v = verdict("E(x,y) -> F(y,x). F(u,v) -> E(u,v).");
        assert!(v.is_terminating(), "{v:?}");
    }

    #[test]
    fn transitivity_is_not_sticky() {
        // The classic non-sticky rule; the sticky decider must refuse
        // it (the portfolio decider handles it instead).
        let v = verdict("E(x,y), E(y,z) -> E(x,z).");
        assert!(v.is_unknown(), "{v:?}");
    }

    #[test]
    fn paper_sticky_example_terminates() {
        // Section 2's sticky set: T -> S projection plus R ⋈ P -> T.
        // No recursion through existentials survives the stop checks.
        let v = verdict(
            "T(x1,y1,z1) -> exists w1. S(y1,w1).
             R(x2,y2), P(y2,z2) -> exists w2. T(x2,y2,w2).",
        );
        assert!(v.is_terminating(), "{v:?}");
    }

    #[test]
    fn sticky_join_recursion_diverges() {
        // A sticky recursive set with a genuine join: the join
        // variable x is unmarked (it propagates to every head), stays
        // a database constant along the whole derivation, and the leg
        // U(x) is reused for ever — a finitary caterpillar with one
        // leg. From {T(a,b), U(a)}: V(a,b,ν1), T(a,ν1), V(a,ν1,ν2), …
        let v = verdict(
            "T(x,y), U(x) -> exists z. V(x,y,z).
             V(u,v,w) -> T(u,w).",
        );
        assert!(v.is_non_terminating(), "{v:?}");
    }

    #[test]
    fn non_sticky_input_refused() {
        let v = verdict(
            "T(x1,y1,z1) -> exists w1. S(x1,w1).
             R(x2,y2), P(y2,z2) -> exists w2. T(x2,y2,w2).",
        );
        assert!(v.is_unknown());
    }

    #[test]
    fn two_phase_existential_loop_diverges() {
        // A(x,y) -> ∃z B(y,z); B(x,y) -> ∃z A(y,z): relay hops
        // predicates, infinitely many pass-ons.
        let v = verdict(
            "A(x,y) -> exists z. B(y,z).
             B(u,v) -> exists w. A(v,w).",
        );
        assert!(v.is_non_terminating(), "{v:?}");
    }

    #[test]
    fn satisfied_head_variant_terminates() {
        // A(x,y) -> ∃z B(x,z); B(u,v) -> ∃w A(u,w): each new atom
        // keeps the immortal first coordinate... check the decider
        // agrees with brute-force chase behaviour (terminating: the
        // pair A(a,b) generates B(a,n1), then A(a,n2) is *stopped* by
        // A(a,b) itself? No — A(a,n2) has frontier a at position 0 and
        // A(a,b) provides a matching head witness, so the trigger is
        // never active). The marking leaves x unmarked ⇒ relay cannot
        // use it; the y-chain dies at birth.
        let v = verdict(
            "A(x,y) -> exists z. B(x,z).
             B(u,v) -> exists w. A(u,w).",
        );
        assert!(v.is_terminating(), "{v:?}");
    }

    #[test]
    fn initial_states_enumerate_types_times_relay_classes() {
        // For a single binary predicate: partitions of 2 positions are
        // [0,0] (1 class) and [0,1] (2 classes) → 1 + 2 = 3 initial
        // states.
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("R(x,y) -> exists z. R(y,z).", &mut vocab).unwrap();
        let automaton = StickyAutomaton::new(&set, &vocab);
        assert_eq!(automaton.initial_states().len(), 3);
        // Alphabet: one symbol per (rule, body atom) plus one per
        // existential variable of that rule: (σ0, γ0, ∅) and (σ0, γ0, z).
        assert_eq!(automaton.alphabet().len(), 2);
    }

    #[test]
    fn transition_rejects_predicate_mismatch_and_bad_repetition() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(
            "R(x,x) -> exists z. S(x,z).
             S(u,v) -> exists w. S(v,w).",
            &mut vocab,
        )
        .unwrap();
        let automaton = StickyAutomaton::new(&set, &vocab);
        let states = automaton.initial_states();
        // A state whose atom is R with two *distinct* classes cannot
        // feed γ = R(x,x) (repeated variable needs equal classes).
        let r = vocab.lookup_pred("R").unwrap();
        let distinct_r = states
            .iter()
            .find(|s| s.pred == r && s.classes == vec![0, 1])
            .expect("initial state R[0,1]");
        let sym_r = CatSymbol {
            tgd: TgdId(0),
            gamma: 0,
            pass_on: None,
        };
        assert!(automaton.next(distinct_r, &sym_r).is_none());
        // The reflexive R state does feed it.
        let reflexive_r = states
            .iter()
            .find(|s| s.pred == r && s.classes == vec![0, 0])
            .expect("initial state R[0,0]");
        assert!(automaton.next(reflexive_r, &sym_r).is_some());
        // And an S-state cannot feed an R-bodied symbol at all.
        let s_pred = vocab.lookup_pred("S").unwrap();
        let s_state = states.iter().find(|s| s.pred == s_pred).expect("S state");
        assert!(automaton.next(s_state, &sym_r).is_none());
    }

    #[test]
    fn transition_tracks_constness_and_theta() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("R(x,y) -> exists z. R(y,z).", &mut vocab).unwrap();
        let automaton = StickyAutomaton::new(&set, &vocab);
        let init = automaton
            .initial_states()
            .into_iter()
            .find(|s| s.classes == vec![0, 1] && s.relay == vec![1])
            .expect("R[0,1] with relay at position 1");
        let sym = CatSymbol {
            tgd: TgdId(0),
            gamma: 0,
            pass_on: Some(set.tgd(TgdId(0)).existentials()[0]),
        };
        let next = automaton.next(&init, &sym).expect("transition fires");
        // New atom R(b, ν): class 0 inherits the constant b, class 1
        // is an invented null.
        assert_eq!(next.classes, vec![0, 1]);
        assert_eq!(next.is_const, vec![true, false]);
        assert!(next.accepting);
        assert_eq!(next.relay, vec![1]);
        assert_eq!(next.theta.len(), 1);
        // One more step: the propagated term is now a null.
        let next2 = automaton.next(&next, &sym).expect("second transition");
        assert_eq!(next2.is_const, vec![false, false]);
        assert_eq!(next2.theta.len(), 2);
    }

    #[test]
    fn leg_sharing_a_null_bound_variable_is_rejected() {
        // σ0 consumes T and re-produces it via a leg U(x): the leg
        // variable x is bound through γ. Starting from a state whose
        // x-class is a null must reject (legs are database atoms).
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(
            "T(x,y), U(x) -> exists z. T(y,z).
             T(u,v) -> exists w. T(w,u).",
            &mut vocab,
        )
        .unwrap();
        let automaton = StickyAutomaton::new(&set, &vocab);
        // Drive to a state where position 0 of T holds a null: apply
        // σ1 (T(u,v) → ∃w T(w,u)) once from T[0,1].
        let t = vocab.lookup_pred("T").unwrap();
        let init = automaton
            .initial_states()
            .into_iter()
            .find(|s| s.pred == t && s.classes == vec![0, 1] && s.relay == vec![0])
            .expect("T[0,1] relay at 0");
        let sym1 = CatSymbol {
            tgd: TgdId(1),
            gamma: 0,
            pass_on: None,
        };
        let after = automaton.next(&init, &sym1).expect("σ1 fires");
        assert_eq!(after.is_const, vec![false, true]); // T(ν, b)
                                                       // Now σ0 with γ = T(x,y): x binds the null class, but the leg
                                                       // U(x) would need that null in the database — rejected.
        let sym0 = CatSymbol {
            tgd: TgdId(0),
            gamma: 0,
            pass_on: None,
        };
        assert!(automaton.next(&after, &sym0).is_none());
        // From an all-constant initial state the same symbol is fine
        // (with the relay on the propagated class 1, since σ0 drops x).
        let init_b = automaton
            .initial_states()
            .into_iter()
            .find(|s| s.pred == t && s.classes == vec![0, 1] && s.relay == vec![1])
            .expect("T[0,1] relay at 1");
        assert!(automaton.next(&init_b, &sym0).is_some());
    }

    #[test]
    fn automaton_state_counts_are_reported() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("R(x,y) -> exists z. R(x,z).", &mut vocab).unwrap();
        match decide_sticky(&set, &vocab, &DeciderConfig::default()) {
            TerminationVerdict::AllInstancesTerminating(
                TerminationCertificate::StickyAutomatonEmpty { states },
            ) => assert!(states > 0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
