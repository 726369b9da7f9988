//! The text front end's observable behaviour, pinned:
//!
//! - the exact [`CoreError`] (variant, line, column, message) the
//!   parser reports for a table of malformed inputs, so a change to
//!   the lexer or parser cannot move an error position unnoticed;
//! - [`Instance::display`] and [`Atom::display`] against a test-local
//!   copy of the straightforward renderer (render each atom to its own
//!   `String`, sort, join), on random instances that mix vocabulary
//!   constants, constants outside the vocabulary, nulls and names that
//!   collide by prefix.

use chase_core::atom::Atom;
use chase_core::error::CoreError;
use chase_core::ids::{ConstId, NullId, PredId, VarId};
use chase_core::instance::Instance;
use chase_core::parser::{parse_program, parse_tgds};
use chase_core::term::Term;
use chase_core::vocab::Vocabulary;
use proptest::prelude::*;

fn parse_error(src: &str) -> CoreError {
    let mut vocab = Vocabulary::new();
    parse_program(src, &mut vocab).expect_err("malformed input must not parse")
}

fn at(line: usize, column: usize, message: &str) -> CoreError {
    CoreError::Parse {
        line,
        column,
        message: message.to_string(),
    }
}

#[test]
fn parse_error_positions_are_pinned() {
    let bad_existential = |v: &str| CoreError::BadExistential {
        variable: v.to_string(),
    };
    let table: Vec<(&str, CoreError)> = vec![
        ("R(x,y) - S(x).", at(1, 9, "expected '->'")),
        ("R(a)-", at(1, 6, "expected '->'")),
        ("R(x,y) => S(x).", at(1, 8, "unexpected character '='")),
        ("R(\u{e9}).", at(1, 3, "unexpected character '\u{c3}'")),
        (
            "R(a).\nR(x) -> S(x) /x.",
            at(2, 14, "unexpected character '/'"),
        ),
        ("R(x,y -> S(x).", at(1, 10, "expected ',' or ')'")),
        (
            "R(x,y) -> S(x).\nS(a,b).",
            at(
                2,
                1,
                "predicate S used with arity 2, but was declared with arity 1",
            ),
        ),
        (
            "R(x) -> exists . S(x,y).",
            at(1, 18, "expected a variable after 'exists'"),
        ),
        (
            "R(x) -> exists y z. S(x,y).",
            at(1, 19, "expected ',' or '.' in exists list"),
        ),
        ("R(x,y) -> exists x. S(x).", bad_existential("x")),
        ("R(x) -> exists y. S(x).", bad_existential("y")),
        (
            "% comment\n# another\n// third\nR(a,b) S(a).",
            at(4, 9, "expected '.' at end of fact"),
        ),
        ("R(a,b), S(a).", at(1, 13, "expected '->' after atom list")),
        ("R(a,b)", at(1, 6, "expected '.' at end of fact")),
        ("R() -> S(x).", at(1, 5, "expected a term")),
        ("(a).", at(1, 2, "expected a predicate name")),
        ("R(x) -> S(x)", at(1, 12, "expected '.' at end of rule")),
        (
            "R(a,b).\n\n\tR(x,y) ->\n   S(x,y,z) w.",
            at(4, 14, "expected '.' at end of rule"),
        ),
    ];
    let mut mismatches = Vec::new();
    for (src, expected) in &table {
        let got = parse_error(src);
        if got != *expected {
            mismatches.push(format!("{src:?}: got {got:?}, pinned {expected:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn rules_only_rejection_is_pinned() {
    let mut vocab = Vocabulary::new();
    let err = parse_tgds("R(x) -> S(x).\nR(a).\n", &mut vocab).unwrap_err();
    assert_eq!(err, at(0, 0, "expected rules only, found facts"));
}

/// The straightforward renderer: one `String` per term and per atom,
/// sorted and joined. It is the reference the one-buffer renderer must
/// match byte for byte.
fn reference_term(vocab: &Vocabulary, t: Term) -> String {
    match t {
        Term::Const(c) if c.index() < vocab.const_count() => vocab.const_name(c).to_string(),
        Term::Const(c) => format!("⟨c{}⟩", c.0),
        Term::Null(NullId(n)) => format!("_:n{n}"),
        Term::Var(v) => format!("?{}", vocab.var_name(v)),
    }
}

fn reference_atom(vocab: &Vocabulary, pred: PredId, args: &[Term]) -> String {
    let args: Vec<String> = args.iter().map(|&t| reference_term(vocab, t)).collect();
    format!("{}({})", vocab.pred_name(pred), args.join(","))
}

fn reference_display(instance: &Instance, vocab: &Vocabulary) -> String {
    let mut parts: Vec<String> = instance
        .iter()
        .map(|a| reference_atom(vocab, a.pred, a.args))
        .collect();
    parts.sort();
    format!("{{{}}}", parts.join(", "))
}

/// Predicates and constants whose names share prefixes, so the sort
/// order depends on `(`, `,`, `)`, digits, `_` and letters after the
/// common part. Arities: `R`/`R2`/`Ra` unary, `R_`/`Rb` binary, `T`
/// ternary.
fn colliding_vocab() -> (Vocabulary, Vec<PredId>, Vec<VarId>) {
    let mut vocab = Vocabulary::new();
    let preds = [
        ("R", 1),
        ("R2", 1),
        ("Ra", 1),
        ("R_", 2),
        ("Rb", 2),
        ("T", 3),
    ]
    .iter()
    .map(|&(name, arity)| vocab.pred(name, arity).expect("distinct names"))
    .collect();
    for name in ["a", "a2", "ab", "a_", "b", "A", "_", "a'"] {
        vocab.constant(name);
    }
    let vars = ["x", "x1", "y"]
        .iter()
        .map(|n| vocab.fresh_var(n))
        .collect();
    (vocab, preds, vars)
}

/// Draws a term from a choice value: in-vocabulary constants, constants
/// past the vocabulary, or nulls straddling digit-count boundaries.
fn ground_term(vocab: &Vocabulary, choice: u16) -> Term {
    let consts = vocab.const_count() as u32;
    match choice % 3 {
        0 => Term::Const(ConstId(u32::from(choice / 3) % consts)),
        1 => Term::Const(ConstId(consts + u32::from(choice / 3) % 12)),
        _ => Term::Null(NullId(u32::from(choice / 3) % 120)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// `Instance::display` equals the reference sort-and-join renderer.
    #[test]
    fn instance_display_matches_reference(
        atoms in proptest::collection::vec((0usize..6, 0u16..600, 0u16..600, 0u16..600), 0..40),
    ) {
        let (vocab, preds, _) = colliding_vocab();
        let mut instance = Instance::new();
        for (p, t0, t1, t2) in atoms {
            let pred = preds[p];
            let args: Vec<Term> = [t0, t1, t2][..vocab.arity(pred)]
                .iter()
                .map(|&c| ground_term(&vocab, c))
                .collect();
            instance.insert(Atom::new(pred, &args[..]));
        }
        prop_assert_eq!(instance.display(&vocab), reference_display(&instance, &vocab));
    }

    /// `Atom::display` (variables included, which instances never
    /// hold) equals the reference atom renderer.
    #[test]
    fn atom_display_matches_reference(
        p in 0usize..6,
        terms in proptest::collection::vec((0u8..4, 0u16..600), 3..4),
    ) {
        let (vocab, preds, vars) = colliding_vocab();
        let pred = preds[p];
        let args: Vec<Term> = terms[..vocab.arity(pred)]
            .iter()
            .map(|&(kind, c)| match kind {
                0 => Term::Var(vars[usize::from(c) % vars.len()]),
                _ => ground_term(&vocab, c),
            })
            .collect();
        let atom = Atom::new(pred, &args[..]);
        prop_assert_eq!(atom.display(&vocab), reference_atom(&vocab, pred, &args));
    }
}

#[test]
fn empty_instance_displays_as_empty_braces() {
    let vocab = Vocabulary::new();
    assert_eq!(Instance::new().display(&vocab), "{}");
}
