//! Differential property test for [`Explorer::emptiness`]: the
//! on-the-fly depth-first search against a test-local copy of the
//! explorer it replaced, which built the whole reachable graph by BFS
//! and then ran Tarjan's SCC algorithm over it.
//!
//! Automata are random transition tables drawn from a seed: varied
//! sizes, alphabets and edge densities, forward-only (acyclic) and
//! cyclic graphs, self-loops, trap states with no successor, sparse to
//! dense accepting sets, repeated initial states and caps below, at
//! and above the reachable count.

use std::collections::{HashMap, VecDeque};

use chase_automata::buchi::{BuchiAutomaton, Emptiness, Explorer};
use proptest::prelude::*;

/// A random automaton over states `0..n`: `succ[state][symbol]`.
#[derive(Debug, Clone)]
struct Table {
    succ: Vec<Vec<Option<usize>>>,
    accepting: Vec<bool>,
    initial: Vec<usize>,
}

impl BuchiAutomaton for Table {
    type State = usize;
    type Symbol = usize;

    fn initial_states(&self) -> Vec<usize> {
        self.initial.clone()
    }

    fn alphabet(&self) -> Vec<usize> {
        (0..self.succ[0].len()).collect()
    }

    fn next(&self, state: &usize, symbol: &usize) -> Option<usize> {
        self.succ[*state][*symbol]
    }

    fn is_accepting(&self, state: &usize) -> bool {
        self.accepting[*state]
    }
}

/// SplitMix64, so one proptest value seeds a whole automaton.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn percent(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }
}

/// Draws an automaton and a cap from `seed`.
fn random_automaton(seed: u64) -> (Table, usize) {
    let mut rng = Rng(seed);
    let n = 1 + rng.below(40);
    let symbols = 1 + rng.below(4);
    let density = [20, 50, 80][rng.below(3)];
    let accepting_pct = [0, 5, 20, 50][rng.below(4)];
    let trap_pct = [0, 15, 40][rng.below(3)];
    let self_loop_pct = [0, 10][rng.below(2)];
    // Forward-only graphs are acyclic apart from self-loops.
    let forward_only = rng.percent(25);
    let succ = (0..n)
        .map(|s| {
            let trap = rng.percent(trap_pct);
            (0..symbols)
                .map(|_| {
                    if trap || !rng.percent(density) {
                        None
                    } else if rng.percent(self_loop_pct) {
                        Some(s)
                    } else if forward_only {
                        (s + 1 < n).then(|| s + 1 + rng.below(n - s - 1))
                    } else {
                        Some(rng.below(n))
                    }
                })
                .collect()
        })
        .collect();
    let accepting = (0..n).map(|_| rng.percent(accepting_pct)).collect();
    let initial = (0..1 + rng.below(3)).map(|_| rng.below(n)).collect();
    let cap = if rng.percent(50) {
        n + 10
    } else {
        rng.below(n + 3)
    };
    (
        Table {
            succ,
            accepting,
            initial,
        },
        cap,
    )
}

/// The replaced explorer's verdict, with the reachable state count.
enum Reference {
    Empty(usize),
    NonEmpty(usize),
    Capped,
}

/// The replaced explorer: builds the whole reachable graph by BFS
/// (initial states exempt from the cap), then looks for an accepting
/// state in a non-trivial SCC.
fn reference(automaton: &Table, cap: usize) -> Reference {
    let symbols = automaton.alphabet();
    let mut states: Vec<usize> = Vec::new();
    let mut index: HashMap<usize, usize> = HashMap::new();
    let mut adj: Vec<Vec<usize>> = Vec::new();
    let mut queue = VecDeque::new();
    for s in automaton.initial_states() {
        if let std::collections::hash_map::Entry::Vacant(e) = index.entry(s) {
            e.insert(states.len());
            queue.push_back(states.len());
            states.push(s);
            adj.push(Vec::new());
        }
    }
    while let Some(u) = queue.pop_front() {
        for sym in &symbols {
            let Some(next) = automaton.next(&states[u], sym) else {
                continue;
            };
            let v = match index.get(&next) {
                Some(&v) => v,
                None => {
                    if states.len() >= cap {
                        return Reference::Capped;
                    }
                    let id = states.len();
                    index.insert(next, id);
                    states.push(next);
                    adj.push(Vec::new());
                    queue.push_back(id);
                    id
                }
            };
            adj[u].push(v);
        }
    }
    let n = states.len();
    let comp = tarjan(&adj);
    let mut comp_size = vec![0usize; n];
    for &c in &comp {
        comp_size[c] += 1;
    }
    let nonempty = (0..n).any(|q| {
        automaton.is_accepting(&states[q]) && (comp_size[comp[q]] > 1 || adj[q].contains(&q))
    });
    if nonempty {
        Reference::NonEmpty(n)
    } else {
        Reference::Empty(n)
    }
}

/// Iterative Tarjan SCC; returns the component id of every node.
fn tarjan(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let (mut next_index, mut next_comp) = (0usize, 0usize);
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call = vec![(root, 0usize)];
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&(v, child)) = call.last() {
            if child < adj[v].len() {
                let w = adj[v][child];
                call.last_mut().expect("nonempty").1 += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("stack nonempty");
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

/// Replays a reported lasso through `next`: the prefix runs from an
/// initial `start`, and the non-empty cycle returns to its entry state
/// and visits an accepting state.
fn check_lasso(
    automaton: &Table,
    start: usize,
    prefix: &[usize],
    cycle: &[usize],
) -> Result<(), String> {
    if !automaton.initial.contains(&start) {
        return Err(format!("start {start} is not initial"));
    }
    let mut state = start;
    for sym in prefix {
        state = automaton
            .next(&state, sym)
            .ok_or_else(|| format!("prefix blocked at {state} on {sym}"))?;
    }
    if cycle.is_empty() {
        return Err("empty cycle".into());
    }
    let entry = state;
    let mut accepting = false;
    for sym in cycle {
        state = automaton
            .next(&state, sym)
            .ok_or_else(|| format!("cycle blocked at {state} on {sym}"))?;
        accepting |= automaton.is_accepting(&state);
    }
    if state != entry {
        return Err(format!("cycle ends at {state}, entered at {entry}"));
    }
    if !accepting {
        return Err("cycle visits no accepting state".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    #[test]
    fn on_the_fly_search_agrees_with_the_full_graph_reference(seed in 0u64..u64::MAX) {
        let (automaton, cap) = random_automaton(seed);
        let expected = reference(&automaton, cap);
        let got = Explorer::new(automaton.clone(), cap).emptiness();
        match (&expected, &got) {
            (Reference::Empty(n), Emptiness::Empty { states }) => {
                prop_assert_eq!(states, n, "empty languages are explored in full");
            }
            (Reference::NonEmpty(n), Emptiness::NonEmpty { states, .. }) => {
                prop_assert!(states <= n, "explored {} of {} reachable", states, n);
            }
            // A capped reference may still contain a lasso that the
            // search closes before reaching the cap.
            (Reference::Capped, Emptiness::Capped { cap: c }) => prop_assert_eq!(*c, cap),
            (Reference::Capped, Emptiness::NonEmpty { .. }) => {}
            (_, got) => {
                let expected = match expected {
                    Reference::Empty(n) => format!("Empty({n})"),
                    Reference::NonEmpty(n) => format!("NonEmpty({n})"),
                    Reference::Capped => "Capped".into(),
                };
                prop_assert!(false, "reference {} but got {:?} on {:?} cap {}", expected, got, automaton, cap);
            }
        }
        if let Emptiness::NonEmpty { start, lasso, .. } = &got {
            let replay = check_lasso(&automaton, *start, &lasso.prefix, &lasso.cycle);
            prop_assert!(replay.is_ok(), "{:?} on {:?}", replay, automaton);
        }
    }
}
