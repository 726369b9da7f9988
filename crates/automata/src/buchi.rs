//! Lazily expanded Büchi automata.
//!
//! The sticky decision procedure (Section 6.5 / Appendix D.2 of the
//! paper) reduces non-termination to the emptiness of a deterministic
//! Büchi automaton whose state space is finite but astronomically
//! large if materialised eagerly. This module therefore works with an
//! *implicit* automaton: a trait supplying initial states, a finite
//! alphabet and a transition function. [`Explorer::emptiness`] runs one
//! depth-first search that interns states as it reaches them (the
//! initial ones up front) and stops at the first accepting cycle, so a
//! non-empty language usually costs a small fragment of the reachable
//! graph; only an empty language is explored in full.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// An implicitly represented Büchi automaton, deterministic per input
/// symbol (the paper's `A_T` is deterministic; nondeterminism lives in
/// the choice of the input word, i.e. which edge to follow).
pub trait BuchiAutomaton {
    /// Automaton states. Cheaply clonable; interned by the explorer.
    type State: Clone + Eq + Hash;
    /// Input symbols (the caterpillar alphabet `Λ_T`).
    type Symbol: Clone;

    /// The initial states (the union over start pairs `(e₀, Π₀)`).
    fn initial_states(&self) -> Vec<Self::State>;

    /// The finite input alphabet.
    fn alphabet(&self) -> Vec<Self::Symbol>;

    /// The successor of `state` on `symbol`; `None` encodes the reject
    /// sink (transitions into it are dropped from the graph).
    fn next(&self, state: &Self::State, symbol: &Self::Symbol) -> Option<Self::State>;

    /// Büchi acceptance: the run must visit accepting states
    /// infinitely often.
    fn is_accepting(&self, state: &Self::State) -> bool;
}

/// An ultimately periodic word `prefix · cycleᵚ` witnessing
/// non-emptiness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lasso<Sym> {
    /// The finite prefix.
    pub prefix: Vec<Sym>,
    /// The repeated cycle (non-empty; visits an accepting state).
    pub cycle: Vec<Sym>,
}

/// Outcome of an emptiness check over states `S` and symbols `Sym`.
#[derive(Debug, Clone)]
pub enum Emptiness<S, Sym> {
    /// `L(A) = ∅`; the search explored every reachable state.
    Empty {
        /// Number of reachable states.
        states: usize,
    },
    /// A witness lasso was found.
    NonEmpty {
        /// The initial state the lasso runs from.
        start: S,
        /// The accepting lasso.
        lasso: Lasso<Sym>,
        /// Number of states explored before the witness was returned
        /// (at most the reachable count, usually far fewer).
        states: usize,
    },
    /// The state cap was hit before the search finished; the result is
    /// unknown. (A resource guard, never a silent truncation.)
    Capped {
        /// The cap that was hit.
        cap: usize,
    },
}

impl<S, Sym> Emptiness<S, Sym> {
    /// `true` iff the language was proven empty.
    pub fn is_empty_language(&self) -> bool {
        matches!(self, Emptiness::Empty { .. })
    }

    /// The witness lasso, if any.
    pub fn lasso(&self) -> Option<&Lasso<Sym>> {
        match self {
            Emptiness::NonEmpty { lasso, .. } => Some(lasso),
            _ => None,
        }
    }
}

/// Explores an implicit Büchi automaton and decides emptiness.
pub struct Explorer<A: BuchiAutomaton> {
    automaton: A,
    cap: usize,
}

impl<A: BuchiAutomaton> Explorer<A> {
    /// Creates an explorer with a state cap (resource guard).
    pub fn new(automaton: A, cap: usize) -> Self {
        Explorer { automaton, cap }
    }

    /// Access to the wrapped automaton.
    pub fn automaton(&self) -> &A {
        &self.automaton
    }

    /// Decides emptiness with one on-the-fly depth-first search
    /// (Couvreur's SCC-based check): the language is non-empty iff
    /// some reachable accepting state lies on a cycle.
    ///
    /// The initial states are interned up front and never count
    /// against the cap; any other state is interned when first
    /// reached, and one that would take the count past the cap gives
    /// `Capped` (the rule of a full exploration, which the search
    /// therefore hits only where a full exploration would). A stack of
    /// partial-SCC roots carries an "accepting state seen" flag, and
    /// the search stops at the first edge that merges a partial SCC
    /// holding an accepting state. The witness lasso is then read off
    /// the explored subgraph: shortest within that fragment, not
    /// within the whole automaton. The state count is the number of
    /// states the search entered: on an empty language, which is
    /// explored exhaustively, the full reachable count.
    pub fn emptiness(&self) -> Emptiness<A::State, A::Symbol> {
        let symbols = self.automaton.alphabet();
        let mut search = Search::default();
        let initial: Vec<usize> = self
            .automaton
            .initial_states()
            .into_iter()
            .map(|s| {
                search
                    .intern(&self.automaton, s, usize::MAX)
                    .expect("initial states are never capped")
            })
            .collect();
        for &root in &initial {
            if search.order[root] != UNVISITED {
                continue;
            }
            search.enter(root);
            while let Some(frame) = search.call.last_mut() {
                let (v, si) = *frame;
                if si == symbols.len() {
                    search.leave(v);
                    continue;
                }
                frame.1 += 1;
                let Some(next) = self.automaton.next(&search.states[v], &symbols[si]) else {
                    continue;
                };
                let Some(w) = search.intern(&self.automaton, next, self.cap) else {
                    return Emptiness::Capped { cap: self.cap };
                };
                search.adj[v].push((si, w));
                if search.order[w] == UNVISITED {
                    search.enter(w);
                } else if search.live[w] && search.merge(w) {
                    return search.lasso(&initial, &symbols);
                }
            }
        }
        Emptiness::Empty {
            states: search.visited,
        }
    }
}

/// Marks a state that is interned but not yet entered by the search.
const UNVISITED: usize = usize::MAX;

/// The explored subgraph plus the state of Couvreur's search over it,
/// indexed by interned state id.
struct Search<S> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    accepting: Vec<bool>,
    /// Explored edges `(symbol index, to)`.
    adj: Vec<Vec<(usize, usize)>>,
    /// Depth-first visit number; `UNVISITED` until entered.
    order: Vec<usize>,
    /// Whether the state sits in a partial SCC that is still open.
    live: Vec<bool>,
    /// Tarjan's stack of open states, in visit order.
    open: Vec<usize>,
    /// Roots of the open partial SCCs: (visit number, accepting state
    /// seen in the component).
    roots: Vec<(usize, bool)>,
    /// Search frames: (state, next symbol index).
    call: Vec<(usize, usize)>,
    /// States entered so far.
    visited: usize,
}

impl<S> Default for Search<S> {
    fn default() -> Self {
        Search {
            states: Vec::new(),
            index: HashMap::new(),
            accepting: Vec::new(),
            adj: Vec::new(),
            order: Vec::new(),
            live: Vec::new(),
            open: Vec::new(),
            roots: Vec::new(),
            call: Vec::new(),
            visited: 0,
        }
    }
}

impl<S: Clone + Eq + Hash> Search<S> {
    /// The id of `state`, interning it if new; `None` if that would
    /// take the state count past `cap`.
    fn intern<A>(&mut self, automaton: &A, state: S, cap: usize) -> Option<usize>
    where
        A: BuchiAutomaton<State = S>,
    {
        match self.index.entry(state) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => {
                if self.states.len() >= cap {
                    return None;
                }
                let id = self.states.len();
                self.accepting.push(automaton.is_accepting(e.key()));
                self.states.push(e.key().clone());
                e.insert(id);
                self.adj.push(Vec::new());
                self.order.push(UNVISITED);
                self.live.push(false);
                Some(id)
            }
        }
    }

    /// Enters `v` as a new trivial partial SCC.
    fn enter(&mut self, v: usize) {
        self.order[v] = self.visited;
        self.roots.push((self.visited, self.accepting[v]));
        self.visited += 1;
        self.live[v] = true;
        self.open.push(v);
        self.call.push((v, 0));
    }

    /// Leaves `v` once all its successors are explored; if `v` roots
    /// its partial SCC, that SCC is complete and closes.
    fn leave(&mut self, v: usize) {
        self.call.pop();
        if self.roots.last().is_some_and(|&(r, _)| r == self.order[v]) {
            self.roots.pop();
            loop {
                let w = self.open.pop().expect("root is open");
                self.live[w] = false;
                if w == v {
                    break;
                }
            }
        }
    }

    /// Handles an edge into the open state `w`: every partial SCC
    /// from `w`'s up to the current one becomes one. Returns whether
    /// the merged component holds an accepting state, which then lies
    /// on a cycle.
    fn merge(&mut self, w: usize) -> bool {
        let mut seen = false;
        while self.roots.last().is_some_and(|&(r, _)| r > self.order[w]) {
            seen |= self.roots.pop().expect("checked non-empty").1;
        }
        let top = self.roots.last_mut().expect("w's component is open");
        top.1 |= seen;
        top.1
    }

    /// Reads a witness off the explored subgraph, which holds an
    /// accepting state on a cycle: the shortest prefix from an initial
    /// state to the first such state `q`, then the shortest non-empty
    /// cycle `q → q` inside `q`'s component.
    fn lasso<Sym: Clone>(&self, initial: &[usize], symbols: &[Sym]) -> Emptiness<S, Sym> {
        let (adj, n) = (&self.adj, self.states.len());
        let comp = sccs(n, adj);
        let mut comp_size = vec![0usize; n];
        for &c in &comp {
            comp_size[c] += 1;
        }
        let q = (0..n)
            .find(|&q| {
                self.accepting[q] && (comp_size[comp[q]] > 1 || adj[q].iter().any(|&(_, t)| t == q))
            })
            .expect("the explored subgraph holds an accepting cycle");
        let (start, prefix) = bfs_path(adj, initial, |v| v == q).expect("q reachable");
        let cycle = bfs_cycle(adj, q, &comp).expect("q on a cycle");
        let to_syms = |path: Vec<usize>| {
            path.into_iter()
                .map(|si| symbols[si].clone())
                .collect::<Vec<_>>()
        };
        Emptiness::NonEmpty {
            start: self.states[start].clone(),
            lasso: Lasso {
                prefix: to_syms(prefix),
                cycle: to_syms(cycle),
            },
            states: self.visited,
        }
    }
}

/// Iterative Tarjan SCC; returns component id per node.
fn sccs(n: usize, adj: &[Vec<(usize, usize)>]) -> Vec<usize> {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&(v, child)) = call.last() {
            if child < adj[v].len() {
                let (_, w) = adj[v][child];
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

/// BFS from `starts` until `goal` holds; returns the start node the
/// path leaves from and its symbol sequence.
fn bfs_path(
    adj: &[Vec<(usize, usize)>],
    starts: &[usize],
    goal: impl Fn(usize) -> bool,
) -> Option<(usize, Vec<usize>)> {
    let n = adj.len();
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; n]; // (from, symbol)
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for &s in starts {
        if !visited[s] {
            visited[s] = true;
            queue.push_back(s);
        }
    }
    let mut found = starts.iter().copied().find(|&s| goal(s));
    while found.is_none() {
        let u = queue.pop_front()?;
        for &(sym, v) in &adj[u] {
            if !visited[v] {
                visited[v] = true;
                prev[v] = Some((u, sym));
                if goal(v) {
                    found = Some(v);
                    break;
                }
                queue.push_back(v);
            }
        }
    }
    let mut path = Vec::new();
    let mut cur = found?;
    while let Some((from, sym)) = prev[cur] {
        path.push(sym);
        cur = from;
    }
    path.reverse();
    Some((cur, path))
}

/// Shortest non-empty cycle through `q` staying inside `q`'s SCC.
fn bfs_cycle(adj: &[Vec<(usize, usize)>], q: usize, comp: &[usize]) -> Option<Vec<usize>> {
    // One step out of q (within the SCC), then BFS back to q.
    let cq = comp[q];
    for &(sym, first) in &adj[q] {
        if comp[first] != cq {
            continue;
        }
        if first == q {
            return Some(vec![sym]);
        }
        let restricted: Vec<Vec<(usize, usize)>> = adj
            .iter()
            .enumerate()
            .map(|(u, outs)| {
                if comp[u] == cq {
                    outs.iter()
                        .copied()
                        .filter(|&(_, t)| comp[t] == cq)
                        .collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        if let Some((_, back)) = bfs_path(&restricted, &[first], |v| v == q) {
            let mut cycle = vec![sym];
            cycle.extend(back);
            return Some(cycle);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy automaton over the alphabet {0, 1}: states are `u8`
    /// counters mod `modulus`; symbol 0 increments, symbol 1 resets;
    /// accepting iff the counter equals `accept`. Transitions out of
    /// `dead` states (counter == modulus-1 when `trap` is set) reject.
    struct Toy {
        modulus: u8,
        accept: u8,
        trap: bool,
    }

    impl BuchiAutomaton for Toy {
        type State = u8;
        type Symbol = u8;

        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }

        fn alphabet(&self) -> Vec<u8> {
            vec![0, 1]
        }

        fn next(&self, state: &u8, symbol: &u8) -> Option<u8> {
            if self.trap && *state == self.modulus - 1 {
                return None;
            }
            Some(match symbol {
                0 => (state + 1) % self.modulus,
                _ => 0,
            })
        }

        fn is_accepting(&self, state: &u8) -> bool {
            *state == self.accept
        }
    }

    #[test]
    fn nonempty_with_reachable_accepting_cycle() {
        let e = Explorer::new(
            Toy {
                modulus: 5,
                accept: 3,
                trap: false,
            },
            1000,
        );
        match e.emptiness() {
            Emptiness::NonEmpty {
                start,
                lasso,
                states,
            } => {
                assert_eq!(start, 0);
                assert_eq!(states, 5);
                assert!(!lasso.cycle.is_empty());
                // Replay the lasso and check it visits state 3 in the cycle.
                let toy = Toy {
                    modulus: 5,
                    accept: 3,
                    trap: false,
                };
                let mut s = 0u8;
                for sym in &lasso.prefix {
                    s = toy.next(&s, sym).unwrap();
                }
                let mut hit = s == 3;
                let entry = s;
                for sym in &lasso.cycle {
                    s = toy.next(&s, sym).unwrap();
                    hit |= s == 3;
                }
                assert_eq!(s, entry, "cycle must return to its entry state");
                assert!(hit, "cycle must visit an accepting state");
            }
            other => panic!("expected NonEmpty, got {other:?}"),
        }
    }

    #[test]
    fn empty_when_accepting_state_unreachable() {
        let e = Explorer::new(
            Toy {
                modulus: 5,
                accept: 7, // never reached (counter < 5)
                trap: false,
            },
            1000,
        );
        assert!(e.emptiness().is_empty_language());
    }

    #[test]
    fn empty_when_accepting_state_not_on_cycle() {
        // With trap=true, state 4 has no outgoing edges. Accepting
        // state 4 is reachable but on no cycle.
        let e = Explorer::new(
            Toy {
                modulus: 5,
                accept: 4,
                trap: true,
            },
            1000,
        );
        assert!(e.emptiness().is_empty_language());
    }

    #[test]
    fn self_loop_accepted() {
        // modulus 1: single state 0, symbol 0 self-loops.
        let e = Explorer::new(
            Toy {
                modulus: 1,
                accept: 0,
                trap: false,
            },
            10,
        );
        match e.emptiness() {
            Emptiness::NonEmpty { lasso, .. } => {
                assert!(lasso.prefix.is_empty());
                assert_eq!(lasso.cycle.len(), 1);
            }
            other => panic!("expected NonEmpty, got {other:?}"),
        }
    }

    #[test]
    fn cap_reported() {
        let e = Explorer::new(
            Toy {
                modulus: 200,
                accept: 199,
                trap: false,
            },
            10,
        );
        assert!(matches!(e.emptiness(), Emptiness::Capped { cap: 10 }));
    }

    #[test]
    fn empty_language_counts_every_reachable_state() {
        let e = Explorer::new(
            Toy {
                modulus: 7,
                accept: 9,
                trap: false,
            },
            1000,
        );
        assert!(matches!(e.emptiness(), Emptiness::Empty { states: 7 }));
    }

    /// States `0..n`: symbol 0 moves `0 ⇄ 1` (1 accepting), symbol 1
    /// walks the chain `0 → 2 → 3 → … → n-1`.
    struct EarlyLoop {
        n: usize,
    }

    impl BuchiAutomaton for EarlyLoop {
        type State = usize;
        type Symbol = u8;

        fn initial_states(&self) -> Vec<usize> {
            vec![0]
        }

        fn alphabet(&self) -> Vec<u8> {
            vec![0, 1]
        }

        fn next(&self, state: &usize, symbol: &u8) -> Option<usize> {
            match (*state, *symbol) {
                (0, 0) => Some(1),
                (1, 0) => Some(0),
                (0, 1) => Some(2),
                (s, 1) if s >= 2 && s + 1 < self.n => Some(s + 1),
                _ => None,
            }
        }

        fn is_accepting(&self, state: &usize) -> bool {
            *state == 1
        }
    }

    #[test]
    fn search_stops_at_the_first_accepting_cycle() {
        // 100 reachable states, but the lasso 0 → (1 → 0)ᵚ closes
        // after two; a cap far below the reachable count is not hit.
        let e = Explorer::new(EarlyLoop { n: 100 }, 5);
        match e.emptiness() {
            Emptiness::NonEmpty {
                start,
                lasso,
                states,
            } => {
                assert_eq!(start, 0);
                assert_eq!(states, 2);
                assert_eq!(lasso.prefix, vec![0]);
                assert_eq!(lasso.cycle, vec![0, 0]);
            }
            other => panic!("expected NonEmpty, got {other:?}"),
        }
    }
}
