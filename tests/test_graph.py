"""The support graph against the list path and the oracles: cores, counts, budgets, witnesses, drift."""
import json
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcore import (
    IDENTITY,
    TERMINAL,
    Abstraction,
    BudgetExceeded,
    EpisodeSequence,
    ExplosionGuard,
    GuardError,
    KernelRows,
    SymbolLimitExceeded,
    TabularMDP,
    UnmappedSymbol,
    apply_abstraction,
    brute_force_core,
    build_coop_keydoor,
    core,
    drift_report,
    enumerate_successes,
    formats,
    induce_mdp,
    is_subsequence,
    is_successful,
    random_mdp,
    uniform_peer,
    validate_mdp,
)
from trajcore.cli import main
from trajcore.envs import DEFAULT_COOP, DEFAULT_KEYDOOR, build_keydoor
from trajcore.graph import ACCEPT, EPS, SuccessGraph, Symbols, _pass, build_graph, sequence_graph
from trajcore.mdp import DEFAULT_NODE_BUDGET, goal_reachable

from conftest import (
    count_calls,
    oracle_case,
    oracle_core,
    oracle_drift_report,
    oracle_enumerate,
    oracle_witness,
    sparse_game,
    sparse_peer,
)


def _abstractions(mdp, rng) -> list[Abstraction]:
    """The identity, a random 3-letter map, and the same map with collapse_runs."""
    mapping = {
        (s, a): str(rng.choice(list("xyz")))
        for s in range(mdp.num_states)
        for a in range(mdp.num_actions)
    }
    mapping.update({(g, TERMINAL): str(rng.choice(list("xyzT"))) for g in mdp.goals})
    return [IDENTITY, Abstraction(mapping=mapping), Abstraction(mapping=mapping, collapse_runs=True)]


def _search_size(mine) -> int:
    """The smallest budget under which ``mine(budget)`` does not trip."""
    low, high = 1, 1
    while True:
        try:
            mine(high)
            break
        except BudgetExceeded:
            low, high = high + 1, 2 * high
    while low < high:
        middle = (low + high) // 2
        try:
            mine(middle)
            high = middle
        except BudgetExceeded:
            low = middle + 1
    return low


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), support_size=st.integers(1, 3))
def test_graph_core_count_and_budget_equal_the_list_path(seed, support_size):
    mdp = random_mdp(6, 2, 7, seed=seed, support_size=support_size)
    successes = enumerate_successes(mdp)
    rng = np.random.default_rng(seed)
    for phi in _abstractions(mdp, rng):
        for strip in (False, True):
            graph = build_graph(mdp, Symbols(phi, strip))
            assert graph.num_successes() == len(successes)
            expected = oracle_core(successes, phi, strip)
            assert graph.core() == core(successes, phi, strip) == expected
            # the support graph and the sequence graph of the listed successes
            # are two graphs of one word set: the search visits the same tree
            size = _search_size(graph.core)
            with pytest.raises(BudgetExceeded) as tripped:
                core(successes, phi, strip, budget=size - 1)
            assert (tripped.value.budget, tripped.value.visited) == (size - 1, size)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_graph_witness_is_the_first_non_embedding_success(seed):
    mdp = random_mdp(6, 2, 7, seed=seed, support_size=2)
    successes = enumerate_successes(mdp)
    rng = np.random.default_rng(seed)
    for phi in _abstractions(mdp, rng):
        graph = build_graph(mdp, Symbols(phi, False))
        names = graph.symbols.names
        words = [tuple(names[i] for i in rng.integers(0, len(names), size=k)) for k in (1, 2, 3)]
        for word in words + list(core(successes, phi).members) + [("absent",)]:
            found = oracle_witness(word, successes, phi)
            assert graph.witness(word) == (None if found is None else found[0])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["identity", "map", "map-collapse"]),
    strip=st.booleans(),
    episodes=st.integers(2, 5),
)
def test_drift_report_equals_the_list_oracle(seed, kind, strip, episodes):
    rng = np.random.default_rng(seed)
    game = sparse_game(rng, num_states=int(rng.integers(3, 6)), horizon=int(rng.integers(3, 6)))
    schedule = [sparse_peer(rng, game) for _ in range(episodes)]
    if rng.random() < 0.5:
        schedule[1] = schedule[0]  # a step between equal signatures
    mapping = None
    if kind != "identity":
        mapping = {(s, a): str(rng.choice(list("xyz"))) for s in range(game.num_states) for a in range(2)}
        mapping.update({(g, TERMINAL): "T" for g in game.goals})
    phi = Abstraction(mapping=mapping, collapse_runs=kind == "map-collapse")
    seq = EpisodeSequence.from_schedule(game, schedule)
    assert drift_report(seq, phi, strip) == oracle_drift_report(seq, phi, strip)


_ITEMS = [(s, a) for s in range(3) for a in (0, 1)] + [(s, TERMINAL) for s in range(2)]
# three names; the terminal pairs share "z" with (2, 0), so stripping drops every "z"
_THREE_NAMES = {pair: "xyz"[2 if pair[1] == TERMINAL else (pair[0] + pair[1]) % 3] for pair in _ITEMS}
SEQUENCE_GRAPH_PHIS = {
    "identity": IDENTITY,
    "names": Abstraction(mapping=_THREE_NAMES),
    "collapsed": Abstraction(mapping=_THREE_NAMES, collapse_runs=True),
}


@st.composite
def _with_prefixes(draw, items):
    """A family of words over ``items`` plus some prefixes of them; the empty word may be among them."""
    family = draw(st.lists(st.lists(st.sampled_from(items), max_size=7).map(tuple), min_size=1, max_size=8))
    cuts = draw(st.lists(st.tuples(st.integers(0, len(family) - 1), st.integers(0, 7)), max_size=4))
    return family + [family[i][:k] for i, k in cuts]


def _expected_words(family, phi: Abstraction, strip_terminal: bool) -> set:
    """The distinct words of ``family`` as names, read straight from the map."""
    terminal = {name for item, name in (phi.mapping or {item: item for item in _ITEMS}).items()
                if item[1] == TERMINAL}
    words = set()
    for seq in family:
        names = [phi.mapping[item] if phi.mapping else item for item in seq]
        if phi.collapse_runs:
            names = [name for name, _ in groupby(names)]
        words.add(tuple(name for name in names if not (strip_terminal and name in terminal)))
    return words


def _spelled(graph) -> list:
    """The label sequence of every root-to-accept path, decoded."""
    spelled, stack = [], [(root, ()) for root in graph.roots]
    while stack:
        n, word = stack.pop()
        if n == ACCEPT:
            spelled.append(graph.symbols.decode(word))
        for _, m, lab in graph.edges[n]:
            stack.append((m, word if lab == EPS else word + (lab,)))
    return spelled


def _right_languages(words) -> int:
    """The distinct sets ``{v[k:] : v starts with w[:k]}`` over every prefix ``w[:k]``."""
    return len({frozenset(v[k:] for v in words if v[:k] == w[:k]) for w in words for k in range(len(w) + 1)})


def _assert_minimal_dag_of(family, phi: Abstraction, strip_terminal: bool) -> None:
    symbols = Symbols(phi, strip_terminal)
    graph = sequence_graph(symbols.words(family), symbols)
    spelled, expected = _spelled(graph), _expected_words(family, phi, strip_terminal)
    assert len(spelled) == len(expected) and set(spelled) == expected
    assert all(m == ACCEPT or m > n for n, row in enumerate(graph.edges) for _, m, _ in row)
    assert len(graph.edges) == _right_languages(expected)


@settings(max_examples=60, deadline=None)
@given(family=_with_prefixes(list("abc")))
def test_sequence_graph_of_strings_is_their_minimal_dag(family):
    _assert_minimal_dag_of(["".join(word) for word in family], IDENTITY, strip_terminal=False)


@pytest.mark.parametrize("phi", sorted(SEQUENCE_GRAPH_PHIS))
@settings(max_examples=60, deadline=None)
@given(family=_with_prefixes(_ITEMS), strip_terminal=st.booleans())
def test_sequence_graph_of_pairs_is_their_minimal_dag(phi, family, strip_terminal):
    _assert_minimal_dag_of(family, SEQUENCE_GRAPH_PHIS[phi], strip_terminal)


WORD_PHIS = {**SEQUENCE_GRAPH_PHIS, "identity-collapsed": Abstraction(collapse_runs=True)}


def _id_words(family, phi: Abstraction, strip_terminal: bool) -> list:
    """The sorted distinct id words of ``family``, by :meth:`Symbols.of` and the label rule."""
    symbols = Symbols(phi, strip_terminal)
    ids = [[symbols.of(item) for item in seq] for seq in family]
    words = set()
    for seq in ids:
        word, last = [], None
        for sid in seq:
            if symbols.label(sid, last) != EPS:
                word.append(sid)
            if phi.collapse_runs:
                last = sid
        words.add(tuple(word))
    return sorted(words)


@pytest.mark.parametrize("phi", sorted(WORD_PHIS))
@settings(max_examples=60, deadline=None)
@given(family=_with_prefixes(_ITEMS), strip_terminal=st.booleans())
def test_a_listed_word_spells_its_symbol_ids_as_code_points(phi, family, strip_terminal):
    words = Symbols(WORD_PHIS[phi], strip_terminal).words(family)
    assert all(type(word) is str for word in words)
    assert [tuple(map(ord, word)) for word in words] == _id_words(family, WORD_PHIS[phi], strip_terminal)


def _filled(count: int, marks: dict) -> Symbols:
    """An identity table of ``count`` filler ints, with each name of ``marks`` interned at its id."""
    symbols = Symbols(IDENTITY, False)
    for sid in range(count):
        symbols.of(marks.get(sid, -1 - sid))
    return symbols


def test_symbol_ids_past_one_byte_in_the_surrogates_and_past_the_bmp_mine_as_the_oracle():
    # a word holds symbol ids as code points: one byte, lone surrogates, and
    # past 0xFFFF (a string of four bytes per character) must all sort and mine alike
    marks = {0x41: "a", 0x1F0: "b", 0xD800: "c", 0xDBFF: "d", 0xDFFF: "e", 0x10000: "f", 0x10205: "g"}
    symbols = _filled(0x10206, marks)
    assert [symbols.of(name) for name in marks.values()] == list(marks)
    rng = random.Random(0x10FFFF)
    for _ in range(200):
        family = [tuple(rng.choices("abcdefg", k=rng.randint(0, 7))) for _ in range(rng.randint(1, 5))]
        mined = sequence_graph(symbols.words(family), symbols).core()
        assert mined == brute_force_core(family)
    assert len(symbols.names) == 0x10206  # every name was interned beforehand


def test_a_symbol_past_the_last_code_point_raises_before_the_table_changes():
    symbols = _filled(0x110000, {0x10FFFE: "y", 0x10FFFF: "z"})
    names, stripped, items = list(symbols.names), list(symbols.stripped), len(symbols._items)
    with pytest.raises(SymbolLimitExceeded) as info:
        symbols.of("past")
    assert isinstance(info.value, GuardError) and info.value.limit == 0x110000
    assert symbols.names == names and symbols.stripped == stripped
    assert len(symbols._items) == items and "past" not in symbols._items
    # the last code point still bounds its own range of words
    family = [tuple("zyz"), tuple("yzz"), tuple("zy")]
    assert sequence_graph(symbols.words(family), symbols).core() == brute_force_core(family)


def _renumbered(graph, rng) -> SuccessGraph:
    """``graph`` with its nodes renumbered in a random order; accept stays 0 and parents come first."""
    waiting = [0] * len(graph.edges)  # the edges into each node from nodes not yet numbered
    for row in graph.edges:
        for _, m, _ in row:
            waiting[m] += 1
    ready = [n for n in range(1, len(graph.edges)) if not waiting[n]]
    order = [ACCEPT]  # the old node at each new id
    while ready:
        n = ready.pop(rng.randrange(len(ready)))
        order.append(n)
        for _, m, _ in graph.edges[n]:
            waiting[m] -= 1
            if m != ACCEPT and not waiting[m]:
                ready.append(m)
    assert sorted(order) == list(range(len(graph.edges)))
    ids = [0] * len(order)
    for new, n in enumerate(order):
        ids[n] = new
    edges = [tuple((a, ids[m], lab) for a, m, lab in graph.edges[n]) for n in order]
    assert all(m == ACCEPT or m > n for n, row in enumerate(edges) for _, m, _ in row)
    roots = tuple(sorted(ids[root] for root in graph.roots))
    return SuccessGraph(graph.symbols, [graph.state[n] for n in order], edges, roots)


def _assert_numbering_free(graph, rng) -> None:
    """The core and the node count of the search are the same under any topological renumbering."""
    renumbered = _renumbered(graph, rng)
    assert renumbered.core() == graph.core()
    size = _search_size(graph.core)
    with pytest.raises(BudgetExceeded) as tripped:
        renumbered.core(budget=size - 1)
    assert tripped.value.visited == size


@settings(max_examples=40, deadline=None)
@given(
    family=st.lists(st.text("abcd", max_size=12), min_size=1, max_size=6),
    rng=st.randoms(use_true_random=False),
)
def test_the_search_of_a_sequence_graph_does_not_depend_on_node_numbering(family, rng):
    symbols = Symbols(IDENTITY, False)
    _assert_numbering_free(sequence_graph(symbols.words(family), symbols), rng)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rng=st.randoms(use_true_random=False))
def test_the_search_of_a_support_graph_does_not_depend_on_node_numbering(seed, rng):
    mdp = random_mdp(6, 2, 7, seed=seed)
    for phi in _abstractions(mdp, np.random.default_rng(seed)):
        _assert_numbering_free(build_graph(mdp, Symbols(phi, False)), rng)


def _label_paths(edges, n: int, memo: dict) -> set:
    """The label sequences, ε-edges dropped, of every path from node ``n`` to accept."""
    if n == ACCEPT:
        return {()}
    if n not in memo:
        memo[n] = {(() if lab == EPS else (lab,)) + rest
                   for _, m, lab in edges[n] for rest in _label_paths(edges, m, memo)}
    return memo[n]


def _undominated(paths: set) -> set:
    """The symbols on every path whose first occurrence no other such symbol precedes on every path."""
    extensions = set.intersection(*map(set, paths))
    firsts = [{c: path.index(c) for c in extensions} for path in paths]
    return {d for d in extensions
            if not any(all(first[c] < first[d] for first in firsts) for c in extensions - {d})}


def _assert_walks_are_the_undominated_extensions(graph) -> None:
    """Each frontier of the search walks to exactly its undominated extensions."""
    from trajcore import graph as graph_module

    walked: dict[tuple, set] = {}

    def advance(edges, frontier, c, _original=graph_module._advance):
        walked.setdefault(frontier, set()).add(c)
        return _original(edges, frontier, c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_advance", advance)
        graph.core()
    memo: dict = {}
    for frontier, symbols in walked.items():
        paths = set().union(*(_label_paths(graph.edges, n, memo) for n in frontier))
        assert symbols == _undominated(paths), frontier


@settings(max_examples=60, deadline=None)
@given(family=st.lists(st.text("abcd", max_size=10), min_size=1, max_size=5))
def test_the_search_walks_the_undominated_extensions_of_a_sequence_graph(family):
    symbols = Symbols(IDENTITY, False)
    _assert_walks_are_the_undominated_extensions(sequence_graph(symbols.words(family), symbols))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), strip=st.booleans())
def test_the_search_walks_the_undominated_extensions_of_a_support_graph(seed, strip):
    mdp = random_mdp(6, 2, 7, seed=seed)
    for phi in _abstractions(mdp, np.random.default_rng(seed)):
        _assert_walks_are_the_undominated_extensions(build_graph(mdp, Symbols(phi, strip)))


def _holds(word: tuple, path: tuple) -> bool:
    """Whether ``path`` holds ``word`` as a subsequence."""
    rest = iter(path)
    return all(x in rest for x in word)


def _assert_passes_are_brute_force(graph) -> None:
    """The pass of every suffix ``s`` (length up to 3) of a path word, chained from the empty suffix.

    At every node ``n`` it must be ``{x : every path word from n holds (x,) + s}``;
    for the empty suffix, the symbols on every path from ``n``.
    """
    memo: dict = {}
    paths = [_label_paths(graph.edges, n, memo) for n in range(len(graph.edges))]
    alphabet = {lab for row in graph.edges for _, _, lab in row if lab != EPS}
    passes = {(): _pass(graph.edges, [-1] * len(graph.edges), 0)}
    words = set().union(*(paths[root] for root in graph.roots))
    for suffix in sorted({word[len(word) - k:] for word in words for k in range(min(len(word), 3) + 1)},
                         key=len):
        if suffix not in passes:
            passes[suffix] = _pass(graph.edges, passes[suffix[1:]], suffix[0])
        for n, held in enumerate(paths):
            expected = {x for x in alphabet if all(_holds((x,) + suffix, path) for path in held)}
            assert passes[suffix][n] == sum(1 << x for x in expected), (suffix, n)
    for n, held in enumerate(paths):
        assert passes[()][n] == sum(1 << x for x in set.intersection(*map(set, held))), n


@settings(max_examples=60, deadline=None)
@given(family=st.lists(st.text("abcd", max_size=8), min_size=1, max_size=5))
def test_each_pass_of_a_sequence_graph_is_the_brute_force_set(family):
    symbols = Symbols(IDENTITY, False)
    _assert_passes_are_brute_force(sequence_graph(symbols.words(family), symbols))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), strip=st.booleans())
def test_each_pass_of_a_support_graph_is_the_brute_force_set(seed, strip):
    mdp = random_mdp(6, 2, 6, seed=seed)
    for phi in _abstractions(mdp, np.random.default_rng(seed)):
        _assert_passes_are_brute_force(build_graph(mdp, Symbols(phi, strip)))


def test_unmapped_pair_raises_exactly_when_it_lies_on_a_success():
    mdp = random_mdp(6, 2, 6, seed=5, support_size=2)
    on_success = {pair for traj in enumerate_successes(mdp) for pair in traj.pairs()}
    every = {(s, a) for s in range(6) for a in range(2)} | {(g, TERMINAL) for g in mdp.goals}
    assert on_success < every
    for missing in sorted(every):
        phi = Abstraction(mapping={pair: "x" for pair in every - {missing}})
        raised = []
        for mine in (
            lambda: build_graph(mdp, Symbols(phi, False)),
            lambda: core(enumerate_successes(mdp), phi),
        ):
            try:
                mine()
                raised.append(False)
            except UnmappedSymbol:
                raised.append(True)
        assert raised == [missing in on_success] * 2


@pytest.mark.parametrize("collapse_runs", [False, True])
def test_unmapped_symbol_names_the_first_pair_the_labelling_meets(collapse_runs):
    # phi meets the pairs layer by layer, each node's in ascending action order
    mdp = random_mdp(6, 2, 7, seed=3, support_size=2)
    every = [(s, a) for s in range(6) for a in range(2)] + [(g, TERMINAL) for g in mdp.goals]
    for mapped, first in [([], (3, 0)), ([p for p in every if p[0] % 3 != 2], (5, TERMINAL))]:
        phi = Abstraction(mapping={pair: "x" for pair in mapped}, collapse_runs=collapse_runs)
        with pytest.raises(UnmappedSymbol) as unmapped:
            build_graph(mdp, Symbols(phi, False))
        assert unmapped.value.pair == first


def test_node_budget_bounds_the_state_time_nodes_of_the_graph():
    mdp = random_mdp(6, 2, 7, seed=3, support_size=2)
    # the (state, t) nodes that successes pass through, the accept node aside
    nodes = {
        (state, t)
        for traj in enumerate_successes(mdp)
        for t, state in enumerate([s for s, _ in traj.steps] + [traj.terminal_state], start=1)
    }
    with pytest.raises(ExplosionGuard) as tripped:
        build_graph(mdp, Symbols(IDENTITY, False), node_budget=len(nodes) - 1)
    assert tripped.value.needed == len(nodes)
    assert len(nodes) - 1 < tripped.value.visited <= len(nodes)
    assert f"the full search needs {len(nodes)}" in str(tripped.value)
    build_graph(mdp, Symbols(IDENTITY, False), node_budget=len(nodes))
    # a budget of 0 or less trips at the first layer, of one root state
    for budget in [0, -1]:
        with pytest.raises(ExplosionGuard) as tripped:
            build_graph(mdp, Symbols(IDENTITY, False), node_budget=budget)
        assert (tripped.value.budget, tripped.value.visited, tripped.value.needed) == (budget, 1, 20)
    # with no success there is no node to count, whatever the budget
    for budget in [0, -1]:
        graph = build_graph(replace(mdp, horizon=1), Symbols(IDENTITY, False), node_budget=budget)
        assert graph.num_successes() == 0


def test_an_over_budget_graph_trips_before_phi_sees_a_pair():
    mdp = random_mdp(6, 2, 7, seed=3, support_size=2)
    no_pairs = Abstraction(mapping={})
    with pytest.raises(ExplosionGuard) as tripped:
        build_graph(mdp, Symbols(no_pairs, False), node_budget=5)
    assert tripped.value.needed == 20
    with pytest.raises(UnmappedSymbol):
        build_graph(mdp, Symbols(no_pairs, False), node_budget=20)


@pytest.mark.parametrize("support_size", [1, 2, 3])
def test_the_count_past_the_budget_is_the_node_count_at_long_horizons(support_size):
    for seed in range(30):
        sampled = random_mdp(7, 2, 5, seed=seed, support_size=support_size)
        for horizon in (9, 23, 61):
            mdp = replace(sampled, horizon=horizon)
            nodes = len(build_graph(mdp, Symbols(IDENTITY, False)).edges) - 1
            for budget in {0, nodes // 3, nodes - 1} - {nodes}:
                with pytest.raises(ExplosionGuard) as tripped:
                    build_graph(mdp, Symbols(IDENTITY, False), node_budget=budget)
                assert tripped.value.needed == nodes


def test_the_node_count_of_a_far_horizon_is_exact_and_quick():
    mdp, _ = build_keydoor(DEFAULT_KEYDOOR)

    def needed(horizon: int) -> int:
        with pytest.raises(ExplosionGuard) as tripped:
            build_graph(replace(mdp, horizon=horizon), Symbols(IDENTITY, False), node_budget=1000)
        return tripped.value.needed

    # far from the horizon every layer holds the same states, so the count grows linearly
    per_step = needed(201) - needed(200)
    start = time.perf_counter()
    assert needed(10**18) == needed(200) + (10**18 - 200) * per_step
    assert time.perf_counter() - start < 1.0


def _same_graph(graph: SuccessGraph, bare: SuccessGraph, by: int = 0) -> bool:
    """Whether ``graph`` is ``bare`` with every state moved up by ``by``."""
    moved = [s + by if s >= 0 else s for s in bare.state]
    names = [(s + by, a) for s, a in bare.symbols.names]
    return (graph.state, graph.edges, graph.roots, graph.symbols.names) == (
        moved, bare.edges, bare.roots, names)


def test_a_graph_reads_only_the_states_its_initial_support_reaches(chain_mdp):
    # 200,000 more states, each stepping into the chain, which steps into none of them
    extra = 200_000
    rows = chain_mdp.rows
    size = chain_mdp.num_states + extra
    mdp = TabularMDP(
        num_states=size,
        num_actions=2,
        kernel=KernelRows(
            (size, 2, size),
            np.concatenate([rows.offsets, rows.offsets[-1] + np.arange(1, 2 * extra + 1)]),
            np.concatenate([rows.targets, np.arange(2 * extra) % 3]),
            np.concatenate([rows.probs, np.ones(2 * extra)]),
        ),
        reward=np.zeros((size, 2)),
        horizon=chain_mdp.horizon,
        goals=chain_mdp.goals,
        initial=np.concatenate([chain_mdp.initial, np.zeros(extra)]),
        goal_absorbing=True,
    )
    validate_mdp(mdp)
    tracemalloc.start()
    try:
        graph = build_graph(mdp, Symbols(IDENTITY, False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bare = build_graph(chain_mdp, Symbols(IDENTITY, False))
    assert _same_graph(graph, bare)
    assert graph.count_paths() == bare.count_paths() == (2, 6)
    assert graph.core() == bare.core()
    for member in list(bare.core()) + [((0, 0),), ((1, 0), (1, 1))]:
        assert graph.witness(member) == bare.witness(member)
    # the whole kernel support as Python lists would take about 30 MB
    assert peak < 2**20


LEAD = 8  # states added before those of a padded MDP, so that its state ids pass the horizon


def _moved(pairs, by: int) -> tuple:
    return tuple((s + by, a) for s, a in pairs)


def _padded(mdp: TabularMDP, far: int, rng: np.random.Generator) -> TabularMDP:
    """``mdp`` moved to states ``LEAD`` on, among more states that none of its states step into.

    Its states are followed by ``far`` states that step, under every
    action, each into the next and the last into a goal of ``mdp``, so the
    first is ``far`` steps from a goal, and by a goal of their own.  The
    ``LEAD`` states before and six states after these have rows of one to
    three next states drawn from all states, each action 0 row holding a
    state of ``mdp``.
    """
    n, width = mdp.num_states, mdp.num_actions
    chain, size = LEAD + n, LEAD + n + far + 7
    kernel = np.zeros((size, width, size))
    kernel[LEAD:chain, :, LEAD:chain] = mdp.kernel
    for p in range(chain, chain + far):
        kernel[p, :, p + 1 if p + 1 < chain + far else LEAD + min(mdp.goals)] = 1.0
    kernel[chain + far, :, chain + far] = 1.0
    for p in [*range(LEAD), *range(chain + far + 1, size)]:
        for a in range(width):
            drawn = rng.choice(size, size=int(rng.integers(1, 4)), replace=False)
            if a == 0:
                drawn[0] = LEAD + rng.integers(0, n)
            drawn = np.unique(drawn)
            kernel[p, a, drawn] = 1.0 / len(drawn)
    initial = np.zeros(size)
    initial[LEAD:chain] = mdp.initial
    return TabularMDP(
        num_states=size,
        num_actions=width,
        kernel=kernel,
        reward=np.zeros((size, width)),
        horizon=mdp.horizon,
        goals=frozenset({LEAD + g for g in mdp.goals} | {chain + far}),
        initial=initial,
        goal_absorbing=mdp.goal_absorbing,
    )


def _guard_fields(mdp: TabularMDP, budget: int):
    """``(visited, needed)`` of the guard that building the graph raises at ``budget``, or None."""
    try:
        build_graph(mdp, Symbols(IDENTITY, False), budget)
    except ExplosionGuard as tripped:
        return tripped.visited, tripped.needed
    return None


@pytest.mark.parametrize("goals", ["one", "two", "leaky", "initial"])
def test_states_the_initial_support_does_not_reach_change_no_result(goals):
    horizon, far_horizon = 5, 10**15
    for seed in range(12):
        rng = np.random.default_rng(seed)
        mdp = oracle_case(seed, horizon, 2, goals)
        # an added state holds the largest goal distance below the horizon
        padded = _padded(mdp, horizon - 1, rng)
        validate_mdp(padded)
        expected = oracle_enumerate(mdp)
        assert enumerate_successes(mdp) == expected
        assert [_moved(t.pairs(), -LEAD) for t in enumerate_successes(padded)] == [
            t.pairs() for t in expected]
        assert goal_reachable(padded) == goal_reachable(mdp) == (len(expected) > 0)
        graph, bare = (build_graph(m, Symbols(IDENTITY, False)) for m in (padded, mdp))
        assert _same_graph(graph, bare, LEAD)
        assert graph.count_paths() == bare.count_paths()
        assert graph.num_successes() == len(expected)
        if expected:
            assert bare.core() == oracle_core(expected)
            assert [_moved(m, -LEAD) for m in graph.core()] == list(bare.core())
            names = bare.symbols.names
            words = [tuple(names[i] for i in rng.integers(0, len(names), size=k)) for k in (1, 2, 3)]
            for word in words + list(bare.core()):
                found = oracle_witness(word, expected)
                assert bare.witness(word) == (None if found is None else found[0])
                witness = graph.witness(_moved(word, LEAD))
                assert (None if witness is None else _moved(witness.pairs(), -LEAD)) == (
                    None if found is None else found[0].pairs())
        for budget in (0, -1, DEFAULT_NODE_BUDGET):
            assert _guard_fields(padded, budget) == _guard_fields(mdp, budget)
        # far from the horizon the guard's count takes the period skip, which
        # stops where the horizon starts to cut the steps of a reached state
        mdp = replace(mdp, horizon=far_horizon)
        padded = _padded(mdp, mdp.num_states + 1, rng)
        assert goal_reachable(padded) == goal_reachable(mdp) == (len(expected) > 0)
        for budget in (0, -1, 50):
            assert _guard_fields(padded, budget) == _guard_fields(mdp, budget)


def test_cli_mine_counts_successes_on_the_graph(tmp_path, capsys, monkeypatch):
    mdp = random_mdp(6, 2, 7, seed=9, support_size=3)
    path = str(tmp_path / "mdp.json")
    formats.write_json(path, formats.mdp_to_payload(mdp))
    expected = len(enumerate_successes(mdp))
    calls = count_calls(monkeypatch, "enumerate_successes")
    assert main(["mine", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["num_successes"] == expected
    assert calls == []


def test_cli_mine_refuses_a_count_it_cannot_print_before_mining(tmp_path, capsys, monkeypatch):
    # from state 0 both actions reach 0 or the goal, so the successes double each step
    kernel = np.zeros((2, 2, 2))
    kernel[0, :, :] = 0.5
    kernel[1, :, 1] = 1.0
    mdp = TabularMDP(num_states=2, num_actions=2, kernel=kernel, reward=np.zeros((2, 2)),
                     horizon=15_000, goals=frozenset({1}), initial=np.array([1.0, 0.0]))
    path = str(tmp_path / "mdp.json")
    formats.write_json(path, formats.mdp_to_payload(mdp))
    mined = count_calls(monkeypatch, "_maximal_words")
    assert main(["mine", path]) == 4
    err = capsys.readouterr().err
    assert "num_successes is at least 10**4300, more than the 4,300 digits" in err
    assert mined == []


@pytest.fixture(scope="module")
def traced_keydoor_graph():
    """The key-door graph at horizon 5,000, its traced size and the traced peak of its build."""
    mdp, _ = build_keydoor(DEFAULT_KEYDOOR)
    mdp = replace(mdp, horizon=5000)
    tracemalloc.start()
    try:
        graph = build_graph(mdp, Symbols(IDENTITY, False))
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return graph, size, peak


def test_the_default_node_budget_fits_in_2_gib(traced_keydoor_graph):
    graph, _, peak = traced_keydoor_graph
    nodes = len(graph.edges) - 1  # every node but accept is a (state, t)
    assert 45_000 <= nodes <= 55_000
    assert peak / nodes * DEFAULT_NODE_BUDGET <= 2 * 2**30


def test_building_the_graph_holds_little_besides_the_graph(traced_keydoor_graph):
    # the walks keep one layer at a time, not a second copy of the graph's steps
    _, size, peak = traced_keydoor_graph
    assert peak <= 1.5 * size


def test_the_kept_graph_holds_one_edge_list_a_node(traced_keydoor_graph):
    # a state and one tuple of (action, target, label) rows, with no second copy of them
    graph, size, _ = traced_keydoor_graph
    assert size / (len(graph.edges) - 1) <= 400


def test_counting_the_paths_adds_little_to_the_graph(traced_keydoor_graph):
    # the counts have thousands of digits here; one per node would outweigh the graph
    graph, size, _ = traced_keydoor_graph
    tracemalloc.start()
    try:
        successes, prefixes = graph.count_paths()
        added = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert successes.bit_length() > 1000 and prefixes > successes
    assert added < 0.1 * size


def test_horizon_12_coop_layout_drifts_past_the_enumeration_wall(monkeypatch):
    cfg = replace(DEFAULT_COOP, corridor_length=5, key_pos=0, door_pos=2, goal_pos=3,
                  start_pos=0, peer_start=1, horizon=12)
    game, schedule, phi = build_coop_keydoor(cfg)
    seq = EpisodeSequence.from_schedule(game, schedule)
    full = induce_mdp(game, uniform_peer(game))
    # every success is a node of the enumeration, so it would trip the default guard
    assert build_graph(full, Symbols(phi, True)).num_successes() > DEFAULT_NODE_BUDGET
    calls = count_calls(monkeypatch, "enumerate_successes")
    start = time.perf_counter()
    report = drift_report(seq, phi=phi, strip_terminal=True)
    assert time.perf_counter() - start < 5.0
    assert calls == []
    assert report.individual is not None
    step = report.steps[0]
    for changes, other in ((step.vanished, seq.induced[1]), (step.gained, seq.induced[0])):
        assert changes
        for change in changes:
            assert is_successful(change.witness, other)
            assert change.witness_image == apply_abstraction(change.witness, phi)
            assert not is_subsequence(change.member, change.witness_image)
