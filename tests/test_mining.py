import random
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcore import (
    IDENTITY,
    TERMINAL,
    Abstraction,
    BudgetExceeded,
    CoreSet,
    EmptySuccessSet,
    OracleScaleError,
    SuccessSet,
    Trajectory,
    UnmappedSymbol,
    apply_abstraction,
    brute_force_core,
    common_subsequences,
    core,
    core_nonempty_witness,
    enumerate_successes,
    is_subsequence,
    lcs_pair,
    random_mdp,
)
from trajcore import mdp as mdp_module
from trajcore.graph import Symbols, sequence_graph
from trajcore.mining import canonical_member_order, maximal_elements

from conftest import (
    count_calls,
    count_set_builds,
    oracle_canonical,
    oracle_core,
    trajectory_families,
)

symbols = st.sampled_from("abcd")
seqs = st.lists(symbols, min_size=0, max_size=8).map(tuple)


def brute_is_subsequence(u, v):
    """Check every index embedding explicitly."""
    return any(
        all(v[j] == u[i] for i, j in enumerate(picks))
        for picks in combinations(range(len(v)), len(u))
    )


def all_subsequences(seq):
    out = set()
    for r in range(len(seq) + 1):
        for picks in combinations(range(len(seq)), r):
            out.add(tuple(seq[i] for i in picks))
    return out


# ---------------------------------------------------------------------------
# is_subsequence
# ---------------------------------------------------------------------------


def test_is_subsequence_examples():
    assert is_subsequence((), ("a", "b"))
    assert is_subsequence(("b", "c"), ("b", "c", "a", "a"))
    assert not is_subsequence(("c", "b"), ("b", "c", "a", "a"))
    assert is_subsequence(("a", "b"), ("a", "b"))


@settings(max_examples=200, deadline=None)
@given(seqs, seqs)
def test_is_subsequence_matches_brute_force(u, v):
    assert is_subsequence(u, v) == brute_is_subsequence(u, v)


# ---------------------------------------------------------------------------
# apply_abstraction
# ---------------------------------------------------------------------------


def test_identity_abstraction_returns_pairs():
    traj = Trajectory(steps=((0, 1), (1, 1)), terminal_state=2)
    assert apply_abstraction(traj) == ((0, 1), (1, 1), (2, TERMINAL))


def test_mapping_abstraction_with_run_collapse():
    mapping = {
        (0, 0): "move",
        (1, 0): "move",
        (2, 0): "move",
        (3, 1): "find_key",
        (4, TERMINAL): "terminal",
    }
    phi = Abstraction(mapping=mapping, collapse_runs=True, label="demo")
    traj = Trajectory(steps=((0, 0), (1, 0), (2, 0), (3, 1)), terminal_state=4)
    assert apply_abstraction(traj, phi) == ("move", "find_key", "terminal")


def test_unmapped_pair_raises():
    phi = Abstraction(mapping={(0, 0): "move"})
    with pytest.raises(UnmappedSymbol):
        apply_abstraction(Trajectory(steps=((5, 1),)), phi)


# ---------------------------------------------------------------------------
# the pair rule: a 2-item tuple or list of integers is a pair, nothing else is
# ---------------------------------------------------------------------------

# families whose items look like pairs but are not, so they share no symbol
NOT_PAIRS = {
    "3-tuples": [((1, 2, 3),), ((1, 2, 4),)],
    "float-pairs": [((0.5, 1),), ((0.9, 1),)],
}


@pytest.mark.parametrize("family", sorted(NOT_PAIRS))
@pytest.mark.parametrize("mine", [core, brute_force_core], ids=["core", "oracle"])
def test_an_item_that_is_not_an_integer_pair_is_never_cut_down_to_one(family, mine):
    assert mine(NOT_PAIRS[family]).members == ()


@pytest.mark.parametrize("mine", [core, brute_force_core], ids=["core", "oracle"])
def test_tuples_of_names_are_symbols_of_their_own(mine):
    family = [(("a", "b"), ("c", "d")), (("c", "d"), ("a", "b"), ("c", "d"))]
    assert mine(family).members == ((("a", "b"), ("c", "d")),)


@pytest.mark.parametrize("key", [(1.5, 0), (1, 2, 3), ("a", "b"), "ab"])
def test_abstraction_keys_must_be_integer_pairs(key):
    with pytest.raises(TypeError, match="pairs of integers"):
        Abstraction(mapping={(0, 0): "x", key: "y"})


def test_an_item_is_mapped_only_if_it_is_a_key():
    phi = Abstraction(mapping={(np.int64(1), 0): "x"})
    assert list(phi.mapping) == [(1, 0)] and type(next(iter(phi.mapping))[0]) is int
    assert [phi.image(item) for item in [(1, 0), [1, 0], (np.int32(1), np.int64(0))]] == ["x"] * 3
    for item in [(1.7, 0), (1, 0, 0), "x"]:
        with pytest.raises(UnmappedSymbol):
            phi.image(item)


def test_an_item_equal_to_a_mapped_pair_but_not_a_pair_stays_unmapped():
    # (1.0, 2) == (1, 2) and both hash alike, so a table keyed by the item
    # would give the float item the pair's name once the pair came first
    phi = Abstraction(mapping={(1, 2): "x"})
    for family in ([((1, 2),), ((1.0, 2),)], [((1.0, 2),)]):
        for mine in (core, brute_force_core):
            with pytest.raises(UnmappedSymbol) as info:
                mine(family, phi)
            assert info.value.pair == (1.0, 2)
    with pytest.raises(UnmappedSymbol) as info:  # phi still meets the items in order
        core([((1, 2),), ((5, 5), (1.0, 2))], phi)
    assert info.value.pair == (5, 5)
    assert core([((1, 2),), [[1, 2]]], phi).members == (("x",),)


# ---------------------------------------------------------------------------
# lcs_pair
# ---------------------------------------------------------------------------


def test_lcs_identity():
    x = tuple("abcab")
    assert lcs_pair(x, x) == (len(x), x)


def test_lcs_disjoint_alphabets():
    assert lcs_pair(tuple("aaa"), tuple("bbb")) == (0, ())


def test_lcs_known_length_case():
    x, y = tuple("abcbdab"), tuple("bdcaba")
    length, witness = lcs_pair(x, y)
    brute_best = max(
        (len(u) for u in all_subsequences(x) if brute_is_subsequence(u, y)),
        default=0,
    )
    assert brute_best == 4
    assert length == 4
    assert is_subsequence(witness, x) and is_subsequence(witness, y)


@settings(max_examples=150, deadline=None)
@given(seqs, seqs)
def test_lcs_matches_brute_force_and_witness_is_least(x, y):
    length, witness = lcs_pair(x, y)
    common = {u for u in all_subsequences(x) if brute_is_subsequence(u, y)}
    best = max((len(u) for u in common), default=0)
    assert length == best
    assert len(witness) == length
    assert witness == min(u for u in common if len(u) == best)


# ---------------------------------------------------------------------------
# common_subsequences
# ---------------------------------------------------------------------------


def test_common_subsequences_single_sequence():
    assert common_subsequences([("a", "b")]) == {(), ("a",), ("b",), ("a", "b")}


def test_common_subsequences_known_pair():
    found = common_subsequences([tuple("bcaa"), tuple("abc")])
    assert found == {(), ("a",), ("b",), ("c",), ("b", "c")}


def test_common_subsequences_with_empty_member():
    assert common_subsequences([tuple("abc"), ()]) == {()}


def test_common_subsequences_budget():
    with pytest.raises(BudgetExceeded):
        common_subsequences([tuple("abcdefgh")], budget=10)
    # the budget bounds the result set: 2^8 subsequences, the empty one included
    with pytest.raises(BudgetExceeded) as info:
        common_subsequences([tuple("abcdefgh")], budget=255)
    assert (info.value.budget, info.value.visited) == (255, 256)
    assert len(common_subsequences([tuple("abcdefgh")], budget=256)) == 256


@settings(max_examples=80, deadline=None)
@given(st.lists(seqs, min_size=1, max_size=4))
def test_common_subsequences_matches_power_set_filter(family):
    found = common_subsequences(family)
    shortest = min(family, key=len)
    expected = {
        u
        for u in all_subsequences(shortest)
        if all(brute_is_subsequence(u, s) for s in family)
    }
    assert found == expected


# ---------------------------------------------------------------------------
# core and its oracle
# ---------------------------------------------------------------------------


def test_core_of_single_sequence_is_itself():
    assert core([tuple("abca")]).members == (tuple("abca"),)


def test_core_rejects_empty_input():
    with pytest.raises(EmptySuccessSet):
        core([])
    with pytest.raises(EmptySuccessSet):
        brute_force_core([])
    with pytest.raises(EmptySuccessSet):
        core_nonempty_witness(SuccessSet.from_iterable([]))
    for empty in (SuccessSet.from_iterable([]), SuccessSet(())):
        for phi in (IDENTITY, Abstraction(collapse_runs=True)):
            with pytest.raises(EmptySuccessSet):
                core(empty, phi)
    with pytest.raises(ValueError, match="need at least one sequence"):
        common_subsequences([])


def test_core_of_chain_is_the_short_success(chain_mdp):
    successes = enumerate_successes(chain_mdp)
    mined = core(successes)
    assert mined.members == (((0, 1), (1, 1), (2, TERMINAL)),)


def test_core_members_can_have_unequal_lengths():
    mined = core([tuple("bcaa"), tuple("abc")])
    assert mined.members == (("b", "c"), ("a",))


def test_core_duplication_and_order_invariance():
    family = [tuple("abac"), tuple("caba"), tuple("baca")]
    base = core(family)
    assert core(family + family).members == base.members
    assert core(list(reversed(family))).members == base.members


def test_core_strip_terminal(chain_mdp):
    successes = enumerate_successes(chain_mdp)
    mined = core(successes, strip_terminal=True)
    assert mined.strip_terminal_applied
    assert mined.members == (((0, 1), (1, 1)),)
    assert brute_force_core(successes, strip_terminal=True).members == mined.members


def test_core_strip_of_terminal_only_success_is_empty(chain_mdp):
    terminal_only = SuccessSet.from_iterable([Trajectory(steps=(), terminal_state=2)])
    mined = core(terminal_only, strip_terminal=True)
    assert mined.members == ()
    assert core(terminal_only).members == (((2, TERMINAL),),)


def test_core_set_membership_reads_one_kept_set(monkeypatch):
    from trajcore import graph as graph_module

    mined = CoreSet(members=(("a", "b"), ("c",)))
    assert ("c",) in mined
    built = count_set_builds(monkeypatch, graph_module)
    assert ["a", "b"] in mined and ("b",) not in mined and "c" in mined
    assert built == []


def test_core_maximality_against_common_subsequences():
    family = [tuple("abcabc"), tuple("cbacba"), tuple("abccba")]
    mined = core(family)
    commons = common_subsequences(family)
    for member in mined:
        assert member in commons
        for other in commons:
            if member != other:
                assert not is_subsequence(member, other) or not (
                    other in set(mined.members)
                )
        # nothing in the common set strictly extends a member
        assert not any(
            member != v and is_subsequence(member, v) for v in maximal_elements(commons)
        )


def test_core_contains_lcs_length_member_for_pairs():
    x, y = tuple("abcbdab"), tuple("bdcaba")
    length, _ = lcs_pair(x, y)
    mined = core([x, y])
    assert mined.max_length() == length


def test_brute_force_core_scale_guard():
    with pytest.raises(OracleScaleError):
        brute_force_core([tuple("abcdefghabcdef")])
    with pytest.raises(OracleScaleError):
        brute_force_core([tuple(f"ab{i}") for i in range(7)])


def test_brute_force_core_self_cases():
    assert brute_force_core([tuple("bcaa"), tuple("abc")]).members == (
        ("b", "c"),
        ("a",),
    )
    assert brute_force_core([tuple("abc")]).members == (tuple("abc"),)
    assert brute_force_core([tuple("abc")] * 4).members == (tuple("abc"),)


@settings(max_examples=150, deadline=None)
@given(st.lists(seqs, min_size=1, max_size=4))
def test_core_equals_brute_force_core(family):
    fast = core(family)
    slow = brute_force_core(family)
    assert fast.members == slow.members


# families beyond oracle scale: up to 6 sequences of length <= 16 over 2-4 letters
wide_families = st.integers(2, 4).flatmap(
    lambda letters: st.lists(
        st.lists(st.sampled_from("abcd"[:letters]), max_size=16).map(tuple),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=100, deadline=None)
@given(wide_families)
def test_pruned_search_equals_exhaustive_maximal_elements(family):
    exhaustive = maximal_elements(common_subsequences(family))
    assert core(family).members == canonical_member_order(exhaustive - {()})


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcd"), min_size=0, max_size=12).map(tuple),
        min_size=2,
        max_size=6,
    )
)
def test_core_equals_brute_force_core_at_oracle_scale(family):
    assert core(family).members == brute_force_core(family).members


def _near_identical_family(seed, length=22, copies=3, edits=2):
    """Copies of one random sequence over four letters, each with a few point edits."""
    rng = random.Random(seed)
    base = [rng.choice("abcd") for _ in range(length)]
    family = []
    for _ in range(copies):
        seq = list(base)
        for _ in range(edits):
            seq[rng.randrange(length)] = rng.choice("abcd")
        family.append(tuple(seq))
    return family


def test_core_of_near_identical_long_family_matches_exhaustive_search():
    family = _near_identical_family(seed=5)
    commons = common_subsequences(family)
    expected = canonical_member_order(maximal_elements(commons) - {()})
    assert len(commons) > 10_000 and len(expected) > 1
    # the pruned search visits a small fraction of the common subsequences
    budget = len(commons) // 10
    assert core(family, budget=budget).members == expected
    with pytest.raises(BudgetExceeded):
        common_subsequences(family, budget=budget)


def test_core_budget_counts_visited_search_nodes():
    # dominance keeps one child per node: (), a, ab, ..., abcdefgh
    with pytest.raises(BudgetExceeded) as info:
        core([tuple("abcdefgh")], budget=8)
    assert (info.value.budget, info.value.visited) == (8, 9)
    assert "visited 9" in str(info.value)
    assert core([tuple("abcdefgh")], budget=9).members == (tuple("abcdefgh"),)


# The search over _near_identical_family(seed=5), as it ran before it reused
# child frontiers and gap passes: the nodes it visits and the members it finds.
PINNED_VISITS = 1667
PINNED_MEMBERS = (
    "cadbacbdababdcbba", "cadbacdbabbdba", "ccdbdababdcbba", "cadabababbdba", "cadabdbabbdba",
    "cadbacdbdbdba", "caddababdbdba", "ccddababdbdba", "cadabdbdbdba", "caddabacbdba",
    "ccdbababbdba", "ccdbdbabbdba", "ccddabacbdba", "ccdbdbdbdba", "babbabbbba", "bbababbbba",
    "bcbbabbbba", "ccaabcbdba", "babbdbbba", "bbabdbbba", "bcbbdbbba", "ccadcbdba", "bbacbbba",
)


def test_reusing_frontiers_and_gap_passes_walks_the_same_search_tree(monkeypatch):
    # three near-identical words meet each frontier and leaf suffix many times
    family = _near_identical_family(seed=5)
    with pytest.raises(BudgetExceeded) as info:
        core(family, budget=PINNED_VISITS - 1)
    assert info.value.visited == PINNED_VISITS
    advances = count_calls(monkeypatch, "_advance")
    assert core(family, budget=PINNED_VISITS).members == tuple(map(tuple, PINNED_MEMBERS))
    # each child frontier is found once per distinct parent frontier, not once per node
    assert 0 < len(advances) < PINNED_VISITS // 4


def test_each_leaf_suffix_gets_its_gap_pass_once(monkeypatch):
    # a kept gap pass holds at every node, so no later leaf replaces it
    from trajcore import graph as graph_module

    checked = []

    def no_gap_fits(*args, _original=graph_module._no_gap_fits):
        passes = args[-1]  # suffix -> its gap pass
        kept = {suffix: id(nxt) for suffix, nxt in passes.items()}
        result = _original(*args)
        assert all(id(passes[suffix]) == made for suffix, made in kept.items())
        checked.append(result)
        return result

    monkeypatch.setattr(graph_module, "_no_gap_fits", no_gap_fits)
    for seed in range(10):
        core(_near_identical_family(seed))
    assert len(checked) > 10


def test_pruned_search_of_disjoint_or_empty_sequences_is_the_empty_sequence():
    assert core([tuple("ab"), tuple("cd")]).members == ()
    assert core([tuple("ab"), ()]).members == ()
    assert core([(), ()]).members == ()


def test_core_maps_each_distinct_pair_once(chain_mdp, monkeypatch):
    successes = enumerate_successes(chain_mdp)
    pairs = {pair for traj in successes for pair in traj.pairs()}
    phi = Abstraction(mapping={pair: "T" if pair[1] == TERMINAL else "x" for pair in pairs})
    image, seen = Abstraction.image, []
    monkeypatch.setattr(Abstraction, "image", lambda self, pair: seen.append(pair) or image(self, pair))
    assert core(successes, phi, strip_terminal=True).members == (("x", "x"),)
    assert sorted(seen) == sorted(pairs)


def test_core_of_a_success_set_never_builds_pairs(monkeypatch):
    successes = enumerate_successes(random_mdp(num_states=7, num_actions=3, horizon=6, seed=2))
    assert len(successes) > 10 and all(traj.terminated for traj in successes)
    listed = [traj.pairs() for traj in successes]
    expected = [core(listed, strip_terminal=strip) for strip in (False, True)]

    def refused(self):
        raise AssertionError("Trajectory.pairs called")

    monkeypatch.setattr(Trajectory, "pairs", refused)
    listed = SuccessSet.from_iterable(reversed(successes.trajectories))
    assert listed == successes
    for made in (successes, listed):
        assert [core(made, strip_terminal=strip) for strip in (False, True)] == expected


class _EncodedOnly(Symbols):
    """A table whose per-item path fails, so a success set's words must come from its encoding."""

    def _listed(self, items):
        raise AssertionError("a success set took the per-item path")


MAPLESS = [IDENTITY, Abstraction(collapse_runs=True, label="collapsed")]


def _oracle_words(phi: Abstraction, strip: bool, known, seqs) -> list[str]:
    """The sorted distinct words of ``seqs``, built item by item through a fresh table."""
    fresh = Symbols(phi, strip)
    for item in known:
        fresh.of(item)
    words = set()
    for seq in seqs:
        ids = [fresh.of(x) for x in seq]
        words.add("".join(
            chr(sid) for k, sid in enumerate(ids)
            if not (strip and phi.is_terminal_symbol(fresh.names[sid]))
            and not (phi.collapse_runs and k and ids[k - 1] == sid)
        ))
    return sorted(words)


def _assert_oracle_words(words: list[str], phi: Abstraction, strip: bool, known, seqs) -> None:
    assert all(a < b for a, b in zip(words, words[1:]))  # sorted, each word once
    assert words == _oracle_words(phi, strip, known, seqs)


def _assert_words_of_its_list(made: SuccessSet, phi: Abstraction, strip: bool, known=()) -> None:
    listed, encoded = Symbols(phi, strip), _EncodedOnly(phi, strip)
    for table in (listed, encoded):  # a table shared with earlier work holds their ids first
        for item in known:
            table.of(item)
    words = listed.words(list(made))
    assert encoded.words(made) == words
    # phi met the items in the same order, so every symbol has the same id
    assert encoded.names == listed.names and encoded.stripped == listed.stripped
    _assert_oracle_words(words, phi, strip, known, [traj.pairs() for traj in made])


@settings(max_examples=200, deadline=None)
@given(
    trajectory_families,
    st.booleans(),
    st.sampled_from(MAPLESS),
    st.booleans(),
    st.lists(st.sampled_from(["u", "v", "w", (1, 0), (2, TERMINAL)]), max_size=4),
)
def test_the_words_of_a_success_set_are_those_of_its_list(family, direct, phi, strip, known):
    made = SuccessSet(tuple(family)) if direct else SuccessSet.from_iterable(family)
    _assert_words_of_its_list(made, phi, strip, known)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(MAPLESS), st.booleans())
def test_the_words_of_an_enumerated_success_set_are_those_of_its_list(seed, phi, strip):
    successes = enumerate_successes(random_mdp(num_states=5, num_actions=2, horizon=5, seed=seed))
    _assert_words_of_its_list(successes, phi, strip)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["u", "v", (1, 0), (2, TERMINAL)]), max_size=5).map(tuple),
             min_size=1, max_size=5),
    st.sampled_from(MAPLESS),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_the_words_of_a_listed_family_with_repeats_are_its_distinct_words(family, phi, strip, rnd):
    listed = family * 3
    rnd.shuffle(listed)
    _assert_oracle_words(Symbols(phi, strip).words(listed), phi, strip, (), listed)


def _assert_mined_as_listed(made: SuccessSet) -> None:
    listed = [traj.steps + ((traj.terminal_state, TERMINAL),) for traj in made]
    for phi in MAPLESS:
        for strip in (False, True):
            assert core(made, phi, strip) == core(listed, phi, strip)


def test_a_set_of_more_items_than_code_points_keeps_no_encoding(monkeypatch):
    successes = enumerate_successes(random_mdp(num_states=7, num_actions=3, horizon=6, seed=2))
    family = list(reversed(successes.trajectories))
    items = len({pair for traj in family for pair in traj.pairs()})
    monkeypatch.setattr(mdp_module, "_ENCODED_ITEMS", items)
    assert SuccessSet.from_iterable(family)._encoding is not None
    assert SuccessSet(successes.trajectories)._encoding is not None
    monkeypatch.setattr(mdp_module, "_ENCODED_ITEMS", items - 1)
    made = SuccessSet.from_iterable(family)
    assert made._encoding is None and made.trajectories == oracle_canonical(family)
    direct = SuccessSet(successes.trajectories)
    assert direct._encoding is None
    for kept in (made, direct):
        _assert_mined_as_listed(kept)


def test_a_direct_set_with_an_unhashable_item_keeps_no_encoding():
    made = SuccessSet((
        Trajectory(steps=([0, 1], (1, 0)), terminal_state=2),
        Trajectory(steps=((0, 1), (1, 1)), terminal_state=2),
    ))
    assert made._encoding is None
    _assert_mined_as_listed(made)


def test_a_direct_set_that_holds_a_raw_sequence_keeps_no_encoding():
    made = SuccessSet((
        ((0, 1), (1, 0), (2, TERMINAL)),
        Trajectory(steps=((0, 1), (1, 1)), terminal_state=2),
    ))
    assert made._encoding is None
    for phi in MAPLESS:
        for strip in (False, True):
            assert Symbols(phi, strip).words(made) == Symbols(phi, strip).words(list(made))
            assert core(made, phi, strip) == core(list(made), phi, strip)


# pairs at ids in the surrogates and past 0xFFFF, so an encoding's translation
# writes two- and four-byte-wide strings
_HIGH_PAIRS = {0xD800: (0, 1), 0xDBFF: (1, 0), 0xDFFF: (1, 1), 0x10000: (2, 0), 0x10205: (3, TERMINAL)}


def test_success_sets_whose_items_have_high_symbol_ids_mine_as_the_oracle():
    steps = [pair for pair in _HIGH_PAIRS.values() if pair[1] != TERMINAL]
    rng = random.Random(0x10205)
    for phi in MAPLESS:
        for strip in (False, True):
            table = _EncodedOnly(phi, strip)
            for sid in range(0x10206):
                table.of(_HIGH_PAIRS.get(sid, -1 - sid))
            assert [table.of(pair) for pair in _HIGH_PAIRS.values()] == list(_HIGH_PAIRS)
            for _ in range(200):
                family = [
                    Trajectory(tuple(rng.choices(steps, k=rng.randint(0, 6))), rng.choice((3, None)))
                    for _ in range(rng.randint(1, 5))
                ]
                # no item has id 0, which a filler holds, so the separator lands there
                expected = brute_force_core(family, phi, strip)
                for made in (SuccessSet.from_iterable(family), SuccessSet(tuple(family))):
                    assert sequence_graph(table.words(made), table).core() == expected
            assert len(table.names) == 0x10206  # every symbol was interned beforehand


@pytest.mark.parametrize("family", [
    # 1 < "a" raises, but the sort by pairs() never compares these two items
    [Trajectory(((0, 0), (1, "a")), 5), Trajectory(((0, 1), (1, 2)), 5)],
    # neither (nan, 0) nor (0, 0) is below the other
    [Trajectory(((float("nan"), 0),), 5), Trajectory(((0, 0),), 5)],
], ids=["incomparable", "nan"])
def test_items_that_tuple_comparison_cannot_rank_keep_no_encoding(family):
    made = SuccessSet.from_iterable(family)
    expected = oracle_canonical(family)
    assert made._encoding is None and all(a is b for a, b in zip(made, expected, strict=True))
    _assert_mined_as_listed(made)


# Every way a listed family may hold a sequence of pairs; each call makes
# fresh objects, so a generator can be read once by core and once by the oracle.
PAIR_FORMS = {
    "tuple": lambda seq: tuple(seq),
    "list": lambda seq: [list(pair) for pair in seq],
    "generator": lambda seq: (pair for pair in seq),
    "numpy": lambda seq: tuple((np.int64(s), np.int64(a)) for s, a in seq),
    "trajectory": lambda seq: Trajectory.from_pairs(seq),
}
STRING_FORMS = {
    "str": lambda seq: "".join(seq),
    "tuple": lambda seq: tuple(seq),
    "list": lambda seq: list(seq),
    "generator": lambda seq: (x for x in seq),
}
_PAIRS = [(s, a) for s in range(3) for a in (0, 1)] + [(s, TERMINAL) for s in range(3)]
# few names, so runs of equal names are common under collapse_runs
_NAMES = {pair: "T" if pair[1] == TERMINAL else "xy"[sum(pair) % 2] for pair in _PAIRS}
PHIS = [
    Abstraction(),
    Abstraction(mapping=_NAMES),
    Abstraction(mapping=_NAMES, collapse_runs=True, label="collapsed"),
]


def _family(specs, forms):
    return [forms[form](seq) for form, seq in specs]


pair_specs = st.lists(
    st.tuples(st.sampled_from(sorted(PAIR_FORMS)), st.lists(st.sampled_from(_PAIRS), max_size=7)),
    min_size=1,
    max_size=6,
)
string_specs = st.lists(
    st.tuples(st.sampled_from(sorted(STRING_FORMS)), st.lists(st.sampled_from("abc"), max_size=7)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(pair_specs, st.sampled_from(PHIS), st.booleans())
def test_core_of_a_mixed_family_equals_the_oracle(specs, phi, strip):
    mined = core(_family(specs, PAIR_FORMS), phi, strip_terminal=strip)
    assert mined == oracle_core(_family(specs, PAIR_FORMS), phi, strip)


@settings(max_examples=60, deadline=None)
@given(string_specs, st.booleans())
def test_core_of_a_mixed_family_of_raw_strings_equals_the_oracle(specs, strip):
    mined = core(_family(specs, STRING_FORMS), strip_terminal=strip)
    assert mined == oracle_core(_family(specs, STRING_FORMS), strip_terminal=strip)


@pytest.mark.parametrize("form", sorted(PAIR_FORMS))
def test_core_raises_at_the_first_unmapped_pair_of_a_later_sequence(form):
    phi = Abstraction(mapping={(0, 0): "a", (0, 1): "b", (1, 0): "c"})
    known = ((0, 0), (0, 1), (1, 0))
    family = [known, known[::-1], ((0, 1), (1, 0), (2, 1), (0, 0), (3, 0))]
    with pytest.raises(UnmappedSymbol) as info:
        core([PAIR_FORMS[form](seq) for seq in family], phi)
    assert info.value.pair == (2, 1)


def test_core_of_a_long_family_is_built_without_recursion():
    # the sequence graph is built with an explicit stack: a 1,200-symbol word
    # is far past Python's default recursion limit of 1,000 frames
    rng = random.Random(3)
    seq = tuple(rng.choice("abcd") for _ in range(1200))
    assert core([seq, seq]).members == (seq,)


@pytest.mark.parametrize("length, copies, edges", [(5000, 3, 7461), (20000, 2, 27514)])
def test_long_near_identical_words_build_their_sequence_graph_quickly(length, copies, edges):
    # the run that every word of a suffix set shares is read in one slice;
    # read symbol by symbol, each unary node would hash all the suffixes below
    # it, quadratic in the word length
    rng = random.Random(length * copies)
    base = [rng.choice("abcd") for _ in range(length)]
    family = []
    for _ in range(copies):
        word = list(base)
        for _ in range(2):
            word[rng.randrange(length)] = rng.choice("abcd")
        family.append(tuple(word))
    symbols = Symbols(IDENTITY, False)
    words = symbols.words(family)
    start = time.perf_counter()
    graph = sequence_graph(words, symbols)
    assert time.perf_counter() - start < 5.0
    assert len(graph.edges) == edges
    assert graph.count_paths()[0] == copies


def test_leaf_check_rejects_a_leaf_with_an_open_inner_gap():
    # "b" is a leaf (no "a" follows the first sequence's "b") that no "a"
    # dominates (it occurs later than "b" in the second sequence), yet "a"
    # fits before it in both; only the gap check drops it
    family = [tuple("aab"), tuple("bab")]
    assert core(family).members == (tuple("ab"),)


def test_shared_symbol_appears_in_some_member():
    # every input contains 'z': some maximal member must contain it
    family = [tuple("azb"), tuple("bza"), tuple("zz")]
    mined = core(family)
    assert any("z" in member for member in mined)


# ---------------------------------------------------------------------------
# core_nonempty_witness
# ---------------------------------------------------------------------------


def test_witness_on_unique_goal(chain_mdp):
    successes = enumerate_successes(chain_mdp)
    assert core_nonempty_witness(successes) == (2, TERMINAL)


def test_witness_rejects_multiple_goals(chain_mdp):
    mixed = enumerate_successes(chain_mdp).trajectories + (
        Trajectory(steps=(), terminal_state=1),
    )
    with pytest.raises(ValueError):
        core_nonempty_witness(SuccessSet.from_iterable(mixed))


def test_witness_under_abstraction(chain_mdp):
    successes = enumerate_successes(chain_mdp)
    mapping = {(s, a): "step" for s in range(3) for a in range(2)}
    mapping[(2, TERMINAL)] = "goal!"
    phi = Abstraction(mapping=mapping, label="coarse")
    assert core_nonempty_witness(successes, phi) == "goal!"


def test_terminal_name_on_a_non_terminal_pair_survives_strip_terminal():
    # a symbol is terminal only if phi maps some (s, TERMINAL) pair to it
    phi = Abstraction(mapping={(0, 0): "terminal", (1, 0): "move", (2, TERMINAL): "goal"})
    traj = Trajectory(steps=((0, 0), (1, 0)), terminal_state=2)
    assert not phi.is_terminal_symbol("terminal")
    assert phi.is_terminal_symbol("goal")
    assert core([traj], phi=phi, strip_terminal=True).members == (("terminal", "move"),)
    assert core([("terminal", "a")], strip_terminal=True).members == (("terminal", "a"),)
