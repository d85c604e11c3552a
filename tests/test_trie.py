import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcore import (
    SuccessSet,
    Trajectory,
    build_trie,
    enumerate_successes,
    is_complete,
    is_successful,
    rollout,
    successful_leaves,
)
from trajcore.envs import random_mdp


def test_empty_input_gives_root_only_trie():
    trie = build_trie([])
    assert trie.node_count() == 1
    assert trie.root.y is False
    assert len(successful_leaves(trie)) == 0


def test_chain_trie_structure(chain_mdp):
    successes = enumerate_successes(chain_mdp)
    trie = build_trie(successes)
    # the two successes share no first symbol: root + 3 + 4 path nodes
    assert trie.node_count() == 8
    assert len(trie.root.children) == 2
    assert trie.root.y is True
    for _prefix, node in trie.walk():
        assert node.y  # every stored prefix extends to a success here


def test_duplicate_insertion_doubles_counts(chain_mdp):
    successes = list(enumerate_successes(chain_mdp))
    once = build_trie(successes)
    twice = build_trie(successes + successes)
    assert once.node_count() == twice.node_count()
    for prefix, node in once.walk():
        other = twice.find(prefix)
        assert other is not None
        assert other.count == 2 * node.count
        assert other.y == node.y


def test_find_of_an_absent_prefix_is_none(chain_mdp):
    trie = build_trie(enumerate_successes(chain_mdp))
    assert trie.find(()) is trie.root
    assert trie.find([(0, 1)]) is not None
    assert trie.find([(0, 1), (0, 1)]) is None  # 0 -R-> 1, so no success holds (0, 1) twice
    assert trie.find([(2, 0)]) is None


def test_successful_leaves_round_trip(chain_mdp):
    successes = enumerate_successes(chain_mdp)
    assert successful_leaves(build_trie(successes)).as_set() == successes.as_set()


def test_successful_leaves_filter_failures(chain_mdp):
    policy = np.full((3, 2), 0.5)
    sampled = rollout(chain_mdp, policy, n=300, seed=11)
    leaves = successful_leaves(build_trie(sampled))
    expected = SuccessSet.from_iterable(
        t for t in sampled if is_successful(t, chain_mdp)
    )
    assert leaves.as_set() == expected.as_set()


def test_failed_prefixes_are_unlabeled(chain_mdp):
    # a single failed trajectory: every node should carry y=0
    failed = Trajectory(steps=((0, 0), (0, 0), (0, 0), (0, 0)))
    trie = build_trie([failed])
    assert all(not node.y for _p, node in trie.walk())
    assert len(successful_leaves(trie)) == 0


def test_is_complete_on_enumeration_and_not_on_subset(chain_mdp):
    successes = enumerate_successes(chain_mdp)
    assert is_complete(build_trie(successes), chain_mdp)
    partial = build_trie(list(successes)[:-1])
    assert not is_complete(partial, chain_mdp)


def test_is_complete_from_large_rollout(chain_mdp):
    policy = np.full((3, 2), 0.5)
    sampled = rollout(chain_mdp, policy, n=10_000, seed=7)
    assert is_complete(build_trie(sampled), chain_mdp)


def test_dump_lists_every_node(chain_mdp):
    trie = build_trie(enumerate_successes(chain_mdp))
    lines = trie.dump().splitlines()
    assert len(lines) == trie.node_count()
    assert lines[0].startswith("<root>")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_trie_properties_on_random_rollouts(seed):
    mdp = random_mdp(num_states=5, num_actions=2, horizon=4, seed=seed)
    policy = np.full((5, 2), 0.5)
    sampled = rollout(mdp, policy, n=60, seed=seed)
    trie = build_trie(sampled)

    # prefix closure: every non-root node's parent prefix is present
    for prefix, _node in trie.walk():
        if prefix:
            assert trie.find(prefix[:-1]) is not None

    # y(u) = 1 exactly when u prefixes some successful leaf
    leaf_pairs = [t.pairs() for t in successful_leaves(trie)]
    for prefix, node in trie.walk():
        expected = any(leaf[: len(prefix)] == prefix for leaf in leaf_pairs)
        assert node.y == expected

    # node count bound: at most 1 + sum of stored lengths
    assert trie.node_count() <= 1 + sum(len(t.pairs()) for t in sampled)

    # rebuilding from the successful leaves is the identity
    again = build_trie(successful_leaves(trie))
    assert successful_leaves(again).as_set() == successful_leaves(trie).as_set()
