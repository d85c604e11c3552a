import contextlib
import io
import operator
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcore import (
    TERMINAL,
    DimensionMismatch,
    EmptyGoalError,
    ExplosionGuard,
    HorizonError,
    KernelRows,
    MarkovGame,
    PeerPolicy,
    RowSumError,
    SuccessSet,
    TabularMDP,
    Trajectory,
    ValidationError,
    build_coop_keydoor,
    enumerate_successes,
    game_from_mdp,
    induce_mdp,
    is_successful,
    rollout,
    uniform_peer,
    validate_game,
    validate_mdp,
    validate_peer,
)
from trajcore.envs import DEFAULT_COOP, DEFAULT_KEYDOOR, build_keydoor, random_mdp
from trajcore.mdp import _draw, _encode, _plan_fold, goal_reachable

from conftest import (
    count_set_builds,
    dense_rollout,
    oracle_canonical,
    oracle_case,
    oracle_enumerate,
    random_game,
    random_peer,
    reweight_support,
    trajectory_families,
)

CHAIN_SUCCESSES = {
    ((0, 1), (1, 1), (2, -1)),
    ((0, 0), (0, 1), (1, 1), (2, -1)),
}


def test_validate_chain_passes(chain_mdp):
    validate_mdp(chain_mdp)


def test_validate_rejects_bad_row_sum(chain_mdp):
    kernel = np.array(chain_mdp.kernel)
    kernel[1, 1, 2] = 0.98
    bad = TabularMDP(
        num_states=3,
        num_actions=2,
        kernel=kernel,
        reward=chain_mdp.reward,
        horizon=4,
        goals=frozenset({2}),
        initial=chain_mdp.initial,
    )
    with pytest.raises(RowSumError) as err:
        validate_mdp(bad)
    assert err.value.row == (1, 1)
    assert abs(err.value.total - 0.98) < 1e-12


def test_validate_rejects_empty_goals(chain_mdp):
    bad = TabularMDP(
        num_states=3,
        num_actions=2,
        kernel=chain_mdp.kernel,
        reward=chain_mdp.reward,
        horizon=4,
        goals=frozenset(),
        initial=chain_mdp.initial,
    )
    with pytest.raises(EmptyGoalError):
        validate_mdp(bad)


def test_validate_rejects_nonpositive_horizon(chain_mdp):
    bad = TabularMDP(
        num_states=3,
        num_actions=2,
        kernel=chain_mdp.kernel,
        reward=chain_mdp.reward,
        horizon=0,
        goals=frozenset({2}),
        initial=chain_mdp.initial,
    )
    with pytest.raises(HorizonError):
        validate_mdp(bad)


def test_validate_enforces_absorbing_flag(chain_mdp):
    kernel = np.array(chain_mdp.kernel)
    kernel[2, 0] = [1.0, 0.0, 0.0]  # goal leaks back to state 0
    bad = TabularMDP(
        num_states=3,
        num_actions=2,
        kernel=kernel,
        reward=chain_mdp.reward,
        horizon=4,
        goals=frozenset({2}),
        initial=chain_mdp.initial,
        goal_absorbing=True,
    )
    with pytest.raises(RowSumError):
        validate_mdp(bad)


def _two_goal_mdp(leaks: dict) -> TabularMDP:
    """4 states, 2 actions, goals {1, 3} absorbing except at ``leaks``: (goal, action) -> row."""
    kernel = np.zeros((4, 2, 4))
    kernel[0, :, 1] = kernel[2, :, 3] = 1.0
    for g in (1, 3):
        kernel[g, :, g] = 1.0
    for (g, a), row in leaks.items():
        kernel[g, a] = row
    return TabularMDP(
        num_states=4,
        num_actions=2,
        kernel=kernel,
        reward=np.zeros((4, 2)),
        horizon=3,
        goals=frozenset({1, 3}),
        initial=np.array([0.5, 0.0, 0.5, 0.0]),
        goal_absorbing=True,
    )


def test_the_first_leaking_goal_row_is_reported_with_its_own_entry():
    validate_mdp(_two_goal_mdp({}))
    # (1, 1) comes before (3, 0) in ascending (goal, action) order
    leaks = {(3, 0): [0.5, 0.0, 0.0, 0.5], (1, 1): [0.75, 0.25, 0.0, 0.0]}
    with pytest.raises(RowSumError) as err:
        validate_mdp(_two_goal_mdp(leaks))
    assert err.value.what == "absorbing goal kernel"
    assert (err.value.row, err.value.total) == ((1, 1), 0.25)
    # a goal row that stores no entry at its goal reports 0.0
    with pytest.raises(RowSumError) as err:
        validate_mdp(_two_goal_mdp({**leaks, (1, 0): [0.0, 0.0, 1.0, 0.0]}))
    assert (err.value.row, err.value.total) == ((1, 0), 0.0)
    assert type(err.value.total) is float


def test_the_fold_plan_reads_the_goal_loops_of_the_joint_kernel():
    game, _, _ = build_coop_keydoor(DEFAULT_COOP)
    assert _plan_fold(game).goal_absorbing
    assert induce_mdp(game, uniform_peer(game)).goal_absorbing
    goal = min(game.goals)
    joint = np.array(game.joint_kernel)
    joint[goal, 0, 1] = 0.0  # the goal's row under focal action 0 and peer action 1 leaks
    joint[goal, 0, 1, (goal + 1) % game.num_states] = 1.0
    leaky = replace(game, joint_kernel=joint)
    assert not _plan_fold(leaky).goal_absorbing
    assert not induce_mdp(leaky, uniform_peer(leaky)).goal_absorbing


# ---------------------------------------------------------------------------
# induce_mdp
# ---------------------------------------------------------------------------


def _two_row_game() -> MarkovGame:
    """One state-action row where the two peer actions give [1,0] and [0,1]."""
    joint = np.zeros((2, 1, 2, 2))
    joint[0, 0, 0] = [1.0, 0.0]
    joint[0, 0, 1] = [0.0, 1.0]
    joint[1, 0, :, 1] = 1.0
    reward = np.zeros((2, 1, 2))
    return MarkovGame(
        num_states=2,
        num_actions_1=1,
        num_actions_2=2,
        joint_kernel=joint,
        reward_1=reward,
        horizon=2,
        goals=frozenset({1}),
        initial=np.array([1.0, 0.0]),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_validation_rejects_non_finite_probabilities(chain_mdp, bad):
    kernel = np.array(chain_mdp.kernel)
    kernel[1, 1, :2] = [bad, 1.0]
    with pytest.raises(RowSumError):
        validate_mdp(replace(chain_mdp, kernel=kernel))
    with pytest.raises(RowSumError):
        validate_mdp(replace(chain_mdp, initial=np.array([bad, 1.0, 0.0])))

    game = _two_row_game()
    joint = np.array(game.joint_kernel)
    joint[0, 0, 0] = [bad, 1.0]
    with pytest.raises(RowSumError):
        validate_game(replace(game, joint_kernel=joint))
    with pytest.raises(RowSumError):
        validate_game(replace(game, initial=np.array([bad, 1.0])))
    with pytest.raises(RowSumError):
        validate_peer(PeerPolicy(probs=np.array([[bad, 1.0], [0.5, 0.5]])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_validation_rejects_non_finite_rewards(chain_mdp, bad):
    reward = np.array(chain_mdp.reward)
    reward[1, 0] = bad
    with pytest.raises(ValidationError, match=r"reward entry \(1, 0\) is not finite"):
        validate_mdp(replace(chain_mdp, reward=reward))
    game = _two_row_game()
    reward_1 = np.array(game.reward_1)
    reward_1[0, 0, 1] = bad
    with pytest.raises(ValidationError, match=r"reward_1 entry \(0, 0, 1\) is not finite"):
        validate_game(replace(game, reward_1=reward_1))
    with pytest.raises(ValidationError, match="reward_1 entry"):
        induce_mdp(replace(game, reward_1=reward_1), PeerPolicy(probs=np.full((2, 2), 0.5)))


def test_induce_weighted_sum_row():
    game = _two_row_game()
    peer = PeerPolicy(probs=np.array([[0.3, 0.7], [0.5, 0.5]]))
    induced = induce_mdp(game, peer)
    assert np.allclose(induced.kernel[0, 0], [0.3, 0.7], atol=1e-12)


def test_induce_uniform_peer_averages_rows():
    rng = np.random.default_rng(3)
    game = random_game(rng)
    uniform = PeerPolicy(
        probs=np.full((game.num_states, game.num_actions_2), 0.5)
    )
    induced = induce_mdp(game, uniform)
    expected = game.joint_kernel.mean(axis=2)
    assert np.allclose(induced.kernel, expected, atol=1e-12)
    assert np.allclose(induced.reward, game.reward_1.mean(axis=2), atol=1e-12)


def test_induce_deterministic_peer_slices():
    rng = np.random.default_rng(4)
    game = random_game(rng)
    pick = np.zeros((game.num_states, game.num_actions_2))
    pick[:, 1] = 1.0
    induced = induce_mdp(game, PeerPolicy(probs=pick))
    assert np.allclose(induced.kernel, game.joint_kernel[:, :, 1, :], atol=1e-12)


@pytest.mark.parametrize("shape", [(2,), (2, 2, 2)])
def test_a_peer_table_that_is_not_2_d_is_a_dimension_mismatch(shape):
    with pytest.raises(DimensionMismatch, match=f"policy table must be 2-d, got {len(shape)}-d"):
        PeerPolicy(probs=np.full(shape, 0.5))


def test_induce_rejects_dimension_mismatch():
    game = _two_row_game()
    with pytest.raises(DimensionMismatch):
        induce_mdp(game, PeerPolicy(probs=np.array([[0.5, 0.5]])))
    with pytest.raises(DimensionMismatch):
        induce_mdp(game, PeerPolicy(probs=np.full((2, 3), 1 / 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_induced_kernels_are_stochastic(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, num_states=int(rng.integers(2, 6)))
    induced = induce_mdp(game, random_peer(rng, game))
    assert np.all(np.abs(induced.kernel.sum(axis=-1) - 1.0) < 1e-9)


# ---------------------------------------------------------------------------
# enumerate_successes
# ---------------------------------------------------------------------------


def test_enumerate_chain_exact(chain_mdp):
    successes = enumerate_successes(chain_mdp)
    assert {t.pairs() for t in successes} == CHAIN_SUCCESSES
    assert {t.pairs() for t in oracle_enumerate(chain_mdp)} == CHAIN_SUCCESSES


def test_enumerate_unreachable_goal_is_empty(chain_mdp):
    kernel = np.array(chain_mdp.kernel)
    kernel[1, 1] = [1.0, 0.0, 0.0]  # sever the only route to the goal
    blocked = TabularMDP(
        num_states=3,
        num_actions=2,
        kernel=kernel,
        reward=chain_mdp.reward,
        horizon=4,
        goals=frozenset({2}),
        initial=chain_mdp.initial,
    )
    assert len(enumerate_successes(blocked)) == 0


def test_enumerate_initial_inside_goal(chain_mdp):
    inside = TabularMDP(
        num_states=3,
        num_actions=2,
        kernel=chain_mdp.kernel,
        reward=chain_mdp.reward,
        horizon=4,
        goals=frozenset({2}),
        initial=np.array([0.0, 0.0, 1.0]),
    )
    successes = enumerate_successes(inside)
    assert [t.pairs() for t in successes] == [((2, TERMINAL),)]


def test_enumerate_explosion_guard(chain_mdp):
    mdp = random_mdp(num_states=6, num_actions=3, horizon=6, seed=0, support_size=3)
    # any budget below 1 trips at the first node
    for budget, visited in [(5, 6), (0, 1), (-1, 1)]:
        with pytest.raises(ExplosionGuard) as err:
            enumerate_successes(mdp, node_budget=budget)
        assert (err.value.budget, err.value.visited, err.value.needed) == (budget, visited, 8561)
    # with no success there is no node to count, whatever the budget
    for budget in [0, -1]:
        assert len(enumerate_successes(replace(chain_mdp, horizon=2), node_budget=budget)) == 0


def test_a_tripped_enumeration_guard_lists_nothing(monkeypatch):
    cfg = replace(DEFAULT_COOP, corridor_length=5, key_pos=0, door_pos=2, goal_pos=3,
                  start_pos=0, peer_start=1, horizon=12)
    game, _, _ = build_coop_keydoor(cfg)
    full = induce_mdp(game, uniform_peer(game))
    made = []

    def counted(*args, **kwargs):
        made.append(1)
        return Trajectory(*args, **kwargs)

    # every module of the package that could build a trajectory builds a counted one
    makers = [m for name, m in sys.modules.items() if name.startswith("trajcore") and
                getattr(m, "Trajectory", None) is Trajectory]
    assert {"trajcore.mdp", "trajcore.graph"} <= {m.__name__ for m in makers}
    for module in makers:
        monkeypatch.setattr(module, "Trajectory", counted)
    with pytest.raises(ExplosionGuard) as err:
        enumerate_successes(full, node_budget=10**6)
    assert (err.value.budget, err.value.visited, err.value.needed) == (10**6, 10**6 + 1, 37_313_436)
    assert made == []


def test_a_guard_past_4300_digits_states_a_lower_bound():
    # from state 0 both actions reach 0 or the goal, so the prefixes double each step
    kernel = np.zeros((2, 2, 2))
    kernel[0, :, :] = 0.5
    kernel[1, :, 1] = 1.0
    mdp = TabularMDP(num_states=2, num_actions=2, kernel=kernel, reward=np.zeros((2, 2)),
                     horizon=15_000, goals=frozenset({1}), initial=np.array([1.0, 0.0]))
    with pytest.raises(ExplosionGuard) as err:
        enumerate_successes(mdp)
    assert err.value.needed > 10**4300
    assert "the full search needs at least 10**4300)" in str(err.value)


def test_a_graph_too_large_to_store_gives_no_exact_count():
    mdp, _ = build_keydoor(DEFAULT_KEYDOOR)
    with pytest.raises(ExplosionGuard) as err:
        enumerate_successes(replace(mdp, horizon=10**6), node_budget=10_000)
    assert (err.value.budget, err.value.visited, err.value.needed) == (10_000, 10_001, None)
    assert "the full search needs more than 10000)" in str(err.value)


@pytest.mark.parametrize("horizon", [0, 2**63, 10**30])
def test_a_horizon_outside_int64_is_a_horizon_error(chain_mdp, horizon):
    with pytest.raises(HorizonError):
        validate_mdp(replace(chain_mdp, horizon=horizon))
    with pytest.raises(HorizonError):
        validate_game(replace(game_from_mdp(chain_mdp), horizon=horizon))


def test_the_largest_int64_horizon_is_valid_and_trips_the_guard(chain_mdp):
    mdp = replace(chain_mdp, horizon=2**63 - 1)
    validate_mdp(mdp)
    with pytest.raises(ExplosionGuard) as err:
        enumerate_successes(mdp, node_budget=100)
    assert (err.value.visited, err.value.needed) == (101, None)


def _chain_with_dead_ends(chain_mdp, width: int) -> TabularMDP:
    """The chain plus ``width`` states that LEFT from 0 can enter but never leave."""
    n = 3 + width
    kernel = np.zeros((n, 2, n))
    kernel[:3, :, :3] = chain_mdp.kernel
    kernel[0, 0, 0] = 0.5
    kernel[0, 0, 3:] = 0.5 / width
    kernel[3:, :, 3:] = 1.0 / width
    initial = np.zeros(n)
    initial[0] = 1.0
    return TabularMDP(
        num_states=n,
        num_actions=2,
        kernel=kernel,
        reward=np.zeros((n, 2)),
        horizon=chain_mdp.horizon,
        goals=chain_mdp.goals,
        initial=initial,
    )


def test_node_budget_counts_only_prefixes_of_successes(chain_mdp):
    mdp = _chain_with_dead_ends(chain_mdp, width=8)
    # the two chain successes share the root; together they have 6 prefixes
    with pytest.raises(ExplosionGuard) as err:
        enumerate_successes(mdp, node_budget=5)
    assert (err.value.budget, err.value.visited, err.value.needed) == (5, 6, 6)
    assert "the full search needs 6" in str(err.value)
    successes = enumerate_successes(mdp, node_budget=err.value.needed)
    assert {t.pairs() for t in successes} == CHAIN_SUCCESSES
    for budget in [0, -1]:
        with pytest.raises(ExplosionGuard) as err:
            enumerate_successes(mdp, node_budget=budget)
        assert (err.value.budget, err.value.visited, err.value.needed) == (budget, 1, 6)


def _success_prefixes(successes) -> set:
    """The nodes of a search that visits only prefixes of successes."""
    return {
        (pairs[:i], pairs[i][0])
        for pairs in (t.pairs() for t in successes)
        for i in range(len(pairs))
    }


def test_guard_reports_the_exact_node_count_of_the_full_search():
    checked = 0
    for seed in range(40):
        sampled = random_mdp(num_states=6, num_actions=3, horizon=6, seed=seed, support_size=3)
        for horizon in range(1, 7):
            mdp = replace(sampled, horizon=horizon)
            needed = len(_success_prefixes(enumerate_successes(mdp)))
            if needed == 0:
                continue
            with pytest.raises(ExplosionGuard) as err:
                enumerate_successes(mdp, node_budget=needed - 1)
            assert err.value.needed == needed
            assert len(enumerate_successes(mdp, node_budget=needed)) > 0
            checked += 1
    assert checked > 100


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["one", "two", "leaky", "initial"]),
)
def test_enumerate_matches_generate_and_filter_oracle(seed, horizon, support_size, goals):
    mdp = oracle_case(seed, horizon, support_size, goals)
    expected = oracle_enumerate(mdp)
    # the node count of the search is the number of prefixes of the oracle's successes
    needed = len(_success_prefixes(expected))
    # equal as sets and in order: the enumeration lists in canonical order unsorted
    assert enumerate_successes(mdp, node_budget=max(needed, 1)) == expected
    if needed:
        with pytest.raises(ExplosionGuard) as err:
            enumerate_successes(mdp, node_budget=needed - 1)
        assert err.value.needed == needed


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_enumerate_is_policy_free_under_reweighting(seed):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(num_states=5, num_actions=2, horizon=5, seed=seed)
    other = reweight_support(rng, mdp)
    assert enumerate_successes(mdp).as_set() == enumerate_successes(other).as_set()


# ---------------------------------------------------------------------------
# is_successful
# ---------------------------------------------------------------------------


def test_enumerated_trajectories_are_successful(chain_mdp):
    for traj in enumerate_successes(chain_mdp):
        assert is_successful(traj, chain_mdp)


def test_mid_goal_visit_is_not_successful(chain_mdp):
    goal_mid = Trajectory(steps=((0, 1), (1, 1), (2, 0)), terminal_state=2)
    assert not is_successful(goal_mid, chain_mdp)


def test_zero_probability_transition_is_not_successful(chain_mdp):
    # 0 -L-> 1 has probability zero in the chain
    traj = Trajectory(steps=((0, 0), (1, 1)), terminal_state=2)
    assert not is_successful(traj, chain_mdp)


def test_too_long_trajectory_is_not_successful(chain_mdp):
    # goal at state index 5 > horizon 4
    traj = Trajectory(
        steps=((0, 0), (0, 0), (0, 1), (1, 1)), terminal_state=2
    )
    assert not is_successful(traj, chain_mdp)


def test_unterminated_trajectory_is_not_successful(chain_mdp):
    assert not is_successful(Trajectory(steps=((0, 1),)), chain_mdp)


def test_a_trajectory_that_starts_outside_the_initial_support_is_not_successful(chain_mdp):
    # 1 -R-> 2 is in the support, but every episode starts at 0
    assert not is_successful(Trajectory(steps=((1, 1),), terminal_state=2), chain_mdp)


def test_from_pairs_reads_integer_pairs_and_rejects_any_other_item():
    traj = Trajectory.from_pairs([(np.int64(0), np.int32(1)), [1, 1], (2, TERMINAL)])
    assert traj == Trajectory(steps=((0, 1), (1, 1)), terminal_state=2)
    assert {type(x) for pair in traj.pairs() for x in pair} == {int}
    for items in [[(1.5, 0), (2, TERMINAL)], [(0, 1, 2)], [("a", "b")], ["ab"]]:
        with pytest.raises(TypeError, match="pairs of integers"):
            Trajectory.from_pairs(items)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_success_set_is_exactly_the_passing_trajectories(seed):
    mdp = random_mdp(num_states=4, num_actions=2, horizon=4, seed=seed)
    enumerated = enumerate_successes(mdp).as_set()
    passing = {t for t in oracle_enumerate(mdp) if is_successful(t, mdp)}
    assert enumerated == passing


def test_success_set_membership_reads_one_kept_set(monkeypatch):
    from trajcore import mdp as mdp_module

    successes = enumerate_successes(random_mdp(num_states=4, num_actions=2, horizon=4, seed=0))
    assert len(successes) > 1 and successes.trajectories[0] in successes
    built = count_set_builds(monkeypatch, mdp_module)
    assert all(traj in successes for traj in successes)
    assert Trajectory(steps=((0, 0),) * 5) not in successes
    assert successes.as_set() is successes.as_set() == set(successes.trajectories)
    assert built == []


@settings(max_examples=300, deadline=None)
@given(trajectory_families)
def test_from_iterable_orders_as_sorting_by_pairs(family):
    made = SuccessSet.from_iterable(family)
    expected = oracle_canonical(family)
    # the same objects: of equal items such as True and 1, the set keeps the same one
    assert len(made) == len(expected) and all(map(operator.is_, made, expected))
    # the encoding kept after sorting is the one the sorted set makes on first use
    assert made._encoding is not None and made._encoding == _encode(made.trajectories)


def test_from_iterable_keeps_both_trajectories_that_share_their_pairs():
    closed = Trajectory(steps=((0, 1),), terminal_state=2)
    unclosed = Trajectory(steps=((0, 1), (2, TERMINAL)))
    assert closed.pairs() == unclosed.pairs() and closed != unclosed
    between = Trajectory(steps=((0, 1), (2, 0)), terminal_state=1)  # sorts after both
    for family in ([closed, unclosed, between], [between, unclosed, closed, unclosed]):
        made = SuccessSet.from_iterable(family)
        assert made.trajectories == oracle_canonical(family) == (closed, unclosed, between)


# Two trajectories with equal pairs(), each family in both input orders; the
# second family holds items that < cannot rank, so it is sorted by pairs().
# Trajectory's hash reads hash(None), which Python takes from an address, so a
# set of the two iterates in an order that may change from process to process.
_TIE_ORDER = """
from trajcore.mdp import TERMINAL, SuccessSet, Trajectory
closed, unclosed = Trajectory(((0, 2),), 3), Trajectory(((0, 2), (3, TERMINAL)))
unranked = [Trajectory(((0, 0), (1, "a")), 5), Trajectory(((0, 1), (1, 2)), 5)]
for family in ([closed, unclosed], [closed, unclosed] + unranked):
    for listed in (family, family[::-1]):
        made = SuccessSet.from_iterable(listed)
        print(made._encoding is None, [traj.terminal_state for traj in made])
"""


def test_from_iterable_puts_the_terminated_of_two_equal_pair_trajectories_first():
    expected = "False [3, None]\n" * 2 + "True [5, 5, 3, None]\n" * 2
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(_TIE_ORDER, {})
    assert printed.getvalue() == expected
    root = Path(__file__).resolve().parents[1]
    for seed in range(4):
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": str(seed)}
        done = subprocess.run([sys.executable, "-c", _TIE_ORDER], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, expected), done.stderr


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


def test_rollout_rejects_zero_samples(chain_mdp):
    policy = np.full((3, 2), 0.5)
    with pytest.raises(ValueError):
        rollout(chain_mdp, policy, n=0, seed=1)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (6,)])
def test_rollout_rejects_a_policy_of_the_wrong_shape(chain_mdp, shape):
    with pytest.raises(DimensionMismatch, match=r"policy shape .*, expected \(3, 2\)"):
        rollout(chain_mdp, np.full(shape, 0.5), n=1, seed=1)


def test_rollout_deterministic_policy_unique_trajectory(chain_mdp):
    policy = np.zeros((3, 2))
    policy[:, 1] = 1.0  # always RIGHT
    result = rollout(chain_mdp, policy, n=1, seed=9)
    assert result.trajectories[0].pairs() == ((0, 1), (1, 1), (2, -1))


def test_rollout_same_seed_identical(chain_mdp):
    policy = np.full((3, 2), 0.5)
    a = rollout(chain_mdp, policy, n=50, seed=123)
    b = rollout(chain_mdp, policy, n=50, seed=123)
    assert a.trajectories == b.trajectories and len(a) == 50
    c = rollout(chain_mdp, policy, n=50, seed=124)
    assert a.trajectories != c.trajectories


def test_rollout_successes_are_enumerated_members(chain_mdp):
    policy = np.full((3, 2), 0.5)
    full = enumerate_successes(chain_mdp).as_set()
    sampled = rollout(chain_mdp, policy, n=500, seed=7)
    for traj in sampled.successes():
        assert traj in full


def test_rollout_respects_horizon(chain_mdp):
    policy = np.zeros((3, 2))
    policy[:, 0] = 1.0  # always LEFT: never succeeds
    result = rollout(chain_mdp, policy, n=5, seed=2)
    for traj in result:
        assert not traj.terminated
        assert traj.num_action_steps == chain_mdp.horizon


def test_rollout_draws_as_the_dense_kernel_does_without_building_it(monkeypatch):
    cases = [random_mdp(6, 3, 8, seed=seed, support_size=3) for seed in range(4)]
    kernel = np.array(cases[0].kernel)
    row = kernel[0, 0]
    low, high = np.flatnonzero(row == 0)[0], np.flatnonzero(row)[-1]
    row[low], row[high] = -5e-10, row[high] + 5e-10  # tolerated, and drawn from
    cases.append(replace(cases[0], kernel=kernel))
    validate_mdp(cases[-1])
    runs = []
    for index, mdp in enumerate(cases):
        policy = np.random.default_rng(index).random((mdp.num_states, mdp.num_actions))
        policy /= policy.sum(axis=1, keepdims=True)
        runs.append((mdp, policy, index, dense_rollout(mdp, policy, 300, seed=index)))

    def refuse(rows):
        raise AssertionError("a dense kernel was built")

    monkeypatch.setattr(KernelRows, "dense", refuse)
    for mdp, policy, seed, expected in runs:
        assert rollout(mdp, policy, n=300, seed=seed).trajectories == expected


# ---------------------------------------------------------------------------
# one constructor and one validator for both models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field, value, message", [
    ("reward", np.zeros((3, 3)), "reward shape (3, 3), expected {reward}"),
    ("initial", np.array([0.5, 0.5]), "initial shape (2,), expected (3,)"),
    ("goals", frozenset({1, 3}), "goal state out of range: [1, 3]"),
    ("goals", frozenset({-1}), "goal state out of range: [-1]"),
])
def test_both_models_reject_a_bad_shape_or_goal_alike(chain_mdp, field, value, message):
    game = game_from_mdp(chain_mdp)
    with pytest.raises(DimensionMismatch) as mdp_err:
        replace(chain_mdp, **{field: value})
    with pytest.raises(DimensionMismatch) as game_err:
        replace(game, **{"reward_1" if field == "reward" else field: value})
    assert str(mdp_err.value) == message.format(reward=(3, 2))
    assert str(game_err.value) == message.format(reward=(3, 2, 1))


def test_a_peer_allows_no_negative_entry_where_a_kernel_row_tolerates_one(chain_mdp):
    kernel = np.array(chain_mdp.kernel)
    kernel[0, 0, 1], kernel[0, 0, 0] = -1e-12, 1.0 + 1e-12
    validate_mdp(replace(chain_mdp, kernel=kernel))
    peer = PeerPolicy(probs=np.array([[1.0 + 1e-12, -1e-12], [0.5, 0.5]]), label="p")
    with pytest.raises(RowSumError) as err:
        validate_peer(peer)
    assert (err.value.what, err.value.row, err.value.total) == ("peer policy 'p'", "(negative entry)", -1e-12)


# ---------------------------------------------------------------------------
# degenerate game embedding
# ---------------------------------------------------------------------------


def test_game_from_mdp_round_trips_through_induce(chain_mdp):
    game = game_from_mdp(chain_mdp)
    peer = PeerPolicy(probs=np.ones((3, 1)))
    induced = induce_mdp(game, peer)
    assert np.array_equal(induced.kernel, chain_mdp.kernel)
    assert np.array_equal(induced.reward, chain_mdp.reward)
    assert enumerate_successes(induced).as_set() == enumerate_successes(chain_mdp).as_set()


# ---------------------------------------------------------------------------
# goal reachability
# ---------------------------------------------------------------------------


def test_goal_reachable_agrees_with_enumeration_across_horizons():
    outcomes = set()
    for seed in range(30):
        sampled = random_mdp(num_states=6, num_actions=2, horizon=6, seed=seed)
        for horizon in range(1, 7):
            mdp = replace(sampled, horizon=horizon)
            expected = len(enumerate_successes(mdp)) > 0
            assert goal_reachable(mdp) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_goal_reachable_from_initial_goal_and_on_blocked_chain(chain_mdp):
    assert goal_reachable(chain_mdp)
    assert not goal_reachable(replace(chain_mdp, horizon=2))
    assert goal_reachable(replace(chain_mdp, initial=np.array([0.0, 0.0, 1.0]), horizon=1))


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


class _FixedUniform:
    """Stands in for a Generator whose next uniform variate is fixed."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


LARGEST_UNIFORM = 1.0 - 2.0**-53


@pytest.mark.parametrize(
    "probs, expected",
    [([0.1] * 10, 9), ([0.1] * 10 + [0.0, 0.0], 9)],
    ids=["tenths", "tenths-then-zeros"],
)
def test_draw_clamps_largest_uniform_to_last_positive_outcome(probs, expected):
    cdf = np.cumsum(probs)
    assert cdf[-1] <= LARGEST_UNIFORM
    assert _draw(_FixedUniform(LARGEST_UNIFORM), cdf) == expected


def test_draw_is_unchanged_inside_the_cdf():
    cdf = np.cumsum([0.1] * 10)
    for u, expected in [(0.0, 0), (0.05, 0), (0.1, 1), (0.55, 5), (0.95, 9)]:
        assert _draw(_FixedUniform(u), cdf) == expected


def test_entries_tolerated_below_zero_are_outside_the_support():
    # validation accepts -5e-10 (within ROW_TOL), but the support is entries > 0
    kernel = np.zeros((3, 1, 3))
    kernel[0, 0, 0] = 1 + 5e-10
    kernel[0, 0, 2] = -5e-10
    kernel[1, 0, 1] = 1.0
    kernel[2, 0, 2] = 1.0
    mdp = TabularMDP(
        num_states=3,
        num_actions=1,
        kernel=kernel,
        reward=np.zeros((3, 1)),
        horizon=3,
        goals=frozenset({2}),
        initial=np.array([1 + 5e-10, 0.0, -5e-10]),
    )
    validate_mdp(mdp)
    assert mdp.support(0, 0) == (0,)
    assert mdp.initial_support() == (0,)
    assert not is_successful(Trajectory(steps=((0, 0),), terminal_state=2), mdp)
    assert len(enumerate_successes(mdp)) == 0
    assert not goal_reachable(mdp)


@pytest.mark.parametrize("support_size", [1, 2, 4])
def test_positive_rows_equal_the_support_of_every_pair(support_size):
    for seed in range(10):
        mdp = random_mdp(
            num_states=7, num_actions=3, horizon=5, seed=seed, support_size=support_size
        )
        assert mdp._support is mdp.rows  # every stored entry is positive
        kernel = mdp.kernel.copy()
        kernel[0, 0, -1] = -5e-10  # tolerated by validation, outside the support
        mdp = replace(mdp, kernel=kernel)
        support = mdp._support
        assert support is not mdp.rows and support.shape == mdp.rows.shape
        assert len(support.offsets) == mdp.num_states * mdp.num_actions + 1
        dense = mdp.kernel
        for s in range(mdp.num_states):
            for a in range(mdp.num_actions):
                row = s * mdp.num_actions + a
                kept = support.targets[support.offsets[row] : support.offsets[row + 1]]
                assert kept.tolist() == np.flatnonzero(dense[s, a] > 0).tolist()
                assert mdp.support(s, a) == tuple(kept.tolist())
                assert np.array_equal(support.probs[support.offsets[row] : support.offsets[row + 1]],
                                      dense[s, a, kept])


@pytest.mark.parametrize("state, action", [(-1, 0), (0, 3), (1, -1), (16, 0)])
def test_support_rejects_a_pair_out_of_range(state, action):
    mdp, _ = build_keydoor(DEFAULT_KEYDOOR)
    assert (mdp.num_states, mdp.num_actions) == (16, 3)
    message = rf"pair \({state}, {action}\) out of range for this MDP"
    with pytest.raises(ValueError, match=message):
        mdp.support(state, action)
    # is_successful checks every pair first, even of a trajectory that reaches no goal
    with pytest.raises(ValueError, match=message):
        is_successful(Trajectory(steps=((0, 0), (state, action))), mdp)


def test_kernels_are_held_as_non_zero_rows_behind_a_dense_view(chain_mdp):
    table = np.array(chain_mdp.kernel)
    table[0, 0] = [0.5 + 5e-10, 0.5, -5e-10]  # a tolerated negative entry is stored
    mdp = replace(chain_mdp, kernel=table)
    rows = mdp.rows
    assert rows.shape == (3, 2, 3)
    assert rows.offsets.tolist() == [0, 3, 4, 5, 6, 7, 8]
    assert rows.targets.tolist() == [0, 1, 2, 1, 0, 2, 2, 2]
    assert np.array_equal(rows.probs, table[table != 0])
    assert "kernel" not in vars(mdp)  # no dense copy beside the rows
    view = mdp.kernel
    assert np.array_equal(view, table) and not view.flags.writeable
    assert mdp.kernel is not view  # rebuilt on every access
    assert rows.block(np.array([0, 1])).tolist() == [[0.5 + 5e-10, 0.5, -5e-10], [0.0, 1.0, 0.0]]
    assert np.array_equal(rows.block(np.array([2, 0])), table.reshape(6, 3)[[2, 0]])
    assert rows.block(np.array([], dtype=int)).shape == (0, 3)
    assert mdp.support(0, 0) == (0, 1)

    same = TabularMDP(3, 2, rows, mdp.reward, mdp.horizon, mdp.goals, mdp.initial)
    assert same.rows is rows
    with pytest.raises(DimensionMismatch, match=r"kernel shape \(3, 2, 3\), expected \(2, 2, 2\)"):
        TabularMDP(2, 2, rows, np.zeros((2, 2)), 3, frozenset({1}), np.array([1.0, 0.0]))
    for shape in [(0, 2, 0), (2, 0, 2)]:
        empty = KernelRows.from_dense(np.zeros(shape))
        assert empty.num_rows == shape[0] * shape[1] and empty.dense().shape == shape
    for offsets, targets in [([0, 1], [0]), ([0, 1, 2], [0]), ([1, 1, 1], [])]:
        with pytest.raises(DimensionMismatch, match="offsets"):
            KernelRows((2, 1, 2), np.array(offsets), np.array(targets), np.ones(len(targets)))
