import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from detdec import (
    CollectingSpec,
    MactpSpec,
    SupportBelief,
    TabularModel,
    TransitionCache,
    build_br_detpomdp,
    build_init_detpomdp,
    collecting_generate,
    default_policy,
    enumerate_joint_actions,
    exact_belief_vi,
    exact_value,
    mactp_generate,
    value_iteration,
)
from detdec.mactp import grid_edges
from detdec.rng import SplitMix64

from helpers import (
    absorbing_model,
    action_obs_model,
    chain_model,
    random_joint_policy,
    selfloop_model,
    zero_reward_model,
)


def _small_benchmark_models():
    return (
        mactp_generate(MactpSpec(3, 2, 4, seed=3)),
        collecting_generate(CollectingSpec(3, 3, 2, 1, seed=3)),
    )


def _assert_batch_matches_scalar(model, states):
    """``transition_batch`` row by row against ``step`` in joint-index order."""
    succ, rewards = model.transition_batch(np.array(states, dtype=np.int64))
    assert succ.dtype == np.int64 and rewards.dtype == np.float64
    assert succ.shape == rewards.shape == (len(states), model.num_joint_actions)
    want = [model.step(s, a)[::2] for s in states for a in model.joint_actions()]
    assert succ.ravel().tolist() == [s2 for s2, _ in want]
    # by bit pattern: == lets -0.0 pass for 0.0, and the relaxation's palette keys rewards by bits
    assert rewards.ravel().view(np.int64).tolist() == np.array([r for _, r in want], dtype=np.float64).view(np.int64).tolist()


def _assert_step_batch_matches_scalar(model, states):
    """``step_batch`` on every (state, joint action) row against ``step``; ``terminal_batch``
    against ``is_terminal``."""
    joint = model.joint_actions()
    rows = [(s, a) for s in states for a in joint]
    succ, obs, rewards = model.step_batch(
        np.array([s for s, _ in rows], dtype=np.int64), np.array([a for _, a in rows], dtype=np.int64)
    )
    assert succ.dtype == obs.dtype == np.int64 and rewards.dtype == np.float64
    assert succ.shape == rewards.shape == (len(rows),) and obs.shape == (len(rows), model.agent_count)
    for row, (s, a) in enumerate(rows):
        got = (int(succ[row]), tuple(int(o) for o in obs[row]), float(rewards[row]))
        assert got == model.step(s, a)
    terminal = model.terminal_batch(np.array(states, dtype=np.int64))
    assert terminal.dtype == bool and terminal.tolist() == [model.is_terminal(s) for s in states]


def _assert_observe_batch_matches_step_batch(model, states):
    """``observe_batch`` of the successors of every (state, joint action) row against ``step_batch``'s observations."""
    rows = [(s, a) for s in states for a in model.joint_actions()]
    states = np.array([s for s, _ in rows], dtype=np.int64)
    actions = np.array([a for _, a in rows], dtype=np.int64)
    succ, obs, _ = model.step_batch(states, actions)
    got = model.observe_batch(succ)
    assert got.dtype == np.int64 and got.shape == obs.shape and got.tolist() == obs.tolist()


MACTP, COLLECTING = _small_benchmark_models()  # property-test instances
# an endpoint of the first stochastic edge, for an agent facing it while it is blocked
_EDGE_END = grid_edges(3)[MACTP.instance.stochastic[0]][0]
_COLS = COLLECTING.instance.width + 2
_FREE = tuple(
    r * _COLS + c
    for r in range(1, COLLECTING.instance.height + 1)
    for c in range(1, COLLECTING.instance.width + 1)
    if r * _COLS + c not in COLLECTING.instance.obstacles
)
# two free cells side by side, for agents that move into each other
_PAIR = next((a, a + 1) for a in _FREE if a + 1 in _FREE)

_mactp_states = st.lists(
    st.builds(
        MACTP.pack,
        st.tuples(*[st.integers(1, 9)] * 2),
        st.integers(0, 2**4 - 1),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=8,
)
_collecting_states = st.lists(
    st.builds(
        COLLECTING.pack,
        st.tuples(*[st.sampled_from(_FREE)] * 2),
        st.tuples(*[st.integers(0, 1)] * 2),
        st.integers(0, 2 ** len(_FREE) - 1),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=8,
)


def _reachable_pairs(model):
    """Every (state, joint action) reachable from the initial support, in sorted order."""
    for s in sorted(value_iteration(model).state_ids.tolist()):
        for a in model.joint_actions():
            yield s, a


class TestSupportBelief:
    def test_point(self):
        b = SupportBelief.point(7)
        assert b.atoms == ((7, 1),) and b.total == 1
        assert b.states == (7,) and b.weights == (Fraction(1),)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            SupportBelief(((2, 1), (1, 1)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="ascending"):
            SupportBelief(((1, 1), (1, 1)))

    def test_rejects_nonpositive_weight(self):
        for weight in (0, -1):
            with pytest.raises(ValueError, match="positive int"):
                SupportBelief(((1, weight), (2, 1)))

    @pytest.mark.parametrize("weight", [True, 1.0, Fraction(1), Fraction(1, 2)])
    def test_rejects_non_int_weight(self, weight):
        with pytest.raises(ValueError, match="positive int"):
            SupportBelief(((1, weight), (2, 1)))

    def test_reduces_by_gcd(self):
        b = SupportBelief(((1, 4), (3, 6)))
        assert b.atoms == ((1, 2), (3, 3)) and b.total == 5
        assert b == SupportBelief(((1, 2), (3, 3)))
        assert hash(b) == hash(SupportBelief(((1, 2), (3, 3))))
        assert b.weights == (Fraction(2, 5), Fraction(3, 5))
        assert b.float_weights == (0.4, 0.6)

    def test_from_pairs_merges_and_normalizes(self):
        b = SupportBelief.from_pairs([(3, 1), (1, 2), (3, 1), (2, 0)])
        assert b.states == (1, 3)
        assert b.atoms == ((1, 1), (3, 1))
        assert b.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_from_pairs_scales_rationals_by_lcm(self):
        b = SupportBelief.from_pairs([(0, Fraction(1, 3)), (1, Fraction(1, 2)), (2, Fraction(1, 6))])
        assert b.atoms == ((0, 2), (1, 3), (2, 1)) and b.total == 6
        assert b.weights == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))

    @pytest.mark.parametrize(
        "pairs",
        [
            [(4, 6), (1, 2), (9, 4), (1, 2)],  # ints only
            [(4, 3), (1, Fraction(1, 2)), (4, Fraction(2, 3)), (7, 1), (1, 5)],  # ints and Fractions, shared states
            [(2, 0.25), (0, 0.5), (2, 0.125), (5, 0.1)],  # floats, taken exactly
            [(3, 0.5), (3, 1), (6, Fraction(1, 3)), (8, 0)],  # all three, and a zero
        ],
    )
    def test_from_pairs_matches_all_fraction_weights(self, pairs):
        b = SupportBelief.from_pairs(pairs)
        reference = SupportBelief.from_pairs([(s, Fraction(w)) for s, w in pairs])
        assert b.atoms == reference.atoms and b.total == reference.total
        assert hash(b) == hash(reference)
        assert all(type(w) is int for _, w in b.atoms)

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=9)),
            min_size=1,
            max_size=20,
        ).filter(lambda pairs: any(w > 0 for _, w in pairs))
    )
    def test_from_pairs_canonical(self, pairs):
        b = SupportBelief.from_pairs(pairs)
        assert list(b.states) == sorted(set(b.states))
        assert sum(b.weights) == 1
        assert all(w > 0 for w in b.weights)
        assert math.gcd(*(w for _, w in b.atoms)) == 1
        # canonical representation: equal beliefs hash equal
        assert b == SupportBelief.from_pairs(list(reversed(pairs)))
        assert hash(b) == hash(SupportBelief.from_pairs(list(reversed(pairs))))


class TestJointActions:
    def test_lexicographic(self):
        actions = enumerate_joint_actions((2, 3))
        assert actions == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
        assert actions == tuple(sorted(actions))


class TestModelContract:
    def test_step_determinism_repeats(self):
        m = chain_model()
        first = m.step(0, (1,))
        for _ in range(1000):
            assert m.step(0, (1,)) == first

    def test_terminal_absorbing_zero_reward(self):
        m = chain_model(length=3)
        assert m.is_terminal(2)
        for a in enumerate_joint_actions(m.action_space_sizes):
            s2, _, r = m.step(2, a)
            assert s2 == 2 and r == 0.0

    def test_action_validation(self):
        m = selfloop_model()
        with pytest.raises(ValueError):
            m.step(0, (1,))
        with pytest.raises(ValueError):
            m.step(0, (0, 0))

    def test_absorbing_initial(self):
        m = absorbing_model()
        s2, _, r = m.step(0, (0,))
        assert s2 == 0 and r == 0.0

    def test_transition_only_matches_step(self):
        for m in _small_benchmark_models():
            for s, a in _reachable_pairs(m):
                s2, obs, r = m.step(s, a)
                assert m.transition_only(s, a) == (s2, r)

    def test_transition_cache(self):
        m = chain_model()
        cache = TransitionCache(m)
        assert cache.step(0, (1,)) == m.step(0, (1,))
        assert cache.step(0, (1,)) == m.step(0, (1,))
        assert len(cache) == 1


class TestBatchKernel:
    """The array kernels, through the batch methods the base class derives from them, against ``step``."""

    def test_reachable_pairs_of_small_benchmarks(self):
        for model in _small_benchmark_models():
            _assert_batch_matches_scalar(model, value_iteration(model).state_ids.tolist())

    @pytest.mark.parametrize(
        "spec",
        [MactpSpec(3, 1, 3, 0), MactpSpec(3, 3, 3, 0), CollectingSpec(4, 3, 1, 2, 0), CollectingSpec(4, 3, 3, 2, 0)],
        ids=["mactp-a1", "mactp-a3", "collecting-a1", "collecting-a3"],
    )
    def test_reachable_pairs_across_agent_counts(self, spec):
        # one and three agents: each agent's actions get an axis of their own in transition_batch,
        # and collecting's agents move in order, each against the cells of those before it
        model = (mactp_generate if isinstance(spec, MactpSpec) else collecting_generate)(spec)
        states = value_iteration(model).state_ids[::17].tolist()
        _assert_batch_matches_scalar(model, states)
        if model.agent_count == 3:
            _assert_step_batch_matches_scalar(model, states)

    @pytest.mark.parametrize("make", [chain_model, action_obs_model], ids=["chain", "action-obs"])
    def test_tabular_transition_batch_matches_step(self, make):
        # action_obs_model: three agents with 2, 3 and 2 actions, and copies of its states
        model = make()
        _assert_batch_matches_scalar(model, value_iteration(model).state_ids.tolist())

    @settings(max_examples=60, deadline=None)
    @given(_mactp_states)
    @example([MACTP.pack((9, 9), 0, 3), MACTP.pack((1, 5), 5, 3)])  # all arrived: absorbing
    @example([MACTP.pack((_EDGE_END, 1), 1, 0), MACTP.pack((1, _EDGE_END), 2**4 - 1, 1)])  # blocked
    def test_mactp_random_states(self, states):
        _assert_batch_matches_scalar(MACTP, states)

    @settings(max_examples=60, deadline=None)
    @given(_collecting_states)
    @example([COLLECTING.pack(_PAIR, (0, 1), 0b1011, 1)])  # all delivered: absorbing
    @example([COLLECTING.pack(_PAIR, (1, 0), 0b0110, 0), COLLECTING.pack(_PAIR[::-1], (0, 0), 0, 0)])  # collide
    def test_collecting_random_states(self, states):
        _assert_batch_matches_scalar(COLLECTING, states)

    def test_out_of_range_state_is_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            MACTP.transition_batch(np.array([-1]))

    def test_step_batch_on_reachable_pairs_of_small_benchmarks(self):
        for model in _small_benchmark_models():
            _assert_step_batch_matches_scalar(model, value_iteration(model).state_ids.tolist())

    @pytest.mark.parametrize("make", [chain_model, action_obs_model], ids=["chain", "action-obs"])
    def test_tabular_step_batch_matches_step(self, make):
        model = make()
        _assert_step_batch_matches_scalar(model, value_iteration(model).state_ids.tolist())

    def test_tabular_batch_rejects_negative_id(self):
        m = chain_model()
        with pytest.raises(ValueError, match="outside"):
            m.step_batch(np.array([0, -1]), np.zeros((2, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="outside"):
            m.transition_batch(np.array([-1]))

    @settings(max_examples=60, deadline=None)
    @given(_mactp_states)
    @example([MACTP.pack((9, 9), 0, 3), MACTP.pack((1, 5), 5, 3)])  # all arrived: absorbing
    @example([MACTP.pack((_EDGE_END, 1), 1, 0), MACTP.pack((1, _EDGE_END), 2**4 - 1, 1)])  # blocked
    def test_step_batch_mactp_random_states(self, states):
        _assert_step_batch_matches_scalar(MACTP, states)

    @settings(max_examples=60, deadline=None)
    @given(_collecting_states)
    @example([COLLECTING.pack(_PAIR, (0, 1), 0b1011, 1)])  # all delivered: absorbing
    @example([COLLECTING.pack(_PAIR, (1, 0), 0b0110, 0), COLLECTING.pack(_PAIR[::-1], (0, 0), 0, 0)])  # collide
    def test_step_batch_collecting_random_states(self, states):
        _assert_step_batch_matches_scalar(COLLECTING, states)

    @settings(max_examples=30, deadline=None)
    @given(_mactp_states)
    @example([MACTP.pack((_EDGE_END, 1), 1, 0), MACTP.pack((1, _EDGE_END), 2**4 - 1, 1)])  # blocked
    def test_observation_batch_mactp_random_states(self, states):
        _assert_observe_batch_matches_step_batch(MACTP, states)

    @settings(max_examples=30, deadline=None)
    @given(_collecting_states)
    @example([COLLECTING.pack(_PAIR, (1, 0), 0b0110, 0), COLLECTING.pack(_PAIR[::-1], (0, 0), 0, 0)])  # collide
    def test_observation_batch_collecting_random_states(self, states):
        _assert_observe_batch_matches_step_batch(COLLECTING, states)

    def test_observation_batch_of_tabular_copies(self):
        # a table whose observations depend on the action: its copies make them a function of the successor
        model = action_obs_model()
        states = value_iteration(model).state_ids.tolist()
        assert len(states) > len(model.initial_belief())  # copies are reachable
        _assert_observe_batch_matches_step_batch(model, states)

    @pytest.mark.parametrize("model", _small_benchmark_models(), ids=["mactp", "collecting"])
    def test_step_batch_rejects_out_of_range_input(self, model):
        s0 = model.initial_belief().states[0]
        with pytest.raises(ValueError, match="outside"):
            model.step_batch(np.array([-1]), np.zeros((1, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="outside"):
            model.terminal_batch(np.array([s0, -1]))
        with pytest.raises(ValueError, match="agent 1 outside"):
            model.step_batch(np.array([s0]), np.array([[0, 5]]))
        with pytest.raises(ValueError, match="agent 0 outside"):
            model.step_batch(np.array([s0, s0]), np.array([[0, 0], [-1, 0]]))
        with pytest.raises(ValueError, match="shape"):
            model.step_batch(np.array([s0]), np.array([[0]]))


    def test_action_past_another_agents_bound_is_kept(self):
        t = {(0, (a0, a1)): (0, (0, 0), 1.0) for a0 in range(2) for a1 in range(3)}
        m = TabularModel(2, (2, 3), (1, 1), 0.9, t, SupportBelief.point(0))
        assert m.step_batch(np.array([0, 0]), np.array([[1, 2], [0, 0]]))[2].tolist() == [1.0, 1.0]
        with pytest.raises(ValueError, match=r"action for agent 0 outside \[0, 2\)"):
            m.step_batch(np.array([0]), np.array([[2, 0]]))


class TestPinnedDynamics:
    """SHA-256 of ``repr((s, a, step(s, a)))`` over every reachable (s, a).

    The pinned digests make any change to the successors, observations or
    rewards of either benchmark fail this test.
    """

    DIGESTS = (
        (20125, "4e2c7bc4a8e4f37a0d3f59ccac4cd2736dd367a52bbd5df96e5d10ed67e8b06f"),  # mactp 3-2-4
        (7725, "51e621f3af95a1de5b05b3fe2a33641304c05962fceeab5e37145a270a9e0fc0"),  # collecting 3x3 a2 b1
    )

    def test_step_digest(self):
        for model, expected in zip(_small_benchmark_models(), self.DIGESTS):
            h = hashlib.sha256()
            count = 0
            for s, a in _reachable_pairs(model):
                h.update(repr((s, a, model.step(s, a))).encode())
                count += 1
            assert (count, h.hexdigest()) == expected


class TestObservationReduction:
    """``TabularModel`` copies a state entered under a second observation, so the observation is
    a function of the successor; the values of its models stay those of the tables they were given."""

    def test_copies_enter_under_a_second_observation(self):
        m = zero_reward_model()  # in sorted order 0 -> 1 under (0,) and 0 -> 0 under (1,) come first
        assert m.step(0, (0,)) == (1, (0,), 0.0) and m.step(0, (1,)) == (0, (1,), 0.0)
        assert m.step(1, (0,)) == (2, (0,), 0.0)  # state 0 entered under (0,): copy 2
        assert m.step(1, (1,)) == (3, (1,), 0.0)  # state 1 entered under (1,): copy 3
        for a in ((0,), (1,)):
            assert m.step(2, a) == m.step(0, a) and m.step(3, a) == m.step(1, a)
        assert m.observe_batch([0, 1, 2, 3]).tolist() == [[1], [0], [0], [1]]

    def test_terminal_copy_loops_back_to_itself(self):
        # terminal state 2 is entered under (0,) from state 0 and under (1,) from state 1
        t = {(0, (0,)): (2, (0,), 1.0), (1, (0,)): (2, (1,), 2.0)}
        m = TabularModel(1, (1,), (2,), 0.9, t, SupportBelief.from_pairs([(0, 1), (1, 1)]), frozenset({2}))
        assert m.step(1, (0,)) == (3, (1,), 2.0) and m.is_terminal(3)
        assert m.step(2, (0,)) == (2, (0,), 0.0) and m.step(3, (0,)) == (3, (1,), 0.0)
        assert m.observe_batch([0, 2, 3]).tolist() == [[0], [0], [1]]  # state 0 is never entered
        assert m.reward_bounds() == (0.0, 2.0)

    # taken before the copies: (exact_value of the random policies of seeds 1, 2 and 3, each followed
    # by exact_belief_vi of every agent's best response to it; then exact_belief_vi of every agent's
    # initialization problem)
    PINNED = {
        "chain": (chain_model, [0.0, 473.04999999999995, 0.0, 473.04999999999995, 0.0, 473.04999999999995,
                                473.04999999999995]),
        "zero-reward": (zero_reward_model, [0.0] * 7),
        "action-obs": (action_obs_model, [
            3.7368421052631593, 8.912825907566999, 4.670040484122259, 8.048306069503491,
            0.34412955465587036, 5.438461531619618, 3.3076923065242405, 6.477732788784678,
            10.020242914979761, 10.020242909847015, 10.020242911612163, 10.020242911612163,
            19.269230762092572, 16.923076917236582, 20.12307691593873,
        ]),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_values_are_those_of_the_table(self, name):
        make, expected = self.PINNED[name]
        m = make()
        table = value_iteration(m)
        got = []  # (value, compared exactly)
        for seed in (1, 2, 3):
            policy = random_joint_policy(m, SplitMix64(seed))
            got.append((exact_value(m, policy), True))
            for agent in range(m.agent_count):
                br = build_br_detpomdp(m, policy, agent, table)
                got.append((exact_belief_vi(br, br.initial_belief()), False))
        for agent in range(m.agent_count):
            init = build_init_detpomdp(m, agent, default_policy(table))
            got.append((exact_belief_vi(init, init.initial_belief()), False))
        for (value, exact), pinned in zip(got, expected, strict=True):
            # exact_value walks the same trajectories; copies take new ids, so the
            # oracle's belief atoms sort, and their weights sum, in another order
            assert value == (pinned if exact else pytest.approx(pinned, abs=1e-12))
