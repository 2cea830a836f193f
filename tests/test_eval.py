import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from detdec import (
    CollectingSpec,
    Fsc,
    FscNode,
    JointPolicy,
    ResourceLimitError,
    SupportBelief,
    TabularModel,
    TransitionCache,
    collecting_generate,
    evaluate,
    exact_value,
    mc_value,
    mactp_generate,
    MactpSpec,
)
from detdec import evaluation
from detdec.evaluation import _bins, graph_values, trajectory_graph
from detdec.model import IdRows
from detdec.rng import SplitMix64, stream_seed

from helpers import chain_model, observation_pool, random_joint_policy, selfloop_model, tiny_mactp, trajectory_value

WAIT_POLICY_1 = JointPolicy([Fsc([FscNode(0)])])


# --- the scalar evaluators the lockstep array ones replaced: one atom, one step at a time


def _scalar_exact_value(model, policy):
    belief = model.initial_belief()
    cache = TransitionCache(model)
    controllers = policy.controllers

    def step_fn(point):
        state, nodes = point
        acts = tuple(c.nodes[n].action for c, n in zip(controllers, nodes))
        s2, obs, reward = cache.step(state, acts)
        nodes2 = tuple(c.advance(n, o) for c, n, o in zip(controllers, nodes, obs))
        return (s2, nodes2), reward

    memo: dict = {}
    total = 0.0
    for (state, _), weight in zip(belief.atoms, belief.float_weights):
        total += weight * trajectory_value(
            (state, policy.initial_nodes()), step_fn, lambda x: x,
            lambda point: model.is_terminal(point[0]), model.discount, memo,
        )
    return total


def _scalar_mc_value(model, policy, episodes, horizon, seed):
    belief = model.initial_belief()
    cum = np.cumsum(np.asarray(belief.float_weights))
    cum[-1] = 1.0
    idx = np.searchsorted(cum, np.random.default_rng(stream_seed(seed, "mc-eval")).random(episodes), side="right")
    cache = TransitionCache(model)
    returns = np.full(len(belief), np.nan)
    for i in np.unique(idx):
        state = belief.atoms[i][0]
        nodes = policy.initial_nodes()
        total, g = 0.0, 1.0
        for _ in range(horizon):
            if model.is_terminal(state):
                break
            acts = tuple(c.nodes[n].action for c, n in zip(policy.controllers, nodes))
            state, obs, reward = cache.step(state, acts)
            total += g * reward
            g *= model.discount
            nodes = tuple(c.advance(n, o) for c, n, o in zip(policy.controllers, nodes, obs))
        returns[i] = total
    samples = returns[idx]
    if np.all(samples == samples[0]):
        return float(samples[0]), 0.0
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(episodes))


def _far_key_fsc(model, agent, rng, nodes=4):
    """Random controller with fallbacks and keys at and above the agent's observation bound.

    Node ``k`` maps ``bound + o`` for observations ``o`` that node ``k + 1``
    maps elsewhere, so packing keys as ``node * bound + obs`` would alias
    them; one key lies beyond int64.
    """
    bound = model.observation_space_sizes[agent]
    pool = observation_pool(model, agent, rng)
    table = []
    for _ in range(nodes):
        table.append({pool[rng.randbelow(len(pool))]: rng.randbelow(nodes) for _ in range(3)})
    for k in range(nodes):
        for obs in table[(k + 1) % nodes]:
            table[k][bound + obs] = rng.randbelow(nodes)
        table[k][bound] = rng.randbelow(nodes)
    table[0][2**70] = 1 % nodes
    return Fsc(
        [FscNode(rng.randbelow(model.action_space_sizes[agent]), t, rng.randbelow(nodes)) for t in table],
        rng.randbelow(nodes),
    )


def _tabular_cases():
    terminal = TabularModel(
        1, (1,), (1,), 0.95,
        {(0, (0,)): (1, (0,), 0.0), (1, (0,)): (2, (0,), 0.0), (2, (0,)): (3, (0,), 500.0)},
        SupportBelief.point(0), frozenset({3}),
    )
    # period 3 with distinct rewards, entered at every phase and from a prefix state
    period = TabularModel(
        1, (1,), (3,), 0.5,
        {(0, (0,)): (1, (1,), 1.0), (1, (0,)): (2, (2,), 2.0), (2, (0,)): (0, (0,), 4.0),
         (3, (0,)): (1, (1,), 8.0)},
        SupportBelief.from_pairs([(0, 1), (1, 2), (2, 3), (3, 4)]),
    )
    return [
        (selfloop_model(gamma=0.9), WAIT_POLICY_1),
        (terminal, WAIT_POLICY_1),
        (period, JointPolicy([Fsc([FscNode(0, {1: 1}), FscNode(0, {0: 0}, 0)])])),
        (period, WAIT_POLICY_1),
        (chain_model(), JointPolicy([Fsc([FscNode(1, {1: 1}), FscNode(0, {}, 0)])])),
    ]


def _random_cases():
    rng = SplitMix64(77)
    cases = []
    for model in (
        mactp_generate(MactpSpec(3, 2, 4, seed=6)),
        tiny_mactp(agents=2),
        collecting_generate(CollectingSpec(3, 3, 2, 1, seed=5)),
    ):
        for _ in range(4):
            cases.append((model, random_joint_policy(model, rng, max_nodes=4)))
        cases.append((model, JointPolicy(_far_key_fsc(model, i, rng) for i in range(model.agent_count))))
    return cases


class TestAgainstScalarEvaluation:
    """The lockstep evaluators give the very floats of the scalar ones."""

    CASES = _tabular_cases() + _random_cases()

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_exact_value_is_identical(self, case):
        model, policy = self.CASES[case]
        assert exact_value(model, policy) == _scalar_exact_value(model, policy)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_mc_value_is_identical(self, case):
        model, policy = self.CASES[case]
        for horizon in (1, 7, 60):
            got = mc_value(model, policy, episodes=300, horizon=horizon, seed=case)
            assert got == _scalar_mc_value(model, policy, 300, horizon, case)

    def test_bins_match_binary_search(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 30, 4096):
            weights = rng.integers(1, 10, n).astype(float)
            cum = np.cumsum(weights / weights.sum())
            cum[-1] = 1.0
            draws = np.concatenate([rng.random(20_000), cum[:-1], np.arange(1024) / 1024, [np.nextafter(1.0, 0)]])
            assert (_bins(cum, draws) == np.searchsorted(cum, draws, side="right")).all()
        cum = np.array([1 / 8, 0.25, 0.25, 0.5, 1.0])  # entries on bucket edges, one repeated
        draws = np.arange(1024) / 1024
        assert (_bins(cum, draws) == np.searchsorted(cum, draws, side="right")).all()

    def test_out_of_range_action_names_agent_and_node(self):
        model = tiny_mactp(agents=2, probs=())
        policy = JointPolicy([Fsc([FscNode(4)]), Fsc([FscNode(0), FscNode(5)])])
        for evaluator in (exact_value, lambda m, p: mc_value(m, p, episodes=10)):
            with pytest.raises(ValueError, match="agent 1 node 1: action 5 outside"):
                evaluator(model, policy)

    def test_point_ids_beyond_int64_are_a_limit_error(self):
        state = 2**62
        model = TabularModel(1, (1,), (1,), 0.9, {(state, (0,)): (state, (0,), 1.0)}, SupportBelief.point(state))
        assert exact_value(model, WAIT_POLICY_1) == _scalar_exact_value(model, WAIT_POLICY_1)
        two_nodes = JointPolicy([Fsc([FscNode(0), FscNode(0)])])
        with pytest.raises(ResourceLimitError, match="int64"):
            exact_value(model, two_nodes)
        state = 2**64
        beyond = TabularModel(1, (1,), (1,), 0.9, {(state, (0,)): (state, (0,), 1.0)}, SupportBelief.point(state))
        for evaluator in (exact_value, lambda m, p: mc_value(m, p, episodes=10)):
            with pytest.raises(ResourceLimitError, match="int64"):
                evaluator(beyond, WAIT_POLICY_1)


# --- the graph functions against a dict-based builder and the scalar walk


def _relabeled(nxt: list[int], rng) -> list[int]:
    """The same functional graph with its points in a random order."""
    order = rng.permutation(len(nxt))  # point k becomes order[k]
    out = [-1] * len(nxt)
    for k, succ in enumerate(nxt):
        out[order[k]] = -1 if succ < 0 else int(order[succ])
    return out


def _graph(cycles, terminals, tails, chained, seed):
    """Successor rows (-1: terminal) of a functional graph, and a reward per point.

    ``cycles`` lists cycle lengths (1 is a self-loop); each tail point leads
    to an earlier point, with probability ``chained`` to the tail point just
    before, so tails grow long and share their ends.
    """
    rng = np.random.default_rng(seed)
    nxt: list[int] = []
    for length in cycles:
        start = len(nxt)
        nxt += [start + (k + 1) % length for k in range(length)]
    nxt += [-1] * terminals
    for k in range(len(nxt), len(nxt) + tails):
        nxt.append(k - 1 if rng.random() < chained else int(rng.integers(k)))
    return _relabeled(nxt, rng), rng.uniform(-10.0, 10.0, len(nxt)).tolist()


@st.composite
def _functional_graphs(draw):
    cycles = draw(st.lists(st.integers(1, 300), max_size=5))
    terminals = draw(st.integers(0 if cycles else 1, 5))
    return _graph(cycles, terminals, draw(st.integers(0, 600)), draw(st.floats(0.0, 1.0)),
                  draw(st.integers(0, 2**32 - 1)))


def _scalar_graph_values(nxt, rewards, gamma):
    memo: dict = {}
    return [
        trajectory_value(p, lambda q: (nxt[q], rewards[q]), lambda q: q, lambda q: nxt[q] < 0, gamma, memo)
        for p in range(len(nxt))
    ]


def _dict_graph(roots, succ, reward):
    """``trajectory_graph``'s rows, built with dicts: frontier by frontier, each frontier by id."""
    row = {p: k for k, p in enumerate(roots)}
    order = list(roots)
    frontier = list(roots)
    while frontier:
        frontier = sorted({succ[p] for p in frontier if p in succ} - row.keys())
        for p in frontier:
            row[p] = len(order)
            order.append(p)
    return [row[succ[p]] if p in succ else -1 for p in order], [reward.get(p, 0.0) for p in order]


def _id_step(ids, nxt, rewards):
    """(step callback, successor dict, reward dict) of a graph whose point ``k`` has id ``ids[k]``."""
    succ = {ids[k]: ids[q] for k, q in enumerate(nxt) if q >= 0}
    reward = {ids[k]: rewards[k] for k, q in enumerate(nxt) if q >= 0}

    def step(points):
        live = np.array([p in succ for p in points.tolist()], dtype=bool)
        alive = points[live].tolist()
        return live, np.array([succ[p] for p in alive], dtype=np.int64), np.array([reward[p] for p in alive])

    return step, succ, reward


def _many_roots_one_chain():
    """1,000 roots that all lead into one 300-point chain, whose last point leads back to its 10th.

    The chain's points arrive one per frontier, so the index's recent run
    fills and is merged into the large run twice along the chain, and the
    last lookup hits the large run.
    """
    roots, chain = 1000, 300
    nxt = [roots] * roots + [roots + k + 1 for k in range(chain - 1)] + [roots + 10]
    return nxt, [float(k % 7) for k in range(roots + chain)]


class TestGraphFunctions:
    """``graph_values`` gives the scalar walk's floats; ``trajectory_graph`` the dict builder's rows."""

    @settings(max_examples=60, deadline=None)
    @given(_functional_graphs(), st.sampled_from([0.5, 0.9, 0.95, 0.999]))
    @example(([0], [1.5]), 0.95)  # a self-loop
    @example(([-1], [1.5]), 0.95)  # a terminal point
    @example(_graph([300], 0, 0, 0.0, 1), 0.9)  # one long cycle, entered at every point
    @example(_graph([1, 2, 3, 250], 2, 600, 0.98, 2), 0.999)  # long shared tails
    @example(_graph([1, 2, 63, 64, 65, 129], 1, 50, 0.5, 3), 0.95)  # lengths beside powers of two: doubling rounds
    def test_graph_values_equal_the_scalar_walk(self, graph, gamma):
        nxt, rewards = graph
        values = graph_values(np.array(nxt, dtype=np.int64), np.array(rewards), gamma)
        assert values.tolist() == _scalar_graph_values(nxt, rewards, gamma)

    @settings(max_examples=60, deadline=None)
    @given(_functional_graphs(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @example(_many_roots_one_chain(), 0, 1.0)  # roots: the first 1,000 points
    def test_trajectory_graph_equals_the_dict_builder(self, graph, seed, root_share):
        nxt, rewards = graph
        rng = np.random.default_rng(seed)
        ids = rng.choice(2**62, size=len(nxt), replace=False).tolist()  # sparse, in no order
        roots = sorted(ids[k] for k in range(len(nxt)) if k < 1000 and rng.random() <= root_share) or [ids[0]]
        step, succ, reward = _id_step(ids, nxt, rewards)
        rows, row_rewards = trajectory_graph(np.array(roots, dtype=np.int64), step)
        expected_rows, expected_rewards = _dict_graph(roots, succ, reward)
        assert rows.tolist() == expected_rows
        assert row_rewards.tolist() == expected_rewards

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3000), max_size=60), min_size=1, max_size=80),
           st.integers(1, 400), st.sampled_from([np.int64, np.int32]))
    @example([[2 * k + 1, 2 * k, 5] for k in range(300)], 1000, np.int64)  # one new id a batch: the recent run fills
    @example([[7, 3, 7, 1, 3], [3, 9, 9, 0], []], 2, np.int32)  # unsorted, repeated within a batch, empty
    def test_id_rows_number_ids_in_order_of_addition(self, batches, roots, dtype):
        index = IdRows(np.arange(0, 2 * roots, 2, dtype=np.int64), dtype)
        row = {2 * k: k for k in range(roots)}
        for batch in batches:
            new, rows = index.add(np.array(batch, dtype=np.int64))
            assert new.tolist() == sorted(set(batch) - row.keys())
            row.update({p: k for k, p in enumerate(new.tolist(), start=len(row))})
            assert rows.dtype == dtype and rows.tolist() == [row[p] for p in batch]
            assert 8 * index._recent[0].size <= index._large[0].size  # merged once past an eighth
        ids, rows = index.merged()
        assert ids.tolist() == sorted(row) and rows.tolist() == [row[p] for p in sorted(row)]
        assert index.size == len(row)

    def test_id_rows_look_up_both_runs(self):
        index = IdRows(np.arange(0, 2000, 2, dtype=np.int64))
        recent = []
        for k in range(300):
            # a new id, a large-run id, the first added id and the last one (in the recent run till merged)
            new, rows = index.add(np.array([2 * k + 1, 2 * k, 1, 2 * k - 1 if k else 1], dtype=np.int64))
            recent.append(index._recent[0].size)
            assert new.tolist() == [2 * k + 1]
            assert rows.tolist() == [1000 + k, k, 1000, 1000 + max(k - 1, 0)]
        assert recent[:126] == [*range(1, 126), 0]  # merged once past an eighth of 1,000
        assert recent.count(0) == 2 and recent[-1] > 0


class TestExactValueMemory:
    def test_traced_peak_per_graph_point(self, monkeypatch):
        """One ``exact_value`` call's traced peak stays under 90 bytes per graph point.

        On this instance (22,912 points) it is about 59 bytes per point; it
        was about 128 when every frontier copied all known point ids with
        ``np.insert`` and cycles were found through Python lists and sets.
        """
        model = mactp_generate(MactpSpec(4, 2, 10, seed=0))
        policy = random_joint_policy(model, SplitMix64(0), max_nodes=64)
        points = []
        values = evaluation.graph_values
        monkeypatch.setattr(evaluation, "graph_values", lambda nxt, *args: points.append(nxt.size) or values(nxt, *args))
        exact_value(model, policy)  # allocations of a first call only (caches) are not the evaluator's
        tracemalloc.start()
        try:
            exact_value(model, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points[-1] > 20_000
        assert peak / points[-1] < 90


class TestExactValue:
    def test_unit_reward_selfloop_geometric(self):
        m = selfloop_model(reward=1.0, gamma=0.95)
        assert exact_value(m, WAIT_POLICY_1) == pytest.approx(20.0, abs=1e-12)

    def test_terminal_after_three_steps(self):
        # rewards (0, 0, 500) then absorbing: value = 500 * 0.95^2
        t = {
            (0, (0,)): (1, (0,), 0.0),
            (1, (0,)): (2, (0,), 0.0),
            (2, (0,)): (3, (0,), 500.0),
        }
        m = TabularModel(1, (1,), (1,), 0.95, t, SupportBelief.point(0), frozenset({3}))
        assert exact_value(m, WAIT_POLICY_1) == pytest.approx(500.0 * 0.95**2, abs=1e-12)

    def test_singleton_belief_equals_single_trajectory(self):
        m = chain_model()
        right = JointPolicy([Fsc([FscNode(1)])])
        # two moves at -1, second one also +500: -1 + gamma * 499
        assert exact_value(m, right) == pytest.approx(-1.0 + 0.95 * 499.0, abs=1e-12)

    def test_cycle_detection_on_longer_period(self):
        # period-2 cycle with rewards 2, 3
        t = {
            (0, (0,)): (1, (0,), 2.0),
            (1, (0,)): (0, (1,), 3.0),
        }
        m = TabularModel(1, (1,), (2,), 0.5, t, SupportBelief.point(0))
        expected = (2.0 + 0.5 * 3.0) / (1 - 0.25)
        assert exact_value(m, WAIT_POLICY_1) == pytest.approx(expected, abs=1e-12)

    def test_weighted_over_support(self):
        m = tiny_mactp(probs=())
        wait = JointPolicy([Fsc([FscNode(4)])])
        assert exact_value(m, wait) == 0.0

    def test_agent_count_mismatch(self):
        with pytest.raises(ValueError, match="controllers"):
            exact_value(tiny_mactp(agents=2, probs=()), WAIT_POLICY_1)


class TestMcValue:
    def test_singleton_zero_std_error(self):
        m = chain_model()
        right = JointPolicy([Fsc([FscNode(1)])])
        mean, se = mc_value(m, right, episodes=500, horizon=50, seed=3)
        assert se == 0.0
        assert mean == pytest.approx(exact_value(m, right), abs=1e-9)

    def test_single_episode_flagged_degenerate(self):
        m = chain_model()
        with pytest.warns(UserWarning, match="single episode"):
            mean, se = mc_value(m, WAIT_POLICY_1.replace(0, Fsc([FscNode(2)])), episodes=1)
        assert se == 0.0
        report = evaluate(m, WAIT_POLICY_1.replace(0, Fsc([FscNode(2)])), episodes=1)
        assert report.degenerate

    def test_seed_determinism(self):
        m = mactp_generate(MactpSpec(3, 2, 4, seed=6))
        pol = random_joint_policy(m, SplitMix64(1))
        a = mc_value(m, pol, episodes=2000, horizon=60, seed=11)
        b = mc_value(m, pol, episodes=2000, horizon=60, seed=11)
        c = mc_value(m, pol, episodes=2000, horizon=60, seed=12)
        assert a == b
        assert a != c

    def test_validation(self):
        m = chain_model()
        with pytest.raises(ValueError):
            mc_value(m, WAIT_POLICY_1.replace(0, Fsc([FscNode(2)])), episodes=0)
        with pytest.raises(ValueError):
            mc_value(m, WAIT_POLICY_1.replace(0, Fsc([FscNode(2)])), episodes=5, horizon=0)

    def test_agreement_with_exact_within_bounds(self):
        m = mactp_generate(MactpSpec(3, 2, 4, seed=6))
        rng = SplitMix64(42)
        gamma = m.discount
        rmax = max(abs(b) for b in m.reward_bounds())
        trunc = gamma**100 * rmax / (1 - gamma)
        hits = 0
        for k in range(5):
            pol = random_joint_policy(m, rng)
            ev = exact_value(m, pol)
            mean, se = mc_value(m, pol, episodes=20_000, horizon=100, seed=k)
            if abs(mean - ev) <= 3 * se + trunc:
                hits += 1
        assert hits >= 4


class TestEvaluate:
    def test_report_fields(self):
        m = chain_model()
        pol = JointPolicy([Fsc([FscNode(1)])])
        report = evaluate(m, pol, exact=True, episodes=100, horizon=30, seed=2)
        assert report.exact_value is not None
        assert report.mc_mean is not None and report.mc_std_error is not None
        assert report.episodes == 100 and report.horizon == 30 and report.seed == 2
        assert not report.degenerate
        d = report.to_dict()
        assert set(d) == {
            "exact_value", "mc_mean", "mc_std_error", "episodes", "horizon", "seed", "degenerate",
        }

    def test_exact_only(self):
        m = chain_model()
        report = evaluate(m, JointPolicy([Fsc([FscNode(1)])]), exact=True, episodes=0)
        assert report.mc_mean is None
