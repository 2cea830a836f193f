import gc
import hashlib
from fractions import Fraction

import pytest

from detdec import (
    Fsc,
    FscNode,
    ResourceLimitError,
    SupportBelief,
    TabularModel,
    belief_successors,
    build_br_detpomdp,
    build_init_detpomdp,
    collecting_generate,
    CollectingSpec,
    default_policy,
    exact_belief_vi,
    exact_value,
    JointPolicy,
    mactp_generate,
    MactpSpec,
    solve,
    SolveParams,
    upper_bound,
    value_iteration,
)
from detdec.bestresponse import BrDetPomdp
from detdec import detpomdp
from detdec.detpomdp import _Node, _Search, best_fixed_actions
from detdec.rng import SplitMix64, stream_seed

import numpy as np

from helpers import (
    action_obs_model,
    br_problem,
    fsc_value_in,
    observation_pool,
    random_fsc,
    random_joint_policy,
    selfloop_model,
    tiny_mactp,
    trajectory_value,
    zero_reward_model,
)


def _init_problem(model):
    table = value_iteration(model)
    pi = default_policy(table)
    return build_init_detpomdp(model, 0, pi)


def _zero_reward_problem():
    return _init_problem(zero_reward_model())


class TestBeliefSuccessors:
    def test_observations_split_the_support(self):
        # two-state single-agent model where the first step reveals the arm
        t = {
            (0, (0,)): (2, (0,), 1.0),
            (1, (0,)): (3, (1,), 2.0),
            (2, (0,)): (2, (0,), 0.0),
            (3, (0,)): (3, (1,), 0.0),
        }
        m = TabularModel(1, (1,), (2,), 0.9, t, SupportBelief.from_pairs([(0, 1), (1, 1)]))
        prob = _init_problem(m)
        b0 = prob.initial_belief()
        succ = belief_successors(b0, 0, prob)
        assert len(succ) == 2
        for obs, p, post, _ in succ:
            assert p == pytest.approx(0.5)
            assert len(post) == 1
        assert [s[0] for s in succ] == sorted(s[0] for s in succ)

    def test_shared_observation_keeps_support(self):
        t = {
            (0, (0,)): (2, (0,), 0.0),
            (1, (0,)): (3, (0,), 0.0),
            (2, (0,)): (2, (0,), 0.0),
            (3, (0,)): (3, (0,), 0.0),
        }
        m = TabularModel(1, (1,), (1,), 0.9, t, SupportBelief.from_pairs([(0, 1), (1, 1)]))
        prob = _init_problem(m)
        succ = belief_successors(prob.initial_belief(), 0, prob)
        assert len(succ) == 1
        obs, p, post, _ = succ[0]
        assert p == pytest.approx(1.0)
        assert len(post) == 2

    def test_atom_merge_shrinks_support(self):
        # both states map to the same successor and observation
        t = {
            (0, (0,)): (2, (0,), 0.0),
            (1, (0,)): (2, (0,), 0.0),
            (2, (0,)): (2, (0,), 0.0),
        }
        m = TabularModel(1, (1,), (1,), 0.9, t, SupportBelief.from_pairs([(0, 1), (1, 1)]))
        prob = _init_problem(m)
        succ = belief_successors(prob.initial_belief(), 0, prob)
        assert len(succ) == 1
        assert len(succ[0][2]) == 1
        assert succ[0][2].weights == (Fraction(1),)

    def test_partition_and_image_property(self):
        m = mactp_generate(MactpSpec(3, 2, 4, seed=31))
        policy = random_joint_policy(m, SplitMix64(7))
        prob = br_problem(m, policy, 0)
        rng = SplitMix64(15)
        beliefs = [prob.initial_belief()]
        for _ in range(120):
            b = beliefs[rng.randbelow(len(beliefs))]
            a = rng.randbelow(prob.action_count)
            succ = belief_successors(b, a, prob)
            assert abs(sum(p for _, p, _, _ in succ) - 1.0) <= 1e-9
            # exact image check: stepping each atom individually yields the same
            # weighted multiset the grouped posteriors encode
            expected: dict[tuple[int, int], Fraction] = {}
            for eid, w in zip(b.states, b.weights):
                e2, obs, _ = prob.step(eid, a)
                expected[(obs, e2)] = expected.get((obs, e2), Fraction(0)) + w
            got: dict[tuple[int, int], Fraction] = {}
            for obs, _, post, _ in succ:
                branch_weight = sum(expected[(obs, e)] for e in post.states)
                for e, w in zip(post.states, post.weights):
                    got[(obs, e)] = got.get((obs, e), Fraction(0)) + w * branch_weight
            assert got == expected
            # support monotonicity along every branch
            for _, _, post, _ in succ:
                assert len(post) <= len(b)
                beliefs.append(post)

    def test_equal_distributions_share_one_node(self):
        # parents of totals 2 and 4 both filter to the uniform belief over {20, 21}
        t = {(s, (0,)): (s + 10, (int(s >= 2),), 0.0) for s in range(5)}
        t.update({(s, (0,)): (20 + int(s in (11, 14)), (0,), 0.0) for s in range(10, 15)})
        t.update({(20, (0,)): (20, (0,), 1.0), (21, (0,)): (21, (0,), 0.0)})
        prob = _init_problem(
            TabularModel(1, (1,), (2,), 0.9, t, SupportBelief(((0, 1), (1, 1), (2, 1), (3, 1), (4, 2))))
        )
        b0 = prob.initial_belief()
        (_, _, p1, _), (_, _, p2, _) = belief_successors(b0, 0, prob)
        assert (p1.total, p2.total) == (2, 4)
        [(_, _, q1, _)] = belief_successors(p1, 0, prob)
        [(_, _, q2, _)] = belief_successors(p2, 0, prob)
        assert q1 == q2 and hash(q1) == hash(q2)
        assert q1.atoms == q2.atoms and q1.total == 2
        search = _Search(prob, b0, SolveParams(epsilon=1e-3))
        search.run()
        [(_, [(_, _, c1)])] = search.nodes[p1.atoms].acts
        [(_, [(_, _, c2)])] = search.nodes[p2.atoms].acts
        assert c1 is c2 is search.nodes[q1.atoms]


class TestBounds:
    def test_singleton_upper_equals_mdp_value(self):
        m = tiny_mactp(agents=1, probs=())
        prob = _init_problem(m)
        b0 = prob.initial_belief()
        assert len(b0) == 1
        eid = b0.states[0]
        assert upper_bound(b0, prob) == pytest.approx(
            prob.value_table.values[prob.ext(eid).row]
        )

    def test_lower_below_upper(self):
        m = mactp_generate(MactpSpec(2, 2, 2, seed=3))
        prob = _init_problem(m)
        b0 = prob.initial_belief()
        assert best_fixed_actions([b0], prob)[0][0] <= upper_bound(b0, prob) + 1e-9

    def test_zero_reward_model_bounds_zero(self):
        prob = _zero_reward_problem()
        b0 = prob.initial_belief()
        assert upper_bound(b0, prob) == 0.0
        assert best_fixed_actions([b0], prob)[0][0] == 0.0

    def test_root_upper_bound_covers_value_iteration_error(self):
        # one state earning 1 per step at gamma 0.9; value iteration stops
        # short of the fixed point, at its residual
        model = selfloop_model(reward=1.0, gamma=0.9)
        prob = _init_problem(model)
        exact = exact_value(model, JointPolicy([Fsc([FscNode(0)])]))
        assert exact == 10.000000000000002 and prob.value_table.values[prob.value_table.rows([0])[0]] < exact
        search = _Search(prob, prob.initial_belief(), SolveParams())
        assert search.root.ub >= exact

    def test_best_fixed_action_is_achievable(self):
        m = tiny_mactp(agents=1, probs=(Fraction(1, 2),))
        prob = _init_problem(m)
        b0 = prob.initial_belief()
        value, action = best_fixed_actions([b0], prob)[0]
        fsc = Fsc([FscNode(action)])
        assert fsc_value_in(prob, fsc, b0) == pytest.approx(value, abs=1e-12)


def _oracle_fsc_value(m, fsc, belief, node, rows=None):
    """``fsc_value_in`` by the scalar oracle: one ``BrDetPomdp.step`` at a time.

    ``rows``, if given, collects the table row of every point visited.
    """

    def step_fn(point):
        eid, n = point
        e2, obs, reward = m.step(eid, fsc.nodes[n].action)
        return (e2, fsc.advance(n, obs)), reward

    def key_fn(point):
        ext = m.ext(point[0])
        if rows is not None:
            rows.add(ext.row)
        return (ext.row, ext.other_nodes, point[1])

    def terminal_fn(point):
        return m.is_terminal(point[0])

    memo: dict = {}
    total = 0.0
    for (eid, _), fw in zip(belief.atoms, belief.float_weights):
        total += fw * trajectory_value((eid, node), step_fn, key_fn, terminal_fn, m.discount, memo)
    return total


def _oracle_best_fixed_action(m, belief):
    best_v, best_a = -float("inf"), 0
    for a in range(m.action_count):
        v = _oracle_fsc_value(m, Fsc([FscNode(a)]), belief, 0)
        if v > best_v:
            best_v, best_a = v, a
    return best_v, best_a


def _sized_fsc(model, agent, rng, size):
    """A random ``size``-node controller mapping every observation a short walk meets."""
    pool = observation_pool(model, agent, rng)
    actions = model.action_space_sizes[agent]
    return Fsc([
        FscNode(rng.randbelow(actions), {obs: rng.randbelow(size) for obs in pool}, rng.randbelow(size))
        for _ in range(size)
    ])


class TestSearchEvaluator:
    """``fsc_value_in`` and ``best_fixed_actions`` value trajectory graphs; the scalar walk must agree to the bit."""

    MODELS = {
        "mactp": lambda: mactp_generate(MactpSpec(3, 2, 4, seed=3)),
        "collecting": lambda: collecting_generate(CollectingSpec(3, 3, 2, 1, seed=3)),
        "action-obs": action_obs_model,
    }

    @pytest.mark.parametrize("kind", ["init", "br"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_values_equal_the_scalar_oracle(self, name, kind):
        model = self.MODELS[name]()
        table = value_iteration(model)
        rng = SplitMix64(23)
        checked = 0
        for agent in range(model.agent_count):
            if kind == "init":
                prob = build_init_detpomdp(model, agent, default_policy(table))
            else:
                prob = build_br_detpomdp(model, random_joint_policy(model, rng, max_nodes=4), agent, table)
            b0 = prob.initial_belief()
            beliefs = [b0] + [
                post for a in range(prob.action_count) for _, _, post, _ in belief_successors(b0, a, prob)
            ]
            fsc = random_fsc(model, agent, rng, max_nodes=5)
            for belief in beliefs:
                assert best_fixed_actions([belief], prob)[0] == _oracle_best_fixed_action(prob, belief)
                for node in range(len(fsc.nodes)):
                    assert fsc_value_in(prob, fsc, belief, node) == _oracle_fsc_value(prob, fsc, belief, node)
                    checked += 1
        assert checked >= 20

    def test_point_ids_past_int32(self):
        # two 256-node controllers on 60,488 table rows: a point id is row * 65,536 + node code,
        # past 2**31 for the rows above 32,767, so rows must be widened before they are packed
        model = mactp_generate(MactpSpec(4, 2, 8, seed=0))
        rng = SplitMix64(3)
        policy = JointPolicy([_sized_fsc(model, agent, rng, 256) for agent in range(2)])
        prob = build_br_detpomdp(model, policy, 0, value_iteration(model))
        b0 = prob.initial_belief()
        fsc = policy.controllers[0]
        rows: set[int] = set()
        expected = _oracle_fsc_value(prob, fsc, b0, fsc.initial_node, rows)
        assert max(rows) * 256 * 256 >= 2**31
        assert fsc_value_in(prob, fsc, b0) == expected
        assert expected == exact_value(model, policy)

    def test_node_outside_the_controller_is_named(self):
        # a node past the controller would pack into the next digit of the point id
        prob = _init_problem(tiny_mactp(agents=1, probs=()))
        fsc = Fsc([FscNode(0), FscNode(1)])
        for node in (2, -1):
            with pytest.raises(ValueError, match=f"node index {node} outside"):
                fsc_value_in(prob, fsc, prob.initial_belief(), node)

    def test_no_scalar_step(self, monkeypatch):
        model = mactp_generate(MactpSpec(3, 2, 4, seed=3))
        table = value_iteration(model)
        policy = random_joint_policy(model, SplitMix64(7))
        for prob in (build_br_detpomdp(model, policy, 1, table), build_init_detpomdp(model, 0, default_policy(table))):
            b0 = prob.initial_belief()
            fsc = random_fsc(model, prob.agent, SplitMix64(8))
            with monkeypatch.context() as patch:
                patch.setattr(BrDetPomdp, "step", lambda *args: pytest.fail("stepped one state at a time"))
                value = fsc_value_in(prob, fsc, b0)
                best = best_fixed_actions([b0], prob)[0]
                assert solve(prob, b0, SolveParams(node_budget=200)).expansions > 1  # every expansion is batched
            assert prob.interned_count == len(prob.cache) == 0
            assert value == _oracle_fsc_value(prob, fsc, b0, fsc.initial_node)
            assert best == _oracle_best_fixed_action(prob, b0)


class TestBatchedCaps:
    """An extraction values all its open frontier caps in one graph."""

    @pytest.mark.parametrize("name", sorted(TestSearchEvaluator.MODELS))
    def test_one_graph_equals_the_scalar_oracle(self, name):
        model = TestSearchEvaluator.MODELS[name]()
        table = value_iteration(model)
        rng = SplitMix64(31)
        for agent in range(model.agent_count):
            prob = build_br_detpomdp(model, random_joint_policy(model, rng, max_nodes=4), agent, table)
            b0 = prob.initial_belief()
            beliefs = [b0] + [
                post for a in range(prob.action_count) for _, _, post, _ in belief_successors(b0, a, prob)
            ]
            assert best_fixed_actions(beliefs, prob) == [_oracle_best_fixed_action(prob, b) for b in beliefs]
        assert best_fixed_actions([], prob) == []

    # solves that stop on their node budget with open caps; digests (as in
    # TestPinnedSolve) taken when each cap was valued in a graph of its own,
    # the mactp one re-pinned when packed extended-state ids reordered atoms
    CASES = {
        "mactp-3-2-5-br-300": (
            lambda: _br_problem(mactp_generate(MactpSpec(3, 2, 5, seed=8)), 8, 0), 300,
            "cc8797b385b7404ba4407bd4f415f4219ef13bfed08f6ecaa78b5ee4e36bad10",
        ),
        "collecting-3x3-a2-b1-br-30": (
            lambda: _br_problem(collecting_generate(CollectingSpec(3, 3, 2, 1, 5)), 5, 1), 30,
            "a3415ff47decad97670a1cf16837c0a0c4d64ca91a1aef24e289dba7f9b05176",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_result_digest(self, case, monkeypatch):
        make, budget, expected = self.CASES[case]
        prob = make()
        batches = []
        real = detpomdp.best_fixed_actions
        monkeypatch.setattr(detpomdp, "best_fixed_actions", lambda beliefs, m: batches.append(len(beliefs)) or real(beliefs, m))
        res = solve(prob, prob.initial_belief(), SolveParams(epsilon=1e-3, node_budget=budget))
        assert res.status == "node_budget" and max(batches) > 1
        fields = (
            res.lower_bound, res.upper_bound, res.converged, res.status, res.expansions, res.trials,
            res.trace, res.fsc.initial_node,
            [(n.action, sorted(n.transitions.items()), n.fallback) for n in res.fsc.nodes],
        )
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == expected


class TestExactBeliefVi:
    def test_singleton_equals_mdp_value(self):
        m = tiny_mactp(agents=1, probs=())
        prob = _init_problem(m)
        b0 = prob.initial_belief()
        v = exact_belief_vi(prob, b0, tol=1e-10)
        assert v == pytest.approx(prob.value_table.values[prob.ext(b0.states[0]).row], abs=1e-6)

    def test_symmetric_two_atoms_equal_single(self):
        # two states with identical dynamics and rewards, indistinguishable
        t = {
            (0, (0,)): (0, (0,), 1.0),
            (1, (0,)): (1, (0,), 1.0),
        }
        m = TabularModel(1, (1,), (1,), 0.95, t, SupportBelief.from_pairs([(0, 1), (1, 1)]))
        prob = _init_problem(m)
        v2 = exact_belief_vi(prob, prob.initial_belief(), tol=1e-10)
        m1 = TabularModel(1, (1,), (1,), 0.95, t, SupportBelief.point(0))
        prob1 = _init_problem(m1)
        v1 = exact_belief_vi(prob1, prob1.initial_belief(), tol=1e-10)
        assert v2 == pytest.approx(v1, abs=1e-7)

    def test_cap(self):
        m = mactp_generate(MactpSpec(3, 2, 4, seed=31))
        prob = _init_problem(m)
        with pytest.raises(ResourceLimitError, match="cap=5"):
            exact_belief_vi(prob, prob.initial_belief(), cap=5)

    @pytest.mark.parametrize("name, value", [
        ("tol", float("nan")), ("cap", float("nan")), ("cap", 0), ("cap", True),
    ])
    def test_bad_setting_is_named(self, name, value):
        prob = _init_problem(tiny_mactp(agents=1, probs=()))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            exact_belief_vi(prob, prob.initial_belief(), **{name: value})


class TestSolve:
    def test_singleton_matches_mdp_optimum(self):
        m = tiny_mactp(agents=1, probs=())
        prob = _init_problem(m)
        b0 = prob.initial_belief()
        res = solve(prob, b0, SolveParams(epsilon=1e-4))
        target = prob.value_table.values[prob.ext(b0.states[0]).row]
        assert res.converged
        assert res.lower_bound == pytest.approx(target, abs=1e-4 + 1e-6)

    @pytest.mark.parametrize("bad", [float("nan"), -float("inf")])
    def test_non_finite_root_value_is_an_error(self, monkeypatch, bad):
        prob = _init_problem(tiny_mactp(agents=1, probs=()))
        monkeypatch.setattr("detdec.detpomdp.fsc_values", lambda m, fsc, roots: np.full(len(roots), bad))
        with pytest.raises(FloatingPointError, match=f"non-finite root value {bad!r}"):
            solve(prob, prob.initial_belief(), SolveParams(epsilon=1e-4))

    def test_zero_reward_trivial(self):
        prob = _zero_reward_problem()
        res = solve(prob, prob.initial_belief(), SolveParams(epsilon=1e-6))
        assert res.converged
        assert res.lower_bound == 0.0 and res.upper_bound == 0.0
        assert res.fsc.size == 1

    def test_disambiguating_action_matches_oracle(self):
        # waiting reveals nothing; acting reveals the arm and distinct goals follow
        m = tiny_mactp(agents=1, probs=(Fraction(1, 2), Fraction(1, 2)))
        prob = _init_problem(m)
        b0 = prob.initial_belief()
        oracle = exact_belief_vi(prob, b0, tol=1e-10)
        res = solve(prob, b0, SolveParams(epsilon=1e-3))
        assert res.converged
        assert abs(oracle - res.lower_bound) <= 1e-3

    def test_certified_bound_is_the_fsc_value(self):
        m = mactp_generate(MactpSpec(2, 2, 3, seed=23))
        table = value_iteration(m)
        policy = random_joint_policy(m, SplitMix64(5))
        prob = build_br_detpomdp(m, policy, 1, value_table=table)
        b0 = prob.initial_belief()
        res = solve(prob, b0, SolveParams(epsilon=1e-3))
        # independent recomputation by long truncated rollouts
        gamma = prob.discount
        horizon = 900
        total = 0.0
        for (eid, _), fw in zip(b0.atoms, b0.float_weights):
            e, n = eid, res.fsc.initial_node
            g = 1.0
            acc = 0.0
            for _ in range(horizon):
                if prob.is_terminal(e):
                    break
                node = res.fsc.nodes[n]
                e, obs, r = prob.step(e, node.action)
                acc += g * r
                g *= gamma
                n = node.transitions.get(obs, node.fallback)
            total += fw * acc
        rmax = max(abs(x) for x in prob.reward_bounds())
        assert abs(total - res.lower_bound) <= gamma**horizon * rmax / (1 - gamma) + 1e-9

    def test_budget_exhausted_still_certified(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=29))
        prob = _init_problem(m)
        b0 = prob.initial_belief()
        res = solve(prob, b0, SolveParams(epsilon=1e-6, node_budget=3))
        assert res.status == "node_budget"
        assert not res.converged
        assert res.expansions <= 3
        oracle_like = solve(prob, b0, SolveParams(epsilon=1e-3, node_budget=50_000))
        assert res.lower_bound <= oracle_like.upper_bound + 1e-9
        assert fsc_value_in(prob, res.fsc, b0) == pytest.approx(res.lower_bound, abs=1e-9)

    def test_anytime_root_lower_bound_monotone(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=29))
        prob = _init_problem(m)
        res = solve(prob, prob.initial_belief(), SolveParams(epsilon=1e-3, node_budget=2000))
        lowers = [row[1] for row in res.trace]
        assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))

    def test_bound_soundness_against_oracle(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=29))
        prob = _init_problem(m)
        b0 = prob.initial_belief()
        params = SolveParams(epsilon=1e-3, node_budget=500)
        search = _Search(prob, b0, params)
        search.run()
        checked = 0
        for node in search.nodes.values():
            if node.acts is None or checked >= 12:
                continue
            v_star = exact_belief_vi(prob, node.belief, tol=1e-10)
            assert node.lb <= v_star + 1e-6
            assert node.ub >= v_star - 1e-6
            checked += 1
        assert checked >= 3

    def test_executability_and_empirical_value(self):
        m = mactp_generate(MactpSpec(3, 2, 4, seed=37))
        prob = _init_problem(m)
        b0 = prob.initial_belief()
        res = solve(prob, b0, SolveParams(epsilon=1e-3, node_budget=4000))
        fsc = res.fsc
        rng = np.random.default_rng(stream_seed(3, "executability"))
        cum = np.cumsum(b0.float_weights)
        gamma = prob.discount
        horizon = 400
        values = []
        for _ in range(10_000):
            i = int(np.searchsorted(cum, rng.random(), side="right"))
            e, n = b0.atoms[min(i, len(b0) - 1)][0], fsc.initial_node
            g, acc = 1.0, 0.0
            for _ in range(horizon):
                if prob.is_terminal(e):
                    break
                a = fsc.act(n)
                e, obs, r = prob.step(e, a)
                acc += g * r
                g *= gamma
                n = fsc.advance(n, obs)  # total via fallback: never undefined
                assert 0 <= n < fsc.size
            values.append(acc)
        values = np.asarray(values)
        se = values.std(ddof=1) / np.sqrt(len(values))
        rmax = max(abs(x) for x in prob.reward_bounds())
        trunc = gamma**horizon * rmax / (1 - gamma)
        assert values.mean() >= res.lower_bound - 3 * se - trunc - 1e-6


class TestTrial:
    def test_self_loop_backed_up_once(self, monkeypatch):
        # nearly every belief of this problem loops on itself under some action
        prob = _init_problem(mactp_generate(MactpSpec(3, 2, 5, seed=29)))
        backup, trial = _Search._backup, _Search._trial
        per_trial: list[list[_Node]] = []
        in_trial = [False]

        def recording_trial(search):
            per_trial.append([])
            in_trial[0] = True
            try:
                trial(search)
            finally:
                in_trial[0] = False

        def recording_backup(search, node):
            if in_trial[0]:
                per_trial[-1].append(node)
            return backup(search, node)

        monkeypatch.setattr(_Search, "_trial", recording_trial)
        monkeypatch.setattr(_Search, "_backup", recording_backup)
        solve(prob, prob.initial_belief(), SolveParams(epsilon=1e-3, node_budget=2000))
        assert sum(map(len, per_trial)) > len(per_trial) > 1
        for path in per_trial:
            assert all(a is not b for a, b in zip(path, path[1:]))


class TestSolveParamsValidation:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            SolveParams(epsilon=0)

    def test_budgets_positive(self):
        with pytest.raises(ValueError):
            SolveParams(node_budget=0)
        with pytest.raises(ValueError):
            SolveParams(time_budget=0.0)
        with pytest.raises(ValueError):
            SolveParams(max_depth=0)

    @pytest.mark.parametrize("name, value", [
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
        ("epsilon", -1.0),
        ("time_budget", float("nan")),
        ("time_budget", float("inf")),
        ("node_budget", True),
        ("node_budget", 2.5),
        ("max_depth", True),
    ])
    def test_bad_value_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SolveParams(**{name: value})


def _br_problem(model, policy_seed: int, agent: int):
    policy = random_joint_policy(model, SplitMix64(policy_seed))
    return build_br_detpomdp(model, policy, agent, value_table=value_iteration(model))


# (problem, node budget); each search graph has a cycle through two or more nodes
_SWEEP_CASES = {
    # extraction raises lower bounds of nodes whose parents lie off the controller
    "mactp-init": lambda: (_init_problem(mactp_generate(MactpSpec(3, 2, 3, seed=3))), 2000),
    "mactp-br-node-budget": lambda: (_br_problem(mactp_generate(MactpSpec(3, 2, 5, seed=8)), 8, 0), 300),
    "collecting-br": lambda: (_br_problem(collecting_generate(CollectingSpec(3, 3, 2, 1, 5)), 5, 1), 2000),
    "tiny-loops": lambda: (_init_problem(tiny_mactp(agents=1, probs=(Fraction(1, 2), Fraction(1, 2)))), 2000),
}


def _run_search(case: str) -> _Search:
    prob, budget = _SWEEP_CASES[case]()
    search = _Search(prob, prob.initial_belief(), SolveParams(epsilon=1e-3, node_budget=budget))
    search.run()
    assert _has_cycle(search.nodes.values())
    return search


def _has_cycle(nodes) -> bool:
    """True when the expanded nodes contain a cycle through two or more nodes."""
    succ = {
        id(n): {id(c) for _, entries in n.acts for _, _, c in entries if c is not n and c.acts is not None}
        for n in nodes
        if n.acts is not None
    }
    while True:  # peel off nodes with no expanded successor left; a cycle never peels
        sinks = [k for k, children in succ.items() if not children & succ.keys()]
        if not sinks:
            return bool(succ)
        for k in sinks:
            del succ[k]


def _gauss_seidel(expanded, gamma: float, tol: float) -> None:
    """Reference sweep: plain backups of every expanded node until none moves by ``tol``."""
    while True:
        delta = 0.0
        for node in expanded:
            best_lb = max(r + sum(gamma * p * c.lb for _, p, c in entries) for r, entries in node.acts)
            best_ub = max(r + sum(gamma * p * c.ub for _, p, c in entries) for r, entries in node.acts)
            delta = max(delta, best_lb - node.lb, node.ub - best_ub)
            node.lb = max(node.lb, best_lb)
            node.ub = min(node.ub, best_ub)
        if delta <= tol:
            return


class TestSweep:
    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_matches_full_sweep(self, case):
        # from the initial bounds, the SCC sweep lands where plain Gauss-Seidel converges
        search = _run_search(case)
        expanded = [n for n in search.nodes.values() if n.acts is not None]

        def reset():
            for node in expanded:
                node.lb, node.ub = search.floor, upper_bound(node.belief, search.m)
            search.changed.extend(expanded)

        reset()
        search._sweep()
        swept = [(n.lb, n.ub) for n in expanded]
        reset()
        _gauss_seidel(expanded[::-1], search.gamma, 1e-13)
        for (lb, ub), node in zip(swept, expanded):
            assert lb == pytest.approx(node.lb, abs=1e-9)
            assert ub == pytest.approx(node.ub, abs=1e-9)

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_every_focused_sweep_matches_full_sweep(self, case, monkeypatch):
        # each sweep of a run visits only the ancestors of changed nodes, and
        # still lands where plain Gauss-Seidel over every expanded node does
        focused = _Search._sweep
        sweeps = [0]

        def checked_sweep(search):
            expanded = [n for n in search.nodes.values() if n.acts is not None]
            before = [(n.lb, n.ub) for n in expanded]
            focused(search)
            swept = [(n.lb, n.ub) for n in expanded]
            for node, bounds in zip(expanded, before):
                node.lb, node.ub = bounds
            _gauss_seidel(expanded[::-1], search.gamma, 1e-13)
            for node, (lb, ub) in zip(expanded, swept):
                assert lb == pytest.approx(node.lb, abs=1e-9)
                assert ub == pytest.approx(node.ub, abs=1e-9)
                node.lb, node.ub = lb, ub  # the run goes on from the focused result
            sweeps[0] += 1

        monkeypatch.setattr(_Search, "_sweep", checked_sweep)
        _run_search(case)
        assert sweeps[0] > 1

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_clean_nodes_hold_their_backup(self, case):
        # the sweep that ends a run leaves every expanded node at its fixed point
        search = _run_search(case)
        checked = 0
        for node in search.nodes.values():
            if node.acts is None:
                continue
            bounds = (node.lb, node.ub)
            assert search._backup(node) <= 1e-12
            assert (node.lb, node.ub) == pytest.approx(bounds, abs=1e-12)
            node.lb, node.ub = bounds  # each backup starts from the state the run left
            checked += 1
        assert checked > 0

    def test_self_loop_reaches_its_fixed_point_in_one_backup(self):
        # staying in state 0 earns 1 forever; leaving earns nothing
        t = {(0, (0,)): (0, (0,), 1.0), (0, (1,)): (1, (0,), 0.0)}
        t.update({(1, (a,)): (1, (0,), 0.0) for a in (0, 1)})
        prob = _init_problem(TabularModel(1, (2,), (1,), 0.9, t, SupportBelief.point(0)))
        search = _Search(prob, prob.initial_belief(), SolveParams())
        search._expand(search.root)
        stay = search.root.acts[0][1][0][2]  # its last observation differs from the root's
        search._expand(stay)
        assert stay.acts[0][1][0][2] is stay
        search._backup(stay)
        assert stay.lb == pytest.approx(1 / (1 - 0.9), abs=1e-12)  # one plain backup gives 1

    def test_slow_creep_cycle_takes_a_few_backups(self, monkeypatch):
        # action 0 cycles 0 -> 1 -> 0 and earns 1 per round trip; action 1 ends in
        # terminal state 2.  With gamma = 0.99 the lower bounds of the two-node
        # belief cycle creep by gamma^2 per Gauss-Seidel pass: about 1,400 passes.
        gamma = 0.99
        t = {(0, (0,)): (1, (1,), 1.0), (1, (0,)): (0, (0,), 0.0)}
        t.update({(s, (1,)): (2, (0,), 0.0) for s in (0, 1)})
        model = TabularModel(1, (2,), (2,), gamma, t, SupportBelief.point(0), terminal=frozenset({2}))
        prob = _init_problem(model)
        search = _Search(prob, prob.initial_belief(), SolveParams())
        node = search.root
        while node.acts is None:
            search._expand(node)
            node = node.acts[0][1][0][2]
        expanded = [n for n in search.nodes.values() if n.acts is not None]
        assert len(expanded) == 2 and _has_cycle(expanded)  # the root is in the cycle
        backup = _Search._backup
        backups = [0]

        def counting_backup(s, n):
            backups[0] += 1
            return backup(s, n)

        monkeypatch.setattr(_Search, "_backup", counting_backup)
        search._sweep()
        assert backups[0] <= 2 * len(expanded)
        swept = [(n.lb, n.ub) for n in expanded]
        at_0 = 1 / (1 - gamma**2)  # state 0 earns 1 now and every second step
        for (lb, ub), n in zip(swept, expanded):
            value = at_0 if prob.state(n.belief.atoms[0][0]) == 0 else gamma * at_0
            assert lb == pytest.approx(value, abs=1e-9)
            assert ub == pytest.approx(value, abs=1e-9)
        for n in expanded:
            n.lb, n.ub = search.floor, upper_bound(n.belief, prob)
        _gauss_seidel(expanded[::-1], gamma, 1e-13)
        for (lb, ub), n in zip(swept, expanded):
            assert lb == pytest.approx(n.lb, abs=1e-9)
            assert ub == pytest.approx(n.ub, abs=1e-9)

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_upper_bounds_stay_above_lower_bounds(self, case, sound_bounds):
        _run_search(case)
        assert len(sound_bounds) == 1

    def test_trial_that_expands_nothing_after_a_sweep_stalls(self):
        prob = _init_problem(mactp_generate(MactpSpec(3, 2, 5, seed=29)))
        b0 = prob.initial_belief()
        res = solve(prob, b0, SolveParams(max_depth=1))
        # trial 1 expands the root, trial 2 expands nothing and sweeps, trial 3 retraces it
        assert (res.status, res.trials, res.expansions) == ("stalled", 3, 1)
        assert not res.converged
        assert res.lower_bound <= res.upper_bound
        assert res.lower_bound == fsc_value_in(prob, res.fsc, b0)


class TestPinnedSolve:
    """SHA-256 of ``repr`` of every ``SolveResult`` field but ``elapsed``.

    The pinned digests make any change to the bounds, status, counters,
    trace or controller of these solves fail this test.
    """

    CASES = {
        "mactp-3-2-5-init": (
            lambda: _init_problem(mactp_generate(MactpSpec(3, 2, 5, seed=29))),
            "49a54c37a94abba27adc68b036ea05d5aa95bd644361643adbef5a4afb0e5c91",
        ),
        "collecting-3x3-a2-b1-br": (
            lambda: _br_problem(collecting_generate(CollectingSpec(3, 3, 2, 1, 5)), 5, 1),
            "ca040fe8fa9cfaf1f3ab3d15f770338702752fc8280642d81f4d1b417237a10d",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_result_digest(self, case, sound_bounds):
        make, expected = self.CASES[case]
        prob = make()
        res = solve(prob, prob.initial_belief(), SolveParams(epsilon=1e-3, node_budget=2000))
        assert sound_bounds == [res]
        fields = (
            res.lower_bound, res.upper_bound, res.converged, res.status, res.expansions, res.trials,
            res.trace, res.fsc.initial_node,
            [(n.action, sorted(n.transitions.items()), n.fallback) for n in res.fsc.nodes],
        )
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == expected

    def test_no_node_outlives_solve(self):
        # belief loops make the search graph cyclic; with the cycle collector off
        # only reference counting can free it
        prob = _init_problem(mactp_generate(MactpSpec(3, 2, 3, seed=3)))
        gc.collect()
        gc.disable()
        try:
            solve(prob, prob.initial_belief(), SolveParams(epsilon=1e-3, node_budget=2000))
            alive = sum(type(obj) is _Node for obj in gc.get_objects())
        finally:
            gc.enable()
        assert alive == 0
