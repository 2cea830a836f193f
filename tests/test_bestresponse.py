import gc
import tracemalloc
from fractions import Fraction

import pytest

from detdec import (
    CollectingSpec,
    Fsc,
    FscNode,
    IdppParams,
    JointPolicy,
    MissingStateError,
    build_br_detpomdp,
    belief_successors,
    build_init_detpomdp,
    collecting_generate,
    default_policy,
    exact_belief_vi,
    exact_value,
    heuristic_init,
    mactp_generate,
    MactpSpec,
    SolveParams,
    solve,
    TabularModel,
    value_iteration,
)
from detdec.detpomdp import _Search
from detdec.model import SupportBelief
from detdec.rng import SplitMix64

from helpers import action_obs_model, br_problem, fsc_value_in, random_joint_policy, small_instances, tiny_mactp, zero_reward_model


def _mdp_policy(model):
    table = value_iteration(model)
    return table, default_policy(table)


class TestConstruction:
    def test_agent_count_mismatch(self):
        m = tiny_mactp(agents=2, probs=())
        policy = JointPolicy([Fsc([FscNode(4)])])
        with pytest.raises(ValueError, match="controllers"):
            br_problem(m, policy, 0)

    def test_agent_index_range(self):
        m = tiny_mactp(agents=1, probs=())
        policy = JointPolicy([Fsc([FscNode(4)])])
        with pytest.raises(ValueError, match="agent index"):
            br_problem(m, policy, 1)

    def test_initial_belief_lifts_one_to_one(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=2))
        policy = random_joint_policy(m, SplitMix64(3))
        br = br_problem(m, policy, 0)
        b0 = br.initial_belief()
        assert len(b0) == len(m.initial_belief()) == 32
        for (eid, w), (s, ws) in zip(b0.atoms, m.initial_belief().atoms):
            ext = br.ext(eid)
            assert br.state(eid) == s and br.value_table.state_ids[ext.row] == s and w == ws
            assert ext.other_nodes == (policy.controllers[1].initial_node,)

    def test_other_controller_action_out_of_range(self):
        m = tiny_mactp(agents=2, probs=())
        policy = JointPolicy([Fsc([FscNode(4)]), Fsc([FscNode(4), FscNode(5)])])
        with pytest.raises(ValueError, match="agent 1 node 1: action 5 outside"):
            br_problem(m, policy, 0)
        br_problem(m, policy, 1)  # an agent's own controller is not stepped

    def test_init_model_has_no_node_components(self):
        m = mactp_generate(MactpSpec(2, 2, 2, seed=2))
        table, pi = _mdp_policy(m)
        prob = build_init_detpomdp(m, 1, pi)
        b0 = prob.initial_belief()
        assert all(prob.ext(e).other_nodes == () for e, _ in b0)


class TestStep:
    def test_determinism_repeats(self):
        m = mactp_generate(MactpSpec(3, 2, 4, seed=5))
        policy = random_joint_policy(m, SplitMix64(8))
        br = br_problem(m, policy, 0)
        b0 = br.initial_belief()
        eid = b0.states[3]
        first = br.step(eid, 1)
        for _ in range(1000):
            assert br.step(eid, 1) == first

    def test_unique_successor_exhaustive_on_small_instance(self):
        m = tiny_mactp(agents=2, probs=(Fraction(1, 2),))
        policy = random_joint_policy(m, SplitMix64(2))
        br = br_problem(m, policy, 0)
        seen = set(br.initial_belief().states)
        frontier = list(seen)
        while frontier:
            nxt = []
            for eid in frontier:
                for a in range(br.action_count):
                    res1 = br.step(eid, a)
                    res2 = br.step(eid, a)
                    assert res1 == res2
                    if res1[0] not in seen:
                        seen.add(res1[0])
                        nxt.append(res1[0])
            frontier = nxt
            assert len(seen) < 50_000

    def test_rewards_follow_joint_action(self):
        # other agent waits forever: agent 0's reward matches the 2-agent step
        m = tiny_mactp(agents=2, probs=())
        wait = Fsc([FscNode(4)])
        policy = JointPolicy([wait, wait])
        br = br_problem(m, policy, 0)
        b0 = br.initial_belief()
        eid = b0.states[0]
        _, _, r = br.step(eid, 1)  # move right along edge (1,2), weight 3
        assert r == -3.0

    def test_local_action_range(self):
        m = tiny_mactp(agents=1, probs=())
        br = br_problem(m, JointPolicy([Fsc([FscNode(4)])]), 0)
        eid = br.initial_belief().states[0]
        with pytest.raises(ValueError):
            br.step(eid, 5)


class TestInitProblem:
    def test_missing_state_error(self):
        m = tiny_mactp(agents=1, probs=())
        # table restricted to the terminal state only: initial states uncovered
        table = value_iteration(m, reachable_from=SupportBelief.point(m.pack((4,), 0, 1)))
        prob = build_init_detpomdp(m, 0, default_policy(table))
        with pytest.raises(MissingStateError, match=f"state {m.initial_belief().states[0]} not covered"):
            prob.initial_belief()

    def test_single_agent_init_equals_br_equals_model(self):
        m = tiny_mactp(agents=1, probs=(Fraction(1, 2),))
        table, pi = _mdp_policy(m)
        init_prob = build_init_detpomdp(m, 0, pi)
        br_prob = build_br_detpomdp(m, JointPolicy([Fsc([FscNode(4)])]), 0, value_table=table)
        v_init = exact_belief_vi(init_prob, init_prob.initial_belief())
        v_br = exact_belief_vi(br_prob, br_prob.initial_belief())
        assert v_init == pytest.approx(v_br, abs=1e-9)
        # the lift preserves the step structure of the raw model
        e0 = init_prob.initial_belief().states[0]
        e2, obs, r = init_prob.step(e0, 1)
        s2, jobs, jr = m.step(m.initial_belief().states[0], (1,))
        assert (init_prob.state(e2), obs, r) == (s2, jobs[0], jr)


class TestValueConsistency:
    def test_static_others_match_single_agent_model(self):
        # two-agent instance, the other agent parked on a wait loop, versus the
        # one-agent instance with identical terrain: same optimal value
        probs = (Fraction(3, 10), Fraction(7, 10))
        two = tiny_mactp(agents=2, probs=probs)
        one = tiny_mactp(agents=1, probs=probs)
        wait = Fsc([FscNode(4)])
        policy = JointPolicy([wait, wait])
        table2, _ = _mdp_policy(two)
        table1, pi1 = _mdp_policy(one)
        br = build_br_detpomdp(two, policy, 0, value_table=table2)
        solo = build_init_detpomdp(one, 0, pi1)
        v_br = exact_belief_vi(br, br.initial_belief())
        v_solo = exact_belief_vi(solo, solo.initial_belief())
        assert v_br == pytest.approx(v_solo, abs=1e-9)

    def test_fixed_controller_value_matches_joint_value(self):
        rng = SplitMix64(19)
        checked = 0
        for model in small_instances(12, seed=500):
            policy = random_joint_policy(model, rng)
            joint = exact_value(model, policy)
            table = value_iteration(model)
            for agent in range(model.agent_count):
                br = build_br_detpomdp(model, policy, agent, table)
                got = fsc_value_in(br, policy.controllers[agent], br.initial_belief())
                assert got == pytest.approx(joint, abs=1e-9)
                checked += 1
        assert checked >= 12


def _draw(pool, size, rng):
    """Up to ``size`` distinct ids from ``pool``, ascending like belief atoms."""
    return sorted({pool[rng.randbelow(len(pool))] for _ in range(size)})


MODELS = {
    "mactp": mactp_generate(MactpSpec(3, 2, 4, seed=3)),
    "collecting": collecting_generate(CollectingSpec(3, 3, 2, 1, seed=3)),
    "action-obs": action_obs_model(),
    "zero-reward": zero_reward_model(),
    "mactp-3": mactp_generate(MactpSpec(3, 3, 3, seed=3)),
    "collecting-3": collecting_generate(CollectingSpec(4, 3, 3, 2, seed=3)),
    # one agent: the best-response problem has a controller but no other agent
    "mactp-1": mactp_generate(MactpSpec(3, 1, 2, seed=3)),
}
# (rng seed, node cap) of each model's random policy; the three-agent ones have
# controllers of three distinct sizes, so every best response freezes two of unequal size
POLICY_DRAWS = {"mactp-3": (18, 5), "collecting-3": (11, 5)}


def _policy(name):
    seed, cap = POLICY_DRAWS.get(name, (11, 3))
    return random_joint_policy(MODELS[name], SplitMix64(seed), cap)


def _parity_problems():
    """Factories of the problems the batched step must match, by name; each call builds a fresh one."""
    cases = {}
    for name, model in MODELS.items():
        table, pi = _mdp_policy(model)
        policy = _policy(name)
        for agent in range(model.agent_count):
            cases[f"{name}-a{agent}-init"] = (lambda m=model, a=agent, p=pi: build_init_detpomdp(m, a, p))
            cases[f"{name}-a{agent}-br"] = (
                lambda m=model, a=agent, p=policy, t=table: build_br_detpomdp(m, p, a, value_table=t)
            )
    return cases


PARITY = _parity_problems()


class TestStepActions:
    """``step_actions`` against scalar ``step`` on twin problems, one stepped each way."""

    @pytest.mark.parametrize("name", sorted(POLICY_DRAWS))
    def test_three_agent_policies_have_distinct_sizes(self, name):
        sizes = _policy(name).sizes()
        assert len(set(sizes)) == 3 and min(sizes) > 1

    @pytest.mark.parametrize("case", sorted(PARITY))
    def test_rows_and_interning_match_scalar_steps(self, case):
        batched, scalar = PARITY[case](), PARITY[case]()
        pool = list(batched.initial_belief().states)
        assert scalar.initial_belief().states == tuple(pool)
        rng = SplitMix64(5)
        count = batched.action_count
        for size in (1, 3, 7, 8, 16) * 4:
            eids = _draw(pool, size, rng)
            rows = batched.step_actions(eids)
            assert rows == [scalar.step(e, a) for a in range(count) for e in eids]
            # the scalar step of the batched problem agrees with its rows
            assert rows == [batched.step(e, a) for a in range(count) for e in eids]
            pool.extend(e for e, _, _ in rows if e not in pool)

    @pytest.mark.parametrize("case", sorted(PARITY))
    def test_expansion_matches_belief_successors(self, case):
        batched, scalar = PARITY[case](), PARITY[case]()
        pool = list(batched.initial_belief().states)
        scalar.initial_belief()
        rng = SplitMix64(9)
        for e in list(pool):  # a larger pool, stepped alike in both problems
            for a in range(batched.action_count):
                for prob in (batched, scalar):
                    e2 = prob.step(e, a)[0]
                if e2 not in pool:
                    pool.append(e2)
        for size in (1, 2, 3, 8, 24) * 3:
            eids = _draw(pool, size, rng)
            belief = SupportBelief([(e, 1 + rng.randbelow(9)) for e in eids])
            search = _Search(batched, belief, SolveParams())
            search._expand(search.root)
            for a, (rbar, entries) in enumerate(search.root.acts):
                expected = belief_successors(belief, a, scalar)
                assert [(obs, p, child.belief) for obs, p, child in entries] == [
                    (obs, p, post) for obs, p, post, _ in expected
                ]
                total = 0.0
                for _, p, _, rcond in expected:
                    total += p * rcond
                assert rbar == total

    def test_state_outside_the_table_is_named(self):
        # the table is closed under stepping, so the lift is the one place a state can be missing
        m = mactp_generate(MactpSpec(3, 2, 4, seed=3))
        # a table covering what one initial state reaches leaves other initial states out
        sub = value_iteration(m, reachable_from=SupportBelief.point(m.initial_belief().states[-1]))
        missing = next(s for s in m.initial_belief().states if sub.rows([s])[0] < 0)
        policy = random_joint_policy(m, SplitMix64(11))
        for prob in (build_br_detpomdp(m, policy, 0, value_table=sub), build_init_detpomdp(m, 1, default_policy(sub))):
            with pytest.raises(MissingStateError, match=f"state {missing} not covered"):
                prob.initial_belief()


class TestTableAgainstModel:
    """Both step paths read the relaxation table; every row must be the model's own step."""

    @pytest.mark.parametrize("kind", ["init", "br"])
    @pytest.mark.parametrize("name", ["mactp", "collecting", "action-obs", "mactp-3", "collecting-3", "mactp-1"])
    def test_rows_equal_model_steps(self, name, kind):
        model = MODELS[name]
        table, pi = _mdp_policy(model)
        policy = _policy(name)
        rng = SplitMix64(13)
        checked = 0
        for agent in range(model.agent_count):
            for batched in (True, False):
                if kind == "init":
                    prob = build_init_detpomdp(model, agent, pi)
                else:
                    prob = build_br_detpomdp(model, policy, agent, table)
                count = prob.action_count
                frontier = list(prob.initial_belief().states)
                for _ in range(5):
                    eids = _draw(frontier, 12, rng)
                    pairs = [(e, a) for a in range(count) for e in eids]
                    rows = prob.step_actions(eids) if batched else [prob.step(e, a) for e, a in pairs]
                    for (e, a), (e2, obs, reward) in zip(pairs, rows, strict=True):
                        ext = prob.ext(e)
                        if kind == "init":
                            joint = list(model.joint_actions()[pi.greedy[ext.row]])
                        else:
                            joint = [0] * model.agent_count
                            for j, n in zip(prob.others, ext.other_nodes):
                                joint[j] = policy.controllers[j].nodes[n].action
                        joint[agent] = a
                        s2, jobs, r = model.step(prob.state(e), tuple(joint))
                        assert (prob.state(e2), obs, reward) == (s2, jobs[agent], r)
                        if kind == "br":
                            assert prob.ext(e2).other_nodes == tuple(
                                policy.controllers[j].advance(n, jobs[j]) for j, n in zip(prob.others, ext.other_nodes)
                            )
                        checked += 1
                    frontier = sorted({e2 for e2, _, _ in rows})
        assert checked >= 200


class TestValueHints:
    def test_hints_read_the_interned_rows(self, monkeypatch):
        # past the lift, neither a step nor a hint maps a state to its row
        m = mactp_generate(MactpSpec(3, 2, 4, seed=3))
        table, pi = _mdp_policy(m)
        policy = random_joint_policy(m, SplitMix64(11))
        for prob in (build_br_detpomdp(m, policy, 0, value_table=table), build_init_detpomdp(m, 1, pi)):
            b0 = list(prob.initial_belief().states)
            with monkeypatch.context() as patch:
                patch.setattr(table, "rows", lambda states: pytest.fail("searched the table for a row"))
                eids = [e for e, _, _ in prob.step_actions(b0)]
                eids += [prob.step(e, 0)[0] for e in eids]
                hints = [prob.state_value_hint(e) for e in eids]
            assert hints == [table.values[table.rows([prob.state(e)])[0]] + table.error_bound for e in eids]

    def test_hint_outside_the_table_is_named(self):
        # a lift that fails interns nothing, so every hint is asked of a covered row
        m = mactp_generate(MactpSpec(3, 2, 4, seed=3))
        sub = value_iteration(m, reachable_from=SupportBelief.point(m.initial_belief().states[-1]))
        missing = next(s for s in m.initial_belief().states if sub.rows([s])[0] < 0)
        policy = random_joint_policy(m, SplitMix64(11))
        for prob in (build_br_detpomdp(m, policy, 1, value_table=sub), build_init_detpomdp(m, 0, default_policy(sub))):
            with pytest.raises(MissingStateError, match=f"state {missing} not covered"):
                prob.initial_belief()
            assert prob.interned_count == 0

    def test_initial_state_past_int64_is_named(self):
        # the row lookup must say "not covered" of an id no int64 holds, not overflow
        far = 2**70
        m = TabularModel(1, (1,), (1,), 0.9, {(0, (0,)): (0, (0,), 1.0)}, SupportBelief([(0, 1), (far, 1)]))
        table = value_iteration(m, reachable_from=SupportBelief.point(0))
        policy = JointPolicy([Fsc([FscNode(0)])])
        for prob in (build_br_detpomdp(m, policy, 0, value_table=table), build_init_detpomdp(m, 0, default_policy(table))):
            with pytest.raises(MissingStateError, match=f"state {far} not covered"):
                prob.initial_belief()
            assert prob.interned_count == 0


class TestRetainedMemory:
    @pytest.fixture(scope="class")
    def mactp_428(self):
        """mactp 4-2-8 (60,488 table rows): (model, solve params, table, heuristic-init policy)."""
        model = mactp_generate(MactpSpec(4, 2, 8, seed=0))
        params = IdppParams(solve=SolveParams(epsilon=1e-3, node_budget=8000))
        table = value_iteration(model)
        return model, params, table, heuristic_init(model, params, table=table).policy

    def test_construction_peak_per_table_row(self, mactp_428):
        # each other agent's observation column is built block by block in the narrowest
        # dtype (uint8 here): the tracemalloc peak reads about 5 bytes a table row, against
        # about 20 for int64 columns built over the whole table at once
        model, _, table, policy = mactp_428
        for agent in (0, 1):
            gc.collect()
            tracemalloc.start()
            try:
                build_br_detpomdp(model, policy, agent, table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / len(table) <= 8

    def test_solved_problem_holds_little_per_expansion(self, mactp_428):
        # ids are packed, not interned, and the search steps on table reads:
        # after its solve a problem holds no table of the states it met
        model, params, table, policy = mactp_428
        for agent in (0, 1):
            prob = build_br_detpomdp(model, policy, agent, table)
            b0 = prob.initial_belief()
            gc.collect()
            tracemalloc.start()
            try:
                res = solve(prob, b0, params.solve)
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert res.expansions > 200
            assert held / res.expansions <= 4_000
