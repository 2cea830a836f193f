import csv
from fractions import Fraction

import pytest

import detdec.idpp as idpp_module
from detdec import (
    CollectingSpec,
    IdppParams,
    ResourceLimitError,
    SolveParams,
    build_br_detpomdp,
    build_init_detpomdp,
    collecting_generate,
    default_policy,
    exact_value,
    heuristic_init,
    mactp_generate,
    MactpSpec,
    run,
    serialize,
    solve,
    value_iteration,
)
from detdec.cli import EXIT_BUDGET, EXIT_OK, main
from detdec.fsc import Fsc, FscNode

from helpers import nash_check, tiny_mactp

FAST = IdppParams(solve=SolveParams(epsilon=1e-3, node_budget=3000), max_rounds=8)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            IdppParams(value_tolerance=0)
        with pytest.raises(ValueError):
            IdppParams(max_rounds=0)
        with pytest.raises(ValueError):
            IdppParams(agent_order="zigzag")

    @pytest.mark.parametrize("name, value", [
        ("value_tolerance", float("nan")),
        ("value_tolerance", float("inf")),
        ("mdp_tol", float("nan")),
        ("mdp_tol", float("inf")),
        ("mdp_tol", 0.0),
        ("max_rounds", True),
        ("state_cap", 0),
        ("state_cap", True),
    ])
    def test_bad_value_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            IdppParams(**{name: value})


class TestHeuristicInit:
    def test_single_agent_init_is_the_direct_solution(self):
        m = tiny_mactp(agents=1, probs=(Fraction(1, 2),))
        init = heuristic_init(m, FAST)
        table = value_iteration(m)
        pi = default_policy(table)
        prob = build_init_detpomdp(m, 0, pi)
        direct = solve(prob, prob.initial_belief(), FAST.solve)
        assert init.value == pytest.approx(direct.lower_bound, abs=1e-9)

    def test_reproducible(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=42))
        a = heuristic_init(m, FAST)
        b = heuristic_init(m, FAST)
        assert serialize(a.policy) == serialize(b.policy)
        assert a.value == b.value

    def test_records_per_agent(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=42))
        init = heuristic_init(m, FAST)
        assert [r.agent for r in init.records] == [0, 1]
        assert all(r.fsc_size >= 1 for r in init.records)


class TestRun:
    def test_monotone_accepted_values_and_final_at_least_init(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=42))
        result = run(m, FAST)
        accepted = [rec for rec in result.history if rec.accepted]
        for rec in accepted:
            assert rec.post_value > rec.pre_value + FAST.value_tolerance
        values = [rec.post_value for rec in accepted]
        assert values == sorted(values)
        assert result.final_value >= result.init_value - 1e-12
        assert result.rounds_completed <= FAST.max_rounds

    @pytest.mark.parametrize("seed", [42, 1, 2, 3])
    def test_converged_run_ends_with_silent_round(self, seed):
        # on seeds 1-3 every agent is skipped in the last round, which leaves no history row
        m = mactp_generate(MactpSpec(3, 2, 5, seed=seed))
        result = run(m, FAST)
        assert result.converged
        last_round = result.rounds_completed
        assert all(rec.round <= last_round for rec in result.history)
        assert not any(rec.accepted for rec in result.history if rec.round == last_round)
        assert result.equilibrium_gap is not None
        assert result.equilibrium_gap <= FAST.value_tolerance + FAST.solve.epsilon + 1e-9

    def test_single_agent_run_matches_init(self):
        m = tiny_mactp(agents=1, probs=(Fraction(1, 2),))
        result = run(m, FAST)
        assert result.final_value == pytest.approx(result.init_value, abs=FAST.solve.epsilon)
        assert result.converged

    def test_deterministic_repeat(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=7))
        a = run(m, FAST)
        b = run(m, FAST)
        assert serialize(a.policy) == serialize(b.policy)
        assert a.final_value == b.final_value
        assert [r.accepted for r in a.history] == [r.accepted for r in b.history]

    def test_three_agent_run_is_pinned(self, sound_bounds):
        # a generated 3-agent instance end to end: each best response freezes two controllers
        m = collecting_generate(CollectingSpec(3, 3, 3, 1, seed=0))
        result = run(m, IdppParams(solve=SolveParams(epsilon=1e-3, node_budget=2000), max_rounds=10))
        assert result.final_value == 86.36689973958333
        assert list(result.policy.sizes()) == [44, 53, 47]

    def test_random_order_is_seeded(self):
        params_a = IdppParams(solve=FAST.solve, max_rounds=4, agent_order="random", seed=1)
        params_b = IdppParams(solve=FAST.solve, max_rounds=4, agent_order="random", seed=1)
        m = mactp_generate(MactpSpec(3, 2, 5, seed=7))
        assert serialize(run(m, params_a).policy) == serialize(run(m, params_b).policy)


def _run_without_skip(model, params):
    """Reference loop: every agent is solved in every round, as if nothing repeats."""
    table = value_iteration(model, tol=params.mdp_tol, state_cap=params.state_cap)
    init = heuristic_init(model, params, table=table)
    policy, value, calls = init.policy, init.value, 0
    for _ in range(params.max_rounds):
        accepted = False
        for agent in range(model.agent_count):
            problem = build_br_detpomdp(model, policy, agent, value_table=table)
            candidate = policy.replace(agent, solve(problem, problem.initial_belief(), params.solve).fsc)
            post = exact_value(model, candidate)
            calls += 1
            if post > value + params.value_tolerance:
                policy, value, accepted = candidate, post, True
        if not accepted:
            break
    return policy, value, calls


class TestSkip:
    # seed 42 skips agent 1 in round 2; seed 1 skips both agents of round 2
    @pytest.mark.parametrize("seed", [42, 1])
    def test_unchanged_problem_is_not_solved_again(self, monkeypatch, seed):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=seed))
        policy, value, reference_calls = _run_without_skip(m, FAST)
        real_solve = idpp_module.solve
        agents = []

        def counting_solve(problem, belief, params):
            agents.append(problem.agent)
            return real_solve(problem, belief, params)

        monkeypatch.setattr(idpp_module, "solve", counting_solve)
        result = run(m, FAST)
        assert agents[: m.agent_count] == list(range(m.agent_count))  # the heuristic init
        assert agents[m.agent_count :] == [rec.agent for rec in result.history]
        assert len(result.history) < reference_calls
        last = {}
        for k, rec in enumerate(result.history):
            if rec.agent in last:  # another agent's update was accepted since its last call
                assert any(r.accepted for r in result.history[last[rec.agent] + 1 : k])
            last[rec.agent] = k
        assert result.converged
        assert serialize(result.policy) == serialize(policy)
        assert result.final_value == value

    def test_failed_call_is_made_again(self, monkeypatch):
        # agent 0's round-1 update is accepted, so round 2 skips agent 0; agent 1's
        # calls fail, and a failed call does not count as its problem's answer
        m = mactp_generate(MactpSpec(3, 2, 5, seed=42))
        real_solve = idpp_module.solve
        agents = []

        def solve_but_agent_1(problem, belief, params):
            agents.append(problem.agent)
            if len(agents) > m.agent_count and problem.agent == 1:
                raise ResourceLimitError("injected cap")
            return real_solve(problem, belief, params)

        monkeypatch.setattr(idpp_module, "solve", solve_but_agent_1)
        result = run(m, FAST)
        rows = [(r.round, r.agent, r.accepted) for r in result.history]
        assert rows == [(1, 0, True), (1, 1, False), (2, 1, False)]
        assert result.history[-1].solver_status == "error:ResourceLimitError"
        assert not result.converged


class TestNashCheck:
    def test_gaps_small_at_convergence(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=42))
        result = run(m, FAST)
        assert result.converged
        gaps = nash_check(m, result.policy, FAST)
        assert len(gaps) == 2
        for gap in gaps:
            assert gap <= FAST.value_tolerance + FAST.solve.epsilon

    def test_single_agent_gap_immediately_small(self):
        m = tiny_mactp(agents=1, probs=(Fraction(1, 2),))
        result = run(m, FAST)
        gaps = nash_check(m, result.policy, FAST)
        assert gaps[0] <= FAST.value_tolerance + FAST.solve.epsilon

    def test_perturbed_policy_shows_positive_gap(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=42))
        result = run(m, FAST)
        base = exact_value(m, result.policy)
        found = False
        for agent in range(2):
            fsc = result.policy.controllers[agent]
            root = fsc.nodes[fsc.initial_node]
            for new_action in range(5):
                if new_action == root.action:
                    continue
                flipped_nodes = list(fsc.nodes)
                flipped_nodes[fsc.initial_node] = FscNode(
                    new_action, dict(root.transitions), root.fallback
                )
                perturbed = result.policy.replace(agent, Fsc(flipped_nodes, fsc.initial_node))
                if exact_value(m, perturbed) < base - 1e-6:
                    gaps = nash_check(m, perturbed, FAST)
                    assert max(gaps) > FAST.value_tolerance
                    found = True
                    break
            if found:
                break
        assert found, "no on-path action flip lowered the joint value"


class TestSolveFailures:
    """Best-response calls that raise after the init solves."""

    @staticmethod
    def _fail_after_init(monkeypatch, exc, agents=2):
        real_solve = idpp_module.solve
        calls = []

        def solve_then_fail(problem, belief, params):
            calls.append(problem.agent)
            if len(calls) <= agents:  # the heuristic-init solves, one per agent
                return real_solve(problem, belief, params)
            raise exc

        monkeypatch.setattr(idpp_module, "solve", solve_then_fail)

    def test_programming_error_propagates(self, monkeypatch):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=42))
        self._fail_after_init(monkeypatch, TypeError("injected"))
        with pytest.raises(TypeError, match="injected"):
            run(m, FAST)

    def test_limit_error_blocks_convergence(self, monkeypatch):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=42))
        self._fail_after_init(monkeypatch, ResourceLimitError("injected cap"))
        result = run(m, FAST)
        assert not result.converged
        assert result.history
        assert all(r.solver_status == "error:ResourceLimitError" for r in result.history)
        assert result.final_value == result.init_value

    def test_limit_error_exits_with_budget_code(self, monkeypatch, tmp_path):
        inst = tmp_path / "inst.json"
        assert main(["gen", "mactp", "--n", "3", "--agents", "2", "--edges", "3",
                     "--seed", "42", "--out", str(inst)]) == EXIT_OK
        self._fail_after_init(monkeypatch, ResourceLimitError("injected cap"))
        code = main(["solve", str(inst), "--out", str(tmp_path / "run"),
                     "--node-budget", "1500", "--max-rounds", "3", "--episodes", "0"])
        assert code == EXIT_BUDGET
        with open(tmp_path / "run" / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["solver_status"] == "error:ResourceLimitError" for row in rows)
