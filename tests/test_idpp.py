import csv
from fractions import Fraction

import pytest

import detdec.idpp as idpp_module
from detdec import (
    IdppParams,
    ResourceLimitError,
    SolveParams,
    build_init_detpomdp,
    default_policy,
    exact_value,
    heuristic_init,
    mactp_generate,
    MactpSpec,
    nash_check,
    run,
    serialize,
    solve,
    value_iteration,
)
from detdec.cli import EXIT_BUDGET, EXIT_OK, main
from detdec.fsc import Fsc, FscNode

from helpers import tiny_mactp

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
        pi = default_policy(table, m)
        prob = build_init_detpomdp(m, 0, pi, value_table=table)
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

    def test_converged_run_ends_with_silent_round(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=42))
        result = run(m, FAST)
        assert result.converged
        last_round = result.history[-1].round
        assert not any(rec.accepted for rec in result.history if rec.round == last_round)

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

    def test_random_order_is_seeded(self):
        params_a = IdppParams(solve=FAST.solve, max_rounds=4, agent_order="random", seed=1)
        params_b = IdppParams(solve=FAST.solve, max_rounds=4, agent_order="random", seed=1)
        m = mactp_generate(MactpSpec(3, 2, 5, seed=7))
        assert serialize(run(m, params_a).policy) == serialize(run(m, params_b).policy)


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
