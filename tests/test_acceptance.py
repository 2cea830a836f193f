"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The scale smoke test (criterion 8) honors the
``DETDEC_SMOKE_BUDGET_SECONDS`` environment variable (default 1800).
"""
from __future__ import annotations

import os
import time

import pytest

from detdec import (
    CollectingSpec,
    IdppParams,
    MactpSpec,
    SolveParams,
    build_br_detpomdp,
    build_init_detpomdp,
    collecting_generate,
    default_policy,
    exact_belief_vi,
    exact_value,
    mactp_generate,
    mc_value,
    solve,
    value_iteration,
)
from detdec.cli import RunConfig, run_solve
from detdec.envs import describe, save_descriptor
from detdec.errors import ResourceLimitError
from detdec.idpp import run as idpp_run
from detdec.rng import SplitMix64

from helpers import br_problem, fsc_value_in, nash_check, random_joint_policy, small_instances

# every solve of the suite must end with upper bounds at or above lower bounds
pytestmark = pytest.mark.usefixtures("sound_bounds")


def _ok(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {message}")


def test_01_sizing_reproduction():
    t0 = time.perf_counter()
    targets = [
        ((3, 2, 5), 2592),
        ((4, 2, 8), 65536),
        ((4, 2, 12), 1048576),
    ]
    for (n, agents, edges), env_states in targets:
        report = describe(mactp_generate(MactpSpec(n, agents, edges, seed=1)))
        assert report["env_state_count"] == env_states, (n, agents, edges)
        assert report["belief_support"] == 2**edges, (n, agents, edges)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"sizing took {elapsed:.2f}s"
    _ok(1, f"env state counts 2592/65536/1048576 and |b0|=2^n_e reproduced in {elapsed:.2f}s")


def test_02_best_response_soundness_oracle():
    rng = SplitMix64(2024)
    instances = small_instances(24, seed=300)
    assert len(instances) >= 20
    checked = 0
    worst = 0.0
    for model in instances:
        policy = random_joint_policy(model, rng)
        joint = exact_value(model, policy)
        table = value_iteration(model)
        for agent in range(model.agent_count):
            br = build_br_detpomdp(model, policy, agent, table)
            got = fsc_value_in(br, policy.controllers[agent], br.initial_belief())
            err = abs(got - joint)
            worst = max(worst, err)
            assert err <= 1e-9, (model.descriptor()["family"], agent, err)
            checked += 1
    _ok(2, f"{len(instances)} instances / {checked} agent views; max |BR value - joint value| = {worst:.2e}")


def test_03_solver_optimality_oracle():
    t0 = time.perf_counter()
    epsilon = 1e-3
    problems = []
    specs = [
        MactpSpec(2, 1, 1, 101), MactpSpec(2, 1, 2, 102), MactpSpec(2, 1, 3, 103),
        MactpSpec(2, 2, 2, 104), MactpSpec(2, 2, 3, 105), MactpSpec(2, 2, 4, 106),
        MactpSpec(3, 1, 2, 107), MactpSpec(3, 1, 3, 108), MactpSpec(3, 2, 2, 109),
        MactpSpec(3, 2, 3, 110), MactpSpec(2, 1, 4, 111), MactpSpec(3, 1, 4, 112),
    ]
    for spec in specs:
        model = mactp_generate(spec)
        table = value_iteration(model)
        pi = default_policy(table)
        problems.append(build_init_detpomdp(model, 0, pi))
    for dims, seed in [((3, 2), 201), ((2, 3), 202), ((3, 3), 203), ((3, 3), 204)]:
        model = collecting_generate(CollectingSpec(dims[0], dims[1], 1, 1, seed))
        table = value_iteration(model)
        pi = default_policy(table)
        problems.append(build_init_detpomdp(model, 0, pi))
    rng = SplitMix64(77)
    for spec in [MactpSpec(2, 2, 2, 301), MactpSpec(2, 2, 3, 302),
                 MactpSpec(3, 2, 2, 303), MactpSpec(3, 2, 3, 304)]:
        model = mactp_generate(spec)
        table = value_iteration(model)
        policy = random_joint_policy(model, rng)
        problems.append(build_br_detpomdp(model, policy, 1, value_table=table))

    ran = 0
    worst_gap = 0.0
    worst_cert = 0.0
    for prob in problems:
        b0 = prob.initial_belief()
        try:
            optimum = exact_belief_vi(prob, b0, tol=1e-9, cap=10_000)
        except ResourceLimitError:
            continue
        res = solve(prob, b0, SolveParams(epsilon=epsilon, node_budget=50_000))
        assert res.converged, res.status
        gap = abs(optimum - res.lower_bound)
        worst_gap = max(worst_gap, gap)
        assert gap <= epsilon, gap
        # independent recheck of the certificate: long truncated rollouts
        gamma = prob.discount
        horizon = 800
        total = 0.0
        for (eid, _), fw in zip(b0.atoms, b0.float_weights):
            e, node = eid, res.fsc.initial_node
            g, acc = 1.0, 0.0
            for _ in range(horizon):
                if prob.is_terminal(e):
                    break
                entry = res.fsc.nodes[node]
                e, obs, r = prob.step(e, entry.action)
                acc += g * r
                g *= gamma
                node = entry.transitions.get(obs, entry.fallback)
            total += fw * acc
        rmax = max(abs(x) for x in prob.reward_bounds())
        slack = gamma**horizon * rmax / (1 - gamma)
        cert_err = abs(total - res.lower_bound)
        worst_cert = max(worst_cert, cert_err)
        assert cert_err <= 1e-6 + slack, cert_err
        ran += 1
    elapsed = time.perf_counter() - t0
    assert ran >= 20, f"only {ran} oracle instances ran"
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    _ok(3, f"{ran} instances: |solve - oracle| <= {worst_gap:.2e} (eps {epsilon}), "
           f"certificate recheck error <= {worst_cert:.2e}, {elapsed:.1f}s total")


def test_04_determinism_and_support_properties():
    t0 = time.perf_counter()
    rng = SplitMix64(9001)
    instances = small_instances(12, seed=700)
    checks = 0
    # step determinism on raw models
    pools = []
    for model in instances:
        states = list(model.initial_belief().states)[:8]
        pools.append((model, states))
    while checks < 60_000:
        model, states = pools[rng.randbelow(len(pools))]
        s = states[rng.randbelow(len(states))]
        a = tuple(rng.randbelow(k) for k in model.action_space_sizes)
        first = model.step(s, a)
        assert model.step(s, a) == first
        states.append(first[0])
        if len(states) > 64:
            del states[: len(states) - 64]
        checks += 1
    determinism_checks = checks
    # belief-successor partition and support monotonicity on derived problems
    from detdec import belief_successors

    problems = []
    for model in instances[:6]:
        policy = random_joint_policy(model, rng)
        problems.append(br_problem(model, policy, rng.randbelow(model.agent_count)))
    frontiers = [[p.initial_belief()] for p in problems]
    while checks < 100_000:
        i = rng.randbelow(len(problems))
        prob, beliefs = problems[i], frontiers[i]
        b = beliefs[rng.randbelow(len(beliefs))]
        a = rng.randbelow(prob.action_count)
        succ = belief_successors(b, a, prob)
        assert abs(sum(p for _, p, _, _ in succ) - 1.0) <= 1e-9
        checks += 1
        for _, _, post, _ in succ:
            assert len(post) <= len(b)
            checks += 1
            beliefs.append(post)
        if len(beliefs) > 256:
            del beliefs[: len(beliefs) - 256]
    elapsed = time.perf_counter() - t0
    _ok(4, f"{checks} randomized checks ({determinism_checks} determinism, "
           f"{checks - determinism_checks} partition/monotonicity), zero violations, {elapsed:.1f}s")


IDPP_PARAMS = IdppParams(
    value_tolerance=1e-6,
    max_rounds=8,
    solve=SolveParams(epsilon=1e-3, node_budget=4000),
)


def _idpp_criterion_runs(make_model, seeds):
    improved = 0
    for seed in seeds:
        model = make_model(seed)
        result = idpp_run(model, IDPP_PARAMS)
        # (a) accepted values strictly increase
        accepted = [rec.post_value for rec in result.history if rec.accepted]
        for a, b in zip(accepted, accepted[1:]):
            assert b > a, "accepted values not strictly increasing"
        for rec in result.history:
            if rec.accepted:
                assert rec.post_value > rec.pre_value + IDPP_PARAMS.value_tolerance
        # (b) final at least init
        assert result.final_value >= result.init_value - 1e-12
        # (c) equilibrium gaps at termination
        if result.converged:
            gaps = nash_check(model, result.policy, IDPP_PARAMS)
            for gap in gaps:
                assert gap <= IDPP_PARAMS.value_tolerance + IDPP_PARAMS.solve.epsilon + 1e-9
        if result.final_value > result.init_value + IDPP_PARAMS.value_tolerance:
            improved += 1
    return improved


def test_05_idpp_properties_two_benchmarks():
    t0 = time.perf_counter()
    seeds = range(10)
    improved_mactp = _idpp_criterion_runs(
        lambda s: mactp_generate(MactpSpec(3, 2, 5, seed=s)), seeds
    )
    improved_collecting = _idpp_criterion_runs(
        lambda s: collecting_generate(CollectingSpec(4, 3, 2, 2, seed=s)), seeds
    )
    # (d) the best-response loop beats the heuristic init somewhere
    assert improved_mactp >= 1
    assert improved_collecting >= 1
    elapsed = time.perf_counter() - t0
    _ok(5, f"10 seeds per benchmark: monotone accepted values, final >= init, "
           f"gaps within tolerance; improvements on {improved_mactp}/10 grid-nav and "
           f"{improved_collecting}/10 delivery seeds; {elapsed:.0f}s")


def test_06_evaluator_agreement():
    rng = SplitMix64(606)
    cases = []
    m1 = mactp_generate(MactpSpec(3, 2, 5, seed=6))
    m2 = collecting_generate(CollectingSpec(4, 3, 2, 2, seed=6))
    for k in range(5):
        cases.append((m1, random_joint_policy(m1, rng), k))
        cases.append((m2, random_joint_policy(m2, rng), k))
    hits = 0
    for model, policy, k in cases:
        ev = exact_value(model, policy)
        mean, se = mc_value(model, policy, episodes=100_000, horizon=100, seed=k)
        gamma = model.discount
        rmax = max(abs(b) for b in model.reward_bounds())
        bound = 3 * se + gamma**100 * rmax / (1 - gamma)
        if abs(mean - ev) <= bound:
            hits += 1
    assert hits >= 9, f"only {hits}/10 within 3 sigma + truncation"
    _ok(6, f"{hits}/10 random policies: |MC - exact| within 3*stderr + truncation bound")


def test_07_reproducibility(tmp_path):
    instance_path = tmp_path / "inst.json"
    save_descriptor(mactp_generate(MactpSpec(3, 2, 5, seed=3)), instance_path)
    config = RunConfig(
        instance=str(instance_path),
        algo="idpp",
        seed=0,
        epsilon=1e-3,
        node_budget=2000,
        max_rounds=6,
        episodes=5000,
    )
    reports = []
    for name in ("a", "b"):
        reports.append(run_solve(config, tmp_path / name))
    pa, pb = (tmp_path / "a" / "policy.json"), (tmp_path / "b" / "policy.json")
    assert pa.read_bytes() == pb.read_bytes()
    assert (tmp_path / "a" / "config.json").read_bytes() == (tmp_path / "b" / "config.json").read_bytes()

    import csv

    def stripped(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        k = rows[0].index("seconds")  # wall-clock measurement, not computation
        return [row[:k] + row[k + 1:] for row in rows]

    assert stripped(tmp_path / "a" / "history.csv") == stripped(tmp_path / "b" / "history.csv")
    assert reports[0]["final_value"] == reports[1]["final_value"]
    assert reports[0]["evaluation"]["mc_mean"] == reports[1]["evaluation"]["mc_mean"]
    _ok(7, "two single-worker runs: byte-identical policy/config, identical history "
           "(wall-clock column excepted) and identical values")


def test_08_scale_smoke(tmp_path):
    budget = float(os.environ.get("DETDEC_SMOKE_BUDGET_SECONDS", "1800"))
    t0 = time.perf_counter()
    instance_path = tmp_path / "mactp-4-2-8.json"
    model = mactp_generate(MactpSpec(4, 2, 8, seed=0))
    assert describe(model)["env_state_count"] == 65536
    assert len(model.initial_belief()) == 256
    save_descriptor(model, instance_path)
    config = RunConfig(
        instance=str(instance_path),
        algo="idpp",
        seed=0,
        epsilon=1e-3,
        node_budget=20_000,
        time_budget=max(30.0, budget / 10),
        max_rounds=10,
        episodes=100_000,
    )
    report = run_solve(config, tmp_path / "run")
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{elapsed:.0f}s exceeded the {budget:.0f}s desk budget"
    # a certificate is either convergence or an explicit budget-exhaustion record
    assert report["converged"] in (True, False)
    if not report["converged"]:
        assert report["budget_hit"]
    for name in ("policy.json", "history.csv", "report.json", "config.json"):
        assert (tmp_path / "run" / name).exists()
    assert report["final_value"] >= report["init_value"] - 1e-12
    _ok(8, f"65,536-state / 256-atom instance end-to-end in {elapsed:.0f}s "
           f"(budget {budget:.0f}s): converged={report['converged']}, "
           f"value {report['init_value']:.2f} -> {report['final_value']:.2f}")
