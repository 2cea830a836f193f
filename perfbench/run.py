#!/usr/bin/env python3
"""Benchmark of the detdec solver pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload mactp-idpp --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40     # each workload in its own process

Every workload is a closed loop in one process and one thread: the next
operation starts when the previous one has returned.  ``--instance-seed``
fixes the generated instances (0 is the measured seed, 1 the held-out one);
``--seed`` picks the Monte Carlo stream.  The same seeds give the same inputs.

``--trace 0`` measures the end-to-end metrics with no tracing: cycles of the
workload's operations repeat until the next one would end past ``--seconds``.
``--trace 1`` runs one cycle three times: with call counters on the model's
dynamics, untraced, and with spans around the module-level entry points
``idpp`` calls through; it reports the per-layer metrics derived from them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(every sample, the deterministic fingerprint, spans and self times) is
written to ``.perfbench-out/`` in the repository root; ``compare.py`` prints
the differences between two such result sets.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# run_matrix.py's medium settings
IDPP_SETTINGS = {"max_rounds": 10, "epsilon": 1e-3, "node_budget": 8000}
EPISODES = 100_000  # Monte Carlo episodes and horizon, as `detdec solve` reports them
HORIZON = 100
# Set-up is sampled before the first cycle (at least 3 times) and again before
# every later one (at least once), each time for at least SETUP_MIN_SECONDS, so
# its median spans the run instead of one moment of it.
SETUP_MIN_SECONDS = 0.2
EVAL_REPEATS = 8  # solve workloads evaluate their final policy this often per cycle
MB = 2**20

# The layer shares this benchmark was built to show (printed, never enforced).
PREDICTED_SHARES = {
    "mactp-idpp": ("mdp.value_iteration_s / solve_s", 0.5),
    "collecting-idpp": ("detpomdp.solve_s / solve_s", 0.8),
    "eval-rollout": ("evaluation.* / operation", 0.9),
}


def _import_detdec():
    if not (SRC / "detdec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no detdec sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import detdec
    import detdec.envs
    import detdec.evaluation
    import detdec.idpp
    import detdec.model

    if Path(detdec.__file__).resolve().parent != SRC / "detdec":
        sys.exit(f"perfbench: imported detdec from {detdec.__file__}, not from {SRC}")
    return detdec


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # (detdec package, instance seed) -> model
    policies: int = 0  # > 0: evaluate this many seeded random joint FSCs instead of solving


WORKLOADS = {
    w.name: w
    for w in (
        # relaxation-heavy: 60,488 reachable states, 256 belief atoms
        Workload("mactp-idpp", lambda d, s: d.mactp_generate(d.MactpSpec(4, 2, 8, s))),
        # search-heavy: 2,728 reachable states, 30 atoms
        Workload("collecting-idpp", lambda d, s: d.collecting_generate(d.CollectingSpec(4, 3, 2, 2, s))),
        # evaluation-heavy: 4,096 atoms, full joint `step` with observations, no VI
        Workload("eval-rollout", lambda d, s: d.mactp_generate(d.MactpSpec(4, 2, 12, s)), policies=3),
    )
}


# --- failure accounting ---------------------------------------------------------


class Tally:
    """Attempted and failed operations: calls, output checks and solver records."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        self.check(False, f"{what}: {traceback.format_exc()}")


# --- wrappers around the layers ---------------------------------------------------


@contextmanager
def patched(target, name: str, value):
    """Sets an attribute for the duration (unittest.mock would add its imports to peak_rss_mb)."""
    own = name in vars(target)
    old = getattr(target, name)
    setattr(target, name, value)
    try:
        yield
    finally:
        if own:
            setattr(target, name, old)
        else:
            delattr(target, name)


class Probe:
    """Wraps layer entry points; keeps a summary of every call, and spans when tracing.

    A summary holds the call's ``seconds`` plus what ``summarize`` reads from
    its arguments and result.  A span is ``(name, start, end, parent index)``;
    spans stay in memory until the run writes its result file.
    """

    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.summaries: dict[str, list[dict]] = defaultdict(list)
        self._open: list[int] = []

    def wrap(self, name: str, fn, summarize=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            if self.tracing:
                self.spans.append((name, 0.0, 0.0, parent))
                self._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if self.tracing:
                    self.spans[index] = (name, start, end, parent)
                    self._open.pop()
            summary = summarize(args, result) if summarize is not None else {}
            summary["seconds"] = end - start
            self.summaries[name].append(summary)
            return result

        return wrapper

    def take(self, name: str) -> list[dict]:
        return self.summaries.pop(name, [])


def _vi_summary(args, table) -> dict:
    return {"states": len(table), "bytes": table.succ.nbytes + table.rewards.nbytes}


def _solve_summary(args, result) -> dict:
    problem = args[0]
    return {
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "gap": result.gap,
        "status": result.status,
        "expansions": result.expansions,
        "trials": result.trials,
        "interned": problem.interned_count,
        "cache": len(problem.cache),
    }


class Layers:
    """Installs the probe's wrappers where ``idpp`` looks its callees up.

    Untraced, only the calls the output checks and ``init_only_s`` need are
    wrapped; traced, every entry point is.
    """

    def __init__(self, d, probe: Probe) -> None:
        self.d = d
        self.probe = probe
        w = probe.wrap
        self.entries = {
            "solve": w("detpomdp.solve", d.idpp.solve, _solve_summary),
            "value_iteration": w("mdp.value_iteration", d.idpp.value_iteration, _vi_summary),
            "heuristic_init": w("idpp.heuristic_init", d.idpp.heuristic_init),
        }
        if probe.tracing:
            self.entries.update(
                default_policy=w("mdp.default_policy", d.idpp.default_policy),
                build_br_detpomdp=w("bestresponse.build_br_detpomdp", d.idpp.build_br_detpomdp),
                build_init_detpomdp=w("bestresponse.build_init_detpomdp", d.idpp.build_init_detpomdp),
                exact_value=w("evaluation.exact_value", d.idpp.exact_value),
            )
        self.run = w("idpp.run", d.idpp.run) if probe.tracing else d.idpp.run
        self.exact_value = self.entries.get("exact_value", d.evaluation.exact_value)
        self.mc_value = w("evaluation.mc_value", d.evaluation.mc_value) if probe.tracing else d.evaluation.mc_value

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for name, fn in self.entries.items():
                stack.enter_context(patched(self.d.idpp, name, fn))
            yield self


@contextmanager
def counting_dynamics(d, model, counts: dict):
    """Counts model.step, model.transition_only and TransitionCache.step calls."""

    def counter(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    cache_step = d.model.TransitionCache.step
    with ExitStack() as stack:
        for name in ("step", "transition_only"):
            stack.enter_context(patched(model, name, counter(f"model.{name}", getattr(model, name))))
        stack.enter_context(patched(d.model.TransitionCache, "step", counter("cache.step", cache_step)))
        yield


# --- set-up ------------------------------------------------------------------------


def random_policy(d, model, starts, instance_seed: int, index: int, nodes=64, rollouts=64, steps=40):
    """Seeded random joint FSC whose transitions branch on observations met in rollouts."""
    rng = random.Random(f"perfbench-policy/{instance_seed}/{index}")
    agents = range(model.agent_count)
    actions = [[rng.randrange(model.action_space_sizes[i]) for _ in range(nodes)] for i in agents]
    fallback = [[rng.randrange(nodes) for _ in range(nodes)] for _ in agents]
    transitions = [[{} for _ in range(nodes)] for _ in agents]
    for _ in range(rollouts):
        state = starts[rng.randrange(len(starts))]
        current = [0] * model.agent_count
        for _ in range(steps):
            if model.is_terminal(state):
                break
            state, obs, _ = model.step(state, tuple(actions[i][current[i]] for i in agents))
            for i in agents:
                table = transitions[i][current[i]]
                if obs[i] not in table and rng.random() < 0.5:
                    table[obs[i]] = rng.randrange(nodes)
                current[i] = table.get(obs[i], fallback[i][current[i]])
    return d.JointPolicy(
        d.Fsc([d.FscNode(actions[i][k], transitions[i][k], fallback[i][k]) for k in range(nodes)])
        for i in agents
    )


@dataclass
class Setup:
    model: object
    descriptor: str
    policy_texts: list[str]
    generate_s: float
    load_s: float
    total_s: float


def set_up(d, workload: Workload, instance_seed: int) -> Setup:
    """Instance generation, descriptor round trip, and the random policies of eval-rollout."""
    t0 = perf_counter()
    generated = workload.make(d, instance_seed)
    t1 = perf_counter()
    text = d.envs.descriptor_text(generated)
    model = d.envs.model_from_descriptor(json.loads(text))
    t2 = perf_counter()
    if workload.policies:
        starts = model.initial_belief().states
        texts = [d.serialize(random_policy(d, model, starts, instance_seed, k)) for k in range(workload.policies)]
    else:
        texts = []
    t3 = perf_counter()
    return Setup(model, text, texts, t1 - t0, t2 - t1, t3 - t0)


# --- operations ----------------------------------------------------------------------


def _policy_hash(d, policy) -> str:
    return hashlib.sha256(d.serialize(policy).encode()).hexdigest()[:16]


def _mc_slack(model) -> float:
    """Truncation bound of a horizon-H Monte Carlo return: gamma^H * max|r| / (1 - gamma)."""
    rmin, rmax = model.reward_bounds()
    gamma = model.discount
    return gamma**HORIZON * max(abs(rmin), abs(rmax)) / (1.0 - gamma)


def evaluate_once(layers: Layers, model, policy, seed: int, tally: Tally) -> tuple[float, float, float, float]:
    """exact_value + mc_value of one policy: (exact, mc mean, exact seconds, total seconds)."""
    t0 = perf_counter()
    exact = layers.exact_value(model, policy)
    t1 = perf_counter()
    mean, std_error = layers.mc_value(model, policy, EPISODES, HORIZON, seed)
    t2 = perf_counter()
    tally.check(
        abs(mean - exact) <= 4 * std_error + _mc_slack(model),
        f"Monte Carlo mean {mean} (SE {std_error}) disagrees with exact value {exact}",
    )
    return exact, mean, t1 - t0, t2 - t0


def solve_op(d, layers: Layers, model, params, seed: int, tally: Tally) -> dict:
    """idpp.run, then the evaluation `detdec solve` reports for its policy.

    ``init_only_s`` is the value iteration plus heuristic_init inside the
    run: the same work as ``idpp.heuristic_init(model, params)`` alone, the
    ``--algo init-only`` baseline.
    """
    probe = layers.probe
    t0 = perf_counter()
    run = layers.run(model, params)
    solve_s = perf_counter() - t0
    tally.check(True, "idpp.run")
    solves = probe.take("detpomdp.solve")
    (table,) = probe.take("mdp.value_iteration")
    (init,) = probe.take("idpp.heuristic_init")
    for rec in run.history:
        tally.check(not rec.solver_status.startswith("error:"),
                    f"best response round {rec.round} agent {rec.agent}: {rec.solver_status}")
    for s in solves:
        tally.check(s["lower_bound"] <= s["upper_bound"] + 1e-9,
                    f"certificate overstates: lower {s['lower_bound']} > upper {s['upper_bound']}")
    reread = d.deserialize(d.serialize(run.policy))
    tally.check(d.evaluation.exact_value(model, reread) == run.final_value,
                "re-evaluated policy differs from the reported final_value")
    eval_s = []
    for _ in range(EVAL_REPEATS):
        exact, _, _, seconds = evaluate_once(layers, model, run.policy, seed, tally)
        tally.check(exact == run.final_value, f"exact value {exact} != final_value {run.final_value}")
        eval_s.append(seconds)
    return {
        "solve_s": solve_s,
        "init_only_s": table["seconds"] + init["seconds"],
        "eval_s": eval_s,
        "final_value": run.final_value,
        "init_value": run.init_value,
        "run": run,
        "solves": solves,
        "fingerprint": {
            "final_value": run.final_value,
            "init_value": run.init_value,
            "policy_sizes": list(run.policy.sizes()),
            "policy_sha256": _policy_hash(d, run.policy),
            "mdp.reachable_states": table["states"],
            "detpomdp.expansions": sum(s["expansions"] for s in solves),
            "detpomdp.trials": sum(s["trials"] for s in solves),
            "idpp.br_calls": len(run.history),
        },
        "policy_nodes": sum(run.policy.sizes()),
        "table_bytes": table["bytes"],
    }


def eval_op(d, layers: Layers, model, texts: list[str], seed: int, tally: Tally) -> dict:
    """Per policy: parse its text, exact_value, mc_value (the `detdec eval --exact` path)."""
    op_s, exact_s, eval_s, exacts, means, sizes, hashes = [], [], [], [], [], [], []
    for text in texts:
        t0 = perf_counter()
        policy = d.deserialize(text)
        exact, mean, ex_s, ev_s = evaluate_once(layers, model, policy, seed, tally)
        op_s.append(perf_counter() - t0)
        tally.check(True, "policy evaluation")
        tally.check(d.serialize(policy) == text, "policy text round trip")
        exact_s.append(ex_s)
        eval_s.append(ev_s)
        exacts.append(exact)
        means.append(mean)
        sizes.append(list(policy.sizes()))
        hashes.append(_policy_hash(d, policy))
    return {
        "solve_s": statistics.fmean(op_s),
        "init_only_s": statistics.fmean(exact_s),
        "eval_s": [statistics.fmean(eval_s)],
        "final_value": statistics.fmean(exacts),
        "init_value": statistics.fmean(means),
        "fingerprint": {"exact_values": exacts, "policy_sizes": sizes, "policy_sha256": hashes},
        "policy_nodes": sum(map(sum, sizes)),
    }


def operation(d, workload: Workload, setup: Setup, params, seed: int, probe: Probe, tally: Tally) -> dict:
    gc.collect()  # every operation starts from a collected heap
    layers = Layers(d, probe)
    with layers.installed():
        if workload.policies:
            return eval_op(d, layers, setup.model, setup.policy_texts, seed, tally)
        return solve_op(d, layers, setup.model, params, seed, tally)


# --- metrics ---------------------------------------------------------------------------


def self_times(spans) -> dict[str, float]:
    """Per span name: duration minus the part covered by child spans."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), seconds in zip(spans, own):
        totals[name] += seconds
    return dict(totals)


def layer_metrics(spans, op: dict, counts: dict, atoms: int) -> dict[str, float]:
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    longest: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        busy[name] += end - start
        calls[name] += 1
        longest[name] = max(longest[name], end - start)
    solves = op.get("solves", [])
    run = op.get("run")
    history = run.history if run is not None else []
    vi_s = busy["mdp.value_iteration"]
    states = op["fingerprint"].get("mdp.reachable_states", 0)
    expansions = sum(s["expansions"] for s in solves)
    br_calls = len(history)
    accepted = sum(r.accepted for r in history)
    cache_calls = counts["cache.step"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "mdp.value_iteration_s": vi_s,
        "mdp.reachable_states": states,
        "mdp.states_per_s": ratio(states, vi_s),
        "mdp.table_mb": op.get("table_bytes", 0) / MB,
        "mdp.default_policy_s": busy["mdp.default_policy"],
        "idpp.heuristic_init_s": busy["idpp.heuristic_init"],
        "idpp.br_calls": br_calls,
        "idpp.accepted": accepted,
        "idpp.accept_ratio": ratio(accepted, br_calls),
        "idpp.rounds": run.rounds_completed if run is not None else 0,
        "idpp.error_calls": sum(r.solver_status.startswith("error:") for r in history),
        "bestresponse.build_s": busy["bestresponse.build_br_detpomdp"] + busy["bestresponse.build_init_detpomdp"],
        "bestresponse.interned_states": max((s["interned"] for s in solves), default=0),
        "bestresponse.transition_cache_entries": max((s["cache"] for s in solves), default=0),
        "detpomdp.solve_s": busy["detpomdp.solve"],
        "detpomdp.solve_calls": calls["detpomdp.solve"],
        "detpomdp.solve_max_s": longest["detpomdp.solve"],
        "detpomdp.expansions": expansions,
        "detpomdp.trials": sum(s["trials"] for s in solves),
        "detpomdp.expansions_per_s": ratio(expansions, busy["detpomdp.solve"]),
        "detpomdp.converged_ratio": ratio(sum(s["status"] == "converged" for s in solves), len(solves)),
        "detpomdp.gap_max": max((s["gap"] for s in solves), default=0.0),
        "evaluation.exact_s": busy["evaluation.exact_value"],
        "evaluation.exact_calls": calls["evaluation.exact_value"],
        "evaluation.mc_s": busy["evaluation.mc_value"],
        "evaluation.atoms_per_s": ratio(atoms * calls["evaluation.exact_value"], busy["evaluation.exact_value"]),
        "model.step_calls": counts["model.step"],
        "model.transition_only_calls": counts["model.transition_only"],
        "model.cache_hit_ratio": ratio(cache_calls - counts["model.step"], cache_calls),
        "fsc.policy_nodes": op["policy_nodes"],
    }


def shares(workload: Workload, spans, op_seconds: float) -> dict[str, float]:
    """Layer shares of the traced operation: idpp.run, or all policies' parse + exact + MC."""
    busy: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        busy[name] += end - start
    if workload.policies:
        return {"evaluation.* / operation": (busy["evaluation.exact_value"] + busy["evaluation.mc_value"]) / op_seconds}
    return {
        "mdp.value_iteration_s / solve_s": busy["mdp.value_iteration"] / op_seconds,
        "detpomdp.solve_s / solve_s": busy["detpomdp.solve"] / op_seconds,
        "idpp.heuristic_init_s / solve_s": busy["idpp.heuristic_init"] / op_seconds,
    }


# --- one workload, one process ---------------------------------------------------------


def measure(args) -> int:
    d = _import_detdec()
    workload = WORKLOADS[args.workload]
    tally = Tally()
    params = d.IdppParams(
        max_rounds=IDPP_SETTINGS["max_rounds"],
        solve=d.SolveParams(epsilon=IDPP_SETTINGS["epsilon"], node_budget=IDPP_SETTINGS["node_budget"]),
    )
    samples: dict[str, list[float]] = defaultdict(list)

    def sample_setup(min_count: int) -> Setup:
        started = perf_counter()
        count = 0
        while count < min_count or perf_counter() - started < SETUP_MIN_SECONDS:
            new = set_up(d, workload, args.instance_seed)
            samples["setup_s"].append(new.total_s)
            samples["envs.generate_s"].append(new.generate_s)
            samples["envs.load_s"].append(new.load_s)
            count += 1
        return new

    setup = sample_setup(3)
    tally.check(d.envs.descriptor_text(setup.model) == setup.descriptor, "descriptor round trip changed the instance")
    atoms = len(setup.model.initial_belief())
    fingerprints = []
    result: dict = {"workload": workload.name, "seed": args.seed, "instance_seed": args.instance_seed,
                    "trace": args.trace, "seconds": args.seconds}

    def op(probe):
        out = operation(d, workload, setup, params, args.seed, probe, tally)
        fingerprints.append(out["fingerprint"])
        return out

    try:
        if not args.trace:
            deadline = perf_counter() + args.seconds
            while True:
                started = perf_counter()
                out = op(Probe(tracing=False))
                for key in ("solve_s", "init_only_s", "final_value", "init_value"):
                    samples[key].append(out[key])
                samples["eval_s"] += out["eval_s"]
                if not samples["peak_rss_mb"]:  # the same work in every run: set-up and one cycle
                    samples["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB)
                if perf_counter() + (perf_counter() - started) > deadline:
                    break
                sample_setup(1)
        else:
            counts: dict[str, int] = defaultdict(int)
            with counting_dynamics(d, setup.model, counts):  # first, so it also warms the process up
                op(Probe(tracing=False))
            plain = op(Probe(tracing=False))
            probe = Probe(tracing=True)
            traced = op(probe)
            layer = layer_metrics(probe.spans, traced, counts, atoms)
            layer["trace.overhead_s"] = traced["solve_s"] - plain["solve_s"]
            for key, value in layer.items():
                samples[key].append(value)
            result["spans"] = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in probe.spans]
            result["self_s"] = self_times(probe.spans)
            op_seconds = traced["solve_s"] * max(1, workload.policies)
            result["shares"] = shares(workload, probe.spans, op_seconds)
    except Exception:
        tally.error(f"{workload.name} operation")

    tally.check(all(fp == fingerprints[0] for fp in fingerprints),
                "deterministic fingerprint differs between repetitions")
    samples["success_ratio"] = [1.0 - tally.failed / tally.attempted]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = [name for name in units if not samples.get(name)]
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in units.items()}
    result.update(samples=dict(samples), fingerprint=fingerprints[0] if fingerprints else None,
                  attempted=tally.attempted, failed=tally.failed, metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-i{args.instance_seed}-s{args.seed}-t{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"{workload.name}  instance seed {args.instance_seed}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        n = len(samples[name])
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:<7s} (median of {n})")
    if args.trace:
        print("  self time per span (s):")
        for name, seconds in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:38s} {seconds:10.4f}")
        label, floor = PREDICTED_SHARES[workload.name]
        for name, share in result["shares"].items():
            note = f"  (predicted >= {floor}: {'yes' if share >= floor else 'NO'})" if name == label else ""
            print(f"  share {name:34s} {share:8.3f}{note}")
    print(f"  fingerprint {json.dumps(fingerprints[0] if fingerprints else None, sort_keys=True)}")
    print(f"  result file {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def measure_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's own."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--instance-seed", str(args.instance_seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()), "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="Monte Carlo stream")
    parser.add_argument("--seconds", type=float, default=40.0, help="measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=0, help="instance generation seed (1 is held out)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return measure_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
