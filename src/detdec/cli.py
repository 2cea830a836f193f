"""Command line front end: gen / solve / eval / bench.

All randomness flows from one 64-bit seed through named substreams, every
output directory receives the resolved configuration it was produced from,
and reruns of the same configuration in single-worker mode with
count-based budgets reproduce the artifacts byte for byte (wall-clock
columns excepted, and a time budget necessarily makes the stopping point
timing-dependent).

Exit codes: 0 converged, 2 a partial result (a round cap, a limit error, or
an equilibrium gap above the tolerances), 1 error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import envs, idpp
from .detpomdp import SolveParams
from .errors import (
    InstanceFormatError, MissingStateError, PolicyFormatError, ResourceLimitError, require_int_at_least,
    require_positive_finite,
)
from .evaluation import evaluate
from .fsc import JointPolicy, deserialize, serialize
from .idpp import IdppParams
from .model import DetDecModel

try:
    import resource
except ImportError:  # not on Windows
    resource = None

OUT_ROOT_ENV = "DETDEC_OUT"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2

# errors that are the user's input or budget, not a bug: exit 1 with a message
USER_ERRORS = (
    OSError, ValueError, MissingStateError, InstanceFormatError, PolicyFormatError, ResourceLimitError,
)

HISTORY_COLUMNS = [
    "round", "agent", "pre_value", "post_value", "accepted", "solver_status", "solver_ub", "solver_nodes",
    "seconds",
]

BENCH_COLUMNS = [
    "kind", "instance", "family", "algo", "seed",
    "exact_value", "mc_mean", "mc_std_error", "converged",
    "iterations", "accepted_updates", "seconds",
    "exact_mean", "exact_std", "seconds_mean", "seconds_std",
]


@dataclass
class RunConfig:
    """Fully resolved solve configuration, echoed into the output directory."""

    instance: str
    algo: str = "idpp"
    seed: int = 0
    gamma: float | None = None          # None: take the instance descriptor's value
    value_tolerance: float = 1e-6
    max_rounds: int = 20
    agent_order: str = "ascending"
    epsilon: float = 1e-3
    node_budget: int = 20_000
    time_budget: float | None = None
    max_depth: int | None = None
    mdp_tol: float = 1e-6
    state_cap: int = 2_000_000
    episodes: int = 100_000
    horizon: int = 100

    def __post_init__(self) -> None:
        if self.gamma is not None:
            require_positive_finite("gamma", self.gamma)
            if self.gamma >= 1:
                raise ValueError(f"gamma must lie in (0, 1), got {self.gamma!r}")
        require_int_at_least("episodes", self.episodes, 0)
        require_int_at_least("horizon", self.horizon, 1)
        self.idpp_params()  # checks every solver setting before a run writes anything

    def idpp_params(self) -> IdppParams:
        return IdppParams(
            value_tolerance=self.value_tolerance,
            max_rounds=self.max_rounds,
            solve=SolveParams(
                epsilon=self.epsilon,
                max_depth=self.max_depth,
                node_budget=self.node_budget,
                time_budget=self.time_budget,
            ),
            agent_order=self.agent_order,
            seed=self.seed,
            mdp_tol=self.mdp_tol,
            state_cap=self.state_cap,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))


def out_root() -> Path:
    return Path(os.environ.get(OUT_ROOT_ENV, "."))


def _apply_gamma(path: str | Path, gamma: float | None) -> DetDecModel:
    model = envs.load_model(path)
    if gamma is not None and gamma != model.discount:
        doc = model.descriptor()
        doc["gamma"] = gamma
        model = envs.model_from_descriptor(doc)
    return model


# --- gen ----------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "mactp":
        spec = envs.MactpSpec(grid_size=args.n, agents=args.agents,
                              stochastic_edges=args.edges, seed=args.seed)
        model = envs.mactp_generate(spec, gamma=args.gamma)
        default_name = f"mactp-n{args.n}-a{args.agents}-e{args.edges}-s{args.seed}.json"
    else:
        spec = envs.CollectingSpec(height=args.h, width=args.w, agents=args.agents,
                                   boxes=args.boxes, seed=args.seed)
        model = envs.collecting_generate(spec, gamma=args.gamma)
        default_name = f"collecting-h{args.h}-w{args.w}-a{args.agents}-b{args.boxes}-s{args.seed}.json"
    out = Path(args.out) if args.out else out_root() / default_name
    out.parent.mkdir(parents=True, exist_ok=True)
    envs.save_descriptor(model, out)
    report = envs.describe(model)
    print(f"wrote {out}")
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


# --- solve --------------------------------------------------------------------


def write_history_csv(path: Path, history) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for rec in history:
            writer.writerow([
                rec.round, rec.agent, repr(rec.pre_value), repr(rec.post_value),
                rec.accepted, rec.solver_status, repr(rec.solver_ub), rec.solver_expansions, repr(rec.seconds),
            ])


def _run_algo(config: RunConfig):
    """The idpp / init-only dispatch shared by ``solve`` and ``bench``.

    Returns ``(model, policy, history, summary, seconds)``; ``summary`` holds
    the report fields of the run and ``seconds`` excludes instance loading.
    """
    model = _apply_gamma(config.instance, config.gamma)
    params = config.idpp_params()
    t0 = time.perf_counter()
    if config.algo == "init-only":
        init = idpp.heuristic_init(model, params)
        policy, history, converged = init.policy, [], init.converged
        summary = {"final_value": init.value, "rounds": 0, "budget_hit": not converged}
    else:
        run = idpp.run(model, params)
        init, policy, history, converged = run.init, run.policy, run.history, run.converged
        summary = {
            "final_value": run.final_value,
            "rounds": run.rounds_completed,
            "budget_hit": run.budget_hit,
            "equilibrium_gap": run.equilibrium_gap,
            "iterations": [asdict(rec) for rec in history],
        }
    seconds = time.perf_counter() - t0
    summary.update(converged=converged, init_value=init.value,
                   init_records=[asdict(r) for r in init.records])
    return model, policy, history, summary, seconds


def peak_rss_mb() -> float | None:
    """The process's peak resident memory so far in MB (2**20 bytes); ``None`` without ``resource``.

    ``ru_maxrss`` is in KiB on Linux and in bytes on macOS.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def run_solve(config: RunConfig, out_dir: Path) -> dict:
    """Run one solve per the config, write all artifacts, return the report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(config.to_json(), encoding="utf-8")
    instance_text = Path(config.instance).read_text(encoding="utf-8")
    (out_dir / "instance.json").write_text(instance_text, encoding="utf-8")

    model, policy, history, summary, elapsed = _run_algo(config)
    (out_dir / "policy.json").write_text(serialize(policy) + "\n", encoding="utf-8")
    write_history_csv(out_dir / "history.csv", history)
    eval_report = evaluate(model, policy, exact=True, episodes=config.episodes,
                           horizon=config.horizon, seed=config.seed)
    report = {
        "algo": config.algo,
        "instance": config.instance,
        "family": model.descriptor().get("family"),
        "seed": config.seed,
        "policy_sizes": list(policy.sizes()),
        "evaluation": eval_report.to_dict(),
        "seconds": elapsed,
        "peak_rss_mb": peak_rss_mb(),
        **summary,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return report


def cmd_solve(args: argparse.Namespace) -> int:
    config = RunConfig(instance=args.instance, algo=args.algo, seed=args.seed, **_solver_settings(args))
    if args.out:
        out_dir = Path(args.out)
    else:
        stem = Path(args.instance).stem
        out_dir = out_root() / f"{stem}-{config.algo}-s{config.seed}"
    report = run_solve(config, out_dir)
    print(f"wrote {out_dir}")
    print(f"algo={report['algo']} converged={report['converged']} "
          f"value={report['final_value']:.6f} seconds={report['seconds']:.2f}")
    return EXIT_OK if report["converged"] else EXIT_BUDGET


# --- eval ---------------------------------------------------------------------


def _check_policy_matches(model: DetDecModel, policy: JointPolicy) -> None:
    if policy.agent_count != model.agent_count:
        raise PolicyFormatError(
            f"agents: policy has {policy.agent_count} controllers, "
            f"instance has {model.agent_count} agents"
        )
    for i, fsc in enumerate(policy.controllers):
        bound = model.action_space_sizes[i]
        for ni, node in enumerate(fsc.nodes):
            if node.action >= bound:
                raise PolicyFormatError(
                    f"agents[{i}].nodes[{ni}].action: {node.action} outside agent "
                    f"action space of size {bound}"
                )
            for obs in node.transitions:
                if obs >= model.observation_space_sizes[i]:
                    raise PolicyFormatError(
                        f"agents[{i}].nodes[{ni}].transitions[{obs!r}]: observation "
                        f"outside agent bound {model.observation_space_sizes[i]}"
                    )


def cmd_eval(args: argparse.Namespace) -> int:
    model = envs.load_model(args.instance)
    policy = deserialize(Path(args.policy).read_text(encoding="utf-8"))
    _check_policy_matches(model, policy)
    t0 = time.perf_counter()
    report = evaluate(model, policy, exact=args.exact, episodes=args.episodes,
                      horizon=args.horizon, seed=args.seed)
    # wall-clock and memory beside, never inside, the report's value fields
    doc = {**report.to_dict(), "seconds": time.perf_counter() - t0, "peak_rss_mb": peak_rss_mb()}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    if report.exact_value is not None:
        print(f"exact value: {report.exact_value:.6f}")
    if report.mc_mean is not None:
        print(f"mc value:    {report.mc_mean:.6f} +/- {report.mc_std_error:.6f} "
              f"({args.episodes} episodes, horizon {args.horizon}, seed {args.seed})")
    return EXIT_OK


# --- bench --------------------------------------------------------------------


def _bench_cell(payload: tuple) -> dict:
    """One matrix cell: a run row, or an error row if the run hit a user error."""
    instance, algo, seed, base = payload
    try:
        config = RunConfig(**{**base, "instance": instance, "algo": algo, "seed": seed})
        model, policy, history, summary, seconds = _run_algo(config)
        row = {
            "kind": "run",
            "instance": instance,
            "family": model.descriptor().get("family"),
            "algo": algo,
            "seed": seed,
            "exact_value": summary["final_value"],
            "converged": summary["converged"],
            "iterations": len(history),
            "accepted_updates": sum(1 for r in history if r.accepted),
            "seconds": seconds,
        }
        if config.episodes:
            rep = evaluate(model, policy, exact=False, episodes=config.episodes,
                           horizon=config.horizon, seed=seed)
            row["mc_mean"] = rep.mc_mean
            row["mc_std_error"] = rep.mc_std_error
        return row
    except USER_ERRORS as exc:
        return {"kind": "run", "instance": instance, "algo": algo, "seed": seed,
                "converged": f"error:{type(exc).__name__}"}


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def cmd_bench(args: argparse.Namespace) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ValueError(f"algos must name at least one of idpp, init-only, got {args.algos!r}")
    for a in algos:
        if a not in ("idpp", "init-only"):
            raise ValueError(f"unknown algo {a!r}")
    require_int_at_least("seeds", args.seeds, 1)
    require_int_at_least("workers", args.workers, 1)
    base = _solver_settings(args)
    cells = [
        (instance, algo, seed, base)
        for instance in args.instance
        for algo in algos
        for seed in range(args.seed0, args.seed0 + args.seeds)
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_bench_cell, cells))
    else:
        rows = [_bench_cell(cell) for cell in cells]
    aggregates = []
    for instance in args.instance:
        for algo in algos:
            values = [r["exact_value"] for r in rows
                      if r.get("instance") == instance and r.get("algo") == algo
                      and "exact_value" in r]
            times = [r["seconds"] for r in rows
                     if r.get("instance") == instance and r.get("algo") == algo
                     and "seconds" in r]
            if not values:
                continue
            vm, vs = _mean_std(values)
            tm, ts = _mean_std(times)
            aggregates.append({
                "kind": "aggregate", "instance": instance, "algo": algo,
                "family": next((r.get("family") for r in rows
                                if r.get("instance") == instance and "family" in r), None),
                "exact_mean": vm, "exact_std": vs,
                "seconds_mean": tm, "seconds_std": ts,
            })
    out = Path(args.out) if args.out else out_root() / "bench.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows + aggregates:
            writer.writerow(row)
    print(f"wrote {out}: {len(rows)} run rows, {len(aggregates)} aggregate rows")
    return EXIT_OK


# --- argument parsing ------------------------------------------------------------


# the RunConfig fields that _add_solver_args gives a flag: all but the run's instance, algo and seed
_SOLVER_FIELDS = tuple(f for f in fields(RunConfig) if f.name not in ("instance", "algo", "seed"))


def _solver_settings(args: argparse.Namespace) -> dict:
    """The solver settings of ``RunConfig``, read from the parsed flags."""
    return {f.name: getattr(args, f.name) for f in _SOLVER_FIELDS}


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    """One flag per solver setting of ``RunConfig``, defaulting to its field default."""
    p.add_argument("--gamma", type=float,
                   help="discount override (default: instance descriptor value)")
    p.add_argument("--value-tolerance", type=float, help="acceptance margin / convergence threshold")
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--order", dest="agent_order", choices=["ascending", "random"],
                   help="agent update order per round")
    p.add_argument("--epsilon", type=float, help="subsolver bound-gap target")
    p.add_argument("--node-budget", type=int, help="subsolver belief expansions per call")
    p.add_argument("--time-budget", type=float,
                   help="subsolver seconds per call (unset keeps runs reproducible)")
    p.add_argument("--max-depth", type=int)
    p.add_argument("--mdp-tol", type=float)
    p.add_argument("--state-cap", type=int)
    p.add_argument("--episodes", type=int, help="Monte Carlo episodes for the final report")
    p.add_argument("--horizon", type=int)
    p.set_defaults(**{f.name: f.default for f in _SOLVER_FIELDS})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detdec",
        description="Deterministic decentralized planning: generate, solve, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark instance")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    gm = gen_sub.add_parser("mactp", help="grid navigation with stochastic edges")
    gm.add_argument("--n", type=int, required=True, help="grid side length")
    gm.add_argument("--agents", type=int, default=2)
    gm.add_argument("--edges", type=int, required=True, help="stochastic edge count")
    gm.add_argument("--seed", type=int, default=0)
    gm.add_argument("--gamma", type=float, default=0.95)
    gm.add_argument("--out", default=None)
    gm.set_defaults(func=cmd_gen)
    gc = gen_sub.add_parser("collecting", help="cooperative box delivery")
    gc.add_argument("--h", type=int, required=True, help="interior height")
    gc.add_argument("--w", type=int, required=True, help="interior width")
    gc.add_argument("--agents", type=int, default=2)
    gc.add_argument("--boxes", type=int, required=True)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--gamma", type=float, default=0.95)
    gc.add_argument("--out", default=None)
    gc.set_defaults(func=cmd_gen)

    solve_p = sub.add_parser("solve", help="solve an instance, write policy/history/report")
    solve_p.add_argument("instance")
    solve_p.add_argument("--out", default=None, help=f"output directory (default under ${OUT_ROOT_ENV})")
    solve_p.add_argument("--algo", choices=["idpp", "init-only"], default="idpp")
    solve_p.add_argument("--seed", type=int, default=0)
    _add_solver_args(solve_p)
    solve_p.set_defaults(func=cmd_solve)

    eval_p = sub.add_parser("eval", help="evaluate a policy file on an instance")
    eval_p.add_argument("instance")
    eval_p.add_argument("policy")
    eval_p.add_argument("--exact", action="store_true", help="also compute the exact value")
    eval_p.add_argument("--episodes", type=int, default=100_000)
    eval_p.add_argument("--horizon", type=int, default=100)
    eval_p.add_argument("--seed", type=int, default=0)
    eval_p.add_argument("--out", default=None, help="write the report JSON here")
    eval_p.set_defaults(func=cmd_eval)

    bench_p = sub.add_parser("bench", help="run a seeds x algos matrix, aggregate a CSV")
    bench_p.add_argument("--instance", action="append", required=True,
                         help="instance descriptor (repeatable)")
    bench_p.add_argument("--algos", default="idpp,init-only")
    bench_p.add_argument("--seeds", type=int, default=10)
    bench_p.add_argument("--seed0", type=int, default=0)
    bench_p.add_argument("--workers", type=int, default=1)
    bench_p.add_argument("--out", default=None)
    _add_solver_args(bench_p)
    # bench aggregates exact values; Monte Carlo is opt-in there
    bench_p.set_defaults(func=cmd_bench, episodes=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
