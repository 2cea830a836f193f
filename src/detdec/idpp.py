"""Iterative best-response driver.

The driver first builds one controller per agent against the default policy
of the fully observable relaxation (heuristic initialization), then loops:
pick the next agent round-robin, freeze everyone else, solve that agent's
best-response problem, and *keep the new controller only if the exactly
evaluated joint value improves* by more than the acceptance margin.  An
agent is skipped, with no history row, when no update has been accepted
since its last call returned: its problem is unchanged, so the solver
would return the controller it holds or the one rejected then.  The loop
stops after a full round with no accepted update, or after a round cap.
Limit errors (``ResourceLimitError``, ``MissingStateError``) are recorded
as ``error:<Name>`` iterations; any other exception propagates.

The certificate is each agent's last call: its upper bound on the agent's
best response, less the joint value the call left (``pre_value`` if it
was rejected, ``post_value`` if accepted).  After a round with no accepted
update no agent's problem has changed since its last call, so the largest
of these, ``equilibrium_gap``, bounds what any one agent could still gain.
A run is ``converged`` only when that round had no error and the gap is
at most ``value_tolerance + epsilon`` (plus 1e-9 for rounding); a call
stopped on a budget with a wide gap leaves the run unconverged.

Accept/converge decisions use exact evaluation (deterministic models make
it cheap: one closed-form trajectory per initial atom, all atoms advanced
in lockstep), never Monte Carlo, so acceptance cannot oscillate on sampling
noise.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bestresponse import build_br_detpomdp, build_init_detpomdp
from .detpomdp import SolveParams, solve
from .errors import MissingStateError, ResourceLimitError, require_int_at_least, require_positive_finite
from .evaluation import exact_value
from .fsc import Fsc, JointPolicy
from .mdp import DEFAULT_STATE_CAP, DEFAULT_TOL, MdpValueTable, default_policy, value_iteration
from .model import DetDecModel
from .rng import stream


@dataclass
class IdppParams:
    value_tolerance: float = 1e-6   # acceptance margin and convergence threshold
    max_rounds: int = 20
    solve: SolveParams = field(default_factory=SolveParams)
    agent_order: str = "ascending"  # or "random" (seeded shuffle per round)
    seed: int = 0
    mdp_tol: float = DEFAULT_TOL
    state_cap: int = DEFAULT_STATE_CAP

    def __post_init__(self) -> None:
        require_positive_finite("value_tolerance", self.value_tolerance)
        require_int_at_least("max_rounds", self.max_rounds, 1)
        require_positive_finite("mdp_tol", self.mdp_tol)
        require_int_at_least("state_cap", self.state_cap, 1)
        if self.agent_order not in ("ascending", "random"):
            raise ValueError(f"unknown agent_order {self.agent_order!r}")


@dataclass
class IterationRecord:
    round: int
    agent: int
    pre_value: float
    post_value: float
    accepted: bool
    solver_status: str
    solver_lb: float
    solver_ub: float
    solver_expansions: int
    seconds: float


@dataclass
class InitRecord:
    agent: int
    solver_status: str
    solver_lb: float
    solver_expansions: int
    fsc_size: int
    seconds: float


@dataclass
class InitResult:
    policy: JointPolicy
    records: list[InitRecord]
    value: float | None = None

    @property
    def converged(self) -> bool:
        return all(r.solver_status == "converged" for r in self.records)


@dataclass
class RunResult:
    policy: JointPolicy
    history: list[IterationRecord]
    init: InitResult
    final_value: float
    converged: bool           # a full round with no accepted update or error, and a gap within tolerance
    rounds_completed: int
    budget_hit: bool          # any solver call stopped on a budget
    equilibrium_gap: float | None  # None when an agent's last call failed with an error

    @property
    def init_value(self) -> float:
        return self.init.value


def _equilibrium_gap(history: list[IterationRecord]) -> float | None:
    """Largest ``solver_ub`` less the joint value it left, over each agent's last call."""
    last = {rec.agent: rec for rec in history}
    if any(rec.solver_status.startswith("error:") for rec in last.values()):
        return None
    return max(
        (rec.solver_ub - (rec.post_value if rec.accepted else rec.pre_value) for rec in last.values()),
        default=None,
    )


def heuristic_init(
    model: DetDecModel,
    params: IdppParams | None = None,
    table: MdpValueTable | None = None,
) -> InitResult:
    """Per-agent controllers planned against the default relaxation policy."""
    if params is None:
        params = IdppParams()
    if table is None:
        table = value_iteration(model, tol=params.mdp_tol, state_cap=params.state_cap)
    pi_mdp = default_policy(table)
    controllers: list[Fsc] = []
    records: list[InitRecord] = []
    for agent in range(model.agent_count):
        t0 = time.perf_counter()
        problem = build_init_detpomdp(model, agent, pi_mdp)
        result = solve(problem, problem.initial_belief(), params.solve)
        controllers.append(result.fsc)
        records.append(
            InitRecord(
                agent=agent,
                solver_status=result.status,
                solver_lb=result.lower_bound,
                solver_expansions=result.expansions,
                fsc_size=result.fsc.size,
                seconds=time.perf_counter() - t0,
            )
        )
    policy = JointPolicy(controllers)
    return InitResult(policy=policy, records=records, value=exact_value(model, policy))


def run(model: DetDecModel, params: IdppParams | None = None) -> RunResult:
    """Heuristic initialization followed by the iterative best-response loop."""
    if params is None:
        params = IdppParams()
    table = value_iteration(model, tol=params.mdp_tol, state_cap=params.state_cap)
    init = heuristic_init(model, params, table=table)
    policy = init.policy
    value = init.value
    history: list[IterationRecord] = []
    budget_hit = any(r.solver_status != "converged" for r in init.records)
    order_rng = stream(params.seed, "agent-order") if params.agent_order == "random" else None
    quiet = False  # the last round accepted no update and hit no error
    rounds = 0
    accepted_count = 0
    # accepted_count after each agent's last call that returned a controller
    solved_at: list[int | None] = [None] * model.agent_count
    for rnd in range(1, params.max_rounds + 1):
        rounds = rnd
        agents = list(range(model.agent_count))
        if order_rng is not None:
            order_rng.shuffle(agents)
        accepted_this_round = False
        errored_this_round = False
        for agent in agents:
            if solved_at[agent] == accepted_count:
                # the other controllers are those of its last call: the same problem,
                # whose answer is already the incumbent or was rejected
                continue
            t0 = time.perf_counter()
            try:
                problem = build_br_detpomdp(model, policy, agent, value_table=table)
                result = solve(problem, problem.initial_belief(), params.solve)
            except (ResourceLimitError, MissingStateError) as exc:
                # keep the incumbent controller; the failed call blocks `converged`
                errored_this_round = True
                history.append(
                    IterationRecord(
                        round=rnd,
                        agent=agent,
                        pre_value=value,
                        post_value=value,
                        accepted=False,
                        solver_status=f"error:{type(exc).__name__}",
                        solver_lb=float("nan"),
                        solver_ub=float("nan"),
                        solver_expansions=0,
                        seconds=time.perf_counter() - t0,
                    )
                )
                continue
            candidate = policy.replace(agent, result.fsc)
            post = exact_value(model, candidate)
            accepted = post > value + params.value_tolerance
            history.append(
                IterationRecord(
                    round=rnd,
                    agent=agent,
                    pre_value=value,
                    post_value=post,
                    accepted=accepted,
                    solver_status=result.status,
                    solver_lb=result.lower_bound,
                    solver_ub=result.upper_bound,
                    solver_expansions=result.expansions,
                    seconds=time.perf_counter() - t0,
                )
            )
            budget_hit = budget_hit or not result.converged
            if accepted:
                policy = candidate
                value = post
                accepted_this_round = True
                accepted_count += 1
            solved_at[agent] = accepted_count
        if not accepted_this_round:
            quiet = not errored_this_round
            break
    gap = _equilibrium_gap(history)
    return RunResult(
        policy=policy,
        history=history,
        init=init,
        final_value=value,
        converged=quiet and gap is not None and gap <= params.value_tolerance + params.solve.epsilon + 1e-9,
        rounds_completed=rounds,
        budget_hit=budget_hit,
        equilibrium_gap=gap,
    )
