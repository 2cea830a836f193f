"""Exact and Monte Carlo evaluation of joint controller policies.

Everything downstream of the initial state is deterministic, so the
discounted return from one initial state is the return of a single infinite
trajectory.  That trajectory lives in the finite product space
(environment state, all controller nodes) and therefore eventually repeats;
following it to the first repeat gives the exact return in closed form:
prefix sum plus a geometric cycle tail.  The exact policy value is the
belief-weighted sum of those per-atom returns.

Monte Carlo evaluation draws initial states from the belief and truncates
at a horizon; since per-atom rollouts are deterministic they are computed
once per distinct atom and shared across episodes.
"""
from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Hashable, TypeVar

import numpy as np

from .errors import require_int_at_least
from .fsc import JointPolicy
from .model import DetDecModel, TransitionCache
from .rng import stream_seed

X = TypeVar("X")


def trajectory_value(
    start: X,
    step_fn: Callable[[X], tuple[X, float]],
    key_fn: Callable[[X], Hashable],
    terminal_fn: Callable[[X], bool],
    gamma: float,
    memo: dict,
) -> float:
    """Exact discounted return of the deterministic trajectory from ``start``.

    ``key_fn`` must map a point to a key whose repetition implies the whole
    future repeats.  ``memo`` caches the return at every visited key and may
    be shared across calls for the same dynamics.
    """
    path_keys: list = []
    path_rewards: list[float] = []
    seen: dict = {}
    cur = start
    while True:
        key = key_fn(cur)
        tail = memo.get(key)
        if tail is not None:
            break
        if terminal_fn(cur):
            tail = 0.0
            memo[key] = tail
            break
        p = seen.get(key)
        if p is not None:
            # first repeat: positions p.. form a cycle of length L
            cycle = path_rewards[p:]
            length = len(cycle)
            denom = 1.0 - gamma**length
            for off in range(length):
                s = 0.0
                g = 1.0
                for t in range(length):
                    s += g * cycle[(off + t) % length]
                    g *= gamma
                memo[path_keys[p + off]] = s / denom
            tail = memo[path_keys[p]]
            del path_keys[p:]
            del path_rewards[p:]
            break
        seen[key] = len(path_keys)
        nxt, reward = step_fn(cur)
        path_keys.append(key)
        path_rewards.append(reward)
        cur = nxt
    acc = tail
    for key, reward in zip(reversed(path_keys), reversed(path_rewards)):
        acc = reward + gamma * acc
        memo[key] = acc
    return acc


def _check_compatible(model: DetDecModel, policy: JointPolicy) -> None:
    if policy.agent_count != model.agent_count:
        raise ValueError(
            f"policy has {policy.agent_count} controllers, model has {model.agent_count} agents"
        )


def exact_value(model: DetDecModel, policy: JointPolicy) -> float:
    """Exact discounted value of the joint policy from the initial belief."""
    _check_compatible(model, policy)
    belief = model.initial_belief()
    cache = TransitionCache(model)
    controllers = policy.controllers

    def step_fn(point):
        state, nodes = point
        acts = tuple(c.nodes[n].action for c, n in zip(controllers, nodes))
        s2, obs, reward = cache.step(state, acts)
        nodes2 = tuple(c.advance(n, o) for c, n, o in zip(controllers, nodes, obs))
        return (s2, nodes2), reward

    def terminal_fn(point):
        return model.is_terminal(point[0])

    init_nodes = policy.initial_nodes()
    memo: dict = {}
    total = 0.0
    for (state, _), weight in zip(belief.atoms, belief.float_weights):
        total += weight * trajectory_value(
            (state, init_nodes), step_fn, lambda x: x, terminal_fn, model.discount, memo
        )
    return total


def _truncated_return(
    model: DetDecModel,
    cache: TransitionCache,
    policy: JointPolicy,
    state,
    horizon: int,
) -> float:
    controllers = policy.controllers
    nodes = policy.initial_nodes()
    gamma = model.discount
    total = 0.0
    g = 1.0
    for _ in range(horizon):
        if model.is_terminal(state):
            break
        acts = tuple(c.nodes[n].action for c, n in zip(controllers, nodes))
        state, obs, reward = cache.step(state, acts)
        total += g * reward
        g *= gamma
        nodes = tuple(c.advance(n, o) for c, n, o in zip(controllers, nodes, obs))
    return total


def mc_value(
    model: DetDecModel,
    policy: JointPolicy,
    episodes: int,
    horizon: int = 100,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate: sample initial states, roll out, truncate.

    Per-atom rollouts are deterministic and computed once per distinct
    sampled atom.  Fully reproducible from ``seed``.  Returns
    (mean, standard error of the mean).
    """
    _check_compatible(model, policy)
    require_int_at_least("episodes", episodes, 1)
    require_int_at_least("horizon", horizon, 1)
    belief = model.initial_belief()
    rng = np.random.default_rng(stream_seed(seed, "mc-eval"))
    cum = np.cumsum(np.asarray(belief.float_weights))
    cum[-1] = 1.0  # guard against float drift in the last bin
    draws = rng.random(episodes)
    idx = np.searchsorted(cum, draws, side="right")

    cache = TransitionCache(model)
    returns = np.empty(len(belief))
    returns.fill(np.nan)
    for i in np.unique(idx):
        returns[i] = _truncated_return(model, cache, policy, belief.atoms[i][0], horizon)
    samples = returns[idx]
    if episodes == 1:
        warnings.warn("mc_value with a single episode: standard error degenerates to 0")
        return float(samples[0]), 0.0
    if np.all(samples == samples[0]):  # e.g. singleton support: no randomness at all
        return float(samples[0]), 0.0
    mean = float(samples.mean())
    std_error = float(samples.std(ddof=1) / np.sqrt(episodes))
    return mean, std_error


@dataclass
class EvalReport:
    exact_value: float | None
    mc_mean: float | None
    mc_std_error: float | None
    episodes: int
    horizon: int
    seed: int
    degenerate: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(
    model: DetDecModel,
    policy: JointPolicy,
    exact: bool = True,
    episodes: int = 0,
    horizon: int = 100,
    seed: int = 0,
) -> EvalReport:
    """Convenience wrapper: exact and/or Monte Carlo evaluation in one report.

    ``episodes`` 0 skips Monte Carlo; both settings are checked before any work.
    """
    require_int_at_least("episodes", episodes, 0)
    require_int_at_least("horizon", horizon, 1)
    ev = exact_value(model, policy) if exact else None
    mean = std_error = None
    if episodes:
        mean, std_error = mc_value(model, policy, episodes, horizon, seed)
    return EvalReport(
        exact_value=ev,
        mc_mean=mean,
        mc_std_error=std_error,
        episodes=episodes,
        horizon=horizon,
        seed=seed,
        degenerate=(episodes == 1),
    )
