"""Exact and Monte Carlo evaluation of joint controller policies.

Everything downstream of the initial state is deterministic, so the
discounted return from one initial state is the return of a single infinite
trajectory through *points* (environment state, all controller nodes).  The
point space is finite, so every trajectory ends in a terminal state or in a
cycle.

Both evaluators advance all their points in lockstep: one
``model.step_batch`` call per frontier or time step, with each controller
held as arrays (``FscArrays``: a node's successor is one gather from a
node-by-observation table, its column found by bucket).  Exact evaluation finds the trajectory graph
frontier by frontier, then values it from its ends back: 0 at a terminal
point, the closed-form cycle sum on a cycle, ``r + gamma * V(next)``
elsewhere.  A point's value is a fixed function of the graph, so the order
in which points are found or valued does not change a float.  The policy
value is the belief-weighted sum of the atoms' values, added up in atom
order.

The graph builder, ``trajectory_graph``, knows points only as int64 ids and
takes the step as a callback; ``pack_points`` packs a state (or a table
row) and controller nodes into one id.  Each frontier's successors take
their rows from a ``model.IdRows`` index (a large and a small recent sorted
run, merged geometrically) in the call that finds the new ones, so no
frontier copies every known id.  ``graph_values`` works on arrays only:
after peeling the points no other point leads to, pointer doubling labels
every cycle point with the least position on its cycle, a label's count is
its cycle's length, and the points of one length take the closed form
together.  The best-response search values its controllers with the
same builder and ``graph_values`` (``detpomdp.fsc_values``), so there is
one controller evaluator.

Monte Carlo evaluation draws initial states from the belief and truncates
at a horizon; since per-atom rollouts are deterministic, each distinct
sampled atom is rolled out once, as one lane of a lockstep rollout that a
lane leaves when it reaches a terminal state.  The sampled atoms are those
a binary search over the cumulative weights gives, found mostly by bucket.
"""
from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from math import prod
from typing import Iterable

import numpy as np

from .errors import ResourceLimitError, require_int_at_least
from .fsc import FscArrays, JointPolicy
from .model import DetDecModel, IdRows, require_int64_state_ids
from .rng import stream_seed


def cycle_value(ahead: Iterable, gamma: float, length: int):
    """Closed-form value of repeating a reward cycle of ``length`` forever.

    ``ahead`` yields the rewards 0, 1, ..., ``length - 1`` steps on from the
    start: floats, or arrays that value many starts at once with the same
    float operations in the same order.
    """
    s = 0.0
    g = 1.0
    for reward in ahead:
        s = s + g * reward
        g *= gamma
    return s / (1.0 - gamma**length)


def _controller_arrays(model: DetDecModel, policy: JointPolicy) -> list[FscArrays]:
    """Each controller as arrays, once its every action is checked against the model."""
    if policy.agent_count != model.agent_count:
        raise ValueError(
            f"policy has {policy.agent_count} controllers, model has {model.agent_count} agents"
        )
    return [
        FscArrays.checked(fsc, agent, k)
        for agent, (fsc, k) in enumerate(zip(policy.controllers, model.action_space_sizes))
    ]


def _atom_states(belief) -> np.ndarray:
    """The belief's atom ids as an int64 array, checked to fit in it."""
    require_int64_state_ids(belief.states[-1])
    return np.array(belief.states, dtype=np.int64)


def _lockstep_step(model, controllers, states, nodes):
    """One step of every row: (successor states, successor nodes per agent, rewards)."""
    actions = np.stack([c.actions[n] for c, n in zip(controllers, nodes)], axis=1)
    succ, obs, rewards = model.step_batch(states, actions)
    nodes = [c.advance(n, obs[:, i]) for i, (c, n) in enumerate(zip(controllers, nodes))]
    return succ, nodes, rewards


def pack_points(lead: np.ndarray, digits, sizes) -> np.ndarray:
    """Point ids ``lead * prod(sizes) + code``, ``code`` the mixed-radix number of ``digits``.

    ``digits[i]`` is an array of digits in ``[0, sizes[i])``, the first the
    least significant.  ``lead`` (environment states, or int32 table rows)
    is widened to int64 before the product, and an id past the int64 bound
    raises ``ResourceLimitError``.
    """
    width = prod(sizes)
    if lead.size and int(lead.max()) >= 2**63 // width:
        raise ResourceLimitError(
            f"point ids of {int(lead.max())} with {width} controller node combinations "
            "pass the int64 bound 2**63 - 1"
        )
    code = lead.astype(np.int64, copy=False) * width
    radix = 1
    for d, k in zip(digits, sizes):
        code += d * radix
        radix *= k
    return code


def unpack_points(ids: np.ndarray, sizes) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(lead, digits)`` of the point ids ``pack_points`` made with these ``sizes``."""
    lead, code = np.divmod(ids, prod(sizes))
    digits = []
    for k in sizes:
        code, d = np.divmod(code, k)
        digits.append(d)
    return lead, digits


def trajectory_graph(roots: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """Every point reachable from ``roots``: its successor row and reward.

    ``roots`` are sorted, distinct int64 point ids.  ``step(ids)`` moves a
    frontier of points one step: it returns a mask of the live points, the
    successor ids of the live points and their rewards; a point that is not
    live is terminal.  Rows are ordered frontier by frontier, each frontier
    by id, so the roots come first.  A terminal point's successor row is -1.
    Each frontier's successors take their rows from an ``IdRows`` index in
    the call that finds the new ones.
    """
    index = IdRows(roots)
    frontier = roots
    successors, rewards = [], []
    while frontier.size:
        live, succ, reward = step(frontier)
        nxt = np.full(frontier.size, -1, dtype=np.int64)
        rew = np.zeros(frontier.size)
        rew[live] = reward
        frontier, nxt[live] = index.add(succ)
        successors.append(nxt)
        rewards.append(rew)
    del index  # before the rows are copied out
    return np.concatenate(successors), np.concatenate(rewards)


def _ahead(nxt: np.ndarray, rewards: np.ndarray, rows: np.ndarray, steps: int):
    """The rewards 0, 1, ..., ``steps - 1`` steps on from each of ``rows``."""
    for _ in range(steps):
        yield rewards[rows]
        rows = nxt[rows]


def graph_values(nxt: np.ndarray, rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Exact value of every point of a trajectory graph (successor row -1: terminal).

    Peeling points no other point leads to, layer by layer, leaves the
    cycles.  Pointer doubling labels every cycle point with the least
    position on its cycle; labels are distinct, so the first round that
    changes none is the last needed.  A label's count is its cycle's length,
    and the points of each length take the closed form together.  The
    peeled layers are valued last, in reverse, each point after its successor.
    """
    indegree = np.bincount(nxt[nxt >= 0], minlength=nxt.size)
    peeled = []
    layer = np.flatnonzero(indegree == 0)
    while layer.size:
        peeled.append(layer)
        targets = nxt[layer]
        targets, counts = np.unique(targets[targets >= 0], return_counts=True)
        indegree[targets] -= counts
        layer = targets[indegree[targets] == 0]

    cyclic = np.flatnonzero(indegree > 0)
    del indegree  # before the values are allocated
    values = np.zeros(nxt.size)
    jump = cyclic.searchsorted(nxt[cyclic])  # each cycle point's successor, as a position in cyclic
    label = np.arange(cyclic.size)
    while True:
        least = np.minimum(label, label[jump])
        if np.array_equal(least, label):
            break
        label, jump = least, jump[jump]
    lengths = np.bincount(label)[label]
    for length in np.unique(lengths).tolist():
        group = cyclic[lengths == length]
        values[group] = cycle_value(_ahead(nxt, rewards, group, length), gamma, length)
    for layer in reversed(peeled):
        layer = layer[nxt[layer] >= 0]
        values[layer] = rewards[layer] + gamma * values[nxt[layer]]
    return values


def exact_value(model: DetDecModel, policy: JointPolicy) -> float:
    """Exact discounted value of the joint policy from the initial belief."""
    controllers = _controller_arrays(model, policy)
    sizes = [c.actions.size for c in controllers]

    def step(points):
        states, nodes = unpack_points(points, sizes)
        live = ~model.terminal_batch(states)
        succ, nodes, rewards = _lockstep_step(model, controllers, states[live], [n[live] for n in nodes])
        return live, pack_points(succ, nodes, sizes), rewards

    belief = model.initial_belief()
    states = _atom_states(belief)  # sorted and distinct, so the roots are too
    roots = pack_points(states, [np.full(states.size, c.initial_node, dtype=np.int64) for c in controllers], sizes)
    values = graph_values(*trajectory_graph(roots, step), model.discount)
    total = 0.0
    for weight, value in zip(belief.float_weights, values[: roots.size].tolist()):
        total += weight * value
    return total


def _truncated_returns(model, controllers, states: np.ndarray, horizon: int) -> np.ndarray:
    """Discounted return of the first ``horizon`` steps from each state, all rolled out at once."""
    gamma = model.discount
    totals = np.zeros(states.size)
    lanes = np.arange(states.size)
    nodes = [np.full(states.size, c.initial_node, dtype=np.int64) for c in controllers]
    g = 1.0
    for _ in range(horizon):
        live = ~model.terminal_batch(states)
        if not live.all():
            lanes, states = lanes[live], states[live]
            nodes = [n[live] for n in nodes]
            if not lanes.size:
                break
        states, nodes, rewards = _lockstep_step(model, controllers, states, nodes)
        totals[lanes] += g * rewards
        g *= gamma
    return totals


def _bins(cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, draws, side="right")`` for draws in [0, 1), bucket first.

    Draws fall into a power-of-two number of equal buckets, found exactly by
    scaling.  A bucket that no entry of ``cum`` splits gives all its draws
    the same bin; only draws in split buckets take a binary search, which
    is slow on unsorted draws.  There are at least 16 buckets per entry of
    ``cum`` unless draws are fewer than entries, so about one draw in 16 or
    fewer takes the search.
    """
    buckets = 1 << (16 * min(cum.size, draws.size)).bit_length()
    first = np.searchsorted(cum, np.arange(buckets + 1) / buckets, side="right")
    bucket = (draws * buckets).astype(np.int64)
    idx = first[bucket]
    split = first[bucket + 1] != idx
    idx[split] = np.searchsorted(cum, draws[split], side="right")
    return idx


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
    controllers = _controller_arrays(model, policy)
    require_int_at_least("episodes", episodes, 1)
    require_int_at_least("horizon", horizon, 1)
    belief = model.initial_belief()
    rng = np.random.default_rng(stream_seed(seed, "mc-eval"))
    cum = np.cumsum(np.asarray(belief.float_weights))
    cum[-1] = 1.0  # guard against float drift in the last bin
    idx = _bins(cum, rng.random(episodes))

    sampled = np.flatnonzero(np.bincount(idx, minlength=len(belief)))
    states = _atom_states(belief)
    returns = np.full(len(belief), np.nan)
    returns[sampled] = _truncated_returns(model, controllers, states[sampled], horizon)
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
