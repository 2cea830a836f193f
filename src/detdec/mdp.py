"""Fully observable centralized relaxation.

Value iteration restricted to the states reachable from the initial
belief's support under any joint action sequence; the benchmark state
spaces are far too large to sweep exhaustively, but only the reachable part
matters to the default policy and to the admissible value heuristic the
single-agent solver consumes.

Transitions are deterministic, so the reachability pass records one
(successor, reward) pair per (state, joint action) and the sweeps become
vectorized gathers over those tables.  Reachability runs frontier by
frontier: the model's ``transition_batch`` fills each layer's rows, and new
states are found by sorted-array membership against the known set.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MissingStateError, ResourceLimitError, require_int_at_least, require_positive_finite
from .model import (
    DetDecModel,
    JointAction,
    StateId,
    SupportBelief,
    enumerate_joint_actions,
    merge_new_ids,
    require_int64_state_ids,
)

DEFAULT_TOL = 1e-6
DEFAULT_STATE_CAP = 2_000_000
_CHUNK_PAIRS = 1 << 16  # (state, joint action) pairs per transition_batch call


@dataclass
class MdpValueTable:
    """Optimal values of the relaxation over the reachable state set."""

    state_index: dict[StateId, int]
    states: list[StateId]
    values: np.ndarray
    residual: float
    gamma: float
    # transition tables kept for greedy extraction: shape (n_states, n_joint_actions)
    succ: np.ndarray = field(repr=False)
    rewards: np.ndarray = field(repr=False)

    def value(self, state: StateId) -> float:
        idx = self.state_index.get(state)
        if idx is None:
            raise MissingStateError(f"state {state} not covered by the value table")
        return float(self.values[idx])

    def __contains__(self, state: StateId) -> bool:
        return state in self.state_index

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def state_ids(self) -> np.ndarray:
        """``states`` as an int64 array, to map successor rows to states by a gather."""
        return np.array(self.states, dtype=np.int64)

    @property
    def error_bound(self) -> float:
        """How far ``values`` may lie from the optimal values: ``residual / (1 - gamma)``.

        Value iteration stops at a Bellman residual, not at the fixed point.
        In exact arithmetic ``gamma * residual / (1 - gamma)`` bounds the
        distance; one residual more also covers the rounding of the sweeps
        (on a one-state model earning 1 per step at gamma 0.9 the tighter
        bound lands 7e-15 below the exact value).
        """
        return self.residual / (1.0 - self.gamma)


@dataclass
class MdpPolicy:
    """Greedy joint policy of the relaxation, ties to the lowest joint index."""

    table: MdpValueTable
    greedy: np.ndarray  # joint action index per table row
    joint_actions: tuple[JointAction, ...]

    def joint_action(self, state: StateId) -> JointAction:
        idx = self.table.state_index.get(state)
        if idx is None:
            raise MissingStateError(f"state {state} not covered by the MDP policy")
        return self.joint_actions[int(self.greedy[idx])]

    def __contains__(self, state: StateId) -> bool:
        return state in self.table.state_index


def value_iteration(
    model: DetDecModel,
    tol: float = DEFAULT_TOL,
    reachable_from: SupportBelief | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
    max_sweeps: int = 1_000_000,
) -> MdpValueTable:
    """Solve the relaxation over the reachable set to Bellman residual <= tol."""
    require_positive_finite("tol", tol)
    require_int_at_least("state_cap", state_cap, 1)
    belief = reachable_from if reachable_from is not None else model.initial_belief()
    states, succ, reward_table = _reachable_tables(model, belief, state_cap)
    n = len(states)

    gamma = model.discount
    values = np.zeros(n)
    residual = np.inf
    for _ in range(max_sweeps):
        backed_up = (reward_table + gamma * values[succ]).max(axis=1)
        residual = float(np.max(np.abs(backed_up - values)))
        values = backed_up
        if residual <= tol:
            break
    else:
        raise RuntimeError(f"value iteration did not reach residual {tol} in {max_sweeps} sweeps")

    return MdpValueTable(
        state_index=dict(zip(states, range(n))),
        states=states,
        values=values,
        residual=residual,
        gamma=gamma,
        succ=succ,
        rewards=reward_table,
    )


def _reachable_tables(
    model: DetDecModel, belief: SupportBelief, state_cap: int
) -> tuple[list[StateId], np.ndarray, np.ndarray]:
    """States reachable from the belief's support, with their successor rows and rewards.

    Rows are ordered layer by layer, each layer by state id; the successor
    table holds row indices.  The two tables grow in place by one layer at a
    time (``ndarray.resize`` reallocates, so no second copy is held).
    """
    roots = sorted(set(belief.states))
    require_int64_state_ids(roots[-1])
    n_actions = model.num_joint_actions
    chunk = max(1, _CHUNK_PAIRS // n_actions)
    frontier = np.array(roots, dtype=np.int64)
    known = frontier  # sorted ids of every state found so far
    layers = []
    succ = np.empty((0, n_actions), dtype=np.int64)
    rewards = np.empty((0, n_actions))
    while frontier.size:
        start = len(succ)
        succ.resize((start + frontier.size, n_actions), refcheck=False)
        rewards.resize(succ.shape, refcheck=False)
        for lo in range(0, frontier.size, chunk):
            rows = slice(start + lo, start + lo + chunk)
            succ[rows], rewards[rows] = model.transition_batch(frontier[lo : lo + chunk])
        layers.append(frontier)
        frontier, known = merge_new_ids(known, succ[start:])
        if known.size > state_cap:
            raise ResourceLimitError(f"reachable state set exceeds state_cap={state_cap}")

    states = np.concatenate(layers)
    order = np.argsort(states)  # order[k] is the row of known[k]
    for lo in range(0, len(succ), chunk):  # successor ids to rows, in place
        block = succ[lo : lo + chunk]
        block[...] = order[np.searchsorted(known, block)]
    return states.tolist(), succ, rewards


def default_policy(table: MdpValueTable, model: DetDecModel) -> MdpPolicy:
    """Greedy joint action per stored state; argmax takes the lowest joint index."""
    q = table.rewards + table.gamma * table.values[table.succ]
    greedy = np.argmax(q, axis=1).astype(np.int64)
    return MdpPolicy(
        table=table,
        greedy=greedy,
        joint_actions=enumerate_joint_actions(model.action_space_sizes),
    )
