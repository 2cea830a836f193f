"""Fully observable centralized relaxation.

Value iteration restricted to the states reachable from the initial
belief's support under any joint action sequence; the benchmark state
spaces are far too large to sweep exhaustively, but only the reachable part
matters to the default policy and to the admissible value heuristic the
single-agent solver consumes.

Transitions are deterministic, so the reachability pass records one
(successor, reward) pair per (state, joint action) and the sweeps become
vectorized gathers over those tables.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
import numpy as np

from .errors import MissingStateError, ResourceLimitError
from .model import DetDecModel, JointAction, StateId, SupportBelief, enumerate_joint_actions

DEFAULT_TOL = 1e-6
DEFAULT_STATE_CAP = 2_000_000


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
    if tol <= 0:
        raise ValueError(f"tol {tol} must be positive")
    belief = reachable_from if reachable_from is not None else model.initial_belief()
    joint = enumerate_joint_actions(model.action_space_sizes)
    n_actions = len(joint)

    index: dict[StateId, int] = {}
    states: list[StateId] = []
    for s in belief.states:
        if s not in index:
            index[s] = len(states)
            states.append(s)
    succ_sids = array("q")
    rewards = array("d")
    step = model.transition_only
    i = 0
    while i < len(states):
        s = states[i]
        i += 1
        for a in joint:
            s2, r = step(s, a)
            if s2 not in index:
                if len(states) >= state_cap:
                    raise ResourceLimitError(
                        f"reachable state set exceeds state_cap={state_cap}"
                    )
                index[s2] = len(states)
                states.append(s2)
            succ_sids.append(s2)
            rewards.append(r)

    n = len(states)
    lookup = index.__getitem__
    succ = np.fromiter(map(lookup, succ_sids), dtype=np.int64, count=len(succ_sids))
    succ = succ.reshape(n, n_actions)
    reward_table = np.frombuffer(rewards, dtype=np.float64).reshape(n, n_actions).copy()

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
        state_index=index,
        states=states,
        values=values,
        residual=residual,
        gamma=gamma,
        succ=succ,
        rewards=reward_table,
    )


def default_policy(table: MdpValueTable, model: DetDecModel) -> MdpPolicy:
    """Greedy joint action per stored state; argmax takes the lowest joint index."""
    q = table.rewards + table.gamma * table.values[table.succ]
    greedy = np.argmax(q, axis=1).astype(np.int64)
    return MdpPolicy(
        table=table,
        greedy=greedy,
        joint_actions=enumerate_joint_actions(model.action_space_sizes),
    )
