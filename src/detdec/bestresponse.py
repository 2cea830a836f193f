"""Single-agent planning problems derived by freezing the other agents.

When every agent except one runs a fixed deterministic controller, the
remaining agent faces a single-agent problem over *extended states*
``(environment state, other agents' controller nodes, own last local
observation)``.  All three components evolve deterministically, so the
derived problem is itself a deterministic POMDP: the environment step is
deterministic, the others' node updates are driven by their (deterministic)
components of the unique joint observation, and the emitted local
observation is exactly the stored last-observation component.

Two variants share the construction:

* the best-response problem, where the other agents run their controllers;
* the initialization problem, where the other agents' actions come from a
  memoryless default policy of the fully observable relaxation (their node
  components collapse to an empty tuple).

Every problem lives on one relaxation table (the initialization problem's
is its default policy's).  An extended state holds its environment state's
*row* in that table, so successors and value hints are table reads.  The
table is closed under stepping, so only the initial atoms can fall outside
it; ``initial_belief`` checks them once.

Extended states are interned lazily into dense integer ids; the product
space is far too large to enumerate up front, and interning keeps belief
atoms cheap to hash, order, and compare.

``step`` moves one extended state under one own action: its successor row
is a read of the table's ``succ``, its observation and reward come from the
model through the transition cache.  ``step_rows`` is the batched step: it
moves (table row, other agents' nodes) rows under one own action each, with
successors and rewards gathered from ``succ`` and ``palette[rewards]``, the
joint observation from the model's ``observation_batch`` and the other
agents' nodes advanced through ``FscArrays``; it interns nothing, so the
search values controllers on it directly.  ``step_actions`` is
``step_rows`` over a belief's atoms under every own action, followed by
interning: its rows equal ``step``'s, and it interns new successors in row
order, the order in which ``step`` calls would meet them.
"""
from __future__ import annotations

from itertools import repeat
from math import prod
from typing import NamedTuple

import numpy as np

from .errors import MissingStateError
from .fsc import FscArrays, JointPolicy
from .mdp import MdpPolicy, MdpValueTable
from .model import DetDecModel, StateId, SupportBelief, TransitionCache


class ExtState(NamedTuple):
    row: int  # the environment state's row in the relaxation table
    other_nodes: tuple[int, ...]
    last_obs: int  # the agent's own latest observation, or the start symbol


class BrDetPomdp:
    """Deterministic single-agent POMDP over interned extended states.

    ``start_obs`` is a distinguished local observation index (one past the
    model's per-agent observation bound) seeding the last-observation slot
    at time 0; it is never emitted by ``step``.
    """

    def __init__(
        self,
        model: DetDecModel,
        agent: int,
        other_controllers: tuple | None,
        default_policy: MdpPolicy | None,
        value_table: MdpValueTable,
        cache: TransitionCache | None = None,
    ) -> None:
        if not 0 <= agent < model.agent_count:
            raise ValueError(f"agent index {agent} outside [0, {model.agent_count})")
        if (other_controllers is None) == (default_policy is None):
            raise ValueError("exactly one of other_controllers / default_policy is required")
        self.model = model
        self.agent = agent
        self.others = tuple(j for j in range(model.agent_count) if j != agent)
        self._controllers = other_controllers
        self._default_policy = default_policy
        self.value_table = value_table
        self._state_ids = value_table.state_ids
        self._values = value_table.values
        self._error_bound = value_table.error_bound
        self.cache = cache if cache is not None else TransitionCache(model)
        self.action_count = model.action_space_sizes[agent]
        self.obs_bound = model.observation_space_sizes[agent]
        self.start_obs = self.obs_bound
        self.discount = model.discount
        self._ids: dict[ExtState, int] = {}
        self._ext: list[ExtState] = []
        self._step_memo: dict[int, tuple[int, int, float]] = {}
        # the joint action index is own * stride + the others' part
        sizes = model.action_space_sizes
        self._stride = prod(sizes[agent + 1 :])
        self._joint_tuples = model.joint_actions()
        self._joint_actions = np.array(self._joint_tuples, dtype=np.int64)
        # (agent, controller arrays, joint action stride) of each other agent with a controller
        self._other_arrays = [] if other_controllers is None else [
            (j, FscArrays.checked(other_controllers[j], j, sizes[j]), prod(sizes[j + 1 :]))
            for j in self.others
        ]

    # --- interning ---------------------------------------------------------

    def intern(self, ext: ExtState) -> int:
        eid = self._ids.get(ext)
        if eid is None:
            eid = len(self._ext)
            self._ids[ext] = eid
            self._ext.append(ext)
        return eid

    def ext(self, eid: int) -> ExtState:
        return self._ext[eid]

    def state(self, eid: int) -> StateId:
        """The environment state of extended state ``eid``."""
        return self._state_ids.item(self._ext[eid].row)

    @property
    def interned_count(self) -> int:
        return len(self._ext)

    @property
    def other_node_counts(self) -> tuple[int, ...]:
        """Node count of each other agent's controller (none in the initialization problem)."""
        return tuple(arrays.actions.size for _, arrays, _ in self._other_arrays)

    # --- dynamics ----------------------------------------------------------

    def step(self, eid: int, action: int) -> tuple[int, int, float]:
        """Deterministic extended step: (successor id, local observation, reward)."""
        if not 0 <= action < self.action_count:
            raise ValueError(f"local action {action} outside [0, {self.action_count})")
        key = eid * self.action_count + action
        hit = self._step_memo.get(key)
        if hit is not None:
            return hit
        row, nodes, _ = self._ext[eid]
        if self._controllers is not None:
            others = sum(
                self._controllers[j].nodes[node].action * stride
                for (j, _, stride), node in zip(self._other_arrays, nodes)
            )
        else:
            greedy = self._default_policy.greedy.item(row)
            others = greedy - greedy // self._stride % self.action_count * self._stride
        joint = action * self._stride + others
        _, obs, reward = self.cache.step(self._state_ids.item(row), self._joint_tuples[joint])
        if self._controllers is not None:
            nodes = tuple(self._controllers[j].advance(node, obs[j]) for j, node in zip(self.others, nodes))
        own = obs[self.agent]
        result = (self.intern(ExtState(self.value_table.succ.item(row, joint), nodes, own)), own, reward)
        self._step_memo[key] = result
        return result

    def step_rows(self, rows, nodes, actions):
        """One step of each row under its own action, read from the relaxation table.

        ``rows`` are table rows, ``nodes`` the other agents' node arrays (one
        per agent of ``others``; none in the initialization problem) and
        ``actions`` the own actions, one per row.  Returns (successor rows,
        own observations, rewards, the other agents' next nodes).
        """
        if self._controllers is not None:
            others = sum(arrays.actions[n] * stride for n, (_, arrays, stride) in zip(nodes, self._other_arrays))
        else:
            # the default joint action without its own-agent part
            greedy = self._default_policy.greedy[rows]
            others = greedy - greedy // self._stride % self.action_count * self._stride
        joint = actions * self._stride + others
        table = self.value_table
        succ = table.succ[rows, joint]
        rewards = table.palette[table.rewards[rows, joint]]
        obs = self.model.observation_batch(
            self._state_ids[rows], self._joint_actions[joint], self._state_ids[succ]
        )
        nodes = [arrays.advance(n, obs[:, j]) for n, (j, arrays, _) in zip(nodes, self._other_arrays)]
        return succ, obs[:, self.agent], rewards, nodes

    def step_actions(self, eids) -> list[tuple[int, int, float]]:
        """``step`` of every state in ``eids`` under every own action, in one batch.

        Row ``a * len(eids) + k`` is ``step(eids[k], a)``: rows are
        action-major and atom-minor, and new successors are interned in row
        order.
        """
        n = len(eids)
        ext = self._ext
        own = np.arange(n * self.action_count)
        atom = own % n  # the atom of each row
        own //= n
        rows = np.array([ext[e].row for e in eids], dtype=np.int64)[atom]
        nodes = np.array([ext[e].other_nodes for e in eids], dtype=np.int64)
        nodes = nodes.reshape(n, len(self._other_arrays))[atom]
        succ, own_obs, rewards, nodes = self.step_rows(rows, list(nodes.T), own)
        own_obs = own_obs.tolist()
        nodes2 = zip(*[n.tolist() for n in nodes]) if nodes else repeat(())
        ids = self._ids
        succ_ids = []
        for key in zip(succ.tolist(), nodes2, own_obs):
            eid = ids.get(key)  # an ExtState hashes and compares as its plain tuple
            if eid is None:
                eid = len(ext)
                key = ExtState(*key)
                ids[key] = eid
                ext.append(key)
            succ_ids.append(eid)
        return list(zip(succ_ids, own_obs, rewards.tolist()))

    def initial_belief(self) -> SupportBelief:
        """One-to-one lift of the model's initial belief to extended states.

        An initial state outside the relaxation table raises
        ``MissingStateError`` naming it, before any state is interned.
        """
        if self._controllers is not None:
            nodes0 = tuple(self._controllers[j].initial_node for j in self.others)
        else:
            nodes0 = ()
        b0 = self.model.initial_belief()
        rows = self.value_table.rows(b0.states).tolist()
        if -1 in rows:
            raise MissingStateError(f"state {b0.states[rows.index(-1)]} not covered by the value table")
        pairs = [
            (self.intern(ExtState(row, nodes0, self.start_obs)), weight)
            for row, (_, weight) in zip(rows, b0)
        ]
        return SupportBelief.from_pairs(pairs)

    def is_terminal(self, eid: int) -> bool:
        return self.model.is_terminal(self._state_ids.item(self._ext[eid].row))

    def state_value_hint(self, eid: int) -> float:
        """Upper bound from the fully-observable relaxation: a read of the state's row.

        It is the state's relaxation value widened by the table's
        ``error_bound``, so it stays admissible however loose ``mdp_tol`` is.
        """
        return self._values.item(self._ext[eid].row) + self._error_bound

    def reward_bounds(self) -> tuple[float, float]:
        return self.model.reward_bounds()


def build_br_detpomdp(
    model: DetDecModel,
    policy: JointPolicy,
    agent: int,
    value_table: MdpValueTable,
    cache: TransitionCache | None = None,
) -> BrDetPomdp:
    """Best-response problem for ``agent`` against the policy's other controllers."""
    if policy.agent_count != model.agent_count:
        raise ValueError(
            f"policy has {policy.agent_count} controllers, model has {model.agent_count} agents"
        )
    return BrDetPomdp(
        model,
        agent,
        other_controllers=policy.controllers,
        default_policy=None,
        value_table=value_table,
        cache=cache,
    )


def build_init_detpomdp(
    model: DetDecModel,
    agent: int,
    pi_mdp: MdpPolicy,
    cache: TransitionCache | None = None,
) -> BrDetPomdp:
    """Initialization problem: the other agents play the default MDP policy.

    The default policy is memoryless, so extended states carry no node
    components; everything else matches the best-response construction,
    on the table the default policy was read from.
    """
    return BrDetPomdp(
        model,
        agent,
        other_controllers=None,
        default_policy=pi_mdp,
        value_table=pi_mdp.table,
        cache=cache,
    )
