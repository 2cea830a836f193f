"""Single-agent planning problems derived by freezing the other agents.

When every agent except one runs a fixed deterministic controller, the
remaining agent faces a single-agent problem over *extended states*
``(environment state, other agents' controller nodes)``.  Both components
evolve deterministically, so the derived problem is itself a deterministic
POMDP: the environment step is deterministic, and the others' node updates
are driven by their (deterministic) components of the unique joint
observation.  The agent's own observation is emitted by each step but is
not part of the state: the future of an extended state does not depend on
the observation that led to it.

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

An extended state's id is ``row * W + code``: ``code`` packs the other
agents' nodes in mixed radix, the first other agent least significant (as
``evaluation.pack_points`` packs digits), and ``W`` is the product of their
node counts, so in the initialization problem ``W`` is 1 and the id is the
row.  Ids are canonical: equal extended states have equal ids, so nothing
is interned, and belief atoms sort by table row, then by the other agents'
nodes.  ``BrDetPomdp`` is the one owner of this format (``step_ids`` and
the scalar ``ext``); the largest id is checked against the int64 bound at
construction, which covers every id a step can make.

``step_ids`` is the step the solver runs: a few gathers on arrays built
at construction, per other agent its part of the joint action index per
node and its *observation column*, its controller's table column
(``FscArrays.ranks``) of the observation each table row is entered with.
A step reads successors and rewards from the table's ``transitions`` and
moves each other agent to the table cell of its node and its column at the
successor row.  ``step_actions`` is ``step_ids`` over a belief's atoms
under every own action: every expansion is one such call.  ``step`` moves
one extended state under one own action through the model's own ``step``
and the transition cache; it serves ``exact_belief_vi``, the solver's
oracle, and the tests that hold ``step_actions`` to it.
"""
from __future__ import annotations

from math import prod
from typing import NamedTuple

import numpy as np

from .errors import MissingStateError
from .evaluation import pack_points
from .fsc import FscArrays, JointPolicy
from .mdp import MdpPolicy, MdpValueTable
from .model import DetDecModel, StateId, SupportBelief, TransitionCache

_COLUMN_BLOCK = 1 << 13  # table rows per ``ranks`` call while an observation column is built


class ExtState(NamedTuple):
    row: int  # the environment state's row in the relaxation table
    other_nodes: tuple[int, ...]


class BrDetPomdp:
    """Deterministic single-agent POMDP over packed extended-state ids."""

    def __init__(
        self,
        model: DetDecModel,
        agent: int,
        other_controllers: tuple | None,
        default_policy: MdpPolicy | None,
        value_table: MdpValueTable,
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
        self._terminal = value_table.terminal
        self._error_bound = value_table.error_bound
        self.cache = TransitionCache(model)  # of the scalar ``step``
        self.action_count = model.action_space_sizes[agent]
        self.discount = model.discount
        self._step_memo: dict[int, tuple[int, int, float]] = {}
        # the joint action index is own * stride + the others' part
        sizes = model.action_space_sizes
        self._stride = prod(sizes[agent + 1 :])
        self._joint_tuples = model.joint_actions()
        self._own_actions = np.arange(self.action_count)[:, None]
        self._own_obs = value_table.obs[:, agent]
        others = [] if other_controllers is None else [
            (j, FscArrays.checked(other_controllers[j], j, sizes[j])) for j in self.others
        ]
        # the node count of each other agent's controller: the radix of an id's code
        self._sizes = tuple(arrays.actions.size for _, arrays in others)
        self.width = prod(self._sizes)  # W, the number of codes
        # the largest id, at the last row with every node at its maximum, must fit in int64
        pack_points(np.array([len(value_table) - 1]), [np.array([k - 1]) for k in self._sizes], self._sizes)
        # per other agent: the place value of its digit in a code, and its part of the joint action per node
        self._radices = [np.int64(prod(self._sizes[:i])) for i in range(len(others))]
        self._parts = [arrays.actions * prod(sizes[j + 1 :]) for j, arrays in others]
        self._tables = []  # per other agent: its transition table, the table's row length, its column
        for j, arrays in others:  # the column in the narrowest dtype, built in blocks of rows
            column = np.empty(len(value_table), dtype=np.min_scalar_type(arrays.observations.size))
            for start in range(0, column.size, _COLUMN_BLOCK):
                column[start : start + _COLUMN_BLOCK] = arrays.ranks(value_table.obs[start : start + _COLUMN_BLOCK, j])
            self._tables.append((arrays.table, arrays.observations.size + 1, column))

    # --- extended-state ids ------------------------------------------------

    def ext(self, eid: int) -> ExtState:
        """The extended state of id ``eid``."""
        row, code = divmod(eid, self.width)
        nodes = []
        for k in self._sizes:
            code, node = divmod(code, k)
            nodes.append(node)
        return ExtState(row, tuple(nodes))

    def state(self, eid: int) -> StateId:
        """The environment state of extended state ``eid``."""
        return self._state_ids.item(eid // self.width)

    @property
    def interned_count(self) -> int:
        """Entries of the scalar step memo.

        Ids are packed, so no state is interned, and the solver does not
        call ``step``; the memo fills only under the oracle.  perfbench reads
        this after every solve.
        """
        return len(self._step_memo)

    # --- dynamics ----------------------------------------------------------

    def step(self, eid: int, action: int) -> tuple[int, int, float]:
        """Deterministic extended step: (successor id, local observation, reward)."""
        if not 0 <= action < self.action_count:
            raise ValueError(f"local action {action} outside [0, {self.action_count})")
        key = eid * self.action_count + action
        hit = self._step_memo.get(key)
        if hit is not None:
            return hit
        row, nodes = self.ext(eid)
        if self._controllers is not None:
            others = sum(part.item(node) for part, node in zip(self._parts, nodes))
        else:
            greedy = self._default_policy.greedy.item(row)
            others = greedy - greedy // self._stride % self.action_count * self._stride
        joint = action * self._stride + others
        _, obs, reward = self.cache.step(self._state_ids.item(row), self._joint_tuples[joint])
        if self._controllers is not None:
            nodes = tuple(self._controllers[j].advance(node, obs[j]) for j, node in zip(self.others, nodes))
        eid = self.value_table.successor(row, joint)
        for node, k in zip(reversed(nodes), reversed(self._sizes)):  # the mixed radix of the code
            eid = eid * k + node
        own = obs[self.agent]
        result = (eid, own, reward)
        self._step_memo[key] = result
        return result

    def step_ids(self, eids: np.ndarray, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One step of each id under its own action, read from the relaxation table.

        ``eids`` (int64) and ``actions`` broadcast together.  Returns
        (successor ids, own observations, rewards), each of their shape.
        """
        rows, code = np.divmod(eids, self.width)
        # the other agents' nodes: the digits of ``code``, or ``code`` itself with one other agent
        digits = [code] if len(self._sizes) == 1 else [code // radix % k for radix, k in zip(self._radices, self._sizes)]
        if self._controllers is not None:
            others = sum(part[d] for part, d in zip(self._parts, digits))
        else:
            # the default joint action without its own-agent part
            greedy = self._default_policy.greedy[rows]
            others = greedy - greedy // self._stride % self.action_count * self._stride
        succ, rewards = self.value_table.transitions(rows, actions * self._stride + others)
        ids = np.multiply(succ, self.width, dtype=np.int64)
        for d, radix, (table, row_length, column) in zip(digits, self._radices, self._tables):
            node = table[d * row_length + column[succ]]
            ids += node * radix if radix > 1 else node
        return ids, self._own_obs[succ], rewards

    def step_actions(self, eids) -> list[tuple[int, int, float]]:
        """``step`` of every state in ``eids`` under every own action, in one batch.

        Row ``a * len(eids) + k`` is ``step(eids[k], a)``: rows are
        action-major and atom-minor.
        """
        ids, own, rewards = self.step_ids(np.array(eids, dtype=np.int64)[None, :], self._own_actions)
        return list(zip(ids.ravel().tolist(), own.ravel().tolist(), rewards.ravel().tolist()))

    def initial_belief(self) -> SupportBelief:
        """One-to-one lift of the model's initial belief to extended states.

        An initial state outside the relaxation table raises
        ``MissingStateError`` naming it.
        """
        b0 = self.model.initial_belief()
        rows = self.value_table.rows(b0.states)
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            raise MissingStateError(f"state {b0.states[missing[0]]} not covered by the value table")
        nodes0 = [] if self._controllers is None else [
            np.full(rows.size, self._controllers[j].initial_node) for j in self.others
        ]
        return SupportBelief.from_pairs(zip(pack_points(rows, nodes0, self._sizes).tolist(), (w for _, w in b0)))

    def is_terminal(self, eid: int) -> bool:
        """Whether the environment state of ``eid`` is terminal, asked of the model (the oracle's check)."""
        return self.model.is_terminal(self.state(eid))

    def terminal_flag(self, eid: int) -> bool:
        """``is_terminal`` read from the table: the terminal flag of the state's row."""
        return self._terminal.item(eid // self.width)

    def state_value_hint(self, eid: int) -> float:
        """Upper bound from the fully-observable relaxation: a read of the state's row.

        It is the state's relaxation value widened by the table's
        ``error_bound``, so it stays admissible however loose ``mdp_tol`` is.
        """
        return self._values.item(eid // self.width) + self._error_bound

    def reward_bounds(self) -> tuple[float, float]:
        return self.model.reward_bounds()


def build_br_detpomdp(
    model: DetDecModel,
    policy: JointPolicy,
    agent: int,
    value_table: MdpValueTable,
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
    )


def build_init_detpomdp(
    model: DetDecModel,
    agent: int,
    pi_mdp: MdpPolicy,
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
    )
