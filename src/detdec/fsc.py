"""Deterministic finite-state controllers and joint policies.

A controller node carries one action and a partial observation-to-node
transition map; observations missing from the map go to the node's fallback
successor (by default the node itself), so execution is total even on
observations never reached during planning.

``FscArrays`` holds a controller as arrays, to advance many executions of
it at once: a transition table with one row per node and one column per
distinct mapped observation, plus a last column of fallbacks, so its
memory is ``nodes x (observations + 1)`` cells, at most
``TABLE_CELL_LIMIT``.  A bucket index over the sorted observations finds a
column without a binary search unless two observations share a bucket.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import PolicyFormatError, ResourceLimitError


@dataclass(frozen=True)
class FscNode:
    action: int
    transitions: dict[int, int] = field(default_factory=dict)  # observation -> node index
    fallback: int | None = None  # None resolves to the node's own index


class Fsc:
    """Finite automaton policy: nodes select actions, observations drive moves."""

    __slots__ = ("nodes", "initial_node")

    def __init__(self, nodes: list[FscNode], initial_node: int = 0) -> None:
        if not nodes:
            raise ValueError("an FSC needs at least one node")
        if not 0 <= initial_node < len(nodes):
            raise ValueError(f"initial node {initial_node} outside [0, {len(nodes)})")
        resolved = []
        for idx, node in enumerate(nodes):
            fallback = idx if node.fallback is None else node.fallback
            if not 0 <= fallback < len(nodes):
                raise ValueError(f"node {idx} fallback {fallback} outside [0, {len(nodes)})")
            if node.action < 0:
                raise ValueError(f"node {idx} has negative action {node.action}")
            for obs, target in node.transitions.items():
                if obs < 0:
                    raise ValueError(f"node {idx} maps negative observation {obs}")
                if not 0 <= target < len(nodes):
                    raise ValueError(
                        f"node {idx} transition on obs {obs} targets {target}, outside [0, {len(nodes)})"
                    )
            resolved.append(FscNode(node.action, dict(node.transitions), fallback))
        self.nodes = tuple(resolved)
        self.initial_node = initial_node

    def act(self, node: int) -> int:
        if not 0 <= node < len(self.nodes):
            raise ValueError(f"node index {node} outside [0, {len(self.nodes)})")
        return self.nodes[node].action

    def advance(self, node: int, obs: int) -> int:
        if not 0 <= node < len(self.nodes):
            raise ValueError(f"node index {node} outside [0, {len(self.nodes)})")
        if obs < 0:
            raise ValueError(f"negative observation {obs}")
        entry = self.nodes[node]
        return entry.transitions.get(obs, entry.fallback)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Fsc)
            and self.initial_node == other.initial_node
            and self.nodes == other.nodes
        )

    def __hash__(self) -> int:
        return hash((self.initial_node, tuple((n.action, tuple(sorted(n.transitions.items())), n.fallback) for n in self.nodes)))

    def __repr__(self) -> str:
        return f"Fsc({len(self.nodes)} nodes, initial={self.initial_node})"


_INT64_MAX = 2**63 - 1
TABLE_CELL_LIMIT = 2**26  # cells of one FscArrays transition table


class FscArrays:
    """Array view of a controller: an action per node and a transition table.

    ``observations`` are the sorted distinct observations the controller
    maps, ``W`` of them.  ``table`` has ``nodes x (W + 1)`` cells, flattened
    row-major: cell ``node * (W + 1) + rank`` is the successor of ``node`` on
    ``observations[rank]``, the node's fallback where it does not map that
    observation, and the last column is every node's fallback, read for any
    observation outside ``observations``.  Cells are the narrowest unsigned
    type that holds a node index and are read back as int64.  The table is
    quadratic in controller size: a controller whose table would pass
    ``TABLE_CELL_LIMIT`` cells raises ``ResourceLimitError`` before it is
    allocated.  Observations beyond int64 are left out: no array of
    observations can hold them.

    An observation's rank is found by bucket, as ``evaluation._bins`` finds
    a draw's bin: observation ``o`` falls in bucket ``min(o >> shift, B)``,
    where ``shift`` is 0 or leaves at least 16 buckets per observation below
    bucket ``B``, which takes everything above the largest observation.  ``_first``
    holds one rank per bucket: the bucket's only observation, an observation
    outside an empty bucket, or -1 where the bucket holds two or more
    observations.  Only rows in such buckets take a binary search, and a
    row whose observation is not the one its rank names reads the fallback
    column.  ``ranks`` gives these columns, so a caller can keep them
    (``bestresponse`` does, per relaxation-table row) and skip the search.
    """

    __slots__ = ("initial_node", "actions", "observations", "table", "_shift", "_first", "_searched")

    def __init__(self, fsc: Fsc) -> None:
        nodes = fsc.nodes
        self.initial_node = fsc.initial_node
        self.actions = np.array([n.action for n in nodes], dtype=np.int64)
        edges = [
            (index, obs, target)
            for index, n in enumerate(nodes)
            for obs, target in n.transitions.items()
            if obs <= _INT64_MAX
        ]
        index, obs, target = np.array(edges, dtype=np.int64).reshape(-1, 3).T
        self.observations, rank = np.unique(obs, return_inverse=True)
        width = self.observations.size
        cells = len(nodes) * (width + 1)
        if cells > TABLE_CELL_LIMIT:
            raise ResourceLimitError(
                f"controller of {len(nodes)} nodes maps {width} distinct observations: its transition "
                f"table of {cells} cells passes the limit of {TABLE_CELL_LIMIT} cells"
            )
        fallback = np.array([n.fallback for n in nodes], dtype=np.min_scalar_type(len(nodes) - 1))
        self.table = np.repeat(fallback, width + 1)
        self.table[index * (width + 1) + rank] = target
        top = int(self.observations[-1]) if width else 0
        # an int64 scalar, so that shifting uint16 and uint32 observations widens them
        self._shift = np.int64(max(0, top.bit_length() - (16 * width).bit_length() - 1))
        first = np.searchsorted(self.observations, np.arange((top >> self._shift) + 1) << self._shift)
        crowded = np.diff(first, append=width) > 1
        # bucket B, and any empty bucket past the largest observation, names the largest
        self._first = np.append(np.where(crowded, -1, np.minimum(first, width - 1)), width - 1)
        self._searched = bool(crowded.any())

    @classmethod
    def checked(cls, fsc: Fsc, agent: int, action_count: int) -> "FscArrays":
        """The arrays of agent ``agent``'s controller, once every node's action is in ``[0, action_count)``."""
        for index, node in enumerate(fsc.nodes):
            if not 0 <= node.action < action_count:
                raise ValueError(f"agent {agent} node {index}: action {node.action} outside [0, {action_count})")
        return cls(fsc)

    def ranks(self, obs: np.ndarray) -> np.ndarray:
        """The table column of each observation: its rank in ``observations``, ``W`` where unmapped.

        ``obs`` is an int64, uint32 or uint16 array of non-negative observations; the result is int64.
        """
        width = self.observations.size
        if not width:  # the table is the fallback column
            return np.zeros(obs.shape, dtype=np.int64)
        rank = self._first[np.minimum(obs >> self._shift, self._first.size - 1)]
        if self._searched:
            split = rank < 0
            rank[split] = np.minimum(np.searchsorted(self.observations, obs[split]), width - 1)
        rank[self.observations[rank] != obs] = width
        return rank

    def advance(self, nodes: np.ndarray, obs: np.ndarray) -> np.ndarray:
        """Successor node per row, as ``Fsc.advance(nodes[r], obs[r])``, as int64."""
        return self.table[nodes * (self.observations.size + 1) + self.ranks(obs)].astype(np.int64)


class JointPolicy:
    """One controller per agent."""

    __slots__ = ("controllers",)

    def __init__(self, controllers) -> None:
        controllers = tuple(controllers)
        if not controllers:
            raise ValueError("a joint policy needs at least one controller")
        self.controllers = controllers

    @property
    def agent_count(self) -> int:
        return len(self.controllers)

    def replace(self, agent: int, fsc: Fsc) -> "JointPolicy":
        if not 0 <= agent < len(self.controllers):
            raise ValueError(f"agent index {agent} outside [0, {len(self.controllers)})")
        new = list(self.controllers)
        new[agent] = fsc
        return JointPolicy(new)

    def initial_nodes(self) -> tuple[int, ...]:
        return tuple(c.initial_node for c in self.controllers)

    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.controllers)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, JointPolicy) and self.controllers == other.controllers

    def __repr__(self) -> str:
        return f"JointPolicy(sizes={self.sizes()})"


# --- serialization -----------------------------------------------------------
#
# Schema:
#   {"agents": [{"initial": int,
#                "nodes": [{"action": int, "fallback": int,
#                           "transitions": {"<obs>": int, ...}}, ...]}, ...]}
# Observation keys are stringified non-negative integers.


def policy_to_dict(policy: JointPolicy) -> dict:
    return {
        "agents": [
            {
                "initial": fsc.initial_node,
                "nodes": [
                    {
                        "action": node.action,
                        "fallback": node.fallback,
                        "transitions": {str(obs): tgt for obs, tgt in sorted(node.transitions.items())},
                    }
                    for node in fsc.nodes
                ],
            }
            for fsc in policy.controllers
        ]
    }


def serialize(policy: JointPolicy) -> str:
    return json.dumps(policy_to_dict(policy), sort_keys=True, indent=1)


def _require(cond: bool, where: str, problem: str) -> None:
    if not cond:
        raise PolicyFormatError(f"{where}: {problem}")


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int: reject them explicitly
    return isinstance(value, int) and not isinstance(value, bool)


def policy_from_dict(doc: dict) -> JointPolicy:
    _require(isinstance(doc, dict), "document", "expected a JSON object")
    agents = doc.get("agents")
    _require(isinstance(agents, list) and agents, "agents", "expected a non-empty list")
    controllers = []
    for ai, agent_doc in enumerate(agents):
        where = f"agents[{ai}]"
        _require(isinstance(agent_doc, dict), where, "expected an object")
        nodes_doc = agent_doc.get("nodes")
        _require(isinstance(nodes_doc, list) and nodes_doc, f"{where}.nodes", "expected a non-empty list")
        initial = agent_doc.get("initial", 0)
        _require(_is_int(initial) and 0 <= initial < len(nodes_doc),
                 f"{where}.initial", f"node index {initial!r} outside [0, {len(nodes_doc)})")
        nodes = []
        for ni, node_doc in enumerate(nodes_doc):
            nwhere = f"{where}.nodes[{ni}]"
            _require(isinstance(node_doc, dict), nwhere, "expected an object")
            action = node_doc.get("action")
            _require(_is_int(action) and action >= 0, f"{nwhere}.action",
                     f"expected a non-negative integer, got {action!r}")
            fallback = node_doc.get("fallback", ni)
            _require(_is_int(fallback) and 0 <= fallback < len(nodes_doc),
                     f"{nwhere}.fallback", f"node index {fallback!r} outside [0, {len(nodes_doc)})")
            transitions: dict[int, int] = {}
            raw = node_doc.get("transitions", {})
            _require(isinstance(raw, dict), f"{nwhere}.transitions", "expected an object")
            for key, target in raw.items():
                twhere = f"{nwhere}.transitions[{key!r}]"
                try:
                    obs = int(key)
                except (TypeError, ValueError):
                    raise PolicyFormatError(f"{twhere}: key is not an integer") from None
                _require(obs >= 0, twhere, "observation must be non-negative")
                _require(_is_int(target) and 0 <= target < len(nodes_doc),
                         twhere, f"target {target!r} outside [0, {len(nodes_doc)})")
                transitions[obs] = target
            nodes.append(FscNode(action, transitions, fallback))
        controllers.append(Fsc(nodes, initial))
    return JointPolicy(controllers)


def deserialize(text: str) -> JointPolicy:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolicyFormatError(f"document: invalid JSON ({exc})") from None
    return policy_from_dict(doc)
