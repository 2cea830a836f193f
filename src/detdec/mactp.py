"""Grid navigation benchmark with stochastic edge blockages.

Instances live on the 4-connected ``N x N`` grid, vertices numbered
row-major ``1..N^2``.  Every edge carries an integer traversal cost in
``{1..10}``.  A chosen subset of edges is *stochastic*: each is blocked
with a known probability, the realized open/blocked configuration is fixed
before the episode starts and never changes, and an agent standing at an
endpoint of a stochastic edge sees that edge's true status.  All agents
start at vertex 1; each must reach its own goal vertex, drawn from the top
of the vertex range.  The first arrival at the goal pays +500 and freezes
the agent (its later actions are no-ops at reward 0); each successful move
costs the edge weight; waiting and bumping into a blocked or missing edge
cost nothing.

Packed state layout, least significant first: agent positions in base
``N^2``, one blockage bit per stochastic edge, one arrived flag per agent.
The blockage bits make the initial belief a product distribution over the
``2^{n_e}`` configurations; the arrived flags keep the +500 bonus a
one-shot event (without them a returning agent could collect it again).
The belief is built in integer arithmetic: weights over the common
denominator of the blockage probabilities, in a list indexed by the
blockage bits.  ``describe`` counts its support, 2 to the number of edges
blocked with probability strictly between 0 and 1, without building it.

A per-agent observation packs (all agents' positions, blocked-bitmask over
the stochastic edges incident to the agent's own vertex) into one integer:
``positions_code * 16 + mask``, incident edges taken in ascending edge
index order, positions code in base ``N^2`` with agent 0 least significant.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .descriptor import check_header, float_field, fraction_list, int_field, int_list, optional_int
from .model import DetDecModel, SupportBelief, checked_state_ids
from .rng import PRNG_NAME, stream

UP, RIGHT, DOWN, LEFT, WAIT = range(5)
ACTION_COUNT = 5
GOAL_REWARD = 500.0

_OBS_MASK_RADIX = 16  # a grid vertex touches at most 4 stochastic edges


def grid_edges(n: int) -> list[tuple[int, int]]:
    """Canonical edge list: vertices row-major, right edge then down edge."""
    edges = []
    for v in range(1, n * n + 1):
        col = (v - 1) % n
        row = (v - 1) // n
        if col < n - 1:
            edges.append((v, v + 1))
        if row < n - 1:
            edges.append((v, v + n))
    return edges


@dataclass(frozen=True)
class MactpSpec:
    grid_size: int
    agents: int
    stochastic_edges: int
    seed: int

    def validate(self) -> None:
        if self.grid_size < 2:
            raise ValueError(f"grid_size {self.grid_size} < 2")
        if self.agents < 1:
            raise ValueError(f"agents {self.agents} < 1")
        max_edges = 2 * self.grid_size * (self.grid_size - 1)
        if not 0 <= self.stochastic_edges <= max_edges:
            raise ValueError(
                f"stochastic_edges {self.stochastic_edges} outside [0, {max_edges}]"
            )


@dataclass(frozen=True)
class MactpInstance:
    grid_size: int
    agents: int
    weights: tuple[int, ...]            # aligned with grid_edges(grid_size)
    stochastic: tuple[int, ...]         # edge indices, strictly ascending
    block_probs: tuple[Fraction, ...]   # aligned with `stochastic`
    goals: tuple[int, ...]              # one vertex per agent
    starts: tuple[int, ...]             # one vertex per agent
    gamma: float = 0.95
    seed: int | None = None

    def validate(self) -> None:
        n = self.grid_size
        m = n * n
        edges = grid_edges(n)
        if len(self.weights) != len(edges):
            raise ValueError(f"{len(self.weights)} weights for {len(edges)} edges")
        if any(w < 1 for w in self.weights):
            raise ValueError("edge weights must be positive")
        if list(self.stochastic) != sorted(set(self.stochastic)):
            raise ValueError("stochastic edge indices must be strictly ascending")
        if self.stochastic and not 0 <= self.stochastic[-1] < len(edges):
            raise ValueError("stochastic edge index out of range")
        if len(self.block_probs) != len(self.stochastic):
            raise ValueError("one blockage probability per stochastic edge required")
        for p in self.block_probs:
            if not 0 <= p <= 1:
                raise ValueError(f"blockage probability {p} outside [0, 1]")
        if len(self.goals) != self.agents or len(self.starts) != self.agents:
            raise ValueError("need one goal and one start per agent")
        for v in (*self.goals, *self.starts):
            if not 1 <= v <= m:
                raise ValueError(f"vertex {v} outside 1..{m}")
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma {self.gamma} outside (0, 1)")


class MactpModel(DetDecModel):
    def __init__(self, instance: MactpInstance) -> None:
        instance.validate()
        self.instance = instance
        n = instance.grid_size
        m = n * n
        self._m = m
        self.agent_count = instance.agents
        self.discount = instance.gamma
        self.action_space_sizes = (ACTION_COUNT,) * instance.agents
        pos_code_card = m ** instance.agents
        self.observation_space_sizes = (pos_code_card * _OBS_MASK_RADIX,) * instance.agents

        edges = grid_edges(n)
        # _move[v][action] = (target vertex, edge index) or None
        move: list[list[tuple[int, int] | None]] = [[None] * 4 for _ in range(m + 1)]
        for idx, (u, v) in enumerate(edges):
            if v == u + 1:
                move[u][RIGHT] = (v, idx)
                move[v][LEFT] = (u, idx)
            else:
                move[u][DOWN] = (v, idx)
                move[v][UP] = (u, idx)
        self._move = move
        self._stoch_bit = {eidx: bit for bit, eidx in enumerate(instance.stochastic)}
        incident: list[tuple[int, ...]] = [()] * (m + 1)
        for v in range(1, m + 1):
            bits = []
            for d in range(4):
                mv = move[v][d]
                if mv is not None and mv[1] in self._stoch_bit:
                    bits.append((mv[1], self._stoch_bit[mv[1]]))
            incident[v] = tuple(bit for _, bit in sorted(bits))
        self._incident = incident
        self._weights = instance.weights
        self._goals = instance.goals
        self._n_edges = len(instance.stochastic)
        self._bits_mask = (1 << self._n_edges) - 1
        self._pos_card = pos_code_card
        self._done_full = (1 << instance.agents) - 1
        self._state_card = pos_code_card << (self._n_edges + instance.agents)
        # lookup arrays of the batch kernels, built on first use; set here so that
        # filling it keeps the instance's attribute layout (and scalar step speed)
        self._batch: tuple[np.ndarray, ...] | None = None
        # initial_belief, built on first use for the same reason
        self._initial_belief: SupportBelief | None = None

    # --- packing ---------------------------------------------------------

    def pack(self, positions, bits: int, dones: int) -> int:
        code = 0
        mult = 1
        for v in positions:
            code += (v - 1) * mult
            mult *= self._m
        return ((dones << self._n_edges) | bits) * self._pos_card + code

    def unpack(self, state: int) -> tuple[tuple[int, ...], int, int]:
        high, code = divmod(state, self._pos_card)
        dones, bits = divmod(high, 1 << self._n_edges)
        positions = []
        for _ in range(self.agent_count):
            code, p = divmod(code, self._m)
            positions.append(p + 1)
        return tuple(positions), bits, dones

    # --- dynamics ----------------------------------------------------------

    def step(self, state, action):
        action = tuple(action)
        self.check_action(action)
        s2, reward = self.transition_only(state, action)
        return s2, self._observe(s2), reward

    def transition_only(self, state, action):
        self._check_state(state)
        positions, bits, dones = self.unpack(state)
        if dones == self._done_full:
            return state, 0.0
        pos = list(positions)
        reward = 0.0
        for i in range(self.agent_count):
            if dones >> i & 1:
                continue
            a = action[i]
            if a == WAIT:
                continue
            mv = self._move[pos[i]][a]
            if mv is None:
                continue
            target, eidx = mv
            bit = self._stoch_bit.get(eidx)
            if bit is not None and bits >> bit & 1:
                continue
            pos[i] = target
            reward -= self._weights[eidx]
        new_dones = dones
        for i in range(self.agent_count):
            if not (new_dones >> i & 1) and pos[i] == self._goals[i]:
                new_dones |= 1 << i
                reward += GOAL_REWARD
        return self.pack(pos, bits, new_dones), reward

    def _build_batch_tables(self) -> tuple[np.ndarray, ...]:
        """Per (vertex - 1, action): move target - 1, cost, blocking bit; per
        (vertex - 1, mask slot): the position of the blockage bit shown there.

        The cost is the move's float reward, minus the edge weight.  WAIT and
        missing edges stay put at cost 0; a deterministic edge has blocking
        bit 0, so ``bits & bit`` is non-zero exactly when blocked.  An unused
        mask slot holds the edge count, a position past every blockage bit,
        so ``bits >> position & 1`` reads 0 there.
        """
        m = self._m
        target = np.repeat(np.arange(m, dtype=np.int64)[:, None], ACTION_COUNT, axis=1)
        weight = np.zeros((m, ACTION_COUNT), dtype=np.int64)
        block_bit = np.zeros((m, ACTION_COUNT), dtype=np.int64)
        for v in range(1, m + 1):
            for a, mv in enumerate(self._move[v]):
                if mv is not None:
                    target[v - 1, a] = mv[0] - 1
                    weight[v - 1, a] = self._weights[mv[1]]
                    bit = self._stoch_bit.get(mv[1])
                    if bit is not None:
                        block_bit[v - 1, a] = 1 << bit
        shift = np.full((m, 4), self._n_edges, dtype=np.int64)
        for v in range(1, m + 1):
            for slot, bit in enumerate(self._incident[v]):
                shift[v - 1, slot] = bit
        return target, 0.0 - weight, block_bit, shift

    def _tables(self) -> tuple[np.ndarray, ...]:
        if self._batch is None:
            self._batch = self._build_batch_tables()
        return self._batch

    def _advance(self, states: np.ndarray, actions) -> tuple[np.ndarray, np.ndarray]:
        """The move rules of ``transition_only`` over arrays: (successors, rewards).

        ``actions[i]`` is agent ``i``'s action array; it broadcasts against
        ``states``, and all of them together set the shape of the result.
        The base class derives ``transition_batch`` and ``step_batch`` from
        it.  Agents do not meet, so agent ``i``'s move, cost and arrival are
        computed on ``states`` and ``actions[i]`` alone; only its successor
        term (position and arrived flag) and its reward are added across the
        agents.  Arrived agents are frozen, so an all-arrived state stays put
        at reward 0.  The rewards are sums of integer-valued floats, so exact.
        """
        target, cost, block_bit, _ = self._tables()
        high, code = np.divmod(states, self._pos_card)
        bits = high & self._bits_mask
        dones = high >> self._n_edges
        succ = states - code  # the blockage bits and arrived flags
        reward = 0.0
        for i in range(self.agent_count):
            code, p = np.divmod(code, self._m)
            pa = p * ACTION_COUNT + actions[i]
            active = (dones >> i & 1) == 0
            moves = active & ((bits & block_bit.take(pa)) == 0)
            r = np.where(moves, cost.take(pa), 0.0)
            p = np.where(moves, target.take(pa), p)
            arrives = active & (p == self._goals[i] - 1)
            r = np.where(arrives, r + GOAL_REWARD, r)
            succ = succ + (p * self._m**i + arrives * (self._pos_card << (self._n_edges + i)))
            reward = reward + r
        return succ, reward

    def _observe(self, state: int) -> tuple[int, ...]:
        """Joint observation of arriving in ``state``: its positions code plus incident bits."""
        high, code = divmod(state, self._pos_card)
        bits = high & self._bits_mask
        base = code * _OBS_MASK_RADIX
        obs = []
        for _ in range(self.agent_count):
            code, p = divmod(code, self._m)
            mask = 0
            for slot, bit in enumerate(self._incident[p + 1]):
                if bits >> bit & 1:
                    mask |= 1 << slot
            obs.append(base + mask)
        return tuple(obs)

    def observe_batch(self, states):
        """``_observe`` over an array of states: one row per state, one column per agent."""
        shift = self._tables()[3]
        high, code = np.divmod(states, self._pos_card)
        bits = (high & self._bits_mask)[:, None]
        base = code * _OBS_MASK_RADIX
        slot_values = 1 << np.arange(shift.shape[1], dtype=np.int64)
        obs = np.empty((len(states), self.agent_count), dtype=np.int64)
        for i in range(self.agent_count):
            code, p = np.divmod(code, self._m)
            blocked = shift.take(p, axis=0)
            np.right_shift(bits, blocked, out=blocked)
            blocked &= 1
            obs[:, i] = base + blocked @ slot_values
        return obs

    def initial_belief(self):
        if self._initial_belief is None:
            self._initial_belief = self._build_initial_belief()
        return self._initial_belief

    def _build_initial_belief(self) -> SupportBelief:
        # edge k doubles the list, open half first: the index is the blockage bits, so atoms ascend
        weights = [1]
        for p in self.instance.block_probs:
            num, den = p.numerator, p.denominator
            weights = [w * (den - num) for w in weights] + [w * num for w in weights]
        start = self.pack(self.instance.starts, 0, 0)
        return SupportBelief((start + bits * self._pos_card, w) for bits, w in enumerate(weights) if w)

    def is_terminal(self, state):
        self._check_state(state)
        return state // (self._pos_card << self._n_edges) == self._done_full

    def terminal_batch(self, states):
        states = checked_state_ids(states, self._state_card)
        return states // (self._pos_card << self._n_edges) == self._done_full

    def reward_bounds(self):
        worst_move = max(self._weights) if self._weights else 0
        return (-float(worst_move) * self.agent_count, GOAL_REWARD * self.agent_count)

    # --- reporting ---------------------------------------------------------

    def sizing_report(self) -> dict:
        env_states = self._pos_card * (1 << self._n_edges)
        return {
            "family": "mactp",
            "agents": self.agent_count,
            "grid_size": self.instance.grid_size,
            "stochastic_edges": self._n_edges,
            "env_state_count": env_states,
            "state_count_with_flags": env_states << self.agent_count,
            "belief_support": 2 ** sum(0 < p < 1 for p in self.instance.block_probs),
            "action_space_sizes": list(self.action_space_sizes),
            "observation_space_bound": self.observation_space_sizes[0],
        }

    def descriptor(self) -> dict:
        inst = self.instance
        return {
            "family": "mactp",
            "format": 1,
            "prng": PRNG_NAME,
            "grid_size": inst.grid_size,
            "agents": inst.agents,
            "weights": list(inst.weights),
            "stochastic": list(inst.stochastic),
            "block_probs": [f"{p.numerator}/{p.denominator}" for p in inst.block_probs],
            "goals": list(inst.goals),
            "starts": list(inst.starts),
            "gamma": inst.gamma,
            "seed": inst.seed,
        }

    @classmethod
    def from_descriptor(cls, doc: dict) -> "MactpModel":
        check_header(doc, "mactp")
        inst = MactpInstance(
            grid_size=int_field(doc, "grid_size"),
            agents=int_field(doc, "agents"),
            weights=int_list(doc, "weights"),
            stochastic=int_list(doc, "stochastic"),
            block_probs=fraction_list(doc, "block_probs"),
            goals=int_list(doc, "goals"),
            starts=int_list(doc, "starts"),
            gamma=float_field(doc, "gamma", 0.95),
            seed=optional_int(doc, "seed"),
        )
        return cls(inst)


def mactp_generate(spec: MactpSpec, gamma: float = 0.95) -> MactpModel:
    """Sample an instance from (spec, seed).

    Draw order is fixed and versioned: edge weights in canonical edge order,
    the stochastic edge subset, blockage probabilities (percent points,
    uniform on 10..90) in ascending edge order, then one goal per agent
    uniform over the top of the vertex range.
    """
    spec.validate()
    rng = stream(spec.seed, "mactp-instance")
    n = spec.grid_size
    m = n * n
    edges = grid_edges(n)
    weights = tuple(rng.randint(1, 10) for _ in edges)
    stochastic = tuple(sorted(rng.sample(range(len(edges)), spec.stochastic_edges)))
    probs = tuple(Fraction(rng.randint(10, 90), 100) for _ in stochastic)
    # keep goals off the shared start vertex for degenerate (huge n_e) specs
    lo = max(2, m - spec.stochastic_edges)
    goals = tuple(rng.randint(lo, m) for _ in range(spec.agents))
    instance = MactpInstance(
        grid_size=n,
        agents=spec.agents,
        weights=weights,
        stochastic=stochastic,
        block_probs=probs,
        goals=goals,
        starts=(1,) * spec.agents,
        gamma=gamma,
        seed=spec.seed,
    )
    return MactpModel(instance)
