"""Cooperative box-delivery benchmark on a walled grid.

Agents move on an ``(H+2) x (W+2)`` grid whose border is wall; the interior
``H x W`` region holds a fixed, known set of obstacle cells and goal cells
(one goal per box).  Indistinguishable boxes lie on free cells; an agent
entering a box cell while empty-handed picks the box up automatically, and
a carrying agent entering an unfilled goal cell delivers it for +100.  Each
goal accepts one box.  Moves resolve in ascending agent order within a
step; moving into a wall, an obstacle, or a cell currently occupied by
another agent is a no-op, which makes the problem asymmetric but keeps the
dynamics deterministic.  Once every goal is filled the state is absorbing.

Initial uncertainty: the set of start cells is known but which agent
occupies which start cell is not, and the boxes lie on an unknown
``n_b``-subset of the eligible cells (free interior cells that are neither
goals nor starts).  The initial belief enumerates all assignments x subsets
uniformly.

A per-agent observation is the 3x3 patch centered on the agent, each cell
rendered to one of five codes (wall 0, empty 1, box 2, agent 3, goal 4;
agents cover boxes and goals, boxes cover goals) and packed base-5 in
row-major patch order.

Packed state layout, least significant first: per agent (cell, carrying)
pairs in base ``2C`` over the ``C`` free cells, a ground-box bitmask over
free cells, then one filled flag per goal.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .descriptor import check_header, float_field, int_field, int_list, optional_int
from .model import DetDecModel, SupportBelief, checked_state_ids
from .rng import PRNG_NAME, stream

UP, RIGHT, DOWN, LEFT, WAIT = range(5)
ACTION_COUNT = 5
DELIVERY_REWARD = 100.0

WALL_CODE, EMPTY_CODE, BOX_CODE, AGENT_CODE, GOAL_CODE = range(5)
OBS_BOUND = 5 ** 9


@dataclass(frozen=True)
class CollectingSpec:
    height: int
    width: int
    agents: int
    boxes: int
    seed: int

    def validate(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValueError("interior must be at least 1x1")
        if self.agents < 1:
            raise ValueError(f"agents {self.agents} < 1")
        if self.boxes < 1:
            raise ValueError(f"boxes {self.boxes} < 1")
        cells = self.height * self.width
        if cells <= 2 * self.boxes + self.agents:
            raise ValueError(
                f"interior of {cells} cells too small for {self.boxes} boxes and {self.agents} agents"
            )
        # boxes additionally need n_b eligible cells outside goals and starts
        if cells - 2 * self.boxes - self.agents < self.boxes:
            raise ValueError(
                f"interior of {cells} cells leaves fewer than {self.boxes} box placements"
            )


@dataclass(frozen=True)
class CollectingInstance:
    height: int
    width: int
    agents: int
    boxes: int
    obstacles: tuple[int, ...]    # full-grid cell ids, sorted
    goals: tuple[int, ...]        # sorted; slot k is goals[k]
    start_cells: tuple[int, ...]  # sorted; assignment to agents is uncertain
    box_domain: tuple[int, ...]   # sorted cells eligible for initial boxes
    gamma: float = 0.95
    seed: int | None = None

    def validate(self) -> None:
        rows, cols = self.height + 2, self.width + 2
        interior = set()
        for r in range(1, self.height + 1):
            for c in range(1, self.width + 1):
                interior.add(r * cols + c)
        groups = {
            "obstacles": self.obstacles,
            "goals": self.goals,
            "start_cells": self.start_cells,
            "box_domain": self.box_domain,
        }
        seen: set[int] = set()
        for name, cells in groups.items():
            if list(cells) != sorted(set(cells)):
                raise ValueError(f"{name} must be sorted and distinct")
            for cell in cells:
                if cell not in interior:
                    raise ValueError(f"{name} cell {cell} outside the {rows}x{cols} interior")
                if cell in seen:
                    raise ValueError(f"cell {cell} appears in more than one group")
            seen.update(cells)
        if len(self.obstacles) != self.boxes or len(self.goals) != self.boxes:
            raise ValueError("need exactly one obstacle and one goal per box")
        if len(self.start_cells) != self.agents:
            raise ValueError("need one start cell per agent")
        if len(self.box_domain) < self.boxes:
            raise ValueError(
                f"box domain of {len(self.box_domain)} cells cannot host {self.boxes} boxes"
            )
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma {self.gamma} outside (0, 1)")


class CollectingModel(DetDecModel):
    def __init__(self, instance: CollectingInstance) -> None:
        instance.validate()
        self.instance = instance
        cols = instance.width + 2
        rows = instance.height + 2
        self._cols = cols
        self.agent_count = instance.agents
        self.discount = instance.gamma
        self.action_space_sizes = (ACTION_COUNT,) * instance.agents
        self.observation_space_sizes = (OBS_BOUND,) * instance.agents

        obstacle_set = set(instance.obstacles)
        free = []
        for r in range(1, instance.height + 1):
            for c in range(1, instance.width + 1):
                cell = r * cols + c
                if cell not in obstacle_set:
                    free.append(cell)
        self._free = tuple(free)
        self._fidx = {cell: i for i, cell in enumerate(free)}
        self._C = len(free)
        self._goal_slot = {cell: k for k, cell in enumerate(instance.goals)}
        # static render code per cell, before agents/boxes are overlaid
        base = [WALL_CODE] * (rows * cols)
        for cell in free:
            base[cell] = GOAL_CODE if cell in self._goal_slot else EMPTY_CODE
        self._base = base
        self._delta = (-cols, 1, cols, -1)  # up, right, down, left
        self._around = {
            cell: tuple(cell + dr * cols + dc for dr in (-1, 0, 1) for dc in (-1, 0, 1))
            for cell in free
        }
        self._agent_radix = 2 * self._C
        self._agents_card = self._agent_radix ** instance.agents
        self._flags_full = (1 << instance.boxes) - 1
        self._state_card = (self._agents_card << self._C) << instance.boxes
        # lookup arrays of the batch kernels, built on first use; set here so that
        # filling it keeps the instance's attribute layout (and scalar step speed)
        self._batch: tuple[np.ndarray, ...] | None = None
        # initial_belief, built on first use for the same reason
        self._initial_belief: SupportBelief | None = None

    # --- packing ---------------------------------------------------------

    def pack(self, cells, carries, boxmask: int, flags: int) -> int:
        code = 0
        mult = 1
        for cell, carry in zip(cells, carries):
            code += (self._fidx[cell] * 2 + carry) * mult
            mult *= self._agent_radix
        return ((code << self._C) | boxmask) * (self._flags_full + 1) + flags

    def unpack(self, state: int) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        high, flags = divmod(state, self._flags_full + 1)
        code, boxmask = divmod(high, 1 << self._C)
        cells, carries = [], []
        for _ in range(self.agent_count):
            code, slot = divmod(code, self._agent_radix)
            fidx, carry = divmod(slot, 2)
            cells.append(self._free[fidx])
            carries.append(carry)
        return tuple(cells), tuple(carries), boxmask, flags

    # --- dynamics ----------------------------------------------------------

    def step(self, state, action):
        action = tuple(action)
        self.check_action(action)
        s2, reward = self.transition_only(state, action)
        return s2, self._observe(s2), reward

    def transition_only(self, state, action):
        if self.is_terminal(state):
            return state, 0.0
        cells, carries, boxmask, flags = self.unpack(state)
        cells = list(cells)
        carries = list(carries)
        reward = 0.0
        for i in range(self.agent_count):
            a = action[i]
            if a == WAIT:
                continue
            target = cells[i] + self._delta[a]
            if self._base[target] == WALL_CODE:
                continue
            if any(cells[j] == target for j in range(self.agent_count) if j != i):
                continue
            cells[i] = target
            if carries[i]:
                slot = self._goal_slot.get(target)
                if slot is not None and not flags >> slot & 1:
                    flags |= 1 << slot
                    carries[i] = 0
                    reward += DELIVERY_REWARD
            else:
                f = self._fidx[target]
                if boxmask >> f & 1:
                    boxmask &= ~(1 << f)
                    carries[i] = 1
        return self.pack(cells, carries, boxmask, flags), reward

    def _build_batch_tables(self) -> tuple[np.ndarray, ...]:
        """Per free index and action, the free index moved to (-1: WAIT, wall or
        obstacle); per free index, its goal's flag bit (0 off goals); per free
        index and cell of its 3x3 patch, the cell's free index (-1: wall or
        obstacle), box-bit shift and static render code; the base-5 digit of
        each patch cell."""
        target = np.full((self._C, ACTION_COUNT), -1, dtype=np.int64)
        for f, cell in enumerate(self._free):
            for a, delta in enumerate(self._delta):
                target[f, a] = self._fidx.get(cell + delta, -1)
        goal_bit = np.array(
            [1 << self._goal_slot[cell] if cell in self._goal_slot else 0 for cell in self._free],
            dtype=np.int64,
        )
        patch = np.array([[self._fidx.get(c, -1) for c in self._around[cell]] for cell in self._free],
                         dtype=np.int64)
        # a shift of 63 reads no box bit, which keeps boxes off walls and obstacles
        box_shift = np.where(patch >= 0, patch, 63)
        patch_base = np.array([[self._base[c] for c in self._around[cell]] for cell in self._free],
                              dtype=np.int64)
        digits = 5 ** np.arange(patch.shape[1], dtype=np.int64)
        return target, goal_bit, patch, box_shift, patch_base, digits

    def _tables(self) -> tuple[np.ndarray, ...]:
        if self._batch is None:
            self._batch = self._build_batch_tables()
        return self._batch

    def _advance(self, states: np.ndarray, actions) -> tuple[np.ndarray, np.ndarray]:
        """The move rules of ``transition_only`` over arrays: (successors, rewards).

        ``actions[i]`` is agent ``i``'s action array; it broadcasts against
        ``states``, and all of them together set the shape of the result.
        The base class derives ``transition_batch`` and ``step_batch`` from
        it.  Each update is out of place, so agent ``i``'s arrays may take
        the axis of its own actions while the agents before it have moved
        on theirs.
        """
        target, goal_bit = self._tables()[:2]
        n_flags = self._flags_full + 1
        high, flags = np.divmod(states, n_flags)
        code, boxmask = np.divmod(high, 1 << self._C)
        fidx, carry = [], []
        for _ in range(self.agent_count):
            code, agent_slot = np.divmod(code, self._agent_radix)
            fidx.append(agent_slot >> 1)
            carry.append(agent_slot & 1)
        # agents in order, as in transition_only, each seeing the cells of
        # the agents that moved before it
        reward = 0.0
        for i in range(self.agent_count):
            to = target[fidx[i], actions[i]]
            moves = to >= 0
            for j in range(self.agent_count):
                if j != i:
                    moves = moves & (to != fidx[j])
            to = np.where(moves, to, fidx[i])
            bit = goal_bit[to]
            delivers = moves & (carry[i] == 1) & (bit != 0) & (flags & bit == 0)
            picks = moves & (carry[i] == 0) & (boxmask >> to & 1 == 1)
            flags = flags | np.where(delivers, bit, 0)
            boxmask = boxmask & ~np.where(picks, 1 << to, 0)
            reward = reward + np.where(delivers, DELIVERY_REWARD, 0.0)
            carry[i] = np.where(delivers, 0, np.where(picks, 1, carry[i]))
            fidx[i] = to
        new_code = 0
        for i in range(self.agent_count):
            new_code = new_code + (fidx[i] * 2 + carry[i]) * self._agent_radix**i
        succ = ((new_code << self._C) | boxmask) * n_flags + flags
        # every goal filled: absorbing at reward 0
        done = states % n_flags == self._flags_full
        return np.where(done, states, succ), np.where(done, 0.0, reward)

    def _observe(self, state: int) -> tuple[int, ...]:
        """Joint observation of arriving in ``state``: each agent's rendered 3x3 patch."""
        cells, _, boxmask, _ = self.unpack(state)
        occupied = set(cells)
        base = self._base
        fidx = self._fidx
        obs = []
        for i in range(self.agent_count):
            code = 0
            mult = 1
            for cell in self._around[cells[i]]:
                kind = base[cell]
                if kind != WALL_CODE:
                    if cell in occupied:
                        kind = AGENT_CODE
                    elif boxmask >> fidx[cell] & 1:
                        kind = BOX_CODE
                code += kind * mult
                mult *= 5
            obs.append(code)
        return tuple(obs)

    def observe_batch(self, states):
        """``_observe`` over an array of states: one row per state, one column per agent."""
        patch, box_shift, patch_base, digits = self._tables()[2:]
        high = states // (self._flags_full + 1)
        code, boxmask = np.divmod(high, 1 << self._C)
        boxmask = boxmask[:, None]
        fidx = []
        for _ in range(self.agent_count):
            code, agent_slot = np.divmod(code, self._agent_radix)
            fidx.append(agent_slot >> 1)
        columns = [f[:, None] for f in fidx]
        obs = np.empty((len(states), self.agent_count), dtype=np.int64)
        for i, f in enumerate(fidx):
            cells = patch[f]  # (states, 9) free indices, -1 off the free cells
            occupied = cells == columns[0]
            for other in columns[1:]:
                occupied |= cells == other
            boxed = (boxmask >> box_shift[f] & 1) == 1
            kind = np.where(occupied, AGENT_CODE, np.where(boxed, BOX_CODE, patch_base[f]))
            obs[:, i] = kind @ digits
        return obs

    def initial_belief(self):
        if self._initial_belief is None:
            self._initial_belief = self._build_initial_belief()
        return self._initial_belief

    def _build_initial_belief(self) -> SupportBelief:
        pairs = []
        for perm in sorted(itertools.permutations(self.instance.start_cells)):
            for combo in itertools.combinations(self.instance.box_domain, self.instance.boxes):
                boxmask = 0
                for cell in combo:
                    boxmask |= 1 << self._fidx[cell]
                pairs.append((self.pack(perm, (0,) * self.agent_count, boxmask, 0), 1))
        return SupportBelief.from_pairs(pairs)

    def is_terminal(self, state):
        self._check_state(state)
        return state % (self._flags_full + 1) == self._flags_full

    def terminal_batch(self, states):
        states = checked_state_ids(states, self._state_card)
        return states % (self._flags_full + 1) == self._flags_full

    def reward_bounds(self):
        return (0.0, DELIVERY_REWARD * self.agent_count)

    # --- reporting ---------------------------------------------------------

    def sizing_report(self) -> dict:
        n_b = self.instance.boxes
        support = math.factorial(self.agent_count) * math.comb(len(self.instance.box_domain), n_b)
        return {
            "family": "collecting",
            "agents": self.agent_count,
            "interior": [self.instance.height, self.instance.width],
            "boxes": n_b,
            "free_cells": self._C,
            "env_state_bound": (2 * self._C) ** self.agent_count * math.comb(self._C, n_b),
            "belief_support": support,
            "action_space_sizes": list(self.action_space_sizes),
            "observation_space_bound": OBS_BOUND,
        }

    def descriptor(self) -> dict:
        inst = self.instance
        return {
            "family": "collecting",
            "format": 1,
            "prng": PRNG_NAME,
            "height": inst.height,
            "width": inst.width,
            "agents": inst.agents,
            "boxes": inst.boxes,
            "obstacles": list(inst.obstacles),
            "goals": list(inst.goals),
            "start_cells": list(inst.start_cells),
            "box_domain": list(inst.box_domain),
            "belief_rule": "all-start-assignments-x-box-subsets/v1",
            "belief_support": math.factorial(inst.agents) * math.comb(len(inst.box_domain), inst.boxes),
            "gamma": inst.gamma,
            "seed": inst.seed,
        }

    @classmethod
    def from_descriptor(cls, doc: dict) -> "CollectingModel":
        check_header(doc, "collecting")
        inst = CollectingInstance(
            height=int_field(doc, "height"),
            width=int_field(doc, "width"),
            agents=int_field(doc, "agents"),
            boxes=int_field(doc, "boxes"),
            obstacles=int_list(doc, "obstacles"),
            goals=int_list(doc, "goals"),
            start_cells=int_list(doc, "start_cells"),
            box_domain=int_list(doc, "box_domain"),
            gamma=float_field(doc, "gamma", 0.95),
            seed=optional_int(doc, "seed"),
        )
        return cls(inst)


def collecting_generate(spec: CollectingSpec, gamma: float = 0.95) -> CollectingModel:
    """Sample an instance from (spec, seed).

    Draw order is fixed and versioned: obstacle cells, then goal cells from
    the remainder, then start cells from the remainder; every other free
    non-goal interior cell is eligible for boxes.
    """
    spec.validate()
    rng = stream(spec.seed, "collecting-instance")
    cols = spec.width + 2
    interior = [
        r * cols + c
        for r in range(1, spec.height + 1)
        for c in range(1, spec.width + 1)
    ]
    obstacles = sorted(rng.sample(interior, spec.boxes))
    rest = [c for c in interior if c not in set(obstacles)]
    goals = sorted(rng.sample(rest, spec.boxes))
    rest = [c for c in rest if c not in set(goals)]
    starts = sorted(rng.sample(rest, spec.agents))
    box_domain = tuple(c for c in rest if c not in set(starts))
    instance = CollectingInstance(
        height=spec.height,
        width=spec.width,
        agents=spec.agents,
        boxes=spec.boxes,
        obstacles=tuple(obstacles),
        goals=tuple(goals),
        start_cells=tuple(starts),
        box_domain=box_domain,
        gamma=gamma,
        seed=spec.seed,
    )
    return CollectingModel(instance)
