"""Core abstraction: deterministic decentralized decision processes.

Models are generative: dynamics are computed on demand by pure functions
over packed integer states, never materialized as transition matrices
(benchmark instances reach millions of states).  A model gives its move
rules over arrays once, as ``_advance``, and renders the joint observation,
a function of the successor state alone, with ``observe_batch``, so the
relaxation's reachability pass stores it once per state.  The base class
derives both batch forms from ``_advance``: ``transition_batch`` is the
move rules over an array of states and every joint action at once, for
that pass; ``step_batch`` is ``step`` over arrays of states and one joint
action per row, for policy evaluation.  The only probabilistic object in
the whole system is the initial belief, held as an explicit support with
integer weights.
"""
from __future__ import annotations

import abc
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError

StateId = int
JointAction = tuple[int, ...]
JointObservation = tuple[int, ...]


def require_int64_state_ids(max_id: int) -> None:
    """Raise ``ResourceLimitError`` if state ids up to ``max_id`` do not fit in int64."""
    if max_id > 2**63 - 1:
        raise ResourceLimitError(
            f"state ids reach {max_id}, beyond the int64 state-id bound 2**63 - 1 "
            "of the batched dynamics"
        )


def checked_state_ids(states, state_card: int) -> np.ndarray:
    """``states`` as an int64 array, each checked to lie in ``[0, state_card)``.

    The entry guard of ``transition_batch``, ``step_batch`` and the
    environments' ``terminal_batch``: it raises before any work when the
    model's ids could wrap in int64 arithmetic.
    """
    require_int64_state_ids(state_card - 1)
    states = np.asarray(states, dtype=np.int64)
    if states.size and not (0 <= states.min() and states.max() < state_card):
        raise ValueError(f"state ids outside [0, {state_card})")
    return states


def within_least_bound(values: np.ndarray, bounds) -> bool:
    """Whether every entry of the int64 array ``values`` lies in ``[0, min(bounds))``.

    That is enough for column ``i`` to lie in ``[0, bounds[i])``, and it is
    one flat reduction of the values viewed as unsigned, where a negative one
    is past every bound: it allocates nothing and reads memory in order,
    where a per-column min and max cost about 30 times as much on a few
    thousand rows.  Callers take those only when this fails: to name the
    column out of range, or to pass columns whose bounds are wider.
    """
    return not values.size or int(np.asarray(values, dtype=np.int64).view(np.uint64).max()) < min(bounds)


class IdRows:
    """Rows of distinct int64 ids, numbered in the order the ids are added.

    The ids are held in two sorted runs, each beside its rows: a large run
    and a small recent one.  ``add`` inserts into the recent run only, and
    the recent run is merged into the large one once it holds more than an
    eighth of it, so the large run grows geometrically and an id is copied
    a few times in all, not once per ``add``.  A lookup is one
    ``searchsorted`` per run.  An ``add`` of more than an eighth as many ids
    as the large run holds merges too: looking those ids up in a second run
    would cost more than the merge.
    """

    def __init__(self, ids: np.ndarray, dtype=np.int64) -> None:
        """``ids`` sorted and distinct, given rows 0, 1, ... of ``dtype``."""
        self.size = ids.size
        self._large = ids, np.arange(ids.size, dtype=dtype)
        self._recent = ids[:0], np.empty(0, dtype=dtype)

    def add(self, ids: np.ndarray) -> np.ndarray:
        """The distinct ``ids`` not added before, sorted; each takes the next row, in that order.

        The sorted unique is a sort plus an adjacent compare, not
        ``np.unique``: numpy 2's hashing unique ran about 18x slower than
        this sort on 5M ids.
        """
        found = np.sort(ids, axis=None)
        distinct = np.ones(found.size, dtype=bool)
        distinct[1:] = found[1:] != found[:-1]
        found = found[distinct]
        known = np.zeros(found.size, dtype=bool)
        for run, _ in (self._large, self._recent):
            if run.size:
                known |= run.take(run.searchsorted(found), mode="clip") == found
        new = found[~known]
        rows = np.arange(self.size, self.size + new.size, dtype=self._recent[1].dtype)
        self._recent = _merged_runs(*self._recent, new, rows)
        self.size += new.size
        if 8 * max(self._recent[0].size, ids.size) > self._large[0].size:
            self._large = self.merged()
            self._recent = new[:0], rows[:0]
        return new

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The row of each of ``ids``, every one of which was added."""
        (large, large_rows), (recent, recent_rows) = self._large, self._recent
        at = large.searchsorted(ids)
        rows = large_rows.take(at, mode="clip")
        if recent.size:
            in_recent = large.take(at, mode="clip") != ids
            rows = np.where(in_recent, recent_rows.take(recent.searchsorted(ids), mode="clip"), rows)
        return rows

    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """(every added id, sorted; the row of each)."""
        return _merged_runs(*self._large, *self._recent)


def _merged_runs(ids, rows, more_ids, more_rows) -> tuple[np.ndarray, np.ndarray]:
    """Two sorted runs of distinct ids, each beside its rows, merged into one.

    A mask, not ``np.insert``, which costs about 10 us a call on small runs.
    """
    if not more_ids.size:
        return ids, rows
    if not ids.size:
        return more_ids, more_rows
    at = ids.searchsorted(more_ids) + np.arange(more_ids.size)
    keep = np.ones(ids.size + more_ids.size, dtype=bool)
    keep[at] = False
    merged, merged_rows = np.empty(keep.size, dtype=ids.dtype), np.empty(keep.size, dtype=rows.dtype)
    merged[keep], merged_rows[keep] = ids, rows
    merged[at], merged_rows[at] = more_ids, more_rows
    return merged, merged_rows


class SupportBelief:
    """A distribution over states represented by its finite support.

    Weights are positive integers over the common denominator ``total``.
    The initial belief is the only uncertainty, so every posterior that
    deterministic filtering produces holds sub-sums of the initial weights:
    integers keep them exact with no rounding tolerance.  The constructor
    divides the weights by their gcd, so equal distributions have identical
    atoms (safe to use as dict keys for memoization).

    Atoms are stored sorted ascending by state id.
    """

    __slots__ = ("atoms", "total", "float_weights")

    def __init__(self, atoms: Iterable[tuple[StateId, int]]) -> None:
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("belief support must be non-empty")
        prev = None
        for state, weight in atoms:
            if prev is not None and state <= prev:
                raise ValueError("belief atoms must be strictly ascending by state id")
            prev = state
            if type(weight) is not int or weight <= 0:
                raise ValueError(f"belief weight {weight!r} for state {state} is not a positive int")
        divisor = gcd(*(w for _, w in atoms))
        if divisor > 1:
            atoms = tuple((s, w // divisor) for s, w in atoms)
        total = sum(w for _, w in atoms)
        self.atoms = atoms
        self.total = total
        self.float_weights = tuple(w / total for _, w in atoms)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[StateId, object]]) -> "SupportBelief":
        """Merge duplicate states, drop zero weights, scale rationals to integers, sort.

        ``int`` weights stay ints; any other weight is taken exactly as a ``Fraction``.
        """
        acc: dict[StateId, int | Fraction] = {}
        for state, weight in pairs:
            w = weight if type(weight) is int else Fraction(weight)
            if w < 0:
                raise ValueError(f"negative weight for state {state}")
            if w:
                acc[state] = acc.get(state, 0) + w
        if not acc:
            raise ValueError("belief support must be non-empty")
        scale = lcm(*(w.denominator for w in acc.values()))
        return cls(sorted((s, int(w * scale)) for s, w in acc.items()))

    @classmethod
    def point(cls, state: StateId) -> "SupportBelief":
        return cls(((state, 1),))

    @property
    def states(self) -> tuple[StateId, ...]:
        return tuple(s for s, _ in self.atoms)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Exact probabilities, aligned with ``states``."""
        return tuple(Fraction(w, self.total) for _, w in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[tuple[StateId, int]]:
        return iter(self.atoms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SupportBelief) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}:{fw:.4g}" for (s, _), fw in zip(self.atoms[:4], self.float_weights))
        if len(self.atoms) > 4:
            inner += f", ... ({len(self.atoms)} atoms)"
        return f"SupportBelief({inner})"


@lru_cache(maxsize=None)
def enumerate_joint_actions(sizes: tuple[int, ...]) -> tuple[JointAction, ...]:
    """All joint actions in lexicographic order (agent 0 most significant).

    The position of a joint action in this tuple is its *joint action
    index*; tie-breaking rules elsewhere refer to this ordering.
    """
    return tuple(itertools.product(*(range(k) for k in sizes)))


class DetDecModel(abc.ABC):
    """A decentralized decision process with deterministic dynamics.

    Contract:
      * ``step`` is a pure function: identical ``(state, action)`` always
        yields an identical ``(successor, joint observation, reward)``
        triple, and the instance holds no mutable internal state.
      * ``_advance`` is the move rules over arrays and agrees with ``step``
        entry by entry; the base class derives ``transition_batch`` (entry
        ``[r, j]`` of its two tables is the successor and reward of
        ``step(states[r], a_j)`` for the ``j``-th joint action in
        ``joint_actions()`` order) and ``step_batch`` (row ``r`` of its
        successors, observations and rewards is
        ``step(states[r], tuple(joint_actions[r]))``) from it, both on ids
        in ``[0, _state_card)``.  ``terminal_batch`` equals ``is_terminal``
        entry by entry.
      * The joint observation is a function of the successor state: row
        ``r`` of ``observe_batch(states)`` is the joint observation of every
        ``step`` that ends in ``states[r]``, each agent's in
        ``[0, observation_space_sizes[agent])``.
      * Terminal states are absorbing: ``step`` returns the same state with
        reward 0 under every joint action.
      * Uncertainty exists only in ``initial_belief``.
    """

    agent_count: int
    action_space_sizes: tuple[int, ...]
    observation_space_sizes: tuple[int, ...]
    discount: float
    _state_card: int  # every state id lies in [0, _state_card)

    @abc.abstractmethod
    def step(self, state: StateId, action: JointAction) -> tuple[StateId, JointObservation, float]:
        """Deterministic transition: unique successor, joint observation, reward."""

    @abc.abstractmethod
    def initial_belief(self) -> SupportBelief:
        """Canonical normalized support belief over initial states."""

    @abc.abstractmethod
    def is_terminal(self, state: StateId) -> bool:
        """True iff the state is absorbing with zero reward forever."""

    @abc.abstractmethod
    def reward_bounds(self) -> tuple[float, float]:
        """Inclusive bounds on the one-step reward over reachable (s, a)."""

    @abc.abstractmethod
    def _advance(self, states: np.ndarray, actions) -> tuple[np.ndarray, np.ndarray]:
        """The move rules over arrays: (successors int64, rewards float64).

        ``actions[i]`` is agent ``i``'s action array; it broadcasts against
        ``states``, and all of them together set the shape of the result.
        """

    def _check_state(self, state: StateId) -> None:
        if not 0 <= state < self._state_card:
            raise ValueError(f"state id {state} outside [0, {self._state_card})")

    def transition_batch(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(successors int64, rewards float64), both ``(len(states), num_joint_actions)``.

        Columns follow the joint action index.
        """
        states = checked_state_ids(states, self._state_card)
        k = self.agent_count
        # agent i's actions on axis i + 1, so its move is computed once per own action
        actions = [np.arange(n).reshape((-1,) + (1,) * (k - 1 - i)) for i, n in enumerate(self.action_space_sizes)]
        succ, reward = self._advance(states.reshape((-1,) + (1,) * k), actions)
        shape = (len(states), self.num_joint_actions)
        return succ.reshape(shape), reward.reshape(shape)

    def step_batch(
        self, states: np.ndarray, joint_actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(successors int64 ``(n,)``, observations int64 ``(n, agents)``, rewards float64 ``(n,)``).

        ``joint_actions`` holds one joint action per row of ``states``.
        """
        states = checked_state_ids(states, self._state_card)
        actions = self.checked_joint_actions(joint_actions, len(states))
        succ, reward = self._advance(states, actions.T)
        return succ, self.observe_batch(succ), reward

    @abc.abstractmethod
    def observe_batch(self, states: np.ndarray) -> np.ndarray:
        """Joint observations int64 ``(n, agents)`` of arriving in each of ``states``."""

    def terminal_batch(self, states: np.ndarray) -> np.ndarray:
        """``is_terminal`` over an array of states, as a bool array.

        Environments override this with array code; this default loops.
        """
        states = np.asarray(states, dtype=np.int64)
        return np.fromiter(map(self.is_terminal, states.tolist()), dtype=bool, count=len(states))

    def descriptor(self) -> dict:
        """JSON-serializable document the instance can be rebuilt from."""
        raise NotImplementedError(f"{type(self).__name__} has no descriptor form")

    def sizing_report(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} has no sizing report")

    @property
    def num_joint_actions(self) -> int:
        n = 1
        for k in self.action_space_sizes:
            n *= k
        return n

    def joint_actions(self) -> tuple[JointAction, ...]:
        return enumerate_joint_actions(self.action_space_sizes)

    def check_action(self, action: JointAction) -> None:
        if len(action) != self.agent_count:
            raise ValueError(
                f"joint action has {len(action)} components, model has {self.agent_count} agents"
            )
        for i, (a, k) in enumerate(zip(action, self.action_space_sizes)):
            if not 0 <= a < k:
                raise ValueError(f"action {a} for agent {i} outside [0, {k})")

    def checked_joint_actions(self, joint_actions, rows: int) -> np.ndarray:
        """``joint_actions`` as an int64 ``(rows, agent_count)`` array, checked as ``check_action`` does."""
        actions = np.asarray(joint_actions, dtype=np.int64)
        if actions.shape != (rows, self.agent_count):
            raise ValueError(f"joint actions of shape {actions.shape}, expected {(rows, self.agent_count)}")
        if not within_least_bound(actions, self.action_space_sizes):
            low, high = actions.min(axis=0).tolist(), actions.max(axis=0).tolist()
            for i, k in enumerate(self.action_space_sizes):
                if not (0 <= low[i] and high[i] < k):
                    raise ValueError(f"action for agent {i} outside [0, {k})")
        return actions


class TransitionCache:
    """Memo around ``model.step`` keyed on ``(state, joint action)``.

    ``BrDetPomdp.step``, the oracle's atom-by-atom step, holds one, so the
    model itself stays pure and stateless.
    """

    __slots__ = ("model", "_memo")

    def __init__(self, model: DetDecModel) -> None:
        self.model = model
        self._memo: dict[tuple[StateId, JointAction], tuple[StateId, JointObservation, float]] = {}

    def step(self, state: StateId, action: JointAction) -> tuple[StateId, JointObservation, float]:
        key = (state, action)
        hit = self._memo.get(key)
        if hit is None:
            hit = self.model.step(state, action)
            self._memo[key] = hit
        return hit

    def __len__(self) -> int:
        return len(self._memo)


class TabularModel(DetDecModel):
    """Dict-backed model for small handcrafted problems (mainly tests/demos).

    ``transitions`` maps ``(state, joint action)`` to
    ``(successor, joint observation, reward)`` and must cover every pair
    reachable from the initial belief's support; terminal states need none.

    The table may enter one state under different observations.  The model
    meets the contract that the observation is a function of the successor
    by the standard reduction: a state is augmented with the observation
    that led to it.  In sorted row order, each state keeps the first
    observation it is entered with, and a state entered under another one
    gets a copy, with a fresh id past the largest state id, that steps as
    the state does.  A terminal state or copy loops back to itself at
    reward 0 and emits the observation it was entered with; a state never
    entered observes all zeros.
    """

    def __init__(
        self,
        agent_count: int,
        action_space_sizes: tuple[int, ...],
        observation_space_sizes: tuple[int, ...],
        discount: float,
        transitions: dict[tuple[StateId, JointAction], tuple[StateId, JointObservation, float]],
        belief: SupportBelief,
        terminal: frozenset[StateId] = frozenset(),
    ) -> None:
        if not 0 < discount < 1:
            raise ValueError(f"discount {discount} outside (0, 1)")
        self.agent_count = agent_count
        self.action_space_sizes = tuple(action_space_sizes)
        self.observation_space_sizes = tuple(observation_space_sizes)
        self.discount = discount
        self._belief = belief
        rewards = [r for _, _, r in transitions.values()]
        self._bounds = (min(rewards, default=0.0), max(rewards, default=0.0))
        fresh = 1 + max([*belief.states, *terminal, *(x for key, row in transitions.items() for x in (key[0], row[0]))])
        self._terminal = frozenset(terminal)
        self._copied: dict[StateId, StateId] = {}  # the state of each copy
        self._observations: dict[StateId, JointObservation] = {}  # of entering each state or copy
        self._transitions = {}
        entered: dict[tuple[StateId, JointObservation], StateId] = {}
        for (s, a), (s2, obs, r) in sorted(transitions.items()):
            if s in self._terminal:
                continue  # terminal states loop back to themselves
            obs = tuple(obs)
            target = entered.get((s2, obs))
            if target is None:
                target = entered[(s2, obs)] = fresh if s2 in self._observations else s2
                if target == fresh:
                    self._copied[target], fresh = s2, fresh + 1
                self._observations[target] = obs
            self._transitions[(s, a)] = (target, obs, r)
        self._state_card = min(fresh, 2**63)  # a belief may name ids past int64; the arrays never hold one

    def step(self, state, action):
        action = tuple(action)
        self.check_action(action)
        if self.is_terminal(state):
            return state, self._observations.get(state, (0,) * self.agent_count), 0.0
        try:
            return self._transitions[(self._copied.get(state, state), action)]
        except KeyError:
            raise ValueError(f"no transition for state {state}, action {action}") from None

    def _advance(self, states, actions):
        """``step`` at each entry of ``states`` and ``actions`` broadcast together."""
        arrays = np.broadcast_arrays(states, *actions)
        succ = np.empty(arrays[0].shape, dtype=np.int64)
        reward = np.empty(succ.shape)
        for at in np.ndindex(succ.shape):
            succ[at], _, reward[at] = self.step(int(arrays[0][at]), tuple(int(a[at]) for a in arrays[1:]))
        return succ, reward

    def observe_batch(self, states):
        states = np.asarray(states, dtype=np.int64).tolist()
        obs = [self._observations.get(s, (0,) * self.agent_count) for s in states]
        return np.array(obs, dtype=np.int64).reshape(len(states), self.agent_count)

    def initial_belief(self):
        return self._belief

    def is_terminal(self, state):
        return self._copied.get(state, state) in self._terminal

    def reward_bounds(self):
        lo, hi = self._bounds
        return (min(lo, 0.0), max(hi, 0.0))
