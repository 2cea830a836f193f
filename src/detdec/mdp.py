"""Fully observable centralized relaxation.

Value iteration restricted to the states reachable from the initial
belief's support under any joint action sequence; the benchmark state
spaces are far too large to sweep exhaustively, but only the reachable part
matters to the default policy and to the admissible value heuristic the
single-agent solver consumes.

Transitions are deterministic, so the reachability pass records one
(successor, reward) pair per (state, joint action) and the sweeps become
vectorized gathers over those tables.  Reachability runs frontier by
frontier, each frontier chunk by chunk: the model's ``transition_batch``
fills a chunk's rows, ``observe_batch`` and ``terminal_batch`` give each of
its states' joint observation and terminal flag beside them, and the chunk's
successor ids are reduced to their distinct ones at once.  An ``IdRows``
index (``model``) then finds the layer's new states among the chunk-distinct
ids, gives each its layer-order row and returns the row of every
chunk-distinct id, all in one call; it keeps the known states in a large
and a small recent sorted run, so a layer copies the recent run, not every
known state.

Table layout.  Row ``k`` is the ``k``-th reachable state found: the
roots, then each layer's new states by id; ``state_ids`` maps rows to
states, and ``rows()`` maps states to rows through the sorted index that
reachability built (``sorted_ids`` beside their int32 ``sorted_rows``), so
no pass reorders the tables.  ``succ`` holds int32 successor rows and
``rewards`` unsigned codes into ``palette``, the distinct rewards as float64
in order of first sight; the code dtype is the narrowest that holds the
palette's size (uint8 up to 256 rewards).  Both are stored in blocks of
``B = max(1, _BLOCK_PAIRS // J)`` rows for ``J`` joint actions, with the
joint action outermost in a block: ``succ[b, j, k]`` is the successor of row
``b * B + k`` under joint action ``j``, so a sweep reduces over ``J``
contiguous vectors.  Outside this module ``transitions`` and its scalar form
``successor`` read the tables, so no other module knows the layout.  The
last block is padded, so a table costs ``ceil(n / B) x B x J x (4 + code
bytes)`` bytes for ``n`` states, 5 per (state, joint action) on both
benchmarks, plus 29 bytes per state: 8 each for ``state_ids`` and
``values``, 12 for the index, 1 for the terminal flag, plus the observation
codes.  Sweeps run block by block, so their temporaries are bounded by the
block, not by the table.

Build memory.  Value iteration needs little beyond the table it returns.
The build holds the table, the index and one chunk's temporaries beside
the current layer's chunk-distinct successor ids, never a whole layer's ids
(in mactp 4-2-12's largest layer 4.5 MB of them against 41 MB); the sweeps
add a second value vector and one scaled copy of the values.  The
tracemalloc peak on mactp 4-2-12 is 134 MB for a 120 MB table.  The build's
temporaries are freed in pieces small enough to stay in the heap, so
``value_iteration`` ends by handing the freed heap back to the operating
system with glibc's ``malloc_trim(0)``, a no-op where that is missing
(``_release_freed_heap``).

Observation codes.  The joint observation is a function of the state
entered (``model``), so ``obs[k]`` holds the one row ``k`` is entered with,
agent by agent, in the narrowest unsigned dtype that holds
``observation_space_sizes``: uint16 on the mactp benchmarks and uint32 on
collecting, so 4 and 8 bytes per state with two agents.  An observation
outside those sizes raises ``ValueError`` while the table is built.  A
step's observation is then the gather ``obs[succ]``.  Likewise
``terminal[k]`` is ``terminal_batch`` of row ``k``'s state, so the search and
``fsc_values`` read terminal states off the table; ``exact_belief_vi``, the
oracle, still asks the model.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, require_int_at_least, require_positive_finite
from .model import DetDecModel, IdRows, SupportBelief, require_int64_state_ids, within_least_bound

DEFAULT_TOL = 1e-6
DEFAULT_STATE_CAP = 2_000_000
_CHUNK_PAIRS = 1 << 16  # (state, joint action) pairs per transition_batch call
_ROW_LIMIT = 2**31  # int32 successor rows
_BLOCK_PAIRS = 1 << 15  # (state, joint action) pairs per table block
_MAX_SWEEPS = 1_000_000
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)  # Fibonacci hashing of reward bit patterns


@dataclass
class MdpValueTable:
    """Optimal values of the relaxation over the reachable state set."""

    state_ids: np.ndarray  # int64 in layer order: row k holds state state_ids[k]
    values: np.ndarray
    residual: float
    gamma: float
    # transition tables, shape (blocks, n_joint_actions, block rows); read them through transitions
    succ: np.ndarray = field(repr=False)  # int32 successor rows
    rewards: np.ndarray = field(repr=False)  # codes into palette
    palette: np.ndarray = field(repr=False)  # float64 distinct rewards
    obs: np.ndarray = field(repr=False)  # (rows, agents) joint observation of arriving in each row
    terminal: np.ndarray = field(repr=False)  # bool per row: is its state terminal
    sorted_ids: np.ndarray = field(repr=False)  # the state-to-row index: every state id, ascending,
    sorted_rows: np.ndarray = field(repr=False)  # and the int32 row of each

    def rows(self, states) -> np.ndarray:
        """The int64 row of each of ``states``; -1 where the table does not cover it (ids past int64 too)."""
        ids = self.sorted_ids
        states = np.asarray(states)  # an object array if an id is past int64
        lo, hi = int(ids[0]), int(ids[-1])
        inside = (states >= lo) & (states <= hi)
        probe = np.where(inside, states, lo).astype(np.int64)
        at = ids.searchsorted(probe)
        return np.where(inside & (ids[at] == probe), self.sorted_rows[at], -1).astype(np.int64)

    def transitions(self, rows, joints) -> tuple[np.ndarray, np.ndarray]:
        """(successor rows, rewards) of ``rows`` under ``joints``; the two broadcast together."""
        flat = self._flat(np.asarray(rows, dtype=np.int64), joints)
        return self.succ.reshape(-1)[flat], self.palette[self.rewards.reshape(-1)[flat]]

    def successor(self, row: int, joint: int) -> int:
        """The successor row of one row under one joint action: ``transitions`` for scalars."""
        return self.succ.item(self._flat(row, joint))

    def _flat(self, rows, joints):
        """Flat positions of (row, joint) pairs in the blocked tables."""
        n_joint, block = self.succ.shape[1:]
        return (rows // block * n_joint + joints) * block + rows % block

    def __len__(self) -> int:
        return len(self.state_ids)

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


def value_iteration(
    model: DetDecModel,
    tol: float = DEFAULT_TOL,
    reachable_from: SupportBelief | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> MdpValueTable:
    """Solve the relaxation over the reachable set to Bellman residual <= tol.

    Each sweep is Jacobi: every backup reads the previous sweep's values, so
    the row blocks give the same values as one whole-table backup.
    """
    require_positive_finite("tol", tol)
    require_int_at_least("state_cap", state_cap, 1)
    belief = reachable_from if reachable_from is not None else model.initial_belief()
    table = _reachable_tables(model, belief, state_cap)
    values = table.values
    backed_up = np.empty_like(values)
    for _ in range(_MAX_SWEEPS):
        for rows, q in _q_blocks(table, values):
            np.maximum.reduce(q, axis=0, out=backed_up[rows])
        np.subtract(backed_up, values, out=values)  # values is the next sweep's output buffer
        residual = float(np.max(np.abs(values, out=values)))
        values, backed_up = backed_up, values
        if residual <= tol:
            break
    else:
        raise RuntimeError(f"value iteration did not reach residual {tol} in {_MAX_SWEEPS} sweeps")
    table.values = values
    table.residual = residual
    _release_freed_heap()
    return table


def _release_freed_heap() -> None:
    """Give the heap that reachability freed back to the operating system: glibc's ``malloc_trim(0)``.

    The build frees its chunk temporaries and ``IdRows`` runs in pieces below
    glibc's mmap threshold, so glibc keeps them resident, and they would lift
    every later phase's memory (by 3.7 MB after value iteration on mactp
    4-2-12).  The call takes under 1 ms there.  Where libc or the symbol is
    missing (macOS, Windows, musl) it does nothing.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def _q_blocks(table: MdpValueTable, values: np.ndarray):
    """``(rows, q)`` per table block: ``q[j]`` is reward + gamma * successor value under joint action ``j``.

    ``q`` is a ``(J, rows)`` view of one buffer reused by every block; read it before the next.
    """
    succ, codes = table.succ, table.rewards
    n = len(table)
    n_joint, block = succ.shape[1:]
    scaled = values * table.gamma  # gamma * values[succ], one product per state
    q = np.empty(n_joint * min(n, block))
    r = np.empty_like(q)
    for b, lo in enumerate(range(0, n, block)):
        w = min(block, n - lo)
        qb, rb = q[: n_joint * w].reshape(n_joint, w), r[: n_joint * w].reshape(n_joint, w)
        # "clip" writes straight into out ("raise" buffers it); every index is in range
        np.take(scaled, succ[b, :, :w], out=qb, mode="clip")
        np.take(table.palette, codes[b, :, :w], out=rb, mode="clip")
        qb += rb
        yield slice(lo, lo + w), qb


class _Palette:
    """Distinct rewards in the order they are found; a reward's code is its position.

    Rewards match by bit pattern, so ``values[codes]`` reproduces each one
    exactly (signed zeros included).  A multiplicative hash of the bits
    finds a code in one gather; a reward that shares its slot with another,
    or is new, is looked up by sorted search.
    """

    def __init__(self) -> None:
        self.values = np.empty(0)

    def _extend(self, bits: np.ndarray) -> None:
        self.values = np.concatenate([self.values, bits.view(np.float64)])
        keys = self.values.view(np.int64)
        dtype = np.min_scalar_type(len(keys) - 1)
        self._order = np.argsort(keys).astype(dtype)  # the code of each sorted key
        self._sorted = keys[self._order]
        self._shift = np.uint64(64 - min(20, max(8, 2 * len(keys).bit_length())))
        self._slot_codes = np.zeros(1 << (64 - int(self._shift)), dtype=dtype)
        self._slot_codes[self._slots(keys)] = np.arange(len(keys), dtype=dtype)

    def _slots(self, bits: np.ndarray) -> np.ndarray:
        h = bits.view(np.uint64)
        return (((h ^ (h >> np.uint64(29))) * _HASH_MUL) >> self._shift).view(np.int64)

    def codes(self, rewards: np.ndarray) -> np.ndarray:
        """Codes of ``rewards``, in the narrowest unsigned dtype that holds every code."""
        bits = rewards.view(np.int64)
        if not self.values.size:
            self._extend(bits.ravel()[:1])
        codes = self._slot_codes.take(self._slots(bits))
        missed = self.values.view(np.int64).take(codes) != bits
        if missed.any():
            wanted = bits[missed]
            at = np.minimum(self._sorted.searchsorted(wanted), len(self._sorted) - 1)
            absent = self._sorted[at] != wanted
            if absent.any():
                self._extend(np.unique(wanted[absent]))
                return self.codes(rewards)
            codes[missed] = self._order.take(at)
        return codes


def _reachable_tables(model: DetDecModel, belief: SupportBelief, state_cap: int) -> MdpValueTable:
    """The table of the states reachable from the belief's support, its values still zero.

    Rows are numbered in the order the states are found, layer by layer and
    each layer by state id.  The tables grow in place by whole blocks, one
    layer at a time (``ndarray.resize`` reallocates, so no second copy is
    held), and each chunk of ``transition_batch`` rows lands in them with one
    transposed slice assignment per block it touches.  A chunk's successor
    ids are reduced to its distinct ones at once: until the layer's new
    states are known, ``succ`` holds each successor's position among its
    chunk's distinct ids, and a gather per chunk then turns the positions
    into rows.  So a layer's successor ids are never held whole, only their
    chunk-distinct ones (557,353 of 5,091,200 in mactp 4-2-12's largest
    layer).
    """
    roots = sorted(set(belief.states))
    require_int64_state_ids(roots[-1])
    n_actions = model.num_joint_actions
    chunk = max(1, _CHUNK_PAIRS // n_actions)
    block = max(1, _BLOCK_PAIRS // n_actions)
    frontier = np.array(roots, dtype=np.int64)
    index = IdRows(frontier, np.int32)  # the row of every state found so far
    palette = _Palette()
    succ = np.empty((0, n_actions, block), dtype=np.int32)
    rewards = np.empty((0, n_actions, block), dtype=np.uint8)
    bounds = model.observation_space_sizes
    # observe_batch renders int64 codes, so none reaches 2**63 whatever the bounds
    obs = np.empty((0, model.agent_count), dtype=np.min_scalar_type(min(max(bounds), 2**63) - 1))
    terminal = np.empty(0, dtype=bool)
    start = 0  # the first row of the layer
    while frontier.size:
        stop = start + frontier.size
        shape = (-(-stop // block), n_actions, block)
        succ.resize(shape, refcheck=False)
        rewards.resize(shape, refcheck=False)
        obs.resize((stop, model.agent_count), refcheck=False)
        terminal.resize(stop, refcheck=False)
        found = []  # each chunk's distinct successor ids, sorted
        for lo in range(0, frontier.size, chunk):
            states = frontier[lo : lo + chunk]
            ids, r = model.transition_batch(states)
            distinct, at = _distinct(ids)
            _put(succ, start + lo, at)
            found.append(distinct)
            codes = palette.codes(r)
            if codes.dtype != rewards.dtype:  # the palette outgrew the code dtype
                rewards = rewards.astype(codes.dtype)
            _put(rewards, start + lo, codes)
            joint_obs = model.observe_batch(states)
            _check_observations(joint_obs, bounds)
            obs[start + lo : start + lo + len(states)] = joint_obs
            terminal[start + lo : start + lo + len(states)] = model.terminal_batch(states)
            del ids, r, at, codes, joint_obs  # before the next chunk's
        offsets = np.cumsum([0] + [part.size for part in found]).tolist()
        found = np.concatenate(found)
        frontier, rows = index.add(found)
        if index.size > state_cap:
            raise ResourceLimitError(f"reachable state set exceeds state_cap={state_cap}")
        if index.size > _ROW_LIMIT:
            raise ResourceLimitError(f"reachable state set exceeds the int32 row bound {_ROW_LIMIT}")
        for lo, offset in zip(range(start, stop, chunk), offsets):
            _relabel(succ, lo, min(lo + chunk, stop), rows[offset:])
        del found, rows  # before the next layer's
        start = stop
    known, known_rows = index.merged()
    del index  # its runs, before the row-to-state map is allocated
    state_ids = np.empty_like(known)
    state_ids[known_rows] = known
    return MdpValueTable(
        state_ids, np.zeros(len(known)), np.inf, model.discount,
        succ, rewards, palette.values, obs, terminal, known, known_rows,
    )


def _distinct(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct ``ids``, sorted; the position of each id among them, in the shape of ``ids``).

    A sort plus an adjacent compare, as ``IdRows.add`` finds distinct ids.
    """
    flat = ids.ravel()
    order = np.argsort(flat)
    ordered = flat[order]
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    at = np.empty(ordered.size, dtype=np.int32)  # a chunk holds at most 2**16 pairs, or one state's
    at[order] = np.cumsum(first, dtype=np.int32) - 1
    return ordered[first], at.reshape(ids.shape)


def _check_observations(obs: np.ndarray, bounds: tuple[int, ...]) -> None:
    """Raise ``ValueError`` naming the agent and its bound if an observation is outside ``[0, bound)``."""
    if within_least_bound(obs, bounds):
        return
    low, high = obs.min(axis=0).tolist(), obs.max(axis=0).tolist()
    for agent, bound in enumerate(bounds):
        if not (0 <= low[agent] and high[agent] < bound):
            value = low[agent] if low[agent] < 0 else high[agent]
            raise ValueError(f"observation {value} of agent {agent} outside [0, {bound}) (observation_space_sizes)")


def _put(table: np.ndarray, start: int, part: np.ndarray) -> None:
    """Store the ``(rows, J)`` array ``part`` as rows ``start, start + 1, ...`` of a blocked table."""
    block = table.shape[2]
    stop = start + len(part)
    for lo in range(start - start % block, stop, block):
        a, b = max(lo, start), min(lo + block, stop)
        table[lo // block, :, a - lo : b - lo] = part[a - start : b - start].T


def _relabel(table: np.ndarray, start: int, stop: int, labels: np.ndarray) -> None:
    """Replace each entry ``x`` of rows ``start`` to ``stop`` of a blocked table by ``labels[x]``."""
    block = table.shape[2]
    for lo in range(start - start % block, stop, block):
        part = table[lo // block, :, max(lo, start) - lo : min(lo + block, stop) - lo]
        part[...] = labels[part]


def default_policy(table: MdpValueTable) -> MdpPolicy:
    """Greedy joint action per stored state; argmax takes the lowest joint index."""
    greedy = np.empty(len(table), dtype=np.int64)
    for rows, q in _q_blocks(table, table.values):
        np.argmax(q, axis=0, out=greedy[rows])
    return MdpPolicy(table=table, greedy=greedy)
