"""Fully observable centralized relaxation.

Value iteration restricted to the states reachable from the initial
belief's support under any joint action sequence; the benchmark state
spaces are far too large to sweep exhaustively, but only the reachable part
matters to the default policy and to the admissible value heuristic the
single-agent solver consumes.

Transitions are deterministic, so the reachability pass records one
(successor, reward) pair per (state, joint action) and the sweeps become
vectorized gathers over those tables.  Reachability runs frontier by
frontier: the model's ``transition_batch`` fills each layer's rows, and an
``IdRows`` index (``model``) finds the layer's new states and gives every
successor its layer-order row; it keeps the known states in a large and a
small recent sorted run, so a layer copies the recent run, not every known
state.

Table layout.  Row ``k`` is the ``k``-th reachable state in ascending id
order, so one sorted int64 array, ``state_ids``, maps rows to states (and
states to rows, by ``searchsorted``).  ``succ`` holds int32 successor rows
and ``rewards`` unsigned codes into ``palette``, the distinct rewards as
float64 in order of first sight; the code dtype is the narrowest that
holds the palette's size (uint8 up to 256 rewards), and ``palette[rewards]``
is the reward table.  A table costs ``n x J x (4 + code bytes)`` bytes for
``n`` states and ``J`` joint actions, 5 per (state, joint action) on both
benchmarks, plus 16 bytes per state for ``state_ids`` and ``values``.
Each layer's successors are int64 ids only until the layer's new states are
added to the index; they are stored as int32 rows in layer order, and the
tables are put in id order once at the end.  Sweeps run over fixed row
blocks, so their temporaries are bounded by the block, not by the table.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, require_int_at_least, require_positive_finite
from .model import DetDecModel, IdRows, StateId, SupportBelief, require_int64_state_ids

DEFAULT_TOL = 1e-6
DEFAULT_STATE_CAP = 2_000_000
_CHUNK_PAIRS = 1 << 16  # (state, joint action) pairs per transition_batch call
_ROW_LIMIT = 2**31  # int32 successor rows
_SWEEP_ROWS = 2048  # rows per block of a sweep or greedy pass
_MAX_SWEEPS = 1_000_000
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)  # Fibonacci hashing of reward bit patterns


@dataclass
class MdpValueTable:
    """Optimal values of the relaxation over the reachable state set."""

    state_ids: np.ndarray  # sorted int64: row k holds state state_ids[k]
    values: np.ndarray
    residual: float
    gamma: float
    # transition tables kept for greedy extraction: shape (n_states, n_joint_actions)
    succ: np.ndarray = field(repr=False)  # int32 successor rows
    rewards: np.ndarray = field(repr=False)  # codes into palette
    palette: np.ndarray = field(repr=False)  # float64 distinct rewards

    def row(self, state: StateId) -> int:
        """The row of ``state``, or -1 if the table does not cover it."""
        ids = self.state_ids
        if not int(ids[0]) <= state <= int(ids[-1]):  # also keeps ids beyond int64 out of the search
            return -1
        k = int(ids.searchsorted(state))
        return k if ids[k] == state else -1

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
    state_ids, succ, rewards, palette = _reachable_tables(model, belief, state_cap)
    table = MdpValueTable(state_ids, np.zeros(len(state_ids)), np.inf, model.discount, succ, rewards, palette)
    values = table.values
    backed_up = np.empty_like(values)
    for _ in range(_MAX_SWEEPS):
        for rows, q in _q_blocks(table, values):
            q.max(axis=1, out=backed_up[rows])
        residual = float(np.max(np.abs(backed_up - values)))
        values, backed_up = backed_up, values
        if residual <= tol:
            break
    else:
        raise RuntimeError(f"value iteration did not reach residual {tol} in {_MAX_SWEEPS} sweeps")
    table.values = values
    table.residual = residual
    return table


def _q_blocks(table: MdpValueTable, values: np.ndarray):
    """``(rows, q)`` per block of ``_SWEEP_ROWS`` rows: ``q = reward + gamma * successor value``.

    ``q`` is one buffer reused by every block; read it before the next.
    """
    succ, codes = table.succ, table.rewards
    n = len(succ)
    scaled = values * table.gamma  # gamma * values[succ], one product per state
    q = np.empty((min(n, _SWEEP_ROWS), succ.shape[1]))
    r = np.empty_like(q)
    for lo in range(0, n, _SWEEP_ROWS):
        rows = slice(lo, min(lo + _SWEEP_ROWS, n))
        qb, rb = q[: rows.stop - lo], r[: rows.stop - lo]
        # "clip" writes straight into out ("raise" buffers it); every index is in range
        np.take(scaled, succ[rows], out=qb, mode="clip")
        np.take(table.palette, codes[rows], out=rb, mode="clip")
        qb += rb
        yield rows, qb


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


def _reachable_tables(
    model: DetDecModel, belief: SupportBelief, state_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(state_ids, succ, rewards, palette)`` of the states reachable from the belief's support.

    Rows are found layer by layer, each layer by state id; a layer's
    successor ids are stored as int32 layer-order rows once its new states
    are known.  The two tables grow in place by one layer at a time
    (``ndarray.resize`` reallocates, so no second copy is held) and are put
    in state-id order at the end.
    """
    roots = sorted(set(belief.states))
    require_int64_state_ids(roots[-1])
    n_actions = model.num_joint_actions
    chunk = max(1, _CHUNK_PAIRS // n_actions)
    frontier = np.array(roots, dtype=np.int64)
    index = IdRows(frontier, np.int32)  # the layer-order row of every state found so far
    palette = _Palette()
    succ = np.empty((0, n_actions), dtype=np.int32)
    rewards = np.empty((0, n_actions), dtype=np.uint8)
    while frontier.size:
        start = len(succ)
        layer = np.empty((frontier.size, n_actions), dtype=np.int64)
        rewards.resize((start + frontier.size, n_actions), refcheck=False)
        for lo in range(0, frontier.size, chunk):
            layer[lo : lo + chunk], r = model.transition_batch(frontier[lo : lo + chunk])
            codes = palette.codes(r)
            if codes.dtype != rewards.dtype:  # the palette outgrew the code dtype
                rewards = rewards.astype(codes.dtype)
            rewards[start + lo : start + lo + chunk] = codes
        frontier = index.add(layer)
        if index.size > state_cap:
            raise ResourceLimitError(f"reachable state set exceeds state_cap={state_cap}")
        if index.size > _ROW_LIMIT:
            raise ResourceLimitError(f"reachable state set exceeds the int32 row bound {_ROW_LIMIT}")
        succ.resize((start + len(layer), n_actions), refcheck=False)
        for lo in range(0, len(layer), chunk):
            succ[start + lo : start + lo + chunk] = index.rows(layer[lo : lo + chunk])
        del layer  # before the next layer's ids are allocated

    # known_rows[k] is the layer-order row of the k-th smallest id: gather rows into id order
    known, known_rows = index.merged()
    del index  # its runs, before the tables are reordered
    rank = np.empty_like(known_rows)
    rank[known_rows] = np.arange(known_rows.size, dtype=np.int32)
    by_id = np.empty_like(succ)
    for lo in range(0, len(succ), chunk):
        np.take(rank, succ[known_rows[lo : lo + chunk]], out=by_id[lo : lo + chunk], mode="clip")
    del succ  # before the reward codes are reordered
    return known, by_id, rewards[known_rows], palette.values


def default_policy(table: MdpValueTable) -> MdpPolicy:
    """Greedy joint action per stored state; argmax takes the lowest joint index."""
    greedy = np.empty(len(table), dtype=np.int64)
    for rows, q in _q_blocks(table, table.values):
        q.argmax(axis=1, out=greedy[rows])
    return MdpPolicy(table=table, greedy=greedy)
