import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from detdec import (
    CollectingSpec,
    ResourceLimitError,
    SupportBelief,
    TabularModel,
    collecting_generate,
    default_policy,
    mactp_generate,
    MactpSpec,
    value_iteration,
)
from detdec import mdp
from detdec.model import enumerate_joint_actions

from helpers import (
    absorbing_model,
    action_obs_model,
    chain_model,
    selfloop_model,
    trajectory_value,
    zero_reward_model,
)


def hand_bellman(model, tol=1e-12, sweeps=4000):
    """Independent oracle: plain dict-based value iteration over reachable states."""
    actions = enumerate_joint_actions(model.action_space_sizes)
    states = set(model.initial_belief().states)
    frontier = list(states)
    while frontier:
        nxt = []
        for s in frontier:
            for a in actions:
                s2, _, _ = model.step(s, a)
                if s2 not in states:
                    states.add(s2)
                    nxt.append(s2)
        frontier = nxt
    v = {s: 0.0 for s in states}
    for _ in range(sweeps):
        delta = 0.0
        nv = {}
        for s in states:
            best = max(
                model.step(s, a)[2] + model.discount * v[model.step(s, a)[0]] for a in actions
            )
            nv[s] = best
            delta = max(delta, abs(best - v[s]))
        v = nv
        if delta <= tol:
            break
    return v


class TestValueIteration:
    def test_absorbing_state_is_zero(self):
        table = value_iteration(absorbing_model())
        assert table.values[table.rows([0])[0]] == 0.0

    def test_selfloop_geometric_series(self):
        table = value_iteration(selfloop_model(reward=1.0, gamma=0.95), tol=1e-9)
        assert table.values[table.rows([0])[0]] == pytest.approx(20.0, abs=1e-7)

    def test_chain_matches_hand_bellman(self):
        m = chain_model(gamma=0.95)
        oracle = hand_bellman(m)
        table = value_iteration(m, tol=1e-9)
        for s, v in oracle.items():
            assert table.values[table.rows([s])[0]] == pytest.approx(v, abs=1e-6)

    @pytest.mark.parametrize(
        "model",
        [mactp_generate(MactpSpec(3, 2, 2, seed=4)), collecting_generate(CollectingSpec(2, 3, 2, 1, seed=1))],
        ids=["mactp-3-2-2", "collecting-2x3-a2-b1"],
    )
    def test_benchmark_matches_hand_bellman(self, model):
        oracle = hand_bellman(model)
        table = value_iteration(model, tol=1e-9)
        assert sorted(table.state_ids.tolist()) == sorted(oracle)
        assert max(oracle.values()) > 0  # goals or deliveries are reached
        for s, v in oracle.items():
            assert table.values[table.rows([s])[0]] == pytest.approx(v, abs=1e-6)

    def test_mactp_residual_invariant(self):
        m = mactp_generate(MactpSpec(3, 2, 3, seed=4))
        tol = 1e-6
        table = value_iteration(m, tol=tol)
        actions = enumerate_joint_actions(m.action_space_sizes)
        for s in table.state_ids[::7].tolist():
            backed = max(
                m.step(s, a)[2] + m.discount * table.values[table.rows([m.step(s, a)[0]])[0]] for a in actions
            )
            assert abs(table.values[table.rows([s])[0]] - backed) <= tol

    def test_deterministic_tables(self):
        m = mactp_generate(MactpSpec(3, 2, 3, seed=4))
        t1 = value_iteration(m)
        t2 = value_iteration(m)
        assert np.array_equal(t1.state_ids, t2.state_ids)
        assert np.array_equal(t1.values, t2.values)

    def test_state_cap(self):
        m = mactp_generate(MactpSpec(3, 2, 3, seed=4))
        with pytest.raises(ResourceLimitError, match="state_cap=10"):
            value_iteration(m, state_cap=10)

    def test_state_ids_beyond_int64(self):
        # 10^4 vertices, 5 agents: ids reach 3.2e21 from one atom under 3,125 joint actions
        m = mactp_generate(MactpSpec(100, 5, 0, 0))
        with pytest.raises(ResourceLimitError, match="int64 state-id bound"):
            value_iteration(m)
        with pytest.raises(ResourceLimitError, match="int64 state-id bound"):
            m.transition_batch(np.array([0]))

    def test_missing_state(self):
        table = value_iteration(selfloop_model())
        assert table.rows([99, 0]).tolist() == [-1, 0]

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            value_iteration(selfloop_model(), tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
    def test_non_finite_tol_is_named(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            value_iteration(selfloop_model(), tol=tol)

    @pytest.mark.parametrize("cap", [float("nan"), True, 0])
    def test_bad_state_cap_is_named(self, cap):
        with pytest.raises(ValueError, match="state_cap must be an integer"):
            value_iteration(selfloop_model(), state_cap=cap)


def all_transitions(table, n_joint):
    """(successor rows, rewards) of every (row, joint action) pair, one table row per row."""
    return table.transitions(np.arange(len(table))[:, None], np.arange(n_joint))


def jacobi_reference(table, n_joint, tol):
    """Whole-table Jacobi value iteration over a table's own successors and rewards."""
    succ, rewards = all_transitions(table, n_joint)
    values = np.zeros(len(table))
    while True:
        backed_up = (rewards + table.gamma * values[succ]).max(axis=1)
        residual = float(np.max(np.abs(backed_up - values)))
        values = backed_up
        if residual <= tol:
            return values, residual


def many_rewards_model(n=300):
    """A chain of ``n`` states whose 2n rewards all differ, signed zeros included."""
    transitions = {}
    for s in range(n):
        transitions[(s, (0,))] = (min(s + 1, n - 1), (0,), s + 0.25)
        transitions[(s, (1,))] = (s, (0,), -(s + 0.5))
    transitions[(0, (1,))] = (0, (0,), -0.0)
    transitions[(1, (1,))] = (1, (0,), 0.0)
    return TabularModel(1, (2,), (1,), 0.9, transitions, SupportBelief.point(0))


class TestCompactTables:
    MACTP = mactp_generate(MactpSpec(3, 2, 3, seed=4))

    def test_rows_are_in_layer_order(self):
        # an independent breadth-first search: row k is the k-th state found, each layer by id
        model = self.MACTP
        layers = [sorted(set(model.initial_belief().states))]
        seen = set(layers[0])
        while layers[-1]:
            successors, _ = model.transition_batch(np.array(layers[-1], dtype=np.int64))
            layers.append(sorted(set(successors.ravel().tolist()) - seen))
            seen.update(layers[-1])
        table = value_iteration(model)
        ids = table.state_ids
        assert ids.dtype == np.int64 and ids.tolist() == [s for layer in layers for s in layer]
        assert len(layers) > 3 and ids.tolist() != sorted(ids.tolist())
        rows = table.rows(ids)
        assert rows.dtype == np.int64 and np.array_equal(rows, np.arange(len(ids)))
        lo, hi = int(ids.min()), int(ids.max())
        assert table.rows([hi + 1, -1, 2**70, lo - 1]).tolist() == [-1] * 4
        assert table.rows([2**70, lo]).tolist() == [-1, int(np.flatnonzero(ids == lo)[0])]
        assert table.rows([]).tolist() == []

    def test_layout_and_bytes(self):
        table = value_iteration(self.MACTP)
        n, joint = len(table), self.MACTP.num_joint_actions
        block = mdp._BLOCK_PAIRS // joint
        blocks = -(-n // block)  # the last one padded
        assert table.succ.dtype == np.int32 and table.rewards.dtype == np.uint8
        assert table.succ.shape == table.rewards.shape == (blocks, joint, block)
        assert table.succ.nbytes + table.rewards.nbytes == blocks * block * joint * (4 + 1)
        successors, rewards = self.MACTP.transition_batch(table.state_ids)
        rows, got = all_transitions(table, joint)
        assert rows.dtype == np.int32 and np.array_equal(table.state_ids[rows], successors)
        assert np.array_equal(got.view(np.int64), rewards.view(np.int64))
        assert [table.successor(r, j) for r in range(0, n, 5) for j in range(joint)] == rows[::5].ravel().tolist()

    def test_blocked_sweeps_equal_whole_table_jacobi(self, monkeypatch):
        joint = self.MACTP.num_joint_actions
        monkeypatch.setattr(mdp, "_BLOCK_PAIRS", 7 * joint)  # blocks of 7 rows
        tol = 1e-9
        table = value_iteration(self.MACTP, tol=tol)
        assert table.succ.shape[2] == 7 and len(table) > 7 * 10
        assert len(table) % 7  # a ragged last block
        assert len(set(self.MACTP.initial_belief().states)) % 7  # the second layer starts inside a block
        values, residual = jacobi_reference(table, joint, tol)
        assert np.array_equal(table.values, values) and table.residual == residual
        succ, rewards = all_transitions(table, joint)
        q = rewards + table.gamma * table.values[succ]
        assert np.array_equal(default_policy(table).greedy, np.argmax(q, axis=1))

    def test_layers_of_many_chunks_give_the_same_table(self, monkeypatch):
        # each chunk's successors are stored as positions among its own distinct ids until the layer ends
        model, joint = self.MACTP, self.MACTP.num_joint_actions
        want = value_iteration(model)
        monkeypatch.setattr(mdp, "_CHUNK_PAIRS", 5 * joint)  # chunks of 5 rows,
        monkeypatch.setattr(mdp, "_BLOCK_PAIRS", 7 * joint)  # crossing blocks of 7
        got = value_iteration(model)
        assert np.array_equal(got.state_ids, want.state_ids) and np.array_equal(got.values, want.values)
        assert np.array_equal(got.obs, want.obs) and np.array_equal(got.terminal, want.terminal)
        (succ, rewards), (want_succ, want_rewards) = all_transitions(got, joint), all_transitions(want, joint)
        assert np.array_equal(succ, want_succ) and np.array_equal(rewards, want_rewards)

    def test_value_iteration_peak_per_pair(self):
        # no second copy of the tables: rows stay in the order reachability fills them
        model = mactp_generate(MactpSpec(4, 2, 8, seed=0))
        model.transition_batch(np.array(model.initial_belief().states[:1]))  # belief and batch tables
        tracemalloc.start()
        try:
            table = value_iteration(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = len(table) * model.num_joint_actions
        assert pairs == 60_488 * 25
        assert peak / pairs <= 9  # 8.49 measured: the table is 6.4, the last chunk's and sweep's temporaries the rest

    def test_more_than_256_rewards_widen_the_codes(self):
        m = many_rewards_model()
        table = value_iteration(m)
        assert len(table.palette) == 2 * 300 and table.rewards.dtype == np.uint16
        _, rewards = m.transition_batch(table.state_ids)
        assert np.array_equal(all_transitions(table, 2)[1].view(np.int64), rewards.view(np.int64))

    def test_int32_row_bound(self, monkeypatch):
        monkeypatch.setattr(mdp, "_ROW_LIMIT", 10)
        with pytest.raises(ResourceLimitError, match="int32 row bound 10"):
            value_iteration(self.MACTP)


class TestObservationCodes:
    """``obs[succ]`` is the joint observation of every reachable step, in the narrowest code dtype."""

    MODELS = {
        "mactp": mactp_generate(MactpSpec(3, 2, 4, seed=3)),
        "collecting": collecting_generate(CollectingSpec(3, 3, 2, 1, seed=3)),
        "selfloop": selfloop_model(),
        "absorbing": absorbing_model(),
        "chain": chain_model(),
        "zero-reward": zero_reward_model(),
        "action-obs": action_obs_model(),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_codes_equal_model_steps(self, name):
        model = self.MODELS[name]
        table = value_iteration(model)
        joints = model.joint_actions()
        rows = np.repeat(np.arange(len(table)), len(joints))
        succ, _ = table.transitions(rows, np.tile(np.arange(len(joints)), len(table)))
        want = [model.step(s, a)[1] for s in table.state_ids.tolist() for a in joints]
        assert table.obs.shape == (len(table), model.agent_count)
        assert [tuple(o) for o in table.obs[succ].tolist()] == want

    @pytest.mark.parametrize("name, dtype", [("mactp", np.uint16), ("collecting", np.uint32), ("chain", np.uint8)])
    def test_narrowest_code_dtype(self, name, dtype):
        assert value_iteration(self.MODELS[name]).obs.dtype == dtype

    def test_observation_past_another_agents_bound_is_kept(self):
        t = {(0, (0, 0)): (1, (1, 2), 1.0), (1, (0, 0)): (1, (1, 2), 0.0)}
        m = TabularModel(2, (1, 1), (2, 3), 0.9, t, SupportBelief.point(0))
        assert value_iteration(m).obs.max(axis=0).tolist() == [1, 2]  # agent 1's 2 is past agent 0's bound only

    @pytest.mark.parametrize("obs", [(0, 3), (-1, 0)])
    def test_observation_outside_its_bound_is_named(self, obs):
        t = {(0, (0, 0)): (1, obs, 1.0), (1, (0, 0)): (1, (0, 0), 0.0)}
        m = TabularModel(2, (1, 1), (2, 3), 0.9, t, SupportBelief.point(0))
        agent = 1 if obs[1] else 0
        with pytest.raises(ValueError, match=rf"observation {obs[agent]} of agent {agent} outside \[0, {(2, 3)[agent]}\)"):
            value_iteration(m)


class TestTerminalFlags:
    @pytest.mark.parametrize("name", sorted(TestObservationCodes.MODELS))
    def test_flags_equal_terminal_batch(self, name):
        model = TestObservationCodes.MODELS[name]
        table = value_iteration(model)
        assert table.terminal.dtype == bool and table.terminal.shape == (len(table),)
        assert np.array_equal(table.terminal, model.terminal_batch(table.state_ids))

    def test_some_rows_are_terminal(self):
        for name in ("mactp", "collecting", "absorbing"):
            assert value_iteration(TestObservationCodes.MODELS[name]).terminal.any(), name


class TestReleaseFreedHeap:
    """``value_iteration`` ends with one ``malloc_trim(0)`` where libc has it, and with nothing where it does not."""

    def test_trims_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mdp.ctypes, "CDLL", lambda name: SimpleNamespace(malloc_trim=calls.append))
        value_iteration(chain_model())
        assert calls == [0]

    @pytest.mark.parametrize("missing", ["libc", "symbol"])
    def test_no_op_without_malloc_trim(self, monkeypatch, missing):
        def cdll(name):
            if missing == "libc":
                raise OSError("no libc")
            return SimpleNamespace()

        want = value_iteration(chain_model())
        monkeypatch.setattr(mdp.ctypes, "CDLL", cdll)
        got = value_iteration(chain_model())
        assert np.array_equal(got.values, want.values) and got.residual == want.residual


class TestPinnedRelaxation:
    """Reachable states, values, greedy actions and every transition, pinned bit for bit.

    Any change to reachability, the sweeps or the table layout must reproduce these digests.
    """

    @pytest.mark.parametrize(
        "model, digest",
        [
            (mactp_generate(MactpSpec(3, 2, 4, seed=3)), "143a4cddc33baf367dbb26f30e45fc9aed3567ba75cb6680d27921bbd48da451"),
            (mactp_generate(MactpSpec(3, 3, 3, seed=0)), "1c1a4fb6b40801ce926b2ca7837844f71a62cf6a3af9f60e658da7a906d58301"),
            (
                collecting_generate(CollectingSpec(3, 3, 2, 1, seed=3)),
                "32ac743623b2cbf5fc1c15b33230314fd31aa5a93ae074a53a579e5d99489ac4",
            ),
        ],
        ids=["mactp-3-2-4", "mactp-3-3-3", "collecting-3x3-a2-b1"],
    )
    def test_digest(self, model, digest):
        table = value_iteration(model)
        succ, rewards = all_transitions(table, model.num_joint_actions)
        h = hashlib.sha256()
        for a in (table.state_ids, table.values.view(np.int64), default_policy(table).greedy, succ, rewards.view(np.int64)):
            h.update(a.astype(np.int64).tobytes())
        assert h.hexdigest() == digest


def _greedy_action(model, pol, state):
    return model.joint_actions()[pol.greedy[pol.table.rows([state])[0]]]


class TestDefaultPolicy:
    def test_terminal_state_ties_break_to_first_action(self):
        m = chain_model()
        pol = default_policy(value_iteration(m))
        assert _greedy_action(m, pol, 2) == (0,)  # all actions tie at value 0

    def test_unique_best_action(self):
        m = chain_model()
        pol = default_policy(value_iteration(m))
        assert _greedy_action(m, pol, 0) == (1,)  # move right toward the goal
        assert _greedy_action(m, pol, 1) == (1,)

    def test_crafted_tie_prefers_lower_index(self):
        # two actions with identical dynamics: argmax must pick index 0
        t = {
            (0, (0,)): (1, (0,), 1.0),
            (0, (1,)): (1, (0,), 1.0),
            (1, (0,)): (1, (0,), 0.0),
            (1, (1,)): (1, (0,), 0.0),
        }
        m = TabularModel(1, (2,), (1,), 0.9, t, SupportBelief.point(0), frozenset({1}))
        pol = default_policy(value_iteration(m))
        assert _greedy_action(m, pol, 0) == (0,)

    def test_missing_state(self):
        m = chain_model()
        pol = default_policy(value_iteration(m))
        assert pol.table.rows([17])[0] == -1
        assert len(pol.greedy) == len(pol.table) == 3

    def test_greedy_rollout_matches_value(self):
        m = mactp_generate(MactpSpec(2, 2, 2, seed=8))
        tol = 1e-8
        table = value_iteration(m, tol=tol)
        pol = default_policy(table)

        def step_fn(s):
            s2, _, r = m.step(s, _greedy_action(m, pol, s))
            return s2, r

        memo = {}
        for s in table.state_ids[::5].tolist():
            got = trajectory_value(s, step_fn, lambda s: s, m.is_terminal, m.discount, memo)
            assert abs(got - table.values[table.rows([s])[0]]) <= tol / (1 - m.discount) + 1e-9
