import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from detdec import (
    CollectingSpec,
    Fsc,
    FscNode,
    JointPolicy,
    MactpSpec,
    PolicyFormatError,
    ResourceLimitError,
    collecting_generate,
    deserialize,
    mactp_generate,
    serialize,
    value_iteration,
)
from detdec.fsc import TABLE_CELL_LIMIT, FscArrays


class TestActAdvance:
    def test_single_node_action(self):
        f = Fsc([FscNode(3)])
        assert f.act(0) == 3

    def test_two_node_actions(self):
        f = Fsc([FscNode(0), FscNode(4)])
        assert f.act(1) == 4

    def test_act_repeatable_after_advance(self):
        f = Fsc([FscNode(1, {5: 1}), FscNode(2)])
        n = f.advance(0, 5)
        assert f.act(n) == f.act(n) == 2

    def test_selfloop_every_obs(self):
        f = Fsc([FscNode(0)])  # fallback defaults to self
        for obs in range(10):
            assert f.advance(0, obs) == 0

    def test_mapped_observation(self):
        f = Fsc([FscNode(0, {5: 2}), FscNode(0), FscNode(1)])
        assert f.advance(0, 5) == 2

    def test_unmapped_goes_to_fallback(self):
        f = Fsc([FscNode(0, {5: 2}, fallback=1), FscNode(0), FscNode(1)])
        assert f.advance(0, 7) == 1

    def test_invalid_node_index(self):
        f = Fsc([FscNode(0)])
        with pytest.raises(ValueError):
            f.act(1)
        with pytest.raises(ValueError):
            f.advance(-1, 0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Fsc([])
        with pytest.raises(ValueError):
            Fsc([FscNode(0, {1: 5})])
        with pytest.raises(ValueError):
            Fsc([FscNode(0)], initial_node=2)


class TestSize:
    def test_single_node(self):
        assert Fsc([FscNode(0)]).size == 1

    def test_size_preserved_by_roundtrip(self):
        p = JointPolicy([Fsc([FscNode(1, {3: 1}), FscNode(0)], 1)])
        assert deserialize(serialize(p)).sizes() == p.sizes()


def _policies():
    node = st.builds(
        FscNode,
        action=st.integers(min_value=0, max_value=4),
        transitions=st.dictionaries(
            st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2), max_size=4
        ),
        fallback=st.none() | st.integers(min_value=0, max_value=2),
    )
    fsc = st.builds(
        lambda nodes, init: Fsc(nodes, init % len(nodes)),
        st.lists(node, min_size=3, max_size=3),
        st.integers(min_value=0, max_value=2),
    )
    return st.builds(JointPolicy, st.lists(fsc, min_size=1, max_size=3))


class TestSerialization:
    @given(_policies())
    def test_roundtrip_identity(self, policy):
        assert deserialize(serialize(policy)) == policy

    def test_empty_transitions_roundtrip(self):
        p = JointPolicy([Fsc([FscNode(2)])])
        restored = deserialize(serialize(p))
        assert restored == p
        assert restored.controllers[0].nodes[0].transitions == {}

    def test_out_of_range_target_named(self):
        doc = '{"agents": [{"initial": 0, "nodes": [{"action": 0, "fallback": 0, "transitions": {"3": 9}}]}]}'
        with pytest.raises(PolicyFormatError, match=r"agents\[0\].nodes\[0\].transitions"):
            deserialize(doc)

    def test_bad_initial_named(self):
        for doc in (
            '{"agents": [{"initial": 4, "nodes": [{"action": 0, "fallback": 0, "transitions": {}}]}]}',
            # JSON booleans are not node indices or actions
            '{"agents": [{"initial": false, "nodes": [{"action": true, "fallback": false}]}]}',
        ):
            with pytest.raises(PolicyFormatError, match=r"agents\[0\].initial"):
                deserialize(doc)

    def test_invalid_json(self):
        with pytest.raises(PolicyFormatError, match="invalid JSON"):
            deserialize("{nope")

    def test_missing_action_named(self):
        for doc in (
            '{"agents": [{"initial": 0, "nodes": [{"fallback": 0, "transitions": {}}]}]}',
            '{"agents": [{"initial": 0, "nodes": [{"action": true, "fallback": 0}]}]}',
        ):
            with pytest.raises(PolicyFormatError, match=r"agents\[0\].nodes\[0\].action"):
                deserialize(doc)


def _random_fsc(rng, mapped, nodes=12):
    """A controller whose nodes map random subsets of ``mapped``; node 0 maps none."""
    return Fsc([
        FscNode(
            0,
            {} if index == 0 else {
                int(o): int(rng.integers(nodes)) for o in rng.choice(mapped, int(rng.integers(len(mapped) + 1)))
            },
            int(rng.integers(nodes)),
        )
        for index in range(nodes)
    ])


def _queries(mapped):
    """Every mapped observation, with unmapped ones below, between and above them."""
    mapped = sorted(mapped)
    between = [o + 1 for o, nxt in zip(mapped, mapped[1:]) if nxt > o + 1]
    below = [mapped[0] - 1] if mapped[0] else []
    return mapped + between + below + [mapped[-1] + 1, mapped[-1] + 1000, 2**63 - 1]


class TestFscArraysAdvance:
    """``FscArrays.advance`` against ``Fsc.advance``, row by row."""

    MAPPED = {
        "spread": [3, 17, 40, 41, 900, 65_000],
        # one observation far above the rest packs these into bucket 0, which only a search splits
        "packed": [0, 1, 2, 5, 9, 2**40],
        "large": [2**62, 2**62 + 7, 2**63 - 2],
    }

    def _check(self, fsc, obs, dtype):
        arrays = FscArrays(fsc)
        obs = np.array([o for o in obs if o <= np.iinfo(dtype).max], dtype=dtype)
        nodes = np.repeat(np.arange(fsc.size), obs.size)
        obs = np.tile(obs, fsc.size)
        got = arrays.advance(nodes, obs)
        assert got.dtype == np.int64
        assert got.tolist() == [fsc.advance(int(n), int(o)) for n, o in zip(nodes, obs)]

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.int64])
    @pytest.mark.parametrize("kind", sorted(MAPPED))
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_fsc(self, kind, seed, dtype):
        mapped = self.MAPPED[kind]
        self._check(_random_fsc(np.random.default_rng(seed), mapped), _queries(mapped), dtype)

    def test_packed_observations_take_the_search(self):
        fsc = Fsc([FscNode(0, {o: 1 for o in self.MAPPED["packed"]}), FscNode(0)])
        assert (FscArrays(fsc)._first < 0).any()
        self._check(fsc, _queries(self.MAPPED["packed"]), np.int64)

    def test_no_transitions(self):
        fsc = Fsc([FscNode(0, fallback=1), FscNode(1), FscNode(0, fallback=0)])
        for dtype in (np.uint16, np.uint32, np.int64):
            self._check(fsc, [0, 1, 7, 65_535], dtype)

    def test_key_past_int64_is_left_out(self):
        fsc = Fsc([FscNode(0, {2**64 + 3: 1, 5: 1}, fallback=0), FscNode(0, {2**63: 0})])
        assert FscArrays(fsc).observations.tolist() == [5]
        self._check(fsc, [0, 3, 5, 6, 2**63 - 1], np.int64)

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.int64])
    @pytest.mark.parametrize("transitions", [{}, {4: 1}])
    def test_empty_arrays(self, transitions, dtype):
        arrays = FscArrays(Fsc([FscNode(0, transitions), FscNode(0)]))
        got = arrays.advance(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=dtype))
        assert got.dtype == np.int64 and got.size == 0

    def test_table_past_cell_limit_is_refused_before_allocation(self):
        nodes = 8_193  # each maps an observation of its own: 8,193 x 8,194 cells
        assert nodes * (nodes + 1) > TABLE_CELL_LIMIT
        fsc = Fsc([FscNode(0, {index: index}) for index in range(nodes)])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=rf"{nodes} nodes maps {nodes} distinct observations.*{TABLE_CELL_LIMIT}"):
                FscArrays(fsc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the table alone would be 128 MB of uint16 cells


class TestFscArraysRanks:
    """``ranks`` gives the table column of every relaxation row's observation, as ``Fsc.advance`` reads it."""

    TABLES = {
        "mactp-2": lambda: value_iteration(mactp_generate(MactpSpec(3, 2, 4, seed=3))),
        "collecting-2": lambda: value_iteration(collecting_generate(CollectingSpec(3, 3, 2, 1, seed=3))),
        "mactp-3": lambda: value_iteration(mactp_generate(MactpSpec(3, 3, 3, seed=3))),
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_table_at_ranks_matches_fsc(self, name):
        table = self.TABLES[name]()
        rng = np.random.default_rng(7)
        for agent in range(table.obs.shape[1]):
            column = table.obs[:, agent]
            seen = np.unique(column)
            # every other observation strictly inside the seen range: rows below, between and above it stay unmapped
            mapped = seen[1:-1:2].tolist()
            assert len(seen) >= 4 and seen[0] < mapped[0] and seen[-1] > mapped[-1]
            assert set(seen[1:-1].tolist()) > set(mapped)
            unmapped = Fsc([FscNode(0, fallback=1), FscNode(1), FscNode(0, fallback=0)])
            for fsc in (unmapped, _random_fsc(rng, mapped)):
                arrays = FscArrays(fsc)
                width = arrays.observations.size
                # the successor of each node on each seen observation, per row by the observation's index in ``seen``
                expected = np.array([[fsc.advance(n, int(o)) for o in seen] for n in range(fsc.size)])[
                    :, np.searchsorted(seen, column)
                ]
                for dtype in (np.uint16, np.uint32, np.int64):
                    if seen[-1] > np.iinfo(dtype).max:
                        continue
                    ranks = arrays.ranks(column.astype(dtype))
                    assert ranks.dtype == np.int64
                    got = arrays.table[np.arange(fsc.size)[:, None] * (width + 1) + ranks]
                    assert got.tolist() == expected.tolist()
