import pytest
from hypothesis import given, strategies as st

from detdec import Fsc, FscNode, JointPolicy, PolicyFormatError, deserialize, serialize


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
