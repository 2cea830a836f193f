from fractions import Fraction

import pytest

from detdec import InstanceFormatError, MactpInstance, MactpModel, MactpSpec, mactp_generate
from detdec.envs import describe, descriptor_text, model_from_descriptor
from detdec.mactp import WAIT, grid_edges
from detdec.rng import SplitMix64

from helpers import fraction_product_belief, tiny_mactp


def mixed_mactp() -> MactpModel:
    """3x3, two agents, five stochastic edges: degenerate and mixed-denominator probabilities."""
    return MactpModel(
        MactpInstance(
            grid_size=3, agents=2, weights=(1,) * 12, stochastic=(0, 2, 5, 7, 11),
            block_probs=(Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(37, 100)),
            goals=(9, 8), starts=(1, 5),
        )
    )


class TestGrid:
    def test_edge_count(self):
        for n in (2, 3, 4, 5):
            assert len(grid_edges(n)) == 2 * n * (n - 1)

    def test_canonical_order_2x2(self):
        assert grid_edges(2) == [(1, 2), (1, 3), (2, 4), (3, 4)]


class TestSizing:
    @pytest.mark.parametrize(
        "n,agents,edges,env_states",
        [(3, 2, 5, 2592), (4, 2, 8, 65536), (4, 2, 12, 1048576)],
    )
    def test_env_state_counts(self, n, agents, edges, env_states):
        report = describe(mactp_generate(MactpSpec(n, agents, edges, seed=5)))
        assert report["env_state_count"] == env_states
        assert report["belief_support"] == 2**edges

    def test_no_stochastic_edges_single_support(self):
        m = mactp_generate(MactpSpec(3, 2, 0, seed=1))
        assert len(m.initial_belief()) == 1

    def test_large_instance_reports_past_ten_million(self):
        report = describe(mactp_generate(MactpSpec(5, 2, 14, seed=5)))
        assert report["env_state_count"] > 10_000_000
        assert report["belief_support"] == 2**14

    def test_describe_does_not_build_the_belief(self):
        m = mactp_generate(MactpSpec(4, 2, 12, seed=0))
        assert describe(m)["belief_support"] == 2**12
        assert m._initial_belief is None

    @pytest.mark.parametrize(
        "model",
        [
            tiny_mactp(probs=()),
            tiny_mactp(probs=(Fraction(1), Fraction(0))),
            tiny_mactp(agents=2, probs=(Fraction(1, 2), Fraction(1), Fraction(3, 10))),
            tiny_mactp(probs=(Fraction(0), Fraction(1), Fraction(1), Fraction(0))),
            mixed_mactp(),
            mactp_generate(MactpSpec(3, 2, 5, seed=42)),
        ],
    )
    def test_closed_form_support_matches_the_belief(self, model):
        assert describe(model)["belief_support"] == len(model.initial_belief())

    def test_action_spaces_are_five(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=1))
        assert m.action_space_sizes == (5, 5)


class TestInitialBelief:
    def test_product_weights(self):
        # two stochastic edges blocked with probability 0.3 and 0.4
        m = tiny_mactp(probs=(Fraction(3, 10), Fraction(4, 10)))
        weights = sorted(m.initial_belief().weights)
        assert weights == sorted(
            [Fraction(42, 100), Fraction(18, 100), Fraction(28, 100), Fraction(12, 100)]
        )

    def test_degenerate_probabilities_collapse_support(self):
        m = tiny_mactp(probs=(Fraction(1), Fraction(0)))
        b = m.initial_belief()
        assert len(b) == 1
        positions, bits, dones = m.unpack(b.states[0])
        assert bits == 0b01 and positions == (1,) and dones == 0

    def test_atoms_ascending_and_normalized(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=9))
        b = m.initial_belief()
        assert list(b.states) == sorted(b.states)
        assert sum(b.weights) == 1

    @pytest.mark.parametrize(
        "model",
        [*(mactp_generate(MactpSpec(4, 2, edges, seed)) for edges in (12, 8) for seed in (0, 1)), mixed_mactp()],
        ids=["4-2-12-s0", "4-2-12-s1", "4-2-8-s0", "4-2-8-s1", "mixed"],
    )
    def test_integer_build_equals_fraction_products(self, model):
        b, reference = model.initial_belief(), fraction_product_belief(model)
        assert b.atoms == reference.atoms and b.total == reference.total

    def test_repeated_calls_return_an_equal_belief(self):
        spec = MactpSpec(3, 2, 5, seed=9)
        m = mactp_generate(spec)
        first = m.initial_belief()
        assert m.initial_belief() == first
        assert mactp_generate(spec).initial_belief() == first


class TestDynamics:
    def test_wait_is_noop(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=3))
        s0 = m.initial_belief().states[0]
        s2, _, r = m.step(s0, (WAIT, WAIT))
        assert s2 == s0 and r == 0.0

    def test_move_costs_edge_weight(self):
        m = tiny_mactp(probs=())
        s0 = m.initial_belief().states[0]
        s2, _, r = m.step(s0, (1,))  # right along edge (1,2), weight 3
        assert m.unpack(s2)[0] == (2,)
        assert r == -3.0

    def test_blocked_edge_is_free_noop(self):
        m = tiny_mactp(probs=(Fraction(1, 2),))  # edge (1,2) stochastic
        blocked = m.pack((1,), 0b1, 0)
        s2, _, r = m.step(blocked, (1,))
        assert m.unpack(s2)[0] == (1,) and r == 0.0
        open_ = m.pack((1,), 0b0, 0)
        s2, _, r = m.step(open_, (1,))
        assert m.unpack(s2)[0] == (2,) and r == -3.0

    def test_off_grid_move_is_noop(self):
        m = tiny_mactp(probs=())
        s0 = m.initial_belief().states[0]
        s2, _, r = m.step(s0, (0,))  # up from the top row
        assert s2 == s0 and r == 0.0

    def test_goal_bonus_paid_once_then_frozen(self):
        m = tiny_mactp(probs=())
        at2 = m.pack((2,), 0, 0)
        s2, _, r = m.step(at2, (2,))  # down along edge (2,4) weight 2 into goal 4
        assert r == -2.0 + 500.0
        assert m.is_terminal(s2)
        s3, _, r2 = m.step(s2, (3,))
        assert s3 == s2 and r2 == 0.0

    def test_two_agents_independent_arrivals(self):
        m = tiny_mactp(agents=2, probs=())
        both_at2 = m.pack((2, 2), 0, 0)
        s2, _, r = m.step(both_at2, (2, 2))
        assert r == 2 * (-2.0 + 500.0)
        assert m.is_terminal(s2)

    def test_observation_encodes_positions_and_incident_status(self):
        m = tiny_mactp(agents=2, probs=(Fraction(1, 2), Fraction(1, 2)))
        # edges 0:(1,2) and 1:(1,3) stochastic; both blocked
        s = m.pack((1, 2), 0b11, 0)
        _, obs, _ = m.step(s, (WAIT, WAIT))
        pos_code = (1 - 1) + (2 - 1) * 4
        # agent 0 at vertex 1 touches both stochastic edges
        assert obs[0] == pos_code * 16 + 0b11
        # agent 1 at vertex 2 touches only edge 0
        assert obs[1] == pos_code * 16 + 0b1

    def test_step_determinism(self):
        m = mactp_generate(MactpSpec(3, 2, 4, seed=13))
        rng = SplitMix64(5)
        states = list(m.initial_belief().states)
        for _ in range(200):
            s = states[rng.randbelow(len(states))]
            a = tuple(rng.randbelow(5) for _ in range(2))
            assert m.step(s, a) == m.step(s, a)
            states.append(m.step(s, a)[0])


class TestRewardProperties:
    def test_total_reward_capped_by_goal_bonuses(self):
        m = mactp_generate(MactpSpec(3, 2, 3, seed=21))
        rng = SplitMix64(77)
        for _ in range(20):
            s = m.initial_belief().states[rng.randbelow(2**3)]
            total = 0.0
            for _ in range(60):
                a = tuple(rng.randbelow(5) for _ in range(2))
                s, _, r = m.step(s, a)
                total += r
            assert total <= 500.0 * 2

    def test_generated_weights_in_range(self):
        m = mactp_generate(MactpSpec(4, 2, 6, seed=2))
        assert all(1 <= w <= 10 for w in m.instance.weights)
        assert all(Fraction(1, 10) <= p <= Fraction(9, 10) for p in m.instance.block_probs)


class TestDescriptor:
    def test_same_seed_same_descriptor(self):
        a = descriptor_text(mactp_generate(MactpSpec(3, 2, 5, seed=42)))
        b = descriptor_text(mactp_generate(MactpSpec(3, 2, 5, seed=42)))
        assert a == b

    def test_different_seed_differs(self):
        a = descriptor_text(mactp_generate(MactpSpec(3, 2, 5, seed=42)))
        b = descriptor_text(mactp_generate(MactpSpec(3, 2, 5, seed=43)))
        assert a != b

    def test_roundtrip_behavior(self):
        m = mactp_generate(MactpSpec(3, 2, 5, seed=42))
        m2 = model_from_descriptor(m.descriptor())
        assert isinstance(m2, MactpModel)
        assert m2.instance == m.instance
        s0 = m.initial_belief().states[3]
        assert m.step(s0, (1, 2)) == m2.step(s0, (1, 2))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("format", 99), ("format", True), ("prng", "mt"),
            ("agents", True), ("grid_size", "3"), ("weights", 5), ("goals", [9, False]),
            ("block_probs", ["1/0"]), ("block_probs", [True]), ("gamma", True), ("seed", 1.5),
        ],
    )
    def test_bad_field_is_named(self, field, value):
        doc = mactp_generate(MactpSpec(3, 2, 2, seed=42)).descriptor()
        doc[field] = value
        with pytest.raises(InstanceFormatError, match=repr(field)):
            MactpModel.from_descriptor(doc)
        with pytest.raises(InstanceFormatError, match=repr(field)):
            model_from_descriptor(doc)

    def test_missing_field_is_named(self):
        doc = mactp_generate(MactpSpec(3, 2, 2, seed=42)).descriptor()
        del doc["starts"]
        with pytest.raises(InstanceFormatError, match="'starts'"):
            model_from_descriptor(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "mactp", None, {"family": ["mactp"]}])
    def test_non_object_or_unknown_family(self, doc):
        with pytest.raises(InstanceFormatError, match="JSON object|unknown family"):
            model_from_descriptor(doc)


class TestValidation:
    def test_spec_bounds(self):
        with pytest.raises(ValueError):
            MactpSpec(1, 1, 0, 0).validate()
        with pytest.raises(ValueError):
            MactpSpec(3, 2, 13, 0).validate()

    def test_instance_probability_range(self):
        with pytest.raises(ValueError):
            MactpInstance(
                grid_size=2, agents=1, weights=(1, 1, 1, 1), stochastic=(0,),
                block_probs=(Fraction(3, 2),), goals=(4,), starts=(1,),
            ).validate()

    def test_state_and_action_range_errors(self):
        m = tiny_mactp(probs=())
        with pytest.raises(ValueError):
            m.step(-1, (WAIT,))
        with pytest.raises(ValueError):
            m.step(10**9, (WAIT,))
        with pytest.raises(ValueError):
            m.step(0, (5,))
