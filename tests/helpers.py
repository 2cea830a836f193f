"""Shared fixtures: tiny handcrafted models, random controllers, instance pools."""
from __future__ import annotations

from fractions import Fraction

from detdec import (
    CollectingInstance,
    CollectingModel,
    CollectingSpec,
    Fsc,
    FscNode,
    IdppParams,
    JointPolicy,
    MactpInstance,
    MactpModel,
    MactpSpec,
    SupportBelief,
    TabularModel,
    build_br_detpomdp,
    collecting_generate,
    enumerate_joint_actions,
    exact_value,
    mactp_generate,
    solve,
    value_iteration,
)
from detdec.detpomdp import _belief_values
from detdec.evaluation import cycle_value
from detdec.rng import SplitMix64


def selfloop_model(reward: float = 1.0, gamma: float = 0.95) -> TabularModel:
    """One state, one agent, one action, constant reward self-loop."""
    return TabularModel(
        agent_count=1,
        action_space_sizes=(1,),
        observation_space_sizes=(1,),
        discount=gamma,
        transitions={(0, (0,)): (0, (0,), reward)},
        belief=SupportBelief.point(0),
    )


def absorbing_model(gamma: float = 0.95) -> TabularModel:
    """Single terminal state."""
    return TabularModel(
        agent_count=1,
        action_space_sizes=(1,),
        observation_space_sizes=(1,),
        discount=gamma,
        transitions={},
        belief=SupportBelief.point(0),
        terminal=frozenset({0}),
    )


def chain_model(gamma: float = 0.95, length: int = 3, goal_reward: float = 500.0) -> TabularModel:
    """Single-agent line graph: states 0..length-1, unit move costs, goal at the end.

    Actions: 0 = left, 1 = right, 2 = wait.  Reaching the last state pays the
    goal reward and the state is absorbing.  Observation mirrors the state.
    """
    last = length - 1
    transitions = {}
    for s in range(length - 1):  # the last state is terminal
        for a in range(3):
            if a == 0:
                s2 = max(0, s - 1)
            elif a == 1:
                s2 = s + 1
            else:
                s2 = s
            r = -1.0 if s2 != s else 0.0
            if s2 == last:
                r += goal_reward
            transitions[(s, (a,))] = (s2, (s2,), r)
    return TabularModel(
        agent_count=1,
        action_space_sizes=(3,),
        observation_space_sizes=(length,),
        discount=gamma,
        transitions=transitions,
        belief=SupportBelief.point(0),
        terminal=frozenset({last}),
    )


def zero_reward_model() -> TabularModel:
    """Two states, one agent; each action's observation names the action, not the state."""
    t = {
        (0, (0,)): (1, (0,), 0.0),
        (0, (1,)): (0, (1,), 0.0),
        (1, (0,)): (0, (0,), 0.0),
        (1, (1,)): (1, (1,), 0.0),
    }
    return TabularModel(1, (2,), (2,), 0.9, t, SupportBelief.from_pairs([(0, 1), (1, 1)]))


def action_obs_model(states: int = 12, gamma: float = 0.9) -> TabularModel:
    """Three agents with 2, 3 and 2 actions on ``states`` cells; the last cell is terminal.

    Each agent observes its own action and the parity of the successor, so
    an observation cannot be rendered from the successor alone.  The initial
    belief covers every cell, with distinct weights.
    """
    sizes = (2, 3, 2)
    transitions = {}
    for s in range(states - 1):
        for a in enumerate_joint_actions(sizes):
            s2 = (3 * s + 1 + a[0] + 2 * a[1] + 5 * a[2]) % states
            obs = tuple(2 * ai + s2 % 2 for ai in a)
            transitions[(s, a)] = (s2, obs, (7 * s2 + a[0] + a[1]) % 5 - 1.5)
    return TabularModel(
        agent_count=3,
        action_space_sizes=sizes,
        observation_space_sizes=(4, 6, 4),
        discount=gamma,
        transitions=transitions,
        belief=SupportBelief.from_pairs([(s, s + 1) for s in range(states)]),
        terminal=frozenset({states - 1}),
    )


def tiny_mactp(agents: int = 1, probs=(Fraction(1, 2),), gamma: float = 0.95) -> MactpModel:
    """Hand-built 2x2 grid instance with explicit blockage probabilities.

    Canonical edges of the 2x2 grid: 0:(1,2) 1:(1,3) 2:(2,4) 3:(3,4); the
    first ``len(probs)`` edges are stochastic.  Goal is vertex 4.
    """
    return MactpModel(
        MactpInstance(
            grid_size=2,
            agents=agents,
            weights=(3, 5, 2, 7),
            stochastic=tuple(range(len(probs))),
            block_probs=tuple(probs),
            goals=(4,) * agents,
            starts=(1,) * agents,
            gamma=gamma,
        )
    )


def fraction_product_belief(model: MactpModel) -> SupportBelief:
    """Reference mactp initial belief: one ``Fraction`` product per blockage configuration.

    The model builds the same belief in integer arithmetic instead.
    """
    pairs = []
    for bits in range(1 << len(model.instance.stochastic)):
        w = Fraction(1)
        for bit, p in enumerate(model.instance.block_probs):
            w *= p if bits >> bit & 1 else 1 - p
            if w == 0:
                break
        if w > 0:
            pairs.append((model.pack(model.instance.starts, bits, 0), w))
    return SupportBelief.from_pairs(pairs)


def tiny_collecting(agents: int = 1, gamma: float = 0.95) -> CollectingModel:
    """Hand-built 2x2 interior, one box: obstacle 5, goal 6, start 9, box at 10."""
    starts = (9,) if agents == 1 else (9, 10)
    domain = (10,) if agents == 1 else ()
    if agents != 1:
        raise ValueError("tiny_collecting is single-agent")
    return CollectingModel(
        CollectingInstance(
            height=2,
            width=2,
            agents=agents,
            boxes=1,
            obstacles=(5,),
            goals=(6,),
            start_cells=starts,
            box_domain=domain,
            gamma=gamma,
        )
    )


def small_instances(count: int = 24, seed: int = 1000):
    """Mixed pool of small generated instances for randomized properties."""
    pool = []
    for k in range(count):
        s = seed + k
        if k % 3 == 0:
            pool.append(mactp_generate(MactpSpec(2, 1 + k % 2, 1 + k % 3, s)))
        elif k % 3 == 1:
            pool.append(mactp_generate(MactpSpec(3, 2, 2 + k % 3, s)))
        else:
            dims = [(3, 2), (2, 3), (3, 3)][k % 3 - 2]
            pool.append(collecting_generate(CollectingSpec(dims[0], dims[1], 1 + k % 2, 1, s)))
    return pool


def observation_pool(model, agent: int, rng: SplitMix64, steps: int = 60) -> list[int]:
    """Local observations reachable by a short random walk (for controller maps)."""
    seen = set()
    belief = model.initial_belief()
    states = [s for s, _ in belief.atoms[: min(4, len(belief))]]
    for s0 in states:
        s = s0
        for _ in range(steps):
            action = tuple(rng.randbelow(k) for k in model.action_space_sizes)
            s, obs, _ = model.step(s, action)
            seen.add(obs[agent])
            if model.is_terminal(s):
                break
    return sorted(seen)


def random_fsc(model, agent: int, rng: SplitMix64, max_nodes: int = 3) -> Fsc:
    pool = observation_pool(model, agent, rng)
    k = 1 + rng.randbelow(max_nodes)
    nodes = []
    for _ in range(k):
        action = rng.randbelow(model.action_space_sizes[agent])
        transitions = {}
        if pool:
            for _ in range(rng.randbelow(min(4, len(pool)) + 1)):
                obs = pool[rng.randbelow(len(pool))]
                transitions[obs] = rng.randbelow(k)
        nodes.append(FscNode(action, transitions, rng.randbelow(k)))
    return Fsc(nodes, rng.randbelow(k))


def random_joint_policy(model, rng: SplitMix64, max_nodes: int = 3) -> JointPolicy:
    return JointPolicy([random_fsc(model, i, rng, max_nodes) for i in range(model.agent_count)])


def br_problem(model, policy: JointPolicy, agent: int):
    """Best-response problem for ``agent`` on the model's relaxation table."""
    return build_br_detpomdp(model, policy, agent, value_iteration(model))


def fsc_value_in(m, fsc: Fsc, belief: SupportBelief, node: int | None = None) -> float:
    """Exact value of executing ``fsc`` from ``node`` under belief ``belief`` in problem ``m``."""
    return _belief_values(m, fsc, [(fsc.initial_node if node is None else node, belief)])[0]


def nash_check(model, policy: JointPolicy, params: IdppParams | None = None) -> list[float]:
    """Per-agent improvement gaps: best-response certified value minus joint value.

    At an equilibrium reported by ``idpp.run``, every gap is at most
    ``value_tolerance`` plus the subsolver's bound gap.
    """
    if params is None:
        params = IdppParams()
    table = value_iteration(model, tol=params.mdp_tol, state_cap=params.state_cap)
    joint = exact_value(model, policy)
    gaps = []
    for agent in range(model.agent_count):
        problem = build_br_detpomdp(model, policy, agent, value_table=table)
        result = solve(problem, problem.initial_belief(), params.solve)
        gaps.append(result.lower_bound - joint)
    return gaps


def random_walk_states(model, rng: SplitMix64, walks: int = 5, steps: int = 30) -> list:
    """States reachable by random walks, always including the initial support."""
    states = list(model.initial_belief().states)
    seen = set(states)
    for _ in range(walks):
        s = states[rng.randbelow(len(states))]
        for _ in range(steps):
            action = tuple(rng.randbelow(k) for k in model.action_space_sizes)
            s, _, _ = model.step(s, action)
            if s not in seen:
                seen.add(s)
                states.append(s)
    return states


def trajectory_value(start, step_fn, key_fn, terminal_fn, gamma: float, memo: dict) -> float:
    """Scalar oracle: exact discounted return of the deterministic trajectory from ``start``.

    It walks one point and one ``step_fn`` call at a time; the evaluators
    under test value whole trajectory graphs instead.

    ``key_fn`` must map a point to a key whose repetition implies the whole
    future repeats.  ``memo`` caches the return at every visited key and may
    be shared across calls for the same dynamics.
    """
    path_keys: list = []
    path_rewards: list[float] = []
    seen: dict = {}
    cur = start
    while True:
        key = key_fn(cur)
        tail = memo.get(key)
        if tail is not None:
            break
        if terminal_fn(cur):
            tail = 0.0
            memo[key] = tail
            break
        p = seen.get(key)
        if p is not None:
            # first repeat: positions p.. form a cycle
            cycle = path_rewards[p:]
            length = len(cycle)
            for off, cycle_key in enumerate(path_keys[p:]):
                memo[cycle_key] = cycle_value(cycle[off:] + cycle[:off], gamma, length)
            tail = memo[path_keys[p]]
            del path_keys[p:]
            del path_rewards[p:]
            break
        seen[key] = len(path_keys)
        nxt, reward = step_fn(cur)
        path_keys.append(key)
        path_rewards.append(reward)
        cur = nxt
    acc = tail
    for key, reward in zip(reversed(path_keys), reversed(path_rewards)):
        acc = reward + gamma * acc
        memo[key] = acc
    return acc
