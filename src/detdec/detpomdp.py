"""Solver for deterministic single-agent POMDPs over support beliefs.

Deterministic dynamics make the belief update a pure bookkeeping step:
every atom moves to its unique successor, atoms are grouped by the
observation they emit, and each group's integer weights form a posterior
whose support can only merge or shrink, never grow.  Planning is heuristic
AND-OR search over these support beliefs:

* every belief node carries a certified value interval; the upper bound is
  the fully-observable relaxation value averaged over the support, the
  initial lower bound is the worst one-step reward annuity;
* trials descend along upper-bound-greedy actions into the child with the
  largest weighted bound gap, expand one frontier node at a time, and back
  bounds up the path, taking a self-loop once (canonical beliefs are
  memoized, so the search graph may contain loops; a sweep visits only the
  ancestors of nodes that changed since the last one and solves their
  strongly connected components children first, each to its fixed point:
  a single node in closed form, a larger component by Gauss-Seidel passes
  that policy iteration finishes);
* a controller is read out of the lower-bound-greedy choices, frontier
  branches are sealed with self-looping nodes that repeat the best
  fixed-action policy for that belief, and the finished controller is
  evaluated *exactly*; the certified lower bound reported to callers is
  that evaluated value, so certificates never overstate.

Controllers are valued by ``fsc_values`` on a trajectory graph over points
(extended-state id, own node), built and valued by the same ``evaluation``
functions as ``exact_value``'s joint-policy graph, each frontier stepped by
one ``BrDetPomdp.step_ids`` call.  The best fixed action is read from the
values of the controller whose node ``a`` repeats action ``a``.

Every expansion steps the belief's atoms under every action in one
``BrDetPomdp.step_actions`` batch, made of gathers on the relaxation table
(successor rows, reward codes and observation codes), and groups each
action's rows as ``belief_successors`` does, adding rewards in atom order,
so beliefs, probabilities and rewards are those of the scalar oracle to the
last bit.  A posterior's gcd-divided atoms key the node memo, so a belief
is built only for a new node, and a new node reads whether it is terminal
from the table's terminal flags.

``exact_belief_vi`` is an independent brute-force oracle: it enumerates the
entire reachable belief space and runs value iteration over it, stepping
atom by atom through ``belief_successors`` and the model's own ``step``.  It
shares no search machinery with ``solve`` and exists to certify it in tests.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import ceil, gcd, log

import numpy as np

from .bestresponse import BrDetPomdp
from .errors import ResourceLimitError, require_int_at_least, require_positive_finite
from .evaluation import graph_values, pack_points, trajectory_graph, unpack_points
from .fsc import Fsc, FscArrays, FscNode
from .model import SupportBelief

_LB_EPS = 1e-12


@dataclass
class SolveParams:
    epsilon: float = 1e-3
    max_depth: int | None = None
    node_budget: int = 100_000
    time_budget: float | None = None

    def __post_init__(self) -> None:
        require_positive_finite("epsilon", self.epsilon)
        if self.max_depth is not None:
            require_int_at_least("max_depth", self.max_depth, 1)
        require_int_at_least("node_budget", self.node_budget, 1)
        if self.time_budget is not None:
            require_positive_finite("time_budget", self.time_budget)


@dataclass
class SolveResult:
    fsc: Fsc
    lower_bound: float   # exact value of `fsc` from the root belief (certified)
    upper_bound: float   # admissible bound on the optimum at the root
    converged: bool      # upper_bound - lower_bound <= epsilon
    status: str          # converged | node_budget | time_budget | stalled
    expansions: int
    trials: int
    elapsed: float
    trace: list[tuple[int, float, float, int]] = field(default_factory=list)

    @property
    def gap(self) -> float:
        return self.upper_bound - self.lower_bound


def belief_successors(
    belief: SupportBelief, action: int, m: BrDetPomdp
) -> list[tuple[int, float, SupportBelief, float]]:
    """Group each atom's unique (successor, observation) by observation.

    Returns ``(obs, probability, posterior, conditional expected reward)``
    per observation, sorted by observation.  Posteriors keep the atoms' integer
    weights; a probability is a weight sum over ``belief.total``.  The branch
    rewards recombine to the belief-action expectation via sum(p * r).
    """
    step = m.step
    rows = [step(eid, action) for eid, _ in belief.atoms]
    return [(obs, p, SupportBelief(atoms), r) for obs, p, atoms, r in _grouped(belief, rows)]


def _grouped(belief: SupportBelief, rows) -> list[tuple[int, float, tuple, float]]:
    """``belief_successors`` from the atoms' ``(successor, observation, reward)`` rows, in atom order.

    Each posterior is given by its atoms, divided by their gcd as
    ``SupportBelief`` stores them, so they key the search's memo before any
    belief is built.
    """
    groups: dict[int, dict[int, int]] = {}
    rewards: dict[int, float] = {}
    for (_, w), fw, (e2, obs, r) in zip(belief.atoms, belief.float_weights, rows):
        g = groups.get(obs)
        if g is None:
            g = {}
            groups[obs] = g
            rewards[obs] = 0.0
        g[e2] = g.get(e2, 0) + w
        rewards[obs] += fw * r
    out = []
    total = belief.total
    for obs in sorted(groups):
        g = groups[obs]
        prob = sum(g.values()) / total
        atoms = tuple(sorted(g.items()))
        divisor = gcd(*g.values())
        if divisor > 1:
            atoms = tuple((e2, w // divisor) for e2, w in atoms)
        out.append((obs, prob, atoms, rewards[obs] / prob))
    return out


def _belief_terminal(belief: SupportBelief, m: BrDetPomdp) -> bool:
    """Whether every atom is terminal, asked of the model: the oracle's check, apart from the table."""
    return all(m.is_terminal(eid) for eid, _ in belief.atoms)


def upper_bound(belief: SupportBelief, m: BrDetPomdp) -> float:
    """Admissible bound: fully-observable relaxation value over the support."""
    total = 0.0
    for (eid, _), fw in zip(belief.atoms, belief.float_weights):
        total += fw * m.state_value_hint(eid)
    return total


def fsc_values(m: BrDetPomdp, fsc: Fsc, roots) -> np.ndarray:
    """Exact value of executing ``fsc`` from each ``(extended state, node)`` root.

    A point is the extended-state id with the own node appended,
    ``eid * len(fsc.nodes) + node``, which fixes the whole future.  All
    roots are valued in one trajectory graph, stepped by
    ``BrDetPomdp.step_ids``.
    """
    arrays = FscArrays.checked(fsc, m.agent, m.action_count)
    size = (len(fsc.nodes),)
    terminal = m.value_table.terminal

    def step(points):
        eids, (own,) = unpack_points(points, size)
        live = ~terminal[eids // m.width]
        own = own[live]
        succ, obs, rewards = m.step_ids(eids[live], arrays.actions[own])
        return live, pack_points(succ, [arrays.advance(own, obs)], size), rewards

    for _, node in roots:
        if not 0 <= node < len(fsc.nodes):
            raise ValueError(f"node index {node} outside [0, {len(fsc.nodes)})")
    eids = np.array([eid for eid, _ in roots], dtype=np.int64)
    nodes = np.array([node for _, node in roots], dtype=np.int64)
    points, at = np.unique(pack_points(eids, [nodes], size), return_inverse=True)
    return graph_values(*trajectory_graph(points, step), m.discount)[at]


def _belief_values(m: BrDetPomdp, fsc: Fsc, starts) -> list[float]:
    """Value of ``fsc`` from each ``(node, belief)`` start: the atoms' values weighted in atom order."""
    roots = [(eid, node) for node, belief in starts for eid, _ in belief.atoms]
    values = iter(fsc_values(m, fsc, roots).tolist())
    out = []
    for _, belief in starts:
        total = 0.0
        for fw in belief.float_weights:
            total += fw * next(values)
        out.append(total)
    return out


def best_fixed_actions(beliefs: list[SupportBelief], m: BrDetPomdp) -> list[tuple[float, int]]:
    """(value, action) of the best single fixed-action-forever policy from each belief.

    Node ``a`` of the controller valued here repeats action ``a`` forever;
    all beliefs are valued in one graph.
    """
    if not beliefs:
        return []
    fixed = Fsc([FscNode(a) for a in range(m.action_count)])
    values = iter(_belief_values(m, fixed, [(a, belief) for belief in beliefs for a in range(m.action_count)]))
    out = []
    for _ in beliefs:
        best_v = -float("inf")
        best_a = 0
        for a in range(m.action_count):
            v = next(values)
            if v > best_v:
                best_v = v
                best_a = a
        out.append((best_v, best_a))
    return out


def exact_belief_vi(m: BrDetPomdp, b0: SupportBelief, tol: float = 1e-9, cap: int = 10_000) -> float:
    """Brute-force oracle: value iteration over the enumerated reachable belief MDP.

    Requires the reachable belief set (supports only shrink under
    deterministic dynamics) to stay under ``cap``.
    """
    require_positive_finite("tol", tol)
    require_int_at_least("cap", cap, 1)
    index: dict[tuple, int] = {b0.atoms: 0}
    beliefs: list[SupportBelief] = [b0]
    n_actions = m.action_count
    rbar_rows: list[float] = []
    branch_prob: list[float] = []
    branch_child: list[int] = []
    branch_slot: list[int] = []
    i = 0
    while i < len(beliefs):
        b = beliefs[i]
        i += 1
        if _belief_terminal(b, m):
            rbar_rows.extend(0.0 for _ in range(n_actions))
            continue
        for a in range(n_actions):
            slot = (i - 1) * n_actions + a
            rbar = 0.0
            for obs, p, post, rcond in belief_successors(b, a, m):
                rbar += p * rcond
                child = index.get(post.atoms)
                if child is None:
                    if len(beliefs) >= cap:
                        raise ResourceLimitError(f"reachable belief set exceeds cap={cap}")
                    child = len(beliefs)
                    index[post.atoms] = child
                    beliefs.append(post)
                branch_prob.append(p)
                branch_child.append(child)
                branch_slot.append(slot)
            rbar_rows.append(rbar)
    nb = len(beliefs)
    rewards = np.asarray(rbar_rows).reshape(nb, n_actions)
    bp = np.asarray(branch_prob)
    bc = np.asarray(branch_child, dtype=np.int64)
    bs = np.asarray(branch_slot, dtype=np.int64)
    gamma = m.discount
    values = np.zeros(nb)
    while True:
        contrib = np.bincount(bs, weights=bp * values[bc], minlength=nb * n_actions)
        backed = (rewards + gamma * contrib.reshape(nb, n_actions)).max(axis=1)
        residual = float(np.max(np.abs(backed - values)))
        values = backed
        if residual <= tol:
            return float(values[0])


class _Node:
    __slots__ = ("belief", "lb", "ub", "acts", "parents", "terminal")

    def __init__(self, belief: SupportBelief, lb: float, ub: float, terminal: bool) -> None:
        self.belief = belief
        self.lb = lb
        self.ub = ub
        self.acts = None  # per action: (expected reward, tuple[(obs, prob, child)])
        self.parents = []  # expanded nodes with this one as a child, each once
        self.terminal = terminal


def _marked_children(node: _Node, marked: set[int]):
    return (child for _, entries in node.acts for _, _, child in entries if id(child) in marked)


def _policy_iteration(coef: np.ndarray, const: np.ndarray, starts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fixed point of ``x[i] = max over rows r of member i of const[r] + coef[r] @ x``.

    Member ``i`` owns the rows from ``starts[i]`` to the next member's start.
    Howard's policy iteration starts with every member on its first row and
    ``x`` the value of that policy (or any point, if those rows are worth
    -inf).  A member switches rows only on a gain of more than 1e-12 at the
    current value, and each policy's value is one linear solve: every row of
    ``coef`` sums to less than 1, so ``I - coef[policy]`` is non-singular.
    """
    policy = starts.copy()
    ends = starts[1:].tolist() + [len(const)]
    eye = np.eye(len(starts))
    seen = set()
    while True:
        q = const + coef @ x
        switch = (np.maximum.reduceat(q, starts) > q[policy] + 1e-12).nonzero()[0]
        if not len(switch):
            return x
        for i in switch.tolist():
            policy[i] = starts[i] + q[starts[i] : ends[i]].argmax()
        key = policy.tobytes()
        if key in seen:  # exact arithmetic never returns to a policy; rounding can
            return x
        seen.add(key)
        x = np.linalg.solve(eye - coef[policy], const[policy])


class _Search:
    def __init__(self, m: BrDetPomdp, b0: SupportBelief, params: SolveParams) -> None:
        self.m = m
        self.params = params
        self.gamma = m.discount
        rmin, rmax = m.reward_bounds()
        self.floor = min(rmin, 0.0) / (1.0 - self.gamma)
        span = (rmax - rmin) / (1.0 - self.gamma)
        if params.max_depth is not None:
            self.max_depth = params.max_depth
        elif span <= params.epsilon:
            self.max_depth = 1
        else:
            # past this depth the discounted tail cannot move bounds by epsilon
            self.max_depth = max(1, ceil(log(params.epsilon / span) / log(self.gamma)))
        self.nodes: dict[tuple, _Node] = {}
        self.expansions = 0
        self.trials = 0
        self.trace: list[tuple[int, float, float, int]] = []
        # expanded nodes whose bounds or children changed since the last sweep
        self.changed: list[_Node] = []
        self.started = time.perf_counter()
        self.root = self._node(b0.atoms)

    # --- node and bound management ----------------------------------------

    def _node(self, atoms: tuple) -> _Node:
        """The node of the belief with these (gcd-divided) atoms; its belief is built on first sight only."""
        node = self.nodes.get(atoms)
        if node is None:
            belief = SupportBelief(atoms)
            flag = self.m.terminal_flag
            if all(flag(eid) for eid, _ in atoms):
                node = _Node(belief, 0.0, 0.0, True)
            else:
                node = _Node(belief, self.floor, upper_bound(belief, self.m), False)
            self.nodes[atoms] = node
        return node

    def _expand(self, node: _Node) -> None:
        belief = node.belief
        n = len(belief)
        rows = self.m.step_actions([eid for eid, _ in belief.atoms])
        acts = []
        for a in range(self.m.action_count):
            rbar = 0.0
            entries = []
            for obs, p, atoms, rcond in _grouped(belief, rows[a * n : (a + 1) * n]):
                rbar += p * rcond
                child = self._node(atoms)
                # this expansion is the only one that appends `node`, so a repeat is the last entry
                if not child.parents or child.parents[-1] is not node:
                    child.parents.append(node)
                entries.append((obs, p, child))
            acts.append((rbar, tuple(entries)))
        node.acts = acts
        self.changed.append(node)
        self.expansions += 1

    def _backup(self, node: _Node) -> float:
        """Tighten both bounds of ``node``; return the larger change.

        With the other children's bounds held, an action's value on a
        self-loop of probability ``p`` is the fixed point of
        ``x = c + gamma * p * x``, that is ``c / (1 - gamma * p)``.
        """
        gamma = self.gamma
        best_lb = -float("inf")
        best_ub = -float("inf")
        for rbar, entries in node.acts:
            qlb = rbar
            qub = rbar
            loop = 0.0
            for _, p, child in entries:
                if child is node:
                    loop += p
                else:
                    qlb += gamma * p * child.lb
                    qub += gamma * p * child.ub
            scale = 1.0 - gamma * loop  # exactly 1.0 without a self-loop
            qlb /= scale
            qub /= scale
            if qlb > best_lb:
                best_lb = qlb
            if qub > best_ub:
                best_ub = qub
        gain = 0.0
        if best_lb > node.lb:
            gain = best_lb - node.lb
            node.lb = best_lb
        if best_ub < node.ub:
            gain = max(gain, node.ub - best_ub)
            node.ub = best_ub
        if node.ub < node.lb:  # rounding: the value is at least the achievable lb
            node.ub = node.lb
        return gain

    def _sweep(self) -> None:
        """Bring every expanded node's bounds to their fixed point.

        Only the ancestors of the nodes in ``changed`` can be off their fixed
        point, so the sweep marks them through ``parents`` and visits nothing
        else (focused topological value iteration).  Tarjan's algorithm
        (iterative: search graphs are deeper than the recursion limit) emits
        the strongly connected components of the marked graph children first,
        so each component is solved once, on final bounds below it: a single
        node by one backup, a larger component by Gauss-Seidel passes until no
        bound moves by 1e-12.  A pass that moves one is followed by policy
        iteration over the component (``_solve_component``), so the next pass,
        as a rule, only checks its solution; a component already at its fixed
        point costs one pass.  Changes the sweep itself makes are not
        recorded: it leaves every marked node at its fixed point.
        """
        marked: set[int] = set()
        pending = self.changed
        while pending:
            node = pending.pop()
            if id(node) not in marked:
                marked.add(id(node))
                pending.extend(node.parents)
        if not marked:
            return
        # every expanded node descends from the root, which is thus marked too
        root = self.root
        done = len(self.nodes)  # above every DFS number: a finished node lowers no link
        number = {id(root): 0}
        low = {id(root): 0}
        stack = [root]
        calls = [(root, _marked_children(root, marked))]
        while calls:
            node, children = calls[-1]
            key = id(node)
            for child in children:
                ckey = id(child)
                if ckey not in number:
                    number[ckey] = low[ckey] = len(number)
                    stack.append(child)
                    calls.append((child, _marked_children(child, marked)))
                    break
                low[key] = min(low[key], number[ckey])
            else:
                calls.pop()
                if calls:
                    pkey = id(calls[-1][0])
                    low[pkey] = min(low[pkey], low[key])
                if low[key] == number[key]:
                    component = []
                    while True:
                        member = stack.pop()
                        number[id(member)] = done
                        component.append(member)
                        if member is node:
                            break
                    if len(component) == 1:
                        self._backup(node)
                    else:
                        while max([self._backup(member) for member in component]) > 1e-12:
                            self._solve_component(component)

    def _solve_component(self, component: list[_Node]) -> None:
        """Solve a strongly connected component's bounds by policy iteration.

        Children outside the component hold final bounds, so each action of a
        member is a constant plus ``gamma * p`` times in-component bounds.
        Each member's first row is "keep the bound it has", worth its lb on
        the lower side: the clamped backup's fixed point is then the value of
        the best policy, and any policy's value is achievable.  The upper
        side has no such row (its constant is -inf); its greedy policy's
        value can sit below the fixed point until the policy is stable, so
        only the stable value is written, and never below the member's lb.
        """
        gamma = self.gamma
        n = len(component)
        where = {id(member): i for i, member in enumerate(component)}
        starts = []
        const_lb = []
        const_ub = []
        cells = []  # flat (row, member) index of each in-component term
        terms = []
        for member in component:
            starts.append(len(const_lb))
            const_lb.append(member.lb)
            const_ub.append(-float("inf"))
            for rbar, entries in member.acts:
                qlb = rbar
                qub = rbar
                for _, p, child in entries:
                    j = where.get(id(child))
                    if j is None:
                        qlb += gamma * p * child.lb
                        qub += gamma * p * child.ub
                    else:
                        cells.append(len(const_lb) * n + j)
                        terms.append(gamma * p)
                const_lb.append(qlb)
                const_ub.append(qub)
        coef = np.bincount(cells, weights=terms, minlength=len(const_lb) * n).reshape(-1, n)
        starts = np.array(starts)
        const = np.array(const_lb)
        lbs = _policy_iteration(coef, const, starts, const[starts])
        for member, x in zip(component, lbs.tolist()):
            if x > member.lb:
                member.lb = x
        ubs = np.array([member.ub for member in component])
        ubs = _policy_iteration(coef, np.array(const_ub), starts, ubs)
        for member, x in zip(component, ubs.tolist()):
            if x < member.ub:
                member.ub = max(x, member.lb)

    # --- trial loop ----------------------------------------------------------

    def _over_time(self) -> bool:
        tb = self.params.time_budget
        return tb is not None and time.perf_counter() - self.started > tb

    def _trial(self) -> None:
        gamma = self.gamma
        node = self.root
        depth = 0
        thresh = self.params.epsilon
        path = []
        while True:
            if node.terminal or node.ub - node.lb <= thresh or depth >= self.max_depth:
                break
            # bounds hold still during a descent and a backup solves a self-loop
            # in closed form, so a self-loop is taken once: the node keeps its
            # action and is backed up once; only the child choice sees the
            # larger threshold
            if not path or path[-1] is not node:
                if node.acts is None:
                    if self.expansions >= self.params.node_budget or self._over_time():
                        break
                    self._expand(node)
                path.append(node)
                best_q = -float("inf")
                best_entries = None
                for rbar, entries in node.acts:
                    q = rbar
                    for _, p, child in entries:
                        q += gamma * p * child.ub
                    if q > best_q:
                        best_q = q
                        best_entries = entries
            next_thresh = thresh / gamma
            best_score = 0.0
            nxt = None
            for _, p, child in best_entries:
                if child.terminal:
                    continue
                score = p * (child.ub - child.lb - next_thresh)
                if score > best_score:
                    best_score = score
                    nxt = child
            if nxt is None:
                break
            node = nxt
            depth += 1
            thresh = next_thresh
        for n in reversed(path):
            if self._backup(n) > 0.0:
                self.changed.append(n)
        self.trials += 1

    # --- controller extraction ------------------------------------------------

    def _greedy_action(self, node: _Node) -> int:
        gamma = self.gamma
        best_q = -float("inf")
        best_a = 0
        for a, (rbar, entries) in enumerate(node.acts):
            q = rbar
            for _, p, child in entries:
                q += gamma * p * child.lb
            if q > best_q:
                best_q = q
                best_a = a
        return best_a

    def _extract(self) -> tuple[Fsc, list[_Node | None]]:
        root = self.root
        if root.acts is None or root.terminal:
            (action,) = self._cap_actions([root])
            return Fsc([FscNode(action, {}, None)], 0), [None]

        # the lower-bound-greedy choices, breadth first from the root; a child
        # that is terminal or unexpanded is capped
        queue = [root]
        queued = {id(root)}
        plan: list[tuple[int, list]] = []  # each queued node's action and its children's entries
        capped: list[_Node] = []
        for bn in queue:  # grows as new nodes are found
            action = self._greedy_action(bn)
            entries = bn.acts[action][1]
            for _, _, child in entries:
                if child.acts is None or child.terminal:
                    capped.append(child)
                elif id(child) not in queued:
                    queued.add(id(child))
                    queue.append(child)
            plan.append((action, entries))
        cap_actions = iter(self._cap_actions(capped))

        # number nodes in order of first sight: search nodes, and one cap node per action
        drafts: list[tuple[int, dict[int, int]]] = [(0, {})]  # the root's, filled below
        node_map: list[_Node | None] = [root]
        index: dict[int, int] = {id(root): 0}
        cap_idx: dict[int, int] = {}
        for bn, (action, entries) in zip(queue, plan):
            transitions: dict[int, int] = {}
            for obs, _, child in entries:
                if child.acts is None or child.terminal:
                    cap = next(cap_actions)
                    idx = cap_idx.get(cap)
                    if idx is None:
                        idx = cap_idx[cap] = len(drafts)
                        drafts.append((cap, {}))
                        node_map.append(None)
                else:
                    idx = index.get(id(child))
                    if idx is None:
                        idx = index[id(child)] = len(drafts)
                        drafts.append((0, {}))  # filled when its turn comes
                        node_map.append(child)
                transitions[obs] = idx
            drafts[index[id(bn)]] = (action, transitions)
        nodes = [FscNode(a, dict(t), None) for a, t in drafts]
        return Fsc(nodes, 0), node_map

    def _cap_actions(self, capped: list[_Node]) -> list[int]:
        """Each capped node's self-loop action: 0 if terminal, else its best fixed action."""
        best = iter(best_fixed_actions([bn.belief for bn in capped if not bn.terminal], self.m))
        return [0 if bn.terminal else next(best)[1] for bn in capped]

    def _extract_and_refine(self) -> tuple[Fsc, float]:
        best_fsc: Fsc | None = None
        best_v = -float("inf")
        for _ in range(50):
            fsc, node_map = self._extract()
            # node 0 is the root's; an unexpanded root maps to no search node
            mapped = [(idx, bn) for idx, bn in enumerate(node_map) if bn is not None]
            starts = [(idx, bn.belief) for idx, bn in mapped] or [(fsc.initial_node, self.root.belief)]
            values = _belief_values(self.m, fsc, starts)
            v_root = values[0]
            improved_bounds = False
            for (_, bn), v in zip(mapped, values):
                if v > bn.lb + _LB_EPS:
                    bn.lb = v  # achieved by an actual controller, hence sound
                    self.changed.append(bn)
                    improved_bounds = True
            if v_root > best_v + _LB_EPS:
                best_v = v_root
                best_fsc = fsc
            elif not improved_bounds:
                break
        if best_fsc is None:  # no root value exceeded -inf: each was NaN or -inf
            raise FloatingPointError(
                f"extracted controller has non-finite root value {v_root!r}; no lower bound to certify"
            )
        return best_fsc, best_v

    # --- main loop -------------------------------------------------------------

    def run(self) -> SolveResult:
        params = self.params
        root = self.root
        status = None
        while True:
            # trial phase
            idle = False
            while True:
                if root.terminal or root.ub - root.lb <= params.epsilon:
                    break
                if self.expansions >= params.node_budget:
                    status = "node_budget"
                    break
                if self._over_time():
                    status = "time_budget"
                    break
                before = self.expansions
                self._trial()
                self.trace.append((self.trials, root.lb, root.ub, self.expansions))
                if self.expansions > before:
                    idle = False
                elif idle:
                    # after an exact sweep a trial changes no bound, so one that
                    # expands nothing would be retraced by every later trial
                    status = "stalled"
                    break
                else:
                    self._sweep()
                    idle = True
            self._sweep()
            fsc, certified = self._extract_and_refine()
            self._sweep()
            converged = root.ub - certified <= params.epsilon + 1e-9
            if converged:
                status = "converged"
            if status is not None:
                elapsed = time.perf_counter() - self.started
                self.trace.append((self.trials, root.lb, root.ub, self.expansions))
                return SolveResult(
                    fsc=fsc,
                    lower_bound=certified,
                    # the optimum is at least `certified`: a root ub below it is rounding
                    upper_bound=max(root.ub, certified),
                    converged=converged,
                    status=status,
                    expansions=self.expansions,
                    trials=self.trials,
                    elapsed=elapsed,
                    trace=self.trace,
                )
            # extraction tightened lower bounds; keep searching


def solve(
    m: BrDetPomdp,
    b0: SupportBelief,
    params: SolveParams | None = None,
) -> SolveResult:
    """Plan in a deterministic POMDP; always returns a total controller.

    The result's ``lower_bound`` is the exact evaluated value of the
    returned controller from ``b0`` (a true achievable bound), and
    ``status`` reports whether the bound gap closed to ``epsilon`` or which
    budget ran out first.
    """
    if params is None:
        params = SolveParams()
    search = _Search(m, b0, params)
    try:
        result = search.run()
    finally:
        # child and parent links close belief loops; without them refcounting frees the graph
        for node in search.nodes.values():
            node.acts = None
            node.parents = None
    return result
