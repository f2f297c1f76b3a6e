"""Separator reconfiguration on series-parallel graphs.

A 2-connected series-parallel graph arises from a single edge by
repeatedly subdividing an edge (series operation) or duplicating one
(parallel operation).  Recording the operations yields a rooted full
binary tree over multigraph edges — here called the construction tree —
from which one can read off, for any non-adjacent vertex pair (s, t),
a canonical minimum st-separator M(s, t) together with a constructive
procedure reconfiguring any separator into one containing M(s, t) under
token jumping.  Since both endpoints of an instance reach such a state,
every TJ instance on a series-parallel graph is a YES instance, and
TAR instances are answered through the TJ equivalence.

The solver builds one construction tree, for the 2-connected block that
holds both terminals: every s-t path stays inside it, so no other block
need be series-parallel.  A pair that no block holds is split by a cut
vertex, and ``solve_via_tj`` answers it with no tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .errors import ContractViolationError, InputError, NotApplicableError
from .graph import Graph
from .instance import ReconfigInstance, ReconfigSequence, Rule, Solution
from .separators import State, check_separable, shrink_to_minimal
from .tar_tj import solve_via_tj


# ---------------------------------------------------------------------------
# construction trees


@dataclass
class PSTree:
    """Record of the series/parallel construction of one 2-connected
    block: edge ids with endpoints, the operation applied to each
    non-leaf edge, and parent pointers.  ``order`` lists targeted edges
    in construction order, starting from ``root_edge`` (the two-vertex
    stage); the first operation is always parallel."""

    block_vertices: frozenset[int]
    root_edge: int
    endpoints: dict[int, tuple[int, int]]
    # targeted eid -> (op kind 'S'|'P', created vertex or None, (child, child))
    op: dict[int, tuple[str, int | None, tuple[int, int]]]
    parent: dict[int, int]
    support: dict[int, int]  # created vertex -> subdivided edge id
    order: list[int]
    leaves: frozenset[int]
    # endpoint pair, stored as (min, max) -> ids of the edges joining it, ascending
    pair_edges: dict[tuple[int, int], list[int]]

    # -- structural lookups -------------------------------------------------

    def root_vertices(self) -> frozenset[int]:
        return frozenset(self.endpoints[self.root_edge])

    def ancestors(self, eid: int) -> list[int]:
        """Chain from the root edge down to (and including) eid."""
        chain = [eid]
        while chain[-1] in self.parent:
            chain.append(self.parent[chain[-1]])
        chain.reverse()
        return chain

    def created_under(self, eid: int, tokens: State) -> frozenset[int]:
        """The members of tokens created by a series operation at eid or
        below: those whose support has eid on its root chain."""
        return frozenset(
            x for x in tokens if x in self.support and eid in self.ancestors(self.support[x])
        )

    def edges_with_endpoints(self, u: int, v: int) -> list[int]:
        return list(self.pair_edges.get((u, v) if u < v else (v, u), ()))

    def epsilon(self, u: int, v: int) -> int:
        return sum(
            1 for e in self.edges_with_endpoints(u, v) if self.op.get(e, ("",))[0] == "P"
        )

    def vertices_supported_on(self, u: int, v: int) -> frozenset[int]:
        return frozenset(
            self.op[e][1]
            for e in self.edges_with_endpoints(u, v)
            if self.op.get(e, ("",))[0] == "S"
        )

    def other_endpoint(self, eid: int, v: int) -> int:
        a, b = self.endpoints[eid]
        if v == a:
            return b
        if v == b:
            return a
        raise InputError(f"{v} is not an endpoint of edge {eid}")

    def lca(self, e: int, f: int) -> int:
        ae, af = self.ancestors(e), self.ancestors(f)
        common = None
        for x, y in zip(ae, af):
            if x != y:
                break
            common = x
        assert common is not None
        return common

    def child_towards(self, anc: int, eid: int) -> int:
        """The child of anc on the path down to eid (eid != anc)."""
        chain = self.ancestors(eid)
        i = chain.index(anc)
        return chain[i + 1]

    def to_term(self) -> str:
        """Nested parenthesized rendering of the construction, built from
        an explicit stack, since the tree can be as deep as the block is
        large."""
        parts: list[str] = []
        todo: list[int | str] = [self.root_edge]  # edge ids and literal text
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            u, v = self.endpoints[item]
            if item not in self.op:
                parts.append(f"{u}-{v}")
                continue
            kind, created, (l, r) = self.op[item]
            tag = f"S@{created}" if kind == "S" else "P"
            parts.append(f"({tag} {u}-{v} ")
            todo += [")", r, " ", l]
        return "".join(parts)


def build_ps_tree(block_edges: Iterable[tuple[int, int]]) -> PSTree:
    """Reduce a 2-connected block to a single edge by series and parallel
    reductions, recording the inverse construction.

    Deterministic: parallel reductions first, then the series reduction
    at the highest-id degree-2 vertex (inner pieces carry high ids in the
    reference fixtures, so the frame vertices survive to the root).
    Raises NotApplicableError if the block is not series-parallel, and
    up front if it has more than 2|V| - 3 edges, which no simple
    series-parallel graph has.  The block is simple: an edge given twice
    raises InputError.

    One max-heap of degree-2 vertices and one map per vertex, from each
    other endpoint to the live edge joining them, pick every reduction
    (after Valdes, Tarjan and Lawler).  A simple block starts with no
    parallel pair, and a series step at w replaces the edges u-w, w-v by
    one u-v edge, so it creates a parallel pair only at u-v, and only if
    u-v is already live; that pair is reduced at once.  So at most one
    parallel pair is ever live, a map holds every live edge, and the
    pair is the one the rule "parallel first, lowest edge id" would pick
    next: edge ids, ``order``, ``op``, ``parent`` and ``support`` equal
    those of a rescan after every step.  Degrees never grow (a series
    step keeps those of u and v, a parallel one lowers them), so a
    vertex enters the heap once, when its degree reaches 2.
    ``pair_edges`` is filled as each edge is created; ids ascend, so its
    lists come out sorted.  The cost is O(m log m) for the m edges of
    the block.
    """
    endpoints: dict[int, tuple[int, int]] = dict(
        enumerate(sorted((a, b) if a < b else (b, a) for a, b in block_edges))
    )
    leaves = frozenset(endpoints)
    pair_edges = {pair: [e] for e, pair in endpoints.items()}
    if len(pair_edges) < len(endpoints):
        pair = next(endpoints[e] for e in endpoints if e and endpoints[e] == endpoints[e - 1])
        raise InputError(f"edge {pair} repeats in the block")
    nbr: dict[int, dict[int, int]] = {}  # vertex -> {other endpoint: live edge id}
    for e, (a, b) in endpoints.items():
        if a in nbr:
            nbr[a][b] = e
        else:
            nbr[a] = {b: e}
        if b in nbr:
            nbr[b][a] = e
        else:
            nbr[b] = {a: e}
    block_vertices = frozenset(nbr)

    def refusal() -> NotApplicableError:  # the message is built only when raised
        vertices = sorted(block_vertices)
        return NotApplicableError(f"block is not series-parallel: vertices {vertices}")

    if len(endpoints) > 2 * len(block_vertices) - 3:
        raise refusal()

    op: dict[int, tuple[str, int | None, tuple[int, int]]] = {}
    parent: dict[int, int] = {}
    support: dict[int, int] = {}
    next_id = len(endpoints)
    degree2 = [-v for v, ends in nbr.items() if len(ends) == 2]
    heapq.heapify(degree2)
    # each reduction retires one live edge, and m edges need m - 1
    while next_id < 2 * len(leaves) - 1:
        # an entry goes stale only when a parallel step leaves its vertex
        # with one edge
        while degree2 and len(nbr[-degree2[0]]) != 2:
            heapq.heappop(degree2)
        if not degree2:
            raise refusal()
        # series reduction at the highest degree-2 vertex; its two edges
        # end at distinct vertices, or they would form a parallel pair
        w = -heapq.heappop(degree2)
        (u, e1), (v, e2) = nbr.pop(w).items()
        if e1 > e2:
            u, e1, v, e2 = v, e2, u, e1
        nu, nv = nbr[u], nbr[v]
        del nu[w], nv[w]
        m = next_id
        next_id += 1
        parent[e1] = parent[e2] = m
        op[m] = ("S", w, (e1, e2) if u < v else (e2, e1))
        support[w] = m
        endpoints[m] = pair = (u, v) if u < v else (v, u)
        twin = nu.get(v)
        if twin is None:  # the first u-v edge: only a step at u or v retires one for good
            pair_edges[pair] = [m]
        else:
            # parallel reduction of the pair just created
            p = next_id
            next_id += 1
            parent[twin] = parent[m] = p
            op[p] = ("P", None, (twin, m))
            endpoints[p] = pair
            pair_edges[pair] += [m, p]
            m = p
            for x, nx in ((u, nu), (v, nv)):
                if len(nx) == 2:
                    heapq.heappush(degree2, -x)
        nu[v] = nv[u] = m
    # ids are created in reduction order, so the construction replays them
    # from the root down
    tree = PSTree(
        block_vertices=block_vertices,
        root_edge=next_id - 1,
        endpoints=endpoints,
        op=op,
        parent=parent,
        support=support,
        order=list(range(next_id - 1, len(leaves) - 1, -1)),
        leaves=leaves,
        pair_edges=pair_edges,
    )
    if tree.order and tree.op[tree.order[0]][0] != "P":
        raise ContractViolationError("construction must start with a parallel step")
    return tree


@dataclass
class SPDecomposition:
    graph: Graph
    trees: list[PSTree]  # one per multi-edge block; K2 blocks carry no tree
    k2_blocks: list[frozenset[int]]

    def tree_for(self, s: int, t: int) -> PSTree | None:
        for tr in self.trees:
            if s in tr.block_vertices and t in tr.block_vertices:
                return tr
        return None


def recognize_and_decompose(g: Graph) -> SPDecomposition:
    """Construction trees for every 2-connected block, in the order of
    ``Graph.blocks``.  A disconnected graph, or a block that is not
    series-parallel (named in the message), raises NotApplicableError;
    connectivity is read off the lowpoint DFS that finds the blocks.
    Each block goes to :func:`build_ps_tree` as it comes, which sorts its
    edges once."""
    blocks = g.blocks(connected=True)
    if blocks is None:
        raise NotApplicableError("decomposition expects a connected graph")
    trees = [build_ps_tree(block) for block in blocks if len(block) > 1]
    k2 = [frozenset(edge) for block in blocks if len(block) == 1 for edge in block]
    return SPDecomposition(g, trees, k2)


# ---------------------------------------------------------------------------
# pair classification and canonical separators


@dataclass(frozen=True)
class Parallel:
    a: int
    b: int


@dataclass(frozen=True)
class Serial:
    a: int
    z: int


@dataclass(frozen=True)
class Sequential:
    a: int | None  # None when s and t are both root vertices
    v_st: frozenset[int]


@dataclass(frozen=True)
class Nested:
    a: int
    z: int


PairClassification = Parallel | Serial | Sequential | Nested


def _classify_block(
    tree: PSTree, s: int, t: int
) -> tuple[PairClassification, bool, int | None]:
    """Classification, a flag marking that the roles of s and t were
    swapped to fit the orientation conventions, and the anchor edge the
    walk toward M(s, t) works under: the lowest s-incident ancestor of
    the support of t (Nested; roles as swapped), the LCA of the two
    supports (Serial, Parallel), or None (Sequential).  A pair with a
    root terminal is Sequential or Nested, and one with two root
    terminals is Sequential with no a."""
    roots = tree.root_vertices()
    if s in roots and t in roots:
        return Sequential(None, tree.vertices_supported_on(s, t)), False, None
    swapped = t in roots
    if swapped:
        s, t = t, s
    s_in = s in roots

    if tree.edges_with_endpoints(s, t):
        v_st = tree.vertices_supported_on(s, t)
        if s_in or s in tree.endpoints[tree.support[t]]:
            a = tree.other_endpoint(tree.support[t], s)
            return Sequential(a, v_st), swapped, None
        assert t in tree.endpoints[tree.support[s]]
        a = tree.other_endpoint(tree.support[s], t)
        return Sequential(a, v_st), not swapped, None

    for outer, inner, flip in ((s, t, swapped), (t, s, not swapped)):
        # the deepest edge on the root chain of inner's support that ends at outer
        chain = tree.ancestors(tree.support[inner])
        f = next((e for e in reversed(chain) if outer in tree.endpoints[e]), None)
        if f is not None:
            kind, z, _ = tree.op[f]
            assert kind == "S" and z is not None
            return Nested(tree.other_endpoint(f, outer), z), flip, f
        assert not s_in  # a root terminal always has an incident ancestor

    l = tree.lca(tree.support[s], tree.support[t])
    kind, created, _ = tree.op[l]
    if kind == "P":
        a, b = tree.endpoints[l]
        return Parallel(a, b), swapped, l
    assert created is not None
    ct = tree.child_towards(l, tree.support[t])
    a = tree.other_endpoint(ct, created)
    return Serial(a, created), swapped, l


@dataclass(frozen=True)
class _Pair:
    """A terminal pair inside one block, read off its construction tree
    once: what :func:`_classify_block` returns, and M(s, t)."""

    tree: PSTree
    kind: PairClassification
    swapped: bool
    anchor: int | None
    canon: State


def _pair(decomp: SPDecomposition, s: int, t: int) -> _Pair:
    """:func:`_block_pair` in the block that holds s and t.  A pair that
    no block holds is split by a cut vertex and raises InputError."""
    check_separable(decomp.graph, s, t)
    tree = decomp.tree_for(s, t)
    if tree is None:
        raise InputError("pair is split by a cut vertex: no block holds both terminals")
    return _block_pair(decomp.graph, tree, s, t)


def _block_pair(g: Graph, tree: PSTree, s: int, t: int) -> _Pair:
    """The record of a pair inside the block of ``tree``, M(s, t) checked
    to separate and to have the size its shape predicts."""
    kind, swapped, anchor = _classify_block(tree, s, t)
    size = 2
    if isinstance(kind, Parallel):
        canon: State = frozenset({kind.a, kind.b})
    elif isinstance(kind, (Serial, Nested)):
        canon = frozenset({kind.a, kind.z})
    else:
        canon = kind.v_st if kind.a is None else kind.v_st | {kind.a}
        size = tree.epsilon(s, t) + (1 if kind.a is None else 2)
    if not g.separates(s, t, canon):
        raise ContractViolationError("canonical set fails the separator check")
    if len(canon) != size:
        raise ContractViolationError("canonical separator has unexpected size")
    return _Pair(tree, kind, swapped, anchor, canon)


# ---------------------------------------------------------------------------
# constructive reconfiguration toward the canonical separator


class _Walker:
    """Token moves over a separator, recorded as a TJ walk.

    A move is refused only when it is illegal (the token is absent, the
    target is taken or is a terminal); that the new state still
    separates is not re-checked here: every walk is certified once, as a
    whole, by ``solve_via_tj``.  The roles of s and t are
    interchangeable, since every check the walker makes is symmetric."""

    def __init__(self, g: Graph, s: int, t: int, start: State):
        self.g, self.s, self.t = g, s, t
        self.cur = start
        self.seq: ReconfigSequence = [start]

    def move(self, x: int, d: int) -> None:
        if x == d:
            return
        if x not in self.cur or d in self.cur or d in (self.s, self.t):
            raise ContractViolationError(f"illegal move {x}->{d}")
        self.cur = self.cur - {x} | {d}
        self.seq.append(self.cur)

    def move_any_to(self, d: int, protected: frozenset[int] = frozenset()) -> None:
        """Jump the smallest unprotected token whose move onto d keeps a
        separator (a choice, not a check)."""
        if d in self.cur:
            return
        for x in sorted(self.cur - protected):
            nxt = self.cur - {x} | {d}
            if self.g.separates(self.s, self.t, nxt):
                self.cur = nxt
                self.seq.append(nxt)
                return
        raise ContractViolationError(f"no token can reach {d}")

    def jump_from(self, tokens: frozenset[int], d: int) -> bool:
        """Jump the smallest of ``tokens``, members of the state, onto d;
        False if there are none."""
        if not tokens:
            return False
        self.move(min(tokens), d)
        return True

    def complete_pair(self, a: int, b: int) -> bool:
        """If the state holds a or b, bring a token onto the other one
        (the held one stays put); False if it holds neither."""
        if a in self.cur:
            self.move_any_to(b, protected=frozenset({a}))
        elif b in self.cur:
            self.move_any_to(a, protected=frozenset({b}))
        else:
            return False
        return True

    def reach_from(self, v: int) -> frozenset[int]:
        return frozenset(self.g.reachable_from(v, self.cur))


def _span_walk(tree: PSTree, w: _Walker, t: int, top: int) -> None:
    """Reconfigure a separator contained in the pieces of F[0] until it
    holds both endpoints of F[0], where F lists the series edges on the
    root chain of the support of t from top down (none if top is not on
    that chain)."""
    chain = tree.ancestors(tree.support[t])
    below = chain[chain.index(top):] if top in chain else []
    F = [e for e in below if tree.op[e][0] == "S"]

    def held() -> int | None:
        return next((i for i, f in enumerate(F) if w.cur & set(tree.endpoints[f])), None)

    i = held()
    if i is None:
        _enter_span(tree, w, t, F)
        i = held()
        assert i is not None
    w.complete_pair(*tree.endpoints[F[i]])
    # walk outward along the span, one shared endpoint at a time
    for j in range(i - 1, -1, -1):
        inner = frozenset(tree.endpoints[F[j + 1]])
        outer_e = frozenset(tree.endpoints[F[j]])
        (d_new,) = outer_e - inner
        (d_old,) = inner - outer_e
        if d_new not in w.cur:
            w.move(d_old, d_new)


def _enter_span(tree: PSTree, w: _Walker, t: int, F: list[int]) -> None:
    """One move onto an endpoint of an edge of F, from a state holding
    none of them."""
    supp_t = tree.support[t]
    # a token inside a branch hanging off the support of t moves to
    # the branch's outer endpoint
    if supp_t in tree.op:
        for kid in tree.op[supp_t][2]:
            if w.jump_from(tree.created_under(kid, w.cur), tree.other_endpoint(kid, t)):
                return
    # a token forming a parallel pair with t jumps to the endpoint
    # of the shared frame edge that t can still reach
    frames = {frozenset(tree.endpoints[f]) for f in F}
    for x in sorted(w.cur):
        if x not in tree.support:
            continue
        # supports are series edges, so a parallel LCA has neither
        # support on the root chain of the other
        l = tree.lca(tree.support[x], supp_t)
        if tree.op[l][0] != "P" or frozenset(tree.endpoints[l]) not in frames:
            continue
        reach = w.reach_from(t)
        reachable = [v for v in sorted(tree.endpoints[l]) if v in reach]
        if len(reachable) != 1:
            raise ContractViolationError(
                "parallel-pair frame must have exactly one reachable endpoint"
            )
        w.move(x, reachable[0])
        return
    # largest-index frame edge with one endpoint cut off: a token
    # in the sibling branch moves onto the cut endpoint
    reach = w.reach_from(t)
    for f in reversed(F):
        x, y = tree.endpoints[f]
        if (x in reach) == (y in reach):
            continue
        blocked = x if x not in reach else y
        sibling = next(k for k in tree.op[f][2] if blocked in tree.endpoints[k])
        if w.jump_from(tree.created_under(sibling, w.cur), blocked):
            return
    raise ContractViolationError("span walk found no applicable move")


def _do_sequential(tree: PSTree, w: _Walker, v_st: frozenset[int], a: int | None) -> None:
    for z in sorted(v_st):
        if z in w.cur:
            continue
        if not w.jump_from(tree.created_under(tree.support[z], w.cur), z):
            raise ContractViolationError("separator misses a parallel branch")
    if a is not None:
        w.move_any_to(a, protected=v_st)


def _do_nested(tree: PSTree, w: _Walker, a: int, z: int, f: int) -> None:
    if w.complete_pair(a, z):
        return
    kids = tree.op[f][2]
    kid_z_outer = next(k for k in kids if a in tree.endpoints[k])  # the z-a side
    kid_z_s = next(k for k in kids if k != kid_z_outer)  # the s-z side
    reach = w.reach_from(w.t)
    if a not in reach and z not in reach:
        _span_walk(tree, w, w.t, kid_z_outer)
        return
    # a reachable hub is guarded from the s side, otherwise from inside
    if not w.jump_from(tree.created_under(kid_z_s if z in reach else kid_z_outer, w.cur), z):
        raise ContractViolationError("no token on the branch next to the hub")
    w.move_any_to(a, protected=frozenset({z}))


def _do_serial(tree: PSTree, w: _Walker, a: int, z: int, l: int) -> None:
    if w.complete_pair(a, z):
        return
    ct = tree.child_towards(l, tree.support[w.t])
    reach = w.reach_from(w.t)
    if a not in reach and z not in reach:
        _span_walk(tree, w, w.t, ct)
        return
    if (a in reach) != (z in reach):
        blocked = a if a not in reach else z
        if not w.jump_from(tree.created_under(ct, w.cur), blocked):
            raise ContractViolationError("frame endpoint cut without a branch token")
        _span_walk(tree, w, w.t, ct)
        return
    # both frame endpoints reachable from t: the separator cuts s off on
    # the far branch (frame z-b); walk the span of s there, then shift
    # the token on b over to a
    b = tree.other_endpoint(l, a)
    _span_walk(tree, w, w.s, tree.child_towards(l, tree.support[w.s]))
    assert {z, b} <= w.cur
    w.move(b, a)


def _do_parallel(tree: PSTree, w: _Walker, a: int, b: int, l: int) -> None:
    if w.complete_pair(a, b):
        return
    ct = tree.child_towards(l, tree.support[w.t])
    cs = tree.child_towards(l, tree.support[w.s])
    a_t = tree.created_under(ct, w.cur)
    a_s = tree.created_under(cs, w.cur)
    if w.cur == a_t:
        _span_walk(tree, w, w.t, ct)
        return
    if w.cur == a_s:
        _span_walk(tree, w, w.s, cs)
        return
    if not a_s or not a_t:
        raise ContractViolationError("parallel pair with a one-sided separator")
    # neither a nor b is held: a token of the s side takes the one that
    # s cannot reach, then another token takes the other
    first = a if w.g.separates(w.s, a, w.cur) else b
    second = b if first == a else a
    w.jump_from(a_s, first)
    w.move_any_to(second, protected=frozenset({first}))


def _to_canonical(g: Graph, s: int, t: int, core: State, pair: _Pair) -> ReconfigSequence:
    """TJ walk from a minimal separator ``core`` (not re-checked) to a
    separator that contains M(s, t), with the pair already read off by
    :func:`_pair`."""
    tree, kind, anchor, canon = pair.tree, pair.kind, pair.anchor, pair.canon
    if pair.swapped:
        s, t = t, s
    w = _Walker(g, s, t, core)
    if canon <= w.cur:
        return w.seq

    if isinstance(kind, Sequential):
        _do_sequential(tree, w, kind.v_st, kind.a)
    elif isinstance(kind, Nested):
        _do_nested(tree, w, kind.a, kind.z, anchor)
    elif isinstance(kind, Serial):
        _do_serial(tree, w, kind.a, kind.z, anchor)
    else:
        _do_parallel(tree, w, kind.a, kind.b, anchor)

    if not canon <= w.cur:
        raise ContractViolationError("canonicalization did not reach M(s,t)")
    return w.seq


# ---------------------------------------------------------------------------
# full solver


def _tj_walk(tree: PSTree, instance: ReconfigInstance) -> tuple[list[State], list[State]]:
    """Chains from the two distinct endpoints of a TJ instance whose
    terminals share the block of ``tree`` to separators that contain
    M(s, t): the :func:`_to_canonical` walks, one jump a step, of the
    endpoints' minimal cores (from ``shrink_to_minimal``, so not
    re-checked), with the pair read off once."""
    g, s, t = instance.graph, instance.s, instance.t
    pair = _block_pair(g, tree, s, t)
    sa, sb = (shrink_to_minimal(g, s, t, x) for x in (instance.source, instance.target))
    return _to_canonical(g, s, t, sa, pair), _to_canonical(g, s, t, sb, pair)


def sp_solve_tj(instance: ReconfigInstance) -> Solution:
    """Constructive TJ solver, and TAR through the TJ equivalence: the
    only NO answers are trivially negative TAR instances.

    The tree of the block that holds s and t is built first, equal
    endpoints included: a disconnected graph, or an s-t block that is
    not series-parallel, is refused even when the answer is the
    one-state walk.  ``solve_via_tj`` answers a pair split by a cut
    vertex, and lifts and joins the two walks of a pair in the block.
    """
    if instance.rule is Rule.TS:
        raise InputError("expects a TJ or TAR instance")
    g, s, t = instance.graph, instance.s, instance.t
    blocks = g.blocks(connected=True)
    if blocks is None:
        raise NotApplicableError("decomposition expects a connected graph")
    tree = next((build_ps_tree(b) for b in blocks if {s, t} <= {v for e in b for v in e}), None)
    return solve_via_tj(instance, lambda tj: _tj_walk(tree, tj))
