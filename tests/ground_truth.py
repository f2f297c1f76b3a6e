"""Independent references that the tests hold the library against.

Brute-force and max-flow separator oracles, the exhaustive
{3P1, diamond}-free check, the TAR sequence rewriters, the ISR/VSR
sequence complement, whole-graph cut vertices and neighbourhoods, the
replay of a construction tree and the checked walk to the canonical
separator.  None of them is on the solve path: the library answers
without them, and the tests use them as ground truth.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import combinations

from vsreconf.bipartite import _check_independent
from vsreconf.errors import ContractViolationError, InputError, InvalidInstanceError
from vsreconf.graph import Graph
from vsreconf.instance import ReconfigInstance, ReconfigSequence, Rule
from vsreconf.oracle import certify
from vsreconf.separators import (
    State,
    _check_terminals,
    check_separable,
    check_state,
    is_separator,
)
from vsreconf.seriesparallel import PSTree, SPDecomposition, _pair, _to_canonical
from vsreconf.tar_tj import dedupe


# -- graphs --------------------------------------------------------------

def neighborhood(g: Graph, vs: set[int] | frozenset[int]) -> frozenset[int]:
    """Vertices outside ``vs`` adjacent to some member of it."""
    return frozenset().union(*(g.neighbors(v) for v in vs)) - vs


def cut_vertices(g: Graph) -> set[int]:
    """Articulation points: the vertices of two or more blocks."""
    seen: set[int] = set()
    cuts: set[int] = set()
    for block in g.blocks():
        vs = {v for e in block for v in e}
        cuts |= seen & vs
        seen |= vs
    return cuts


def is_3p1_diamond_free(g: Graph) -> bool:
    """Exhaustive forbidden-induced-subgraph check: no independent triple,
    no induced diamond (four vertices spanning exactly five edges)."""
    verts = list(g.vertices())
    for a, b, c in combinations(verts, 3):
        if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
            return False
    for quad in combinations(verts, 4):
        m = sum(1 for x, y in combinations(quad, 2) if g.has_edge(x, y))
        if m == 5:
            return False
    return True


# -- separators ----------------------------------------------------------

def is_minimal_separator(g: Graph, s: int, t: int, sep: Iterable[int]) -> bool:
    """Minimal iff both sides are full (every member has a neighbour in the
    components of s and of t), the same as "dropping any one vertex breaks
    it" and as proper-subset minimality.  Three O(n + m) searches."""
    sep = check_state(g, s, t, sep)
    return g.separates(s, t, sep) and g.boundary(s, sep) == sep == g.boundary(t, sep)


def brute_force_separators(g: Graph, s: int, t: int, max_size: int | None = None):
    """Every st-separator, by full subset enumeration."""
    _check_terminals(g, s, t)
    pool = [v for v in g.vertices() if v not in (s, t)]
    hi = len(pool) if max_size is None else min(max_size, len(pool))
    for r in range(hi + 1):
        for combo in combinations(pool, r):
            cand = frozenset(combo)
            if is_separator(g, s, t, cand):
                yield cand


def brute_force_minimal_separators(g: Graph, s: int, t: int) -> set[State]:
    """Every minimal st-separator, by filtering the full subset lattice."""
    return {
        sep
        for sep in brute_force_separators(g, s, t)
        if is_minimal_separator(g, s, t, sep)
    }


def minimum_separator_size(g: Graph, s: int, t: int) -> int:
    """Size of a minimum st-separator, by max-flow (vertex-disjoint
    paths; Menger).  Terminals must be non-adjacent."""
    check_separable(g, s, t)
    # Split each non-terminal vertex v into v_in -> v_out with capacity 1
    # and run unit-capacity augmenting paths.
    n = g.n
    INF = n + 1

    def vin(v: int) -> int:
        return 2 * v

    def vout(v: int) -> int:
        return 2 * v + 1

    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, set[int]] = {}

    def add(a: int, b: int, c: int) -> None:
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for v in g.vertices():
        add(vin(v), vout(v), INF if v in (s, t) else 1)
    for a, b in g.edges:
        add(vout(a), vin(b), INF)
        add(vout(b), vin(a), INF)

    source, sink = vout(s), vin(t)
    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            x = queue.popleft()
            for y in adj.get(x, ()):
                if y not in parent and cap.get((x, y), 0) > 0:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            return flow
        y = sink
        while y != source:
            x = parent[y]
            cap[(x, y)] -= 1
            cap[(y, x)] += 1
            y = x
        flow += 1


# -- TAR sequences -------------------------------------------------------

def _check_tar_sequence(g: Graph, s: int, t: int, seq: ReconfigSequence, k: int) -> None:
    """Raise ContractViolationError unless ``seq`` is a TAR(k) walk."""
    if not seq:
        raise ContractViolationError("empty sequence")
    for st in seq:  # bad ids and terminals in a state are input errors
        check_state(g, s, t, st)
    try:
        walk = ReconfigInstance(g, s, t, Rule.TAR, seq[0], seq[-1], k)
    except InvalidInstanceError as exc:
        raise ContractViolationError(str(exc)) from exc
    certify(walk, seq)


def _alternates(seq: ReconfigSequence, k: int) -> bool:
    """Sizes run k, k+1, k, ... along the walk."""
    return all(len(st) == k + i % 2 for i, st in enumerate(seq))


def normalize_tar_sequence(
    g: Graph, s: int, t: int, seq: ReconfigSequence, k: int
) -> ReconfigSequence:
    """Rewrite a valid (k+1)-TAR sequence between two size-k separators so
    sizes alternate k, k+1, k, ...

    Repeatedly picks the first state of minimum size below k, with
    predecessor-difference {a} and successor-difference {b}, and replaces
    it by its union with {a,b}; backtracking steps (a == b) are excised.

    The input is checked; the output is not re-checked, since each rewrite
    keeps a valid (k+1)-TAR walk: the union still separates, has at most
    k+1 members and differs by one vertex from both neighbours, and an
    excised detour joins two states one step apart.
    """
    _check_tar_sequence(g, s, t, seq, k + 1)
    if len(seq[0]) != k or len(seq[-1]) != k:
        raise ContractViolationError("endpoint states must have size k")

    seq = list(seq)  # edited in place below
    while True:
        small = [i for i, st in enumerate(seq) if len(st) < k]
        if not small:
            break
        lo = min(len(seq[i]) for i in small)
        j = next(i for i in small if len(seq[i]) == lo)
        if j in (0, len(seq) - 1):
            raise ContractViolationError("endpoint state below size k")
        (a,) = seq[j - 1] - seq[j]
        (b,) = seq[j + 1] - seq[j]
        if a == b:
            # the sequence backtracked through j; excise the detour
            del seq[j:j + 2]
            continue
        seq[j] = seq[j] | {a, b}

    if not _alternates(seq, k):
        raise ContractViolationError("alternation unreachable for this sequence")
    return seq


def tar_to_tj_sequence(
    g: Graph, s: int, t: int, seq: ReconfigSequence, k: int
) -> ReconfigSequence:
    """Inverse of ``tar_tj.tj_to_tar_sequence``: keep the odd positions of
    a normalized alternating TAR sequence, less consecutive repeats.  Two
    kept states around a state of k+1 vertices are equal (a vertex added
    and removed again) or one jump apart."""
    _check_tar_sequence(g, s, t, seq, k + 1)
    if not _alternates(seq, k):
        raise ContractViolationError("input is not normalized (sizes must alternate k, k+1, ...)")
    return dedupe(seq[::2])


# -- ISR and VSR sequences -----------------------------------------------

def translate_sequence(
    direction: str, g_isr: Graph, seq: ReconfigSequence
) -> ReconfigSequence:
    """Complement every state with respect to the inner (bipartite) graph.

    ``direction`` is ``"isr-to-vsr"`` (states are independent sets) or
    ``"vsr-to-isr"`` (states are separators restricted to the inner
    graph, i.e. vertex covers).  The complement map is an involution, so
    both directions perform the same rewrite; the direction selects which
    side's validity is checked.
    """
    if direction not in ("isr-to-vsr", "vsr-to-isr"):
        raise InputError(f"unknown direction {direction!r}")
    if not seq:
        raise InputError("empty sequence")
    verts = frozenset(g_isr.vertices())
    for st in seq:
        if not st <= verts:
            raise InputError("sequence state leaves the inner vertex set")
        inner = st if direction == "isr-to-vsr" else verts - st
        _check_independent(g_isr, frozenset(inner), "sequence state")
    return [verts - st for st in seq]


# -- series-parallel construction trees ----------------------------------

def replay(tree: PSTree) -> list[frozenset[int]]:
    """Re-run the recorded construction; returns the endpoint pairs
    of the final multigraph's edges (with multiplicity collapsed)."""
    live = {tree.root_edge}
    for e in tree.order:
        if e not in live:
            raise ContractViolationError("construction order is inconsistent")
        live.remove(e)
        live.update(tree.op[e][2])
    if live != set(tree.leaves):
        raise ContractViolationError("replay does not end at the leaf edges")
    return [frozenset(tree.endpoints[e]) for e in live]


def reconfigure_to_canonical(
    decomp: SPDecomposition, s: int, t: int, a_sep: State
) -> ReconfigSequence:
    """TJ sequence carrying a minimal st-separator to a separator that
    contains the canonical set M(s, t).

    The input must be a minimal separator.  The walk is certified once,
    as a TJ walk from ``a_sep`` to its last state, which contains
    M(s, t)."""
    g = decomp.graph
    if not is_minimal_separator(g, s, t, a_sep):
        raise InputError("expects a minimal separator; shrink the input first")
    seq = _to_canonical(g, s, t, a_sep, _pair(decomp, s, t))
    return certify(ReconfigInstance(g, s, t, Rule.TJ, a_sep, seq[-1]), seq)
