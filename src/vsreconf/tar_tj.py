"""Equivalence machinery between the TAR and TJ rules, and the walks.

Interleaving of TJ certificates into TAR certificates, detection of
trivially negative TAR instances, instance-level conversion in both
directions, and :func:`solve_via_tj`, which answers TJ and TAR instances
alike from a solver's two separator chains, or by its one cut-vertex rule,
which takes a cut vertex both endpoints hold where there is one.
A chain starts inside its endpoint, consecutive members meet the
precondition of ``carry``, and the two last members hold a common
separator; ``carry`` lifts each chain, and ``jumps`` joins the two walks.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .errors import ContractViolationError, InvalidInstanceError
from .instance import ReconfigInstance, ReconfigSequence, Rule, Solution
from .oracle import certify
from .separators import State, pad_state, shrink_to_minimal


def dedupe(seq: ReconfigSequence) -> ReconfigSequence:
    """Drop consecutive repeats, as left where walks are concatenated."""
    out = seq[:1]
    for st in seq[1:]:
        if st != out[-1]:
            out.append(st)
    return out


def jumps(a: State, b: State) -> ReconfigSequence:
    """TJ walk from ``a`` to ``b``: the tokens of a - b jump, in ascending
    order, to the vertices of b - a, in ascending order."""
    seq = [a]
    for x, y in zip(sorted(a - b), sorted(b - a)):
        seq.append(seq[-1] - {x} | {y})
    return seq


def carry(chain: list[State], start: State) -> ReconfigSequence:
    """TJ walk from ``start``, which holds ``chain[0]``, through a superset
    of each chain member in turn.

    Consecutive members a, b have |a u b| <= len(start) + 1, and neither
    holds the other.  From a state holding a, the smallest tokens outside
    a u b fill all but the last missing vertex of b, in ascending order,
    and the smallest token of a - b fills the last one; the bound on
    |a u b| leaves enough of the first kind.  Every state holds a or b,
    so it separates when they do.
    """
    seq = [start]
    for a, b in zip(chain, chain[1:]):
        cur = seq[-1]
        missing = sorted(b - cur)
        movers = sorted(cur - a - b)[:len(missing) - 1] + [min(a - b)]
        for x, y in zip(movers, missing):
            seq.append(seq[-1] - {x} | {y})
    return seq


def tar_steps(a: State, b: State) -> ReconfigSequence:
    """TAR walk from ``a`` to ``b``: remove a - b, then add b - a, each in
    ascending order."""
    seq = [a]
    for v in sorted(a - b):
        seq.append(seq[-1] - {v})
    for v in sorted(b - a):
        seq.append(seq[-1] | {v})
    return seq


def tj_to_tar_sequence(seq: ReconfigSequence) -> ReconfigSequence:
    """Interleave a TJ sequence with the unions of consecutive states,
    yielding a (k+1)-TAR sequence of length 2*len-1."""
    if not seq:
        raise ContractViolationError("empty sequence")
    sizes = {len(st) for st in seq}
    if len(sizes) != 1:
        raise ContractViolationError("TJ sequence states must share one size")
    out: ReconfigSequence = [seq[0]]
    for prev, nxt in zip(seq, seq[1:]):
        if len(prev - nxt) != 1 or len(nxt - prev) != 1:
            raise ContractViolationError("consecutive states are not single jumps")
        out.append(prev | nxt)
        out.append(nxt)
    return out


def is_trivially_negative_tar(instance: ReconfigInstance) -> bool:
    """Observation-style pruning: distinct endpoints with one of them a
    minimal separator of exactly k vertices can never move.  That is an
    endpoint whose minimal core has no room below k, which
    :func:`_tar_to_tj` reports."""
    if instance.rule is not Rule.TAR:
        raise InvalidInstanceError("expects a TAR instance")
    return instance.source != instance.target and _tar_to_tj(instance) is None


def tj_to_tar_instance(instance: ReconfigInstance) -> ReconfigInstance:
    """A TJ instance with size-k states is equivalent to the same instance
    under TAR with bound k+1."""
    if instance.rule is not Rule.TJ:
        raise InvalidInstanceError("expects a TJ instance")
    k = len(instance.source)
    return ReconfigInstance(
        instance.graph, instance.s, instance.t, Rule.TAR,
        instance.source, instance.target, k + 1,
    )


@dataclass(frozen=True)
class TarToTjConversion:
    """Equivalent TJ instance plus the two short TAR bridges that carry the
    original endpoint states onto the primed ones."""

    tj_instance: ReconfigInstance
    source_bridge: ReconfigSequence  # TAR(k): source  -> primed source
    target_bridge: ReconfigSequence  # TAR(k): target  -> primed target


def tar_to_tj_instance(instance: ReconfigInstance) -> TarToTjConversion:
    """Build the equivalent TJ instance of a non-trivially-negative TAR
    instance: shrink each endpoint to a minimal separator and pad it up to
    k-1 tokens with the smallest available vertex ids, a bound k above
    n-1 counting as n-1."""
    if instance.rule is not Rule.TAR:
        raise InvalidInstanceError("expects a TAR instance")
    conv = _tar_to_tj(instance)
    if conv is not None:
        return conv
    if instance.source != instance.target:
        raise InvalidInstanceError(
            "trivially negative TAR instance (see is_trivially_negative_tar);"
            " the answer is NO and no equivalent TJ instance exists"
        )
    # equivalence is vacuous when source == target is a minimal separator
    # of size k
    raise InvalidInstanceError(
        "endpoint shrinks to a minimal separator of size k;"
        " no size-(k-1) primed state exists"
    )


def _tar_to_tj(instance: ReconfigInstance) -> TarToTjConversion | None:
    """:func:`tar_to_tj_instance`, or None when an endpoint's minimal core
    has no room below k: the endpoint is then itself a minimal separator
    of k vertices.  Each endpoint is shrunk once, and its bridge goes down
    to the core, then up through the smallest free ids."""
    g, s, t = instance.graph, instance.s, instance.t
    assert instance.k is not None
    # states never hold s or t, so every bound from n-2 up admits the same
    # states; n-1 is the largest whose k-1 padded tokens fit in the n-2
    # non-terminals
    k = min(instance.k, g.n - 1)
    primed = []
    for st in (instance.source, instance.target):
        core = shrink_to_minimal(g, s, t, st)
        if len(core) > k - 1:
            return None
        goal = pad_state(g, s, t, core, k - 1)
        primed.append((goal, tar_steps(st, core) + tar_steps(core, goal)[1:]))
    (sa, bridge_a), (sb, bridge_b) = primed
    return TarToTjConversion(ReconfigInstance(g, s, t, Rule.TJ, sa, sb), bridge_a, bridge_b)


def solve_via_tj(
    instance: ReconfigInstance,
    tj_walk: Callable[[ReconfigInstance], tuple[list[State], list[State]] | None],
) -> Solution:
    """Answer a TJ or TAR instance from ``tj_walk``, which takes a TJ
    instance with distinct endpoints and returns two separator chains, or
    None when there is no walk.  The first starts inside the source and
    the second inside the target, consecutive members meet the
    precondition of ``carry``, and the two last members hold a common
    separator.  ``carry`` lifts each chain from its endpoint, here and
    nowhere else; ``jumps`` between the two last states moves no token
    of the common separator, and the target's walk follows in reverse.

    One rule comes first, for every solver: when a vertex separates s
    from t (by ``Graph.cut_vertices_between``), w is the smallest such
    vertex that both endpoints hold, else the smallest one.  Each chain
    is its endpoint, then, if it misses w, the endpoint with its smallest
    token on w, and ``tj_walk`` is not called.

    None is a NO, for TJ and TAR alike.  A TAR instance is also NO when
    trivially negative, which its conversion reports by returning None;
    otherwise its equivalent TJ instance is walked,
    and the walk, interleaved into a TAR walk, is joined to the endpoints
    by the conversion's bridges.  The result is certified once, against
    the instance given.
    """

    def walk(tj: ReconfigInstance) -> ReconfigSequence | None:
        """The joined TJ walk of a TJ instance, or None."""
        if tj.source == tj.target:
            return [tj.source]
        if cuts := tj.graph.cut_vertices_between(tj.s, tj.t):
            held = [v for v in cuts if v in tj.source and v in tj.target]
            w = (held or cuts)[0]  # every state holding w separates
            chains = [[x] if w in x else [x, x - {min(x)} | {w}] for x in (tj.source, tj.target)]
        elif (chains := tj_walk(tj)) is None:
            return None
        fwd, bwd = (carry(chain, x) for chain, x in zip(chains, (tj.source, tj.target)))
        return dedupe(fwd + jumps(fwd[-1], bwd[-1]) + bwd[::-1])

    if instance.source == instance.target:
        return Solution(True, certify(instance, [instance.source]))
    if instance.rule is Rule.TJ:
        mid = walk(instance)
        return Solution(False) if mid is None else Solution(True, certify(instance, mid))
    conv = _tar_to_tj(instance)
    if conv is None:
        return Solution(False)
    mid = walk(conv.tj_instance)
    if mid is None:
        return Solution(False)
    seq = conv.source_bridge + tj_to_tar_sequence(mid) + conv.target_bridge[::-1]
    return Solution(True, certify(instance, dedupe(seq)))
