"""Walk plumbing shared by the solvers: the single-token walks between
states (``jumps`` and ``tar_steps``), ``carry`` through a chain of
separators, and de-duplication at the seams of stitched walks.  The
certificate check lives with the oracle's verifier."""

from __future__ import annotations

from .instance import ReconfigSequence
from .separators import State


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

