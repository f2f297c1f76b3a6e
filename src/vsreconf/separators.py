"""Separator predicates shared by every solver.

A state is a frozenset of vertex ids (token positions).  Canonical
encodings for hashing/printing are the sorted tuples produced by
:func:`canon`.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

from .errors import ContractViolationError, InputError, InvalidInstanceError
from .graph import Graph

State = frozenset[int]


def canon(s: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(s))


def format_state(s: Iterable[int]) -> str:
    """A state as a line: its ids, ascending and space-separated."""
    return " ".join(map(str, canon(s)))


def _check_terminals(g: Graph, s: int, t: int) -> None:
    g.check_vertex(s)
    g.check_vertex(t)
    if s == t:
        raise InputError("terminals must be distinct")


def check_separable(g: Graph, s: int, t: int) -> None:
    """Refuse terminals that no state separates: bad ids, equal or adjacent."""
    _check_terminals(g, s, t)
    if g.has_edge(s, t):
        raise InvalidInstanceError("terminals are adjacent: no separator exists")


def check_state(g: Graph, s: int, t: int, sep: Iterable[int]) -> State:
    """Validate a candidate state against the graph and terminals."""
    _check_terminals(g, s, t)
    sep = frozenset(sep)
    for v in sep:
        g.check_vertex(v)
    if s in sep or t in sep:
        raise InputError("state may not contain a terminal")
    return sep


def is_separator(g: Graph, s: int, t: int, sep: Iterable[int]) -> bool:
    """True iff t is unreachable from s in G minus the state."""
    return g.separates(s, t, check_state(g, s, t, sep))


def shrink_to_minimal(g: Graph, s: int, t: int, sep: Iterable[int]) -> State:
    """Deterministic minimal separator contained in `sep`.

    Takes the neighborhood of the s-side component, then the neighborhood
    of the t-side component of the intermediate cut.  The result is
    minimal by construction (every member has a neighbour on both
    sides), so it is not re-checked.
    """
    sep = check_state(g, s, t, sep)
    if not g.separates(s, t, sep):
        raise ContractViolationError("shrink_to_minimal requires a separator")
    return g.boundary(t, g.boundary(s, sep))


def pad_state(g: Graph, s: int, t: int, sep: Iterable[int], k: int) -> State:
    """``sep`` filled up to k tokens with the smallest free non-terminal
    ids.  Its one caller, ``tar_tj._tar_to_tj``, makes sure ``sep`` has at
    most k."""
    sep = frozenset(sep)
    free = (v for v in g.vertices() if v not in sep and v not in (s, t))
    return sep | frozenset(islice(free, k - len(sep)))

