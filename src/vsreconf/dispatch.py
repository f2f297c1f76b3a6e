"""The library's one entry point: :func:`solve` answers an instance with
a chosen engine, or picks one.

``auto`` takes the first route that applies.  A TS instance goes to the
two-clique class solver, else to exhaustive search.  The class solver's
TS NO rule, a token count per component, holds on any graph, so
``class`` answers every TS instance that the count strands, in or out
of the class, in O(n + m); only the rest need the class.  A TJ or TAR
instance goes to the two-clique class solver, then to the series-parallel
construction, and else to the tame-class solver; all three answer TAR
through the TJ equivalence.
"""

from __future__ import annotations

from dataclasses import replace

from .cliquepair import solve_tar_tj_3p1d, solve_ts_3p1d
from .errors import InputError, NotApplicableError
from .instance import ReconfigInstance, Rule, Solution
from .minsep import tame_solve
from .oracle import solve_bfs
from .seriesparallel import sp_solve_tj

ENGINES = ("auto", "oracle", "tame", "class", "sp")


def solve(instance: ReconfigInstance, engine: str = "auto") -> Solution:
    """YES/NO plus, for YES, a checked certificate; ``engine`` of the
    result names the engine that answered."""
    if engine == "auto":
        ts = instance.rule is Rule.TS
        for route in ("class",) if ts else ("class", "sp"):
            try:
                return solve(instance, route)
            except NotApplicableError:
                pass
        return solve(instance, "oracle" if ts else "tame")
    if engine == "oracle":
        res = solve_bfs(instance)
    elif engine == "class":
        res = (solve_ts_3p1d if instance.rule is Rule.TS else solve_tar_tj_3p1d)(instance)
    elif engine == "sp":
        res = sp_solve_tj(instance)
    elif engine == "tame":
        res = tame_solve(instance)
    else:
        raise InputError(f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}")
    return replace(res, engine=engine)
