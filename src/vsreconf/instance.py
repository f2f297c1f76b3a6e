"""Reconfiguration instances and rule definitions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import InvalidInstanceError
from .graph import Graph
from .separators import State, check_separable, check_state
from .separators import is_separator  # noqa: F401 (read by bench/test_bench.py)

ReconfigSequence = list[State]


@dataclass(frozen=True)
class Solution:
    """Answer of any solver: reachability plus, for YES, a certificate
    the solver has checked before returning it."""

    reachable: bool
    sequence: ReconfigSequence | None = None
    states_explored: int = 0
    engine: str = ""

    @property
    def distance(self) -> int | None:
        """Steps in the certificate; the oracle's is a shortest path."""
        return None if self.sequence is None else len(self.sequence) - 1


class Rule(enum.Enum):
    TS = "TS"
    TJ = "TJ"
    TAR = "TAR"

    @classmethod
    def parse(cls, text: str) -> "Rule":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise InvalidInstanceError(f"unknown rule {text!r}") from None


@dataclass(frozen=True)
class ReconfigInstance:
    """Graph + terminals + rule + endpoint states.

    Construction validates every invariant: distinct non-adjacent
    terminals, endpoint states that actually separate, TJ size equality
    and the TAR cardinality bound.
    """

    graph: Graph
    s: int
    t: int
    rule: Rule
    source: State
    target: State
    k: int | None = field(default=None)

    def __post_init__(self):
        g, s, t = self.graph, self.s, self.t
        check_separable(g, s, t)
        object.__setattr__(self, "source", check_state(g, s, t, self.source))
        object.__setattr__(self, "target", check_state(g, s, t, self.target))
        for name, st in (("source", self.source), ("target", self.target)):
            if not g.separates(s, t, st):
                raise InvalidInstanceError(f"{name} state is not an st-separator")
        if self.rule is Rule.TAR:
            if self.k is None or self.k < 1:
                raise InvalidInstanceError("TAR requires a positive bound k")
            if max(len(self.source), len(self.target)) > self.k:
                raise InvalidInstanceError("endpoint state exceeds the TAR bound")
        else:
            if self.k is not None:
                raise InvalidInstanceError(f"{self.rule.value} takes no bound k")
            if len(self.source) != len(self.target):
                raise InvalidInstanceError(
                    f"{self.rule.value} needs equal-size endpoint states"
                )

    def describe(self) -> str:
        bound = f"(k={self.k})" if self.rule is Rule.TAR else ""
        return f"{self.rule.value}{bound} s={self.s} t={self.t}"

