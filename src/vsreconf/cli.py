"""Command-line front-end.

Subcommands: solve, oracle, separators, convert, reduce, recognize,
decompose, export-dot.  Answers are printed as a first line of ``YES``,
``NO``, or ``UNKNOWN(resource)``; exit codes are 0 (answered), 1 (usage
error), 2 (input format error), 3 (resource cap hit).

Instance files are keyword lines::

    graph <path>            # or inline: graph <n> <u-v> <u-v> ...
    s <id>
    t <id>
    rule TS|TJ|TAR
    k <int>                 # TAR only
    source <ids...>
    target <ids...>

ISR instance files replace ``s``/``t`` with ``parta``/``partb``.
Graph files use the shared text format: an ``n m`` header line followed
by one ``a b`` line per edge (``#`` comments allowed).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .bipartite import IsrInstance, is_peanut_like, isr_to_vsr, vsr_to_isr
from .cliquepair import CutVertexCliques, MatchedCliques, SpecialC5, characterize
from .dispatch import ENGINES, solve
from .errors import InputError, NotApplicableError, ResourceLimitError
from .graph import Graph, check_vertex_count
from .instance import ReconfigInstance, ReconfigSequence, Rule, Solution
from .minsep import enumerate_minimal_separators
from .oracle import DEFAULT_STATE_CAP, export_reconfig_graph, solve_bfs, verify_sequence
from .separators import State, format_state
from .seriesparallel import recognize_and_decompose
from .tar_tj import tar_to_tj_instance, tj_to_tar_instance


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


# ---------------------------------------------------------------------------
# file formats


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, or a NUL in the path
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_ids(tokens: list[str], what: str) -> frozenset[int]:
    try:
        return frozenset(int(x) for x in tokens)
    except ValueError as exc:
        raise InputError(f"bad id in {what}: {tokens!r}") from exc


def _parse_graph_value(tokens: list[str], path: str) -> Graph:
    """The ``graph`` field of the instance file at ``path``: a graph file
    named relative to that file's directory, or an inline graph."""
    if not tokens:
        raise InputError("empty graph field")
    if len(tokens) == 1 and not tokens[0].isdigit():
        return Graph.from_text(_read(str(Path(path).parent / tokens[0])))
    try:
        n = check_vertex_count(int(tokens[0]))
        edges = [(int(a), int(b)) for a, _, b in (tok.partition("-") for tok in tokens[1:])]
    except ValueError as exc:
        raise InputError(f"bad inline graph: {' '.join(tokens)!r}") from exc
    return Graph(n, edges)


def _parse_keyword_file(path: str) -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    for raw in _read(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split()
        key = key.lower()
        if key in fields:
            raise InputError(f"duplicate field {key!r} in {path}")
        fields[key] = rest
    return fields


def _require(fields: dict[str, list[str]], key: str, path: str) -> list[str]:
    if key not in fields:
        raise InputError(f"missing field {key!r} in {path}")
    return fields[key]


def _scalar(tokens: list[str], what: str) -> int:
    try:
        (value,) = tokens
        return int(value)
    except ValueError as exc:
        raise InputError(f"bad {what}: {' '.join(tokens)!r}") from exc


def _load_shared(path: str) -> tuple[dict[str, list[str]], Graph, Rule, State, State]:
    """The fields of instance file ``path``, with graph, rule, source and target read."""
    fields = _parse_keyword_file(path)
    g = _parse_graph_value(_require(fields, "graph", path), path)
    rule = Rule.parse(" ".join(_require(fields, "rule", path)))
    source, target = (_parse_ids(_require(fields, key, path), key) for key in ("source", "target"))
    return fields, g, rule, source, target


def load_instance(path: str) -> ReconfigInstance:
    fields, g, rule, source, target = _load_shared(path)
    k = _scalar(fields["k"], "k value") if "k" in fields else None
    s = _scalar(_require(fields, "s", path), "terminal id")
    t = _scalar(_require(fields, "t", path), "terminal id")
    return ReconfigInstance(g, s, t, rule, source, target, k)


def load_isr_instance(path: str) -> IsrInstance:
    fields, g, rule, source, target = _load_shared(path)
    part_a = _parse_ids(_require(fields, "parta", path), "parta")
    part_b = _parse_ids(_require(fields, "partb", path), "partb")
    return IsrInstance(g, part_a, part_b, rule, source, target)


def _inline_graph(g: Graph) -> str:
    return " ".join([str(g.n)] + [f"{a}-{b}" for a, b in sorted(g.edges)])


def format_instance(inst: ReconfigInstance) -> str:
    lines = [
        f"graph {_inline_graph(inst.graph)}",
        f"s {inst.s}",
        f"t {inst.t}",
        f"rule {inst.rule.value}",
    ]
    if inst.k is not None:
        lines.append(f"k {inst.k}")
    lines.append("source " + format_state(inst.source))
    lines.append("target " + format_state(inst.target))
    return "\n".join(lines) + "\n"


def format_isr_instance(inst: IsrInstance) -> str:
    lines = [
        f"graph {_inline_graph(inst.graph)}",
        "parta " + format_state(inst.part_a),
        "partb " + format_state(inst.part_b),
        f"rule {inst.rule.value}",
        "source " + format_state(inst.source),
        "target " + format_state(inst.target),
    ]
    return "\n".join(lines) + "\n"


def _print_answer(sol: Solution, with_sequence: bool) -> None:
    print("YES" if sol.reachable else "NO")
    if with_sequence and sol.sequence is not None:
        for st in sol.sequence:
            print(format_state(st))


def _load_sequence(path: str, g: Graph) -> ReconfigSequence:
    seq: ReconfigSequence = []
    for raw in _read(path).splitlines():
        line = raw.strip()
        if line.startswith("#"):
            continue
        # a blank line is the empty state, as _print_answer writes it
        state = _parse_ids(line.split(), "sequence state")
        for v in state:
            g.check_vertex(v)
        seq.append(state)
    if not seq:
        raise InputError(f"no states in {path}")
    return seq


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args: argparse.Namespace) -> int:
    _print_answer(solve(load_instance(args.instance), args.engine), args.sequence)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    if args.verify:
        seq = _load_sequence(args.verify, inst.graph)
        check = verify_sequence(inst, seq)
        print("VALID" if check else f"INVALID: {check.reason}")
        return 0
    _print_answer(solve_bfs(inst, state_cap=args.state_cap), args.sequence)
    return 0


def _cmd_separators(args: argparse.Namespace) -> int:
    g = Graph.from_text(_read(args.graph))
    family = enumerate_minimal_separators(g, args.s, args.t)
    for sep in family.sorted_members():
        print(format_state(sep))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    if args.to == "tar":
        if inst.rule is not Rule.TJ:
            raise InputError("convert --to tar expects a TJ instance")
        out = tj_to_tar_instance(inst)
    else:
        if inst.rule is not Rule.TAR:
            raise InputError("convert --to tj expects a TAR instance")
        out = tar_to_tj_instance(inst).tj_instance
    print(format_instance(out), end="")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.direction == "isr-to-vsr":
        print(format_instance(isr_to_vsr(load_isr_instance(args.instance))), end="")
    else:
        print(format_isr_instance(vsr_to_isr(load_instance(args.instance))), end="")
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    g = Graph.from_text(_read(args.graph))
    if args.family == "peanut":
        w = is_peanut_like(g)
        if w is None:
            print("not-peanut")
        else:
            print(f"peanut u={w.u} v={w.v}")
            print("side-a " + format_state(w.side_a))
            print("side-b " + format_state(w.side_b))
        return 0
    ch = characterize(g)
    if isinstance(ch, (CutVertexCliques, MatchedCliques)):
        print(f"cut-vertex-cliques w={ch.w}" if isinstance(ch, CutVertexCliques) else "matched-cliques")
        print("q1 " + format_state(ch.q1))
        print("q2 " + format_state(ch.q2))
        if isinstance(ch, MatchedCliques):
            print("matching " + " ".join(f"{a}-{b}" for a, b in sorted(ch.matching)))
    elif isinstance(ch, SpecialC5):
        print("five-cycle " + " ".join(map(str, ch.order)))
    else:
        print(f"not-in-scope: {ch.reason}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = Graph.from_text(_read(args.graph))
    try:
        decomp = recognize_and_decompose(g)
    except NotApplicableError as exc:
        print(f"not-series-parallel: {exc}")
        return 0
    for tree in decomp.trees:
        print(tree.to_term())
    for pair in sorted(decomp.k2_blocks, key=sorted):
        a, b = sorted(pair)
        print(f"{a}-{b}")
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    rg = export_reconfig_graph(inst, state_cap=args.state_cap)
    text = rg.to_dot()
    if args.output:
        try:
            Path(args.output).write_text(text)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="vsreconf", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp_solve = sub.add_parser("solve", help="answer an instance (auto-dispatch)")
    sp_solve.add_argument("instance")
    sp_solve.add_argument("--sequence", action="store_true")
    sp_solve.add_argument(
        "--engine", choices=ENGINES, default="auto",
        help="solver to use (default: auto); class answers TS NO by a token"
        " count that holds on any graph, and needs the class for the rest",
    )
    sp_solve.set_defaults(func=_cmd_solve)

    sp_oracle = sub.add_parser("oracle", help="exhaustive search / verification")
    sp_oracle.add_argument("instance")
    sp_oracle.add_argument("--sequence", action="store_true")
    sp_oracle.add_argument("--verify", metavar="SEQFILE")
    sp_oracle.add_argument("--state-cap", type=_positive_int, default=DEFAULT_STATE_CAP)
    sp_oracle.set_defaults(func=_cmd_oracle)

    sp_seps = sub.add_parser("separators", help="enumerate minimal separators")
    sp_seps.add_argument("graph")
    sp_seps.add_argument("s", type=int)
    sp_seps.add_argument("t", type=int)
    sp_seps.set_defaults(func=_cmd_separators)

    sp_conv = sub.add_parser("convert", help="rewrite TJ<->TAR instances")
    sp_conv.add_argument("instance")
    sp_conv.add_argument("--to", choices=["tar", "tj"], required=True)
    sp_conv.set_defaults(func=_cmd_convert)

    sp_red = sub.add_parser("reduce", help="translate ISR<->VSR instances")
    sp_red.add_argument("direction", choices=["isr-to-vsr", "vsr-to-isr"])
    sp_red.add_argument("instance")
    sp_red.set_defaults(func=_cmd_reduce)

    sp_rec = sub.add_parser("recognize", help="graph-class recognition")
    sp_rec.add_argument("graph")
    sp_rec.add_argument(
        "--family", choices=["3p1-diamond", "peanut"], default="3p1-diamond"
    )
    sp_rec.set_defaults(func=_cmd_recognize)

    sp_dec = sub.add_parser("decompose", help="series-parallel construction terms")
    sp_dec.add_argument("graph")
    sp_dec.set_defaults(func=_cmd_decompose)

    sp_dot = sub.add_parser("export-dot", help="reconfiguration graph as DOT")
    sp_dot.add_argument("instance")
    sp_dot.add_argument("-o", "--output")
    sp_dot.add_argument("--state-cap", type=_positive_int, default=100_000)
    sp_dot.set_defaults(func=_cmd_export_dot)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print("UNKNOWN(resource)")
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (InputError, NotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
