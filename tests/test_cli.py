import argparse
import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vsreconf.cli import build_parser, format_instance, load_instance, main
from vsreconf.graph import MAX_VERTICES, Graph, complete_graph, cycle_graph, path_graph
from vsreconf.instance import Rule
from vsreconf.oracle import DEFAULT_STATE_CAP, solve_bfs

from fixtures import FIG1_S, FIG1_SA, FIG1_SB, FIG1_T, figure1_graph, ladder_edges


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_instance(tmp_path, name, g, s, t, rule, source, target, k=None):
    lines = [
        "graph " + " ".join([str(g.n)] + [f"{a}-{b}" for a, b in sorted(g.edges)]),
        f"s {s}",
        f"t {t}",
        f"rule {rule}",
    ]
    if k is not None:
        lines.append(f"k {k}")
    lines.append("source " + " ".join(map(str, sorted(source))))
    lines.append("target " + " ".join(map(str, sorted(target))))
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def write_graph(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(g.to_text())
    return str(p)


def fig1_instance(tmp_path, rule, k=None):
    return write_instance(
        tmp_path, f"fig1-{rule}.inst", figure1_graph(),
        FIG1_S, FIG1_T, rule, FIG1_SA, FIG1_SB, k,
    )


class TestSolve:
    def test_fig1_ts_no(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", fig1_instance(tmp_path, "TS"))
        assert code == 0 and out.splitlines()[0] == "NO"

    def test_fig1_tj_yes_sequence_verifies(self, capsys, tmp_path):
        inst = fig1_instance(tmp_path, "TJ")
        code, out, _ = run(capsys, "solve", inst, "--sequence")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "YES"
        assert len(lines) > 1
        seqfile = tmp_path / "seq.txt"
        seqfile.write_text("\n".join(lines[1:]) + "\n")
        code, out, _ = run(capsys, "oracle", inst, "--verify", str(seqfile))
        assert code == 0 and out.strip() == "VALID"

    def test_c5_tar_three_states(self, capsys, tmp_path):
        inst = write_instance(
            tmp_path, "c5.inst", cycle_graph(5), 0, 2, "TAR",
            {1, 3}, {1, 4}, k=3,
        )
        code, out, _ = run(capsys, "solve", inst, "--sequence")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "YES"
        assert lines[1:] == ["1 3", "1 3 4", "1 4"]

    def test_disconnected_tj_yes(self, capsys, tmp_path):
        # the paths 0-1-2 and 3-4-5: every state separates s = 0 from t = 5
        inst = write_instance(
            tmp_path, "two.inst", Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), 0, 5, "TJ", {1}, {2},
        )
        code, out, _ = run(capsys, "solve", inst, "--sequence")
        assert code == 0 and out.splitlines() == ["YES", "1", "2"]

    def test_adjacent_terminals_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.inst"
        p.write_text(
            "graph 3 0-1 1-2\ns 0\nt 1\nrule TJ\nsource 2\ntarget 2\n"
        )
        code, _, err = run(capsys, "solve", str(p))
        assert code == 2 and "error:" in err

    def test_missing_field_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.inst"
        p.write_text("graph 3 0-1 1-2\ns 0\nt 2\nrule TJ\nsource 1\n")
        code, _, err = run(capsys, "solve", str(p))
        assert code == 2 and "target" in err

    def test_usage_error_exit_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_engine_override_oracle(self, capsys, tmp_path):
        inst = fig1_instance(tmp_path, "TJ")
        code, out, _ = run(capsys, "solve", inst, "--engine", "oracle")
        assert code == 0 and out.splitlines()[0] == "YES"

    def test_engine_sp(self, capsys, tmp_path):
        inst = write_instance(
            tmp_path, "c4.inst", cycle_graph(4), 1, 3, "TJ", {0, 2}, {0, 2}
        )
        code, out, _ = run(capsys, "solve", inst, "--engine", "sp", "--sequence")
        assert code == 0 and out.splitlines() == ["YES", "0 2"]

    def test_engine_sp_tar_sequence_verifies(self, capsys, tmp_path):
        inst = write_instance(
            tmp_path, "c6.inst", cycle_graph(6), 0, 3, "TAR", {1, 5}, {2, 4}, k=3
        )
        code, out, _ = run(capsys, "solve", inst, "--engine", "sp", "--sequence")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "YES"
        seqfile = tmp_path / "seq.txt"
        seqfile.write_text("\n".join(lines[1:]) + "\n")
        code, out, _ = run(capsys, "oracle", inst, "--verify", str(seqfile))
        assert code == 0 and out.strip() == "VALID"

    def test_engine_class_on_fig1_refused(self, capsys, tmp_path):
        inst = fig1_instance(tmp_path, "TJ")
        code, _, err = run(capsys, "solve", inst, "--engine", "class")
        assert code == 2 and "error:" in err

    def test_tame_tj_sequence_verifies(self, capsys, tmp_path):
        inst = fig1_instance(tmp_path, "TJ")
        code, out, _ = run(capsys, "solve", inst, "--engine", "tame", "--sequence")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "YES"
        seqfile = tmp_path / "seq.txt"
        seqfile.write_text("\n".join(lines[1:]) + "\n")
        code, out, _ = run(capsys, "oracle", inst, "--verify", str(seqfile))
        assert out.strip() == "VALID"


class TestOracle:
    def test_state_cap_unknown_exit_3(self, capsys, tmp_path):
        inst = fig1_instance(tmp_path, "TJ")
        code, out, _ = run(capsys, "oracle", inst, "--state-cap", "1")
        assert code == 3
        assert out.splitlines()[0] == "UNKNOWN(resource)"

    def test_default_state_cap_is_the_library_default(self):
        args = build_parser().parse_args(["oracle", "x.inst"])
        assert args.state_cap == DEFAULT_STATE_CAP

    @pytest.mark.parametrize("command", ["oracle", "export-dot"])
    @pytest.mark.parametrize("cap", ["0", "-1", "ten"])
    def test_state_cap_not_positive_exit_1(self, capsys, tmp_path, command, cap):
        inst = fig1_instance(tmp_path, "TJ")
        code, out, err = run(capsys, command, inst, "--state-cap", cap)
        assert code == 1 and out == ""
        assert "usage error" in err and "positive integer" in err

    def test_fig1_tj_yes_shortest_sequence_verifies(self, capsys, tmp_path):
        inst = fig1_instance(tmp_path, "TJ")
        code, out, _ = run(capsys, "oracle", inst, "--sequence")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "YES"
        assert len(lines) - 1 == solve_bfs(load_instance(inst)).distance + 1
        seqfile = tmp_path / "seq.txt"
        seqfile.write_text("\n".join(lines[1:]) + "\n")
        code, out, _ = run(capsys, "oracle", inst, "--verify", str(seqfile))
        assert code == 0 and out.strip() == "VALID"

    def test_fig1_ts_no(self, capsys, tmp_path):
        code, out, _ = run(capsys, "oracle", fig1_instance(tmp_path, "TS"))
        assert code == 0 and out.splitlines() == ["NO"]

    def test_verify_rejects_gap(self, capsys, tmp_path):
        inst = fig1_instance(tmp_path, "TJ")
        seqfile = tmp_path / "seq.txt"
        seqfile.write_text("1 2\n7 8\n")
        code, out, _ = run(capsys, "oracle", inst, "--verify", str(seqfile))
        assert code == 0 and out.startswith("INVALID")

    @pytest.mark.parametrize(
        "rule, source, target, k, want",
        [
            # disconnected terminals: every state separates, so the TAR
            # walk passes through the empty state
            ("TAR", {1}, {2}, 1, ["1", "", "2"]),
            ("TJ", set(), set(), None, [""]),
        ],
    )
    def test_verify_accepts_printed_empty_states(
        self, capsys, tmp_path, rule, source, target, k, want
    ):
        g = Graph(4, [(0, 1), (2, 3)])
        inst = write_instance(tmp_path, "apart.inst", g, 0, 3, rule, source, target, k)
        code, out, _ = run(capsys, "solve", inst, "--sequence")
        lines = out.splitlines()
        assert code == 0 and lines == ["YES", *want]
        seqfile = tmp_path / "seq.txt"
        seqfile.write_text(out.split("\n", 1)[1])  # verbatim, after YES
        code, out, _ = run(capsys, "oracle", inst, "--verify", str(seqfile))
        assert code == 0 and out.strip() == "VALID"

    def test_verify_comment_lines_are_not_states(self, capsys, tmp_path):
        inst = write_instance(tmp_path, "p4.inst", path_graph(4), 0, 3, "TJ", {1}, {2})
        seqfile = tmp_path / "seq.txt"
        seqfile.write_text("# walk\n1\n# jump\n2\n")
        code, out, _ = run(capsys, "oracle", inst, "--verify", str(seqfile))
        assert code == 0 and out.strip() == "VALID"

    @pytest.mark.parametrize("states", ["1\n9\n2\n", "1\n9\n"])
    def test_verify_out_of_range_id_exit_2(self, capsys, tmp_path, states):
        # an unknown id is bad input wherever it sits in the file, not a
        # failed check of the walk
        inst = write_instance(tmp_path, "p4.inst", path_graph(4), 0, 3, "TJ", {1}, {2})
        seqfile = tmp_path / "seq.txt"
        seqfile.write_text(states)
        code, out, err = run(capsys, "oracle", inst, "--verify", str(seqfile))
        assert code == 2 and out == ""
        assert err.strip() == "error: vertex id 9 outside [0,4)"

    def test_verify_file_without_states_exit_2(self, capsys, tmp_path):
        inst = write_instance(tmp_path, "p4.inst", path_graph(4), 0, 3, "TJ", {1}, {2})
        seqfile = tmp_path / "seq.txt"
        seqfile.write_text("# nothing here\n")
        code, out, err = run(capsys, "oracle", inst, "--verify", str(seqfile))
        assert code == 2 and out == "" and err == f"error: no states in {seqfile}\n"


class TestSeparators:
    def test_c4(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "c4.graph", cycle_graph(4))
        code, out, _ = run(capsys, "separators", gfile, "1", "3")
        assert code == 0 and out.splitlines() == ["0 2"]

    def test_p4(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "p4.graph", path_graph(4))
        code, out, _ = run(capsys, "separators", gfile, "0", "3")
        assert code == 0 and sorted(out.splitlines()) == ["1", "2"]

    def test_disconnected_prints_the_empty_separator(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "two.graph", Graph(4, [(0, 1), (2, 3)]))
        code, out, _ = run(capsys, "separators", gfile, "0", "3")
        assert code == 0 and out == "\n"

    def test_adjacent_terminals_exit_2(self, capsys, tmp_path):
        # the message solve prints for the same pair
        gfile = write_graph(tmp_path, "c6.graph", cycle_graph(6))
        code, out, err = run(capsys, "separators", gfile, "0", "1")
        assert code == 2 and out == ""
        assert err == "error: terminals are adjacent: no separator exists\n"


class TestConvert:
    def test_tj_to_tar(self, capsys, tmp_path):
        inst = fig1_instance(tmp_path, "TJ")
        code, out, _ = run(capsys, "convert", inst, "--to", "tar")
        assert code == 0
        p = tmp_path / "conv.inst"
        p.write_text(out)
        conv = load_instance(str(p))
        assert conv.rule is Rule.TAR and conv.k == 3
        assert conv.source == FIG1_SA and conv.target == FIG1_SB

    def test_tar_to_tj(self, capsys, tmp_path):
        inst = write_instance(
            tmp_path, "c5.inst", cycle_graph(5), 0, 2, "TAR",
            {1, 3}, {1, 4}, k=3,
        )
        code, out, _ = run(capsys, "convert", inst, "--to", "tj")
        assert code == 0
        p = tmp_path / "conv.inst"
        p.write_text(out)
        conv = load_instance(str(p))
        assert conv.rule is Rule.TJ
        assert len(conv.source) == len(conv.target) == 2

    def test_tar_bound_above_n_to_tj(self, capsys, tmp_path):
        # k - 1 exceeds the n - 2 non-terminals; `solve` answers YES, so
        # the conversion uses the equivalent bound n - 1 instead
        inst = write_instance(
            tmp_path, "c6.inst", cycle_graph(6), 0, 3, "TAR", {1, 5}, {2, 4}, k=10
        )
        code, out, _ = run(capsys, "convert", inst, "--to", "tj")
        assert code == 0
        p = tmp_path / "conv.inst"
        p.write_text(out)
        conv = load_instance(str(p))
        assert conv.rule is Rule.TJ and len(conv.source) == 4
        code, out, _ = run(capsys, "solve", inst)
        assert code == 0 and out.splitlines()[0] == "YES"

    def test_wrong_direction_exit_2(self, capsys, tmp_path):
        inst = fig1_instance(tmp_path, "TJ")
        code, _, err = run(capsys, "convert", inst, "--to", "tj")
        assert code == 2 and "error:" in err

    def test_tar_to_tar_exit_2(self, capsys, tmp_path):
        inst = write_instance(
            tmp_path, "c5.inst", cycle_graph(5), 0, 2, "TAR", {1, 3}, {1, 4}, k=3,
        )
        code, out, err = run(capsys, "convert", inst, "--to", "tar")
        assert code == 2 and out == ""
        assert err == "error: convert --to tar expects a TJ instance\n"

    def test_convert_preserves_answer(self, capsys, tmp_path):
        inst = fig1_instance(tmp_path, "TJ")
        code, out, _ = run(capsys, "convert", inst, "--to", "tar")
        p = tmp_path / "conv.inst"
        p.write_text(out)
        code1, out1, _ = run(capsys, "solve", str(p))
        code2, out2, _ = run(capsys, "solve", inst)
        assert out1.splitlines()[0] == out2.splitlines()[0] == "YES"


class TestReduce:
    def test_isr_round_trip(self, capsys, tmp_path):
        p = tmp_path / "isr.inst"
        p.write_text(
            "graph 3 0-1 1-2\nparta 0 2\npartb 1\nrule TJ\nsource 0\ntarget 2\n"
        )
        code, out, _ = run(capsys, "reduce", "isr-to-vsr", str(p))
        assert code == 0
        lines = dict(
            (l.split()[0], l.split()[1:]) for l in out.splitlines()
        )
        assert lines["s"] == ["3"] and lines["t"] == ["4"]
        assert lines["source"] == ["1", "2"] and lines["target"] == ["0", "1"]
        q = tmp_path / "vsr.inst"
        q.write_text(out)
        code, back, _ = run(capsys, "reduce", "vsr-to-isr", str(q))
        assert code == 0
        fields = dict((l.split()[0], l.split()[1:]) for l in back.splitlines())
        assert fields["source"] == ["0"] and fields["target"] == ["2"]

    @pytest.mark.parametrize("fields, message", [
        ("parta 0\npartb 1\nrule TJ\nsource 0\ntarget 2\n",
         "parts must partition the vertex set"),
        ("parta 0 2\npartb 1\nrule TAR\nsource 0\ntarget 2\n",
         "ISR translation covers TS and TJ only"),
        ("parta 0 2\npartb 1\nrule TJ\nsource 0 2\ntarget 2\n",
         "source and target must have equal size"),
    ])
    def test_isr_instance_refused_exit_2(self, capsys, tmp_path, fields, message):
        p = tmp_path / "isr.inst"
        p.write_text("graph 3 0-1 1-2\n" + fields)
        code, out, err = run(capsys, "reduce", "isr-to-vsr", str(p))
        assert code == 2 and out == "" and message in err

    def test_non_peanut_exit_2(self, capsys, tmp_path):
        inst = write_instance(
            tmp_path, "c4.inst", cycle_graph(4), 1, 3, "TJ", {0, 2}, {0, 2}
        )
        code, _, err = run(capsys, "reduce", "vsr-to-isr", inst)
        assert code == 2 and "peanut" in err

    def test_terminals_are_the_foci(self, capsys, tmp_path):
        # C6 has foci pairs (0, 3), (1, 4) and (2, 5); the states hold 0,
        # 2, 3 and 5 but never the terminals 1 and 4, and s = 1 is joined
        # to part A as in isr-to-vsr
        inst = write_instance(
            tmp_path, "c6.inst", cycle_graph(6), 1, 4, "TJ", {0, 2}, {3, 5}
        )
        code, out, _ = run(capsys, "reduce", "vsr-to-isr", inst)
        assert code == 0
        assert out.splitlines() == [
            "graph 4 0-3 1-2",
            "parta 0 1",
            "partb 2 3",
            "rule TJ",
            "source 2 3",
            "target 0 1",
        ]

    def test_terminals_not_foci_exit_2(self, capsys, tmp_path):
        # C6 is peanut-like, but 0 and 2 are not a foci pair
        inst = write_instance(
            tmp_path, "c6.inst", cycle_graph(6), 0, 2, "TJ", {1, 4}, {1, 5}
        )
        code, out, err = run(capsys, "reduce", "vsr-to-isr", inst)
        assert code == 2 and out == "" and "peanut" in err


class TestRecognize:
    def test_bowtie(self, capsys, tmp_path):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        gfile = write_graph(tmp_path, "bowtie.graph", g)
        code, out, _ = run(capsys, "recognize", gfile)
        lines = out.splitlines()
        assert code == 0 and lines[0] == "cut-vertex-cliques w=2"
        assert lines[1] == "q1 0 1 2" and lines[2] == "q2 2 3 4"

    def test_prism_matched_cliques(self, capsys, tmp_path):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
        gfile = write_graph(tmp_path, "prism.graph", g)
        code, out, _ = run(capsys, "recognize", gfile)
        assert code == 0
        assert out.splitlines() == ["matched-cliques", "q1 0 1 2", "q2 3 4 5", "matching 0-3 1-4 2-5"]

    def test_c5(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "c5.graph", cycle_graph(5))
        code, out, _ = run(capsys, "recognize", gfile)
        assert code == 0 and out.startswith("five-cycle")

    def test_out_of_scope(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "c6.graph", cycle_graph(6))
        code, out, _ = run(capsys, "recognize", gfile)
        assert code == 0 and out.startswith("not-in-scope")

    def test_sparse_disconnected_refused_by_edge_count(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "apart.graph", Graph(6, [(0, 1), (2, 3)]))
        code, out, _ = run(capsys, "recognize", gfile)
        assert code == 0
        assert out == "not-in-scope: not two overlapping cliques or a five-cycle\n"

    def test_peanut_p4(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "p4.graph", path_graph(4))
        code, out, _ = run(capsys, "recognize", gfile, "--family", "peanut")
        assert code == 0 and out.splitlines()[0] == "peanut u=0 v=3"

    def test_not_peanut(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "c4.graph", cycle_graph(4))
        code, out, _ = run(capsys, "recognize", gfile, "--family", "peanut")
        assert code == 0 and out.strip() == "not-peanut"


class TestDecompose:
    def test_triangle(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "k3.graph", complete_graph(3))
        code, out, _ = run(capsys, "decompose", gfile)
        assert code == 0
        assert out.strip() == "(P 0-1 0-1 (S@2 0-1 0-2 1-2))"

    def test_k4_not_sp(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "k4.graph", complete_graph(4))
        code, out, _ = run(capsys, "decompose", gfile)
        assert code == 0 and out.startswith("not-series-parallel")

    def test_disconnected_and_bowtie(self, capsys, tmp_path):
        triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        code, out, _ = run(capsys, "decompose", write_graph(tmp_path, "two.graph", triangles))
        assert code == 0
        assert out == "not-series-parallel: decomposition expects a connected graph\n"
        bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        code, out, _ = run(capsys, "decompose", write_graph(tmp_path, "bowtie.graph", bowtie))
        assert code == 0 and out.splitlines() == [
            "(P 0-1 0-1 (S@2 0-1 0-2 1-2))", "(P 2-3 2-3 (S@4 2-3 2-4 3-4))",
        ]

    def test_path_bridges(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, "p3.graph", path_graph(3))
        code, out, _ = run(capsys, "decompose", gfile)
        assert code == 0 and out.splitlines() == ["0-1", "1-2"]

    def test_deep_construction_tree(self, capsys, tmp_path):
        # the 2 x 1000 ladder's tree is about a thousand levels deep
        gfile = write_graph(tmp_path, "ladder.graph", Graph(2000, ladder_edges(1000)))
        code, out, _ = run(capsys, "decompose", gfile)
        assert code == 0
        (term,) = out.splitlines()
        assert term.startswith("(P ") and term.count("(") == term.count(")") == 2997


class TestExportDot:
    def test_stdout(self, capsys, tmp_path):
        inst = write_instance(
            tmp_path, "c4.inst", cycle_graph(4), 1, 3, "TJ", {0, 2}, {0, 2}
        )
        code, out, _ = run(capsys, "export-dot", inst)
        assert code == 0 and out.startswith("graph ")

    def test_file_output(self, capsys, tmp_path):
        inst = write_instance(
            tmp_path, "c5.inst", cycle_graph(5), 0, 2, "TAR",
            {1, 3}, {1, 4}, k=3,
        )
        outfile = tmp_path / "rg.dot"
        code, out, _ = run(capsys, "export-dot", inst, "-o", str(outfile))
        assert code == 0 and out == ""
        assert outfile.read_text().startswith("graph ")

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        inst = write_instance(
            tmp_path, "c4.inst", cycle_graph(4), 1, 3, "TJ", {0, 2}, {0, 2}
        )
        outfile = tmp_path / "missing-dir" / "rg.dot"
        code, out, err = run(capsys, "export-dot", inst, "-o", str(outfile))
        assert code == 2 and out == "" and "cannot write" in err

    def test_state_cap(self, capsys, tmp_path):
        # the TAR(3) reconfiguration graph of C6 from {1, 5} to {2, 4} has
        # 8 states: a cap of 7 stops short, a cap of 8 prints them all
        inst = write_instance(
            tmp_path, "c6.inst", cycle_graph(6), 0, 3, "TAR", {1, 5}, {2, 4}, k=3
        )
        code, out, err = run(capsys, "export-dot", inst, "--state-cap", "7")
        assert code == 3 and out.splitlines() == ["UNKNOWN(resource)"]
        assert "state cap 7 exceeded" in err
        code, out, _ = run(capsys, "export-dot", inst, "--state-cap", "8")
        assert code == 0
        assert len(re.findall(r"^  s\d+ \[label=", out, re.M)) == 8


class TestInstanceFiles:
    def test_graph_path_reference(self, capsys, tmp_path):
        write_graph(tmp_path, "g.graph", cycle_graph(4))
        p = tmp_path / "ref.inst"
        p.write_text("graph g.graph\ns 1\nt 3\nrule TJ\nsource 0 2\ntarget 0 2\n")
        inst = load_instance(str(p))
        assert inst.graph == cycle_graph(4)

    def test_comment_and_blank_lines_between_fields(self, capsys, tmp_path):
        p = tmp_path / "c6.inst"
        p.write_text(
            "# a six-cycle\ngraph 6 0-1 1-2 2-3 3-4 4-5 5-0\n\ns 0\n  # terminals\nt 3\n"
            "\nrule TJ\nsource 1 5\n\n# endpoints\ntarget 2 4\n"
        )
        code, out, _ = run(capsys, "solve", str(p), "--sequence")
        assert code == 0 and out.splitlines() == ["YES", "1 5", "1 4", "2 4"]

    def test_graph_path_resolves_against_the_instance_directory(
        self, capsys, tmp_path, monkeypatch
    ):
        # a same-named graph in the working directory is not the one read
        (tmp_path / "sub").mkdir()
        write_graph(tmp_path, "g.graph", cycle_graph(5))
        write_graph(tmp_path / "sub", "g.graph", cycle_graph(4))
        (tmp_path / "sub" / "ref.inst").write_text(
            "graph g.graph\ns 1\nt 3\nrule TJ\nsource 0 2\ntarget 0 2\n"
        )
        monkeypatch.chdir(tmp_path)
        assert load_instance("sub/ref.inst").graph == cycle_graph(4)
        (tmp_path / "sub" / "g.graph").unlink()
        code, out, err = run(capsys, "solve", "sub/ref.inst")
        assert code == 2 and out == "" and err.startswith("error: cannot read sub/g.graph:")

    @pytest.mark.parametrize("token", ["1-2-3", "3", "-1-2", "a-b"])
    def test_bad_inline_edge_exit_2(self, capsys, tmp_path, token):
        p = tmp_path / "bad.inst"
        p.write_text(f"graph 4 0-1 {token} 2-3\ns 0\nt 3\nrule TJ\nsource 1\ntarget 1\n")
        code, out, err = run(capsys, "solve", str(p))
        assert code == 2 and out == ""
        assert err == f"error: bad inline graph: '4 0-1 {token} 2-3'\n"

    def test_format_round_trip(self, tmp_path):
        inst = load_instance(
            write_instance(
                tmp_path, "c5.inst", cycle_graph(5), 0, 2, "TAR",
                {1, 3}, {1, 4}, k=3,
            )
        )
        p = tmp_path / "again.inst"
        p.write_text(format_instance(inst))
        assert load_instance(str(p)) == inst

    def test_empty_graph_field_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.inst"
        p.write_text("graph\ns 0\nt 2\nrule TJ\nsource 1\ntarget 1\n")
        code, _, err = run(capsys, "solve", str(p))
        assert code == 2 and "empty graph field" in err

    def test_duplicate_field_any_case_exit_2(self, capsys, tmp_path):
        p = tmp_path / "dup.inst"
        p.write_text(
            "graph 3 0-1 1-2\ns 0\nt 2\nrule TJ\nRULE TAR\nk 1\n"
            "source 1\ntarget 1\n"
        )
        code, out, err = run(capsys, "solve", str(p))
        assert code == 2 and out == "" and "duplicate field 'rule'" in err

    @pytest.mark.parametrize("graph", ["inline", "file"])
    def test_vertex_count_over_limit_exit_2(self, capsys, tmp_path, graph):
        n = MAX_VERTICES + 1
        (tmp_path / "big.graph").write_text(f"{n} 1\n0 1\n")
        value = f"{n} 0-1 1-2" if graph == "inline" else "big.graph"
        p = tmp_path / "big.inst"
        p.write_text(f"graph {value}\ns 0\nt 2\nrule TJ\nsource 1\ntarget 1\n")
        code, out, err = run(capsys, "solve", str(p))
        assert code == 2 and out == ""
        assert f"vertex count {n} exceeds the limit of {MAX_VERTICES}" in err

    def test_unreadable_graph_exit_2(self, capsys, tmp_path):
        p = tmp_path / "ref.inst"
        p.write_text("graph nope.graph\ns 0\nt 1\nrule TJ\nsource 2\ntarget 2\n")
        code, _, err = run(capsys, "solve", str(p))
        assert code == 2 and "cannot read" in err

    @pytest.mark.parametrize("bad", ["instance", "graph", "sequence"])
    def test_non_utf8_file_exit_2(self, capsys, tmp_path, bad):
        paths = {k: tmp_path / f"c4.{k}" for k in ("instance", "graph", "sequence")}
        paths["instance"].write_text(
            "graph c4.graph\ns 0\nt 2\nrule TJ\nsource 1 3\ntarget 1 3\n"
        )
        paths["graph"].write_text(cycle_graph(4).to_text())
        paths["sequence"].write_text("1 3\n")
        paths[bad].write_bytes(b"\xff\xfe bad")
        code, out, err = run(
            capsys, "oracle", str(paths["instance"]), "--verify", str(paths["sequence"])
        )
        assert code == 2 and out == "" and err.startswith("error: cannot read")

    @pytest.mark.parametrize("field, value", [("s", "0 1"), ("t", "2 4"), ("k", "2 9")])
    def test_scalar_field_takes_one_token_exit_2(self, capsys, tmp_path, field, value):
        lines = {"s": "0", "t": "2", "k": "2"}
        lines[field] = value
        p = tmp_path / "scalar.inst"
        p.write_text(
            f"graph 4 0-1 1-2 2-3 3-0\ns {lines['s']}\nt {lines['t']}\nrule TAR\n"
            f"k {lines['k']}\nsource 1 3\ntarget 1 3\n"
        )
        code, out, err = run(capsys, "solve", str(p))
        assert code == 2 and out == "" and "error: bad" in err


class TestRefusals:
    """Every boundary refusal exits 2 through ``solve`` with its message."""

    @pytest.mark.parametrize("fields, message", [
        ({"rule": "XY"}, "unknown rule 'XY'"),
        ({"t": "0"}, "terminals must be distinct"),
        ({"rule": "TAR"}, "TAR requires a positive bound k"),
        ({"rule": "TAR", "k": "0"}, "TAR requires a positive bound k"),
        ({"rule": "TAR", "k": "1"}, "endpoint state exceeds the TAR bound"),
        ({"k": "2"}, "TJ takes no bound k"),
        ({"rule": "TS", "k": "2"}, "TS takes no bound k"),
        ({"target": "1 2 5"}, "TJ needs equal-size endpoint states"),
        ({"t": "1"}, "terminals are adjacent: no separator exists"),
        ({"source": "1 x"}, "bad id in source: ['1', 'x']"),
    ])
    def test_instance(self, capsys, tmp_path, fields, message):
        lines = {"graph": "6 0-1 1-2 2-3 3-4 4-5 5-0", "s": "0", "t": "3", "rule": "TJ",
                 "source": "1 5", "target": "2 4"}
        lines.update(fields)
        p = tmp_path / "bad.inst"
        p.write_text("".join(f"{key} {value}\n" for key, value in lines.items()))
        code, out, err = run(capsys, "solve", str(p))
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("# nothing\n", "empty graph description"),
        ("4\n", "expected 'n m' header, got '4'"),
        ("four 1\n0 1\n", "bad header 'four 1'"),
        ("4 2\n0 1\n", "header promises 2 edges, found 1"),
        ("4 1\n0 1 2\n", "bad edge line '0 1 2'"),
        ("4 1\n0 x\n", "bad edge line '0 x'"),
    ])
    def test_graph_file(self, capsys, tmp_path, text, message):
        (tmp_path / "bad.graph").write_text(text)
        p = tmp_path / "bad.inst"
        p.write_text("graph bad.graph\ns 0\nt 2\nrule TJ\nsource 1\ntarget 1\n")
        code, out, err = run(capsys, "solve", str(p))
        assert code == 2 and out == "" and err == f"error: {message}\n"


def test_readme_cli_table_lists_every_subcommand():
    # the first word of each row of the README's subcommand table
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)", section, flags=re.M)
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(rows) == sorted(sub.choices)


def test_parser_is_built_once(capsys, tmp_path):
    assert build_parser() is build_parser()
    # a usage error leaves the shared parser fit for the next call
    assert run(capsys, "solve")[0] == 1
    code, out, _ = run(capsys, "solve", fig1_instance(tmp_path, "TS"))
    assert code == 0 and out.splitlines()[0] == "NO"


# the six-cycle instance whose fields and tokens the contract test mutates,
# and the tokens it puts in: bad ids, huge and signed numbers, broken edges,
# a self-loop, a non-ASCII digit, a rule and a key in a value's place
C6_LINES = (("graph", "6", "0-1", "1-2", "2-3", "3-4", "4-5", "5-0"), ("s", "0"), ("t", "3"),
            ("rule", "TJ"), ("source", "1", "5"), ("target", "2", "4"))
POOL = ("-1", "x", "99999999999999999999", "1-", "0-0", "\u00b2", "100001", "TAR", "k", "#")
TOKENS = st.sampled_from(POOL + tuple("0123456"))


@st.composite
def mutated_instances(draw):
    lines = [list(line) for line in C6_LINES]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        j = draw(st.integers(0, max(len(line) - 1, 0)))
        op = draw(st.sampled_from(["drop-line", "dup-line", "drop", "dup", "replace", "add"]))
        if op == "drop-line" and len(lines) > 1:
            del lines[i]
        elif op == "dup-line":
            lines.insert(i, list(line))
        elif op == "drop" and line:
            del line[j]
        elif op == "dup" and line:
            line.insert(j, line[j])
        elif op == "replace" and line:
            line[j] = draw(TOKENS)
        else:
            line.insert(j, draw(TOKENS))
    return "".join(" ".join(line) + "\n" for line in lines)


@st.composite
def graph_files(draw):
    n = draw(st.integers(2, 8))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=14))
    lines = [f"{n} {len(edges)}"] + [f"{a} {b}" for a, b in edges]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = " ".join(draw(st.lists(TOKENS, max_size=3)))
    return "\n".join(lines) + "\n"


sequence_files = st.lists(st.lists(TOKENS, max_size=3).map(" ".join), max_size=5).map(
    lambda lines: "".join(line + "\n" for line in lines)
)


@given(mutated_instances(), graph_files(), sequence_files, TOKENS, TOKENS)
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
def test_exit_code_contract(tmp_path_factory, instance, graph, sequence, s, t):
    # any file answers 0, 1, 2 or 3 and never escapes as an exception,
    # a broken contract (ContractViolationError) included
    folder = tmp_path_factory.mktemp("fuzz")
    files = {"inst": instance, "graph": graph, "seq": sequence}
    for name, text in files.items():
        (folder / name).write_text(text)
    inst, gfile = str(folder / "inst"), str(folder / "graph")
    for argv in (
        ["solve", inst, "--sequence"], ["oracle", inst, "--sequence"],
        ["oracle", inst, "--verify", str(folder / "seq")],
        ["convert", inst, "--to", "tar"], ["convert", inst, "--to", "tj"],
        ["reduce", "vsr-to-isr", inst], ["reduce", "isr-to-vsr", inst], ["export-dot", inst],
        ["separators", gfile, s, t], ["recognize", gfile],
        ["recognize", gfile, "--family", "peanut"], ["decompose", gfile],
    ):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, files)
