from __future__ import annotations

import json

import pytest

from cfpq.cli import load_builtin_grammar, main
from conftest import M_TSV

# one instance with two types: c1 and c2 sit on the same layer
Q1_NT = "<i> <type> <c1> .\n<i> <type> <c2> .\n"


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(M_TSV + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def grammar_file(tmp_path):
    path = tmp_path / "g1.cfg"
    path.write_text("S -> a S b\nS -> Middle\nMiddle -> a b\n", encoding="utf-8")
    return str(path)


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestBuiltinGrammars:
    @pytest.mark.parametrize(
        "name,productions,start",
        [("g0", 3, "S"), ("g1", 3, "S"), ("g2", 2, "S"), ("q1", 4, "S"), ("q2", 3, "S")],
    )
    def test_aliases_load(self, name, productions, start):
        g = load_builtin_grammar(name)
        assert len(g.productions) == productions
        assert g.start == start


class TestQuery:
    def test_motivating_query_writes_triples(self, tmp_path, graph_file, grammar_file, capsys):
        out = tmp_path / "triples.tsv"
        code = main(
            ["query", "--graph", graph_file, "--grammar", grammar_file,
             "--starts", "0", "--triples", str(out)]
        )
        assert code == 0
        lines = read_lines(out)
        assert "S\t0\t0" in lines and "S\t0\t3" in lines
        assert lines == sorted(lines)

    def test_start_symbol_triples_are_the_accepted_roots(self, graph_file, capsys):
        # S also spans (1, 0), (1, 3), (2, 0) and (2, 3) in the forest, but
        # only pairs leaving a start vertex are answers
        code = main(["query", "--graph", graph_file, "--grammar", "g1", "--starts", "0"])
        assert code == 0
        assert capsys.readouterr().out == "S\t0\t0\nS\t0\t3\n"

    def test_no_accepted_root_prints_nothing(self, tmp_path, capsys):
        graph = tmp_path / "aabb.tsv"
        graph.write_text("0\ta\t1\n1\ta\t2\n2\tb\t3\n3\tb\t4\n", encoding="utf-8")
        grammar = tmp_path / "anbn.cfg"
        grammar.write_text("S -> a S b\nS -> a b\n", encoding="utf-8")
        # the forest holds S over (0, 4) and (1, 3); neither goes from 0 to 3
        code = main(["query", "--graph", str(graph), "--grammar", str(grammar),
                     "--starts", "0", "--finals", "3"])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_builtin_alias_and_stdout(self, graph_file, capsys):
        code = main(["query", "--graph", graph_file, "--grammar", "g1"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "S\t0\t3" in stdout

    def test_empty_result_exits_1_but_writes_file(self, tmp_path, graph_file):
        grammar = tmp_path / "none.cfg"
        grammar.write_text("S -> c\n", encoding="utf-8")
        out = tmp_path / "empty.tsv"
        code = main(
            ["query", "--graph", graph_file, "--grammar", str(grammar), "--triples", str(out)]
        )
        assert code == 1
        assert out.exists() and out.read_text(encoding="utf-8") == ""

    def test_unreadable_graph_exits_2(self, grammar_file, capsys):
        assert main(["query", "--graph", "/nonexistent.tsv", "--grammar", grammar_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_vertex_exits_2(self, graph_file, grammar_file):
        assert main(
            ["query", "--graph", graph_file, "--grammar", grammar_file, "--starts", "17"]
        ) == 2

    def test_unknown_nonterminal_exits_2(self, graph_file, grammar_file):
        assert main(
            ["query", "--graph", graph_file, "--grammar", grammar_file,
             "--nonterminal", "Nope"]
        ) == 2

    def test_middle_nonterminal_report(self, tmp_path, graph_file, grammar_file):
        out = tmp_path / "middle.tsv"
        code = main(
            ["query", "--graph", graph_file, "--grammar", grammar_file,
             "--starts", "0", "--nonterminal", "Middle", "--triples", str(out)]
        )
        assert code == 0
        assert read_lines(out) == ["Middle\t2\t3"]

    def test_sppf_exports(self, tmp_path, graph_file, grammar_file):
        dot = tmp_path / "out.dot"
        js = tmp_path / "out.json"
        assert main(["query", "--graph", graph_file, "--grammar", grammar_file,
                     "--starts", "0", "--sppf", str(dot)]) == 0
        assert main(["query", "--graph", graph_file, "--grammar", grammar_file,
                     "--starts", "0", "--sppf", str(js)]) == 0
        assert dot.read_text(encoding="utf-8").startswith("digraph sppf {")
        payload = json.loads(js.read_text(encoding="utf-8"))
        assert payload["nodes"]
        bad = tmp_path / "out.xml"
        assert main(["query", "--graph", graph_file, "--grammar", grammar_file,
                     "--sppf", str(bad)]) == 2

    def test_ntriples_input(self, tmp_path):
        graph = tmp_path / "onto.nt"
        graph.write_text(Q1_NT, encoding="utf-8")
        out = tmp_path / "triples.tsv"
        code = main(
            ["query", "--graph", str(graph), "--format", "ntriples",
             "--grammar", "q1", "--triples", str(out)]
        )
        assert code == 0
        assert read_lines(out) == ["S\tc1\tc1", "S\tc1\tc2", "S\tc2\tc1", "S\tc2\tc2"]

    def test_byte_determinism_across_worklists(self, tmp_path, graph_file, grammar_file):
        outs = []
        for order in ("lifo", "fifo"):
            out = tmp_path / f"{order}.tsv"
            assert main(["query", "--graph", graph_file, "--grammar", grammar_file,
                         "--worklist", order, "--triples", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_no_lookahead_same_output(self, tmp_path, graph_file, grammar_file):
        out_a = tmp_path / "a.tsv"
        out_b = tmp_path / "b.tsv"
        assert main(["query", "--graph", graph_file, "--grammar", grammar_file,
                     "--triples", str(out_a)]) == 0
        assert main(["query", "--graph", graph_file, "--grammar", grammar_file,
                     "--no-lookahead", "--triples", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestPaths:
    def test_shortest_path_first(self, graph_file, grammar_file, capsys):
        code = main(
            ["paths", "--graph", graph_file, "--grammar", grammar_file,
             "--from", "0", "--to", "3", "--max-count", "2", "--max-length", "12"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["0 -a-> 1 -a-> 2 -a-> 0 -b-> 3 -b-> 0 -b-> 3"]

    def test_long_witness_through_the_forest_cycle(self, graph_file, grammar_file, capsys):
        code = main(
            ["paths", "--graph", graph_file, "--grammar", grammar_file,
             "--from", "0", "--to", "0", "--max-count", "2", "--max-length", "12"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "0 -a-> 1 -a-> 2 -a-> 0 -a-> 1 -a-> 2 -a-> 0"
            " -b-> 3 -b-> 0 -b-> 3 -b-> 0 -b-> 3 -b-> 0"
        ]

    def test_zero_max_count_rejected(self, graph_file, grammar_file):
        assert main(
            ["paths", "--graph", graph_file, "--grammar", grammar_file,
             "--from", "0", "--to", "3", "--max-count", "0", "--max-length", "12"]
        ) == 2

    def test_no_match_exits_1(self, graph_file, grammar_file, capsys):
        code = main(
            ["paths", "--graph", graph_file, "--grammar", grammar_file,
             "--from", "3", "--to", "3", "--max-count", "5", "--max-length", "12"]
        )
        assert code == 1
        assert capsys.readouterr().out == ""


class TestStats:
    def test_audit_lines_pass(self, graph_file, grammar_file, capsys):
        code = main(["stats", "--graph", graph_file, "--grammar", grammar_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "terminal=5" in out
        assert "epsilon=0" in out

    def test_empty_graph_all_zero_pass(self, tmp_path, grammar_file, capsys):
        graph = tmp_path / "empty.tsv"
        graph.write_text("", encoding="utf-8")
        code = main(["stats", "--graph", str(graph), "--grammar", grammar_file])
        assert code == 1  # no roots on an empty graph
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "total=0" in out


class TestBench:
    def test_counts_are_monotone_and_csv_written(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--grammar", "g2", "--sizes", "2..4", "--out", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "n,grammar,time_ms,sppf_nodes,gss_nodes,descriptors"
        nodes = [int(line.split(",")[3]) for line in lines[1:]]
        assert nodes == sorted(nodes)

    def test_empty_size_range_exits_2(self, capsys):
        assert main(["bench", "--grammar", "g2", "--sizes", "5..2"]) == 2

    def test_with_loops_flag(self, capsys):
        assert main(["bench", "--grammar", "g0", "--sizes", "2..3", "--with-loops"]) == 0
        assert "sppf_nodes" in capsys.readouterr().out
