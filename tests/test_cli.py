from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from cfpq import export_json, load_tsv, parse_grammar, run_query
from cfpq.cli import CliError, load_builtin_grammar, main
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

    def test_unknown_alias_is_rejected(self):
        with pytest.raises(CliError, match="unknown built-in grammar 'g9'"):
            load_builtin_grammar("g9")


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

    def test_unreadable_grammar_exits_2(self, tmp_path, graph_file, capsys):
        missing = str(tmp_path / "missing.cfg")
        assert main(["query", "--graph", graph_file, "--grammar", missing]) == 2
        assert "cannot read grammar" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags", [[], ["--sppf-verbose", "--sppf-simplify"]])
    def test_json_forest_is_the_compact_export(self, tmp_path, graph_file, grammar_file, flags):
        out = tmp_path / "out.json"
        assert main(["query", "--graph", graph_file, "--grammar", grammar_file,
                     "--starts", "0", "--sppf", str(out), *flags]) == 0
        grammar = parse_grammar(Path(grammar_file).read_text(encoding="utf-8"))
        result = run_query(load_tsv(M_TSV), grammar, {0})
        expected = export_json(result.sppf, result.roots, verbose=bool(flags), simplify=bool(flags))
        assert out.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("token", ["\u0661", "\u00b2"])
    def test_non_ascii_digit_vertex_exits_2(self, graph_file, grammar_file, token, capsys):
        assert main(["query", "--graph", graph_file, "--grammar", grammar_file,
                     "--starts", token]) == 2
        assert "is not a number" in capsys.readouterr().err

    def test_zero_padded_vertices_stay_apart(self, tmp_path, capsys):
        graph = tmp_path / "padded.tsv"
        graph.write_text("01\ta\t1\n1\tb\t01\n", encoding="utf-8")
        grammar = tmp_path / "ab.cfg"
        grammar.write_text("S -> a b\n", encoding="utf-8")
        assert main(["query", "--graph", str(graph), "--grammar", str(grammar)]) == 0
        assert capsys.readouterr().out == "S\t01\t01\n"

    def test_zero_padded_vertex_on_a_numeric_graph_exits_2(self, graph_file, grammar_file, capsys):
        assert main(["query", "--graph", graph_file, "--grammar", grammar_file,
                     "--starts", "00"]) == 2
        assert "is not a number" in capsys.readouterr().err

    def test_unknown_forest_suffix_exits_before_the_query(self, tmp_path, graph_file,
                                                          grammar_file, capsys):
        triples = tmp_path / "t.tsv"
        base = ["query", "--graph", graph_file, "--grammar", grammar_file,
                "--sppf", str(tmp_path / "out.txt")]
        assert main(base) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown forest format '.txt'" in captured.err
        assert main(base + ["--triples", str(triples)]) == 2
        assert not triples.exists()
        assert not (tmp_path / "out.txt").exists()

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

    def test_ntriples_literal_with_tab_or_line_break_stays_on_one_line(self, tmp_path, capsys):
        graph = tmp_path / "literals.nt"
        graph.write_text('<i> <type> "a\\tb" .\n<i> <type> "c\td\\ne" .\n', encoding="utf-8")
        assert main(["query", "--graph", str(graph), "--format", "ntriples", "--grammar", "q1",
                     "--starts", "a\\tb"]) == 0
        assert capsys.readouterr().out == "S\ta\\tb\ta\\tb\nS\ta\\tb\tc\\td\\ne\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["query", "--nonterminal", "Nope"], "unknown nonterminal 'Nope'"),
        (["query", "--starts", ","], "empty vertex list ','"),
        (["paths", "--from", "9", "--to", "0"], "vertex 9 out of range (graph has 4)"),
        (["paths", "--from", "0", "--to", "x"], "vertex 'x' is not a number"),
    ],
    ids=["nonterminal", "empty-starts", "from", "to"],
)
def test_bad_argument_exits_2_before_the_query(graph_file, grammar_file, argv, message,
                                               monkeypatch, capsys):
    def no_query(*args, **kwargs):
        raise AssertionError("the query ran")

    monkeypatch.setattr("cfpq.cli.run_query", no_query)
    command, *flags = argv
    assert main([command, "--graph", graph_file, "--grammar", grammar_file, *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"  # the message alone, not its repr


@pytest.mark.parametrize("flag", ["--triples", "--sppf"])
def test_output_in_a_missing_directory_exits_2_before_the_query(
    tmp_path, graph_file, grammar_file, flag, monkeypatch, capsys
):
    def no_query(*args, **kwargs):
        raise AssertionError("the query ran")

    monkeypatch.setattr("cfpq.cli.run_query", no_query)
    out = str(tmp_path / "nodir" / "out.json")
    assert main(["query", "--graph", graph_file, "--grammar", grammar_file, flag, out]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out!r}: no directory" in err


@pytest.mark.parametrize("flag", ["--triples", "--sppf"])
def test_output_path_that_is_a_directory_exits_2(tmp_path, graph_file, grammar_file, flag,
                                                 capsys):
    out = tmp_path / "out.json"
    out.mkdir()
    assert main(["query", "--graph", graph_file, "--grammar", grammar_file, flag, str(out)]) == 2
    assert f"cannot write {str(out)!r}" in capsys.readouterr().err


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

    @staticmethod
    def record_queries(monkeypatch) -> list:
        queries = []

        def recorded(graph, grammar, starts, finals):
            queries.append((starts, finals))
            return run_query(graph, grammar, starts, finals)

        monkeypatch.setattr("cfpq.cli.run_query", recorded)
        return queries

    def test_only_the_asked_pair_is_queried(self, graph_file, grammar_file, monkeypatch, capsys):
        queries = self.record_queries(monkeypatch)
        code = main(
            ["paths", "--graph", graph_file, "--grammar", grammar_file, "--starts", "0,1",
             "--from", "0", "--to", "3", "--max-count", "2", "--max-length", "12"]
        )
        assert code == 0
        assert queries == [({0}, {3})]
        assert capsys.readouterr().out == "0 -a-> 1 -a-> 2 -a-> 0 -b-> 3 -b-> 0 -b-> 3\n"

    def test_source_outside_the_starts_exits_1(self, graph_file, grammar_file, monkeypatch,
                                               capsys):
        queries = self.record_queries(monkeypatch)
        code = main(
            ["paths", "--graph", graph_file, "--grammar", grammar_file, "--starts", "1,2",
             "--from", "0", "--to", "3", "--max-count", "2", "--max-length", "12"]
        )
        assert code == 1
        assert queries == [(set(), {3})]
        assert capsys.readouterr().out == ""

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

    def test_csv_quotes_a_grammar_path_with_a_comma(self, tmp_path, capsys):
        grammar = tmp_path / 'my,"gram".cfg'
        grammar.write_text("S -> a S b\nS -> a b\n", encoding="utf-8")
        out = tmp_path / "bench.csv"
        code = main(["bench", "--grammar", str(grammar), "--sizes", "2,3,4,5", "--out", str(out)])
        assert code == 0
        with out.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "grammar", "time_ms", "sppf_nodes", "gss_nodes", "descriptors"]
        assert [len(row) for row in rows] == [6] * 5
        assert [row[1] for row in rows[1:]] == [str(grammar)] * 4

    def test_csv_in_a_missing_directory_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "nodir" / "bench.csv")
        assert main(["bench", "--grammar", "g2", "--sizes", "2..3", "--out", out]) == 2
        assert f"cannot write {out!r}: no directory" in capsys.readouterr().err

    def test_csv_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        out.mkdir()
        assert main(["bench", "--grammar", "g2", "--sizes", "2..3", "--out", str(out)]) == 2
        assert f"cannot write {str(out)!r}" in capsys.readouterr().err

    def test_empty_size_range_exits_2(self, capsys):
        assert main(["bench", "--grammar", "g2", "--sizes", "5..2"]) == 2
        assert "error: size range is empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes, message", [("0..3", "sizes must be at least 1"), ("2,x", "bad --sizes value")]
    )
    def test_bad_sizes_exit_2(self, sizes, message, capsys):
        assert main(["bench", "--grammar", "g2", "--sizes", sizes]) == 2
        assert message in capsys.readouterr().err

    def test_with_loops_flag(self, capsys):
        assert main(["bench", "--grammar", "g0", "--sizes", "2..3", "--with-loops"]) == 0
        assert "sppf_nodes" in capsys.readouterr().out
