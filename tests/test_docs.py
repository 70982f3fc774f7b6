from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import cfpq
from cfpq import complete_graph, export_json, parse_grammar, run_query
from cfpq.cli import _add_input_flags
from conftest import G0_TEXT

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_lists_the_public_names():
    readme = README.read_text(encoding="utf-8")
    listing = readme.split("`import cfpq` exports", 1)[1].split("; everything else", 1)[0]
    assert re.findall(r"`(\w+)`", listing) == cfpq.__all__


def test_readme_common_flags_are_the_input_flags():
    readme = README.read_text(encoding="utf-8")
    listing = readme.split("Common flags:", 1)[1].split("\n\n", 1)[0]
    parser = argparse.ArgumentParser(add_help=False)
    _add_input_flags(parser)
    registered = [flag for action in parser._actions for flag in action.option_strings]
    assert sorted(re.findall(r"`(--[\w-]+)", listing)) == sorted(registered)


def test_readme_forest_json_example_uses_the_exported_keys():
    section = README.read_text(encoding="utf-8").split("## Forest exports", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    # g0 on K3 has every node kind, and parents with and without ambiguity
    result = run_query(complete_graph(3, "ab"), parse_grammar(G0_TEXT))
    emitted: dict[str, set[frozenset[str]]] = {}
    for verbose in (False, True):
        payload = json.loads(export_json(result.sppf, result.roots, verbose=verbose))
        assert set(example) == set(payload)
        for node in payload["nodes"]:
            emitted.setdefault(node["kind"], set()).add(frozenset(node))
    for node in example["nodes"]:
        assert frozenset(node) in emitted[node["kind"]], node


def test_readme_shell_example(tmp_path):
    quick_start = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = quick_start.split("```sh\n", 1)[1].split("```", 1)[0]
    tsv = block.split("<<'EOT'\n", 1)[1].split("EOT\n", 1)[0]
    (tmp_path / "map.tsv").write_text(tsv, encoding="utf-8")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("cfpq ")]
    assert len(commands) == 4
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for _, *argv in commands:  # as the installed cfpq script runs them
        run = subprocess.run([sys.executable, "-W", "error", "-m", "cfpq.cli", *argv],
                             cwd=tmp_path, env=env, capture_output=True, text=True)
        assert run.returncode == 0, (argv, run.stderr)
    assert (tmp_path / "result.tsv").exists() and (tmp_path / "bench.csv").exists()


def test_readme_library_example(tmp_path, monkeypatch, capsys):
    quick_start = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    tsv = quick_start.split("<<'EOT'\n", 1)[1].split("EOT\n", 1)[0]
    (tmp_path / "map.tsv").write_text(tsv, encoding="utf-8")
    snippet = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(snippet, namespace)
    assert capsys.readouterr().out.splitlines()[0] == "0 -a-> 1 -a-> 2 -a-> 0 -b-> 3 -b-> 0 -b-> 3"
    result, root = namespace["result"], namespace["root"]
    assert result.root_pairs() == {(0, 0), (0, 3)}
    assert cfpq.reachable_pairs(result, "Middle") == {(2, 3)}
    assert (root.kind, root.label, root.left, root.right) == ("nonterminal", "S", 0, 0)
    # the snippet's comments state these outputs
    assert "# {(0, 0), (0, 3)}" in snippet and "# {(2, 3)}" in snippet and "(0, S, 0)" in snippet


def _result_lines(entry):
    """Every benchmark result line in a parsed ``BENCH_*.json``: each object
    that carries ``correct``."""
    if isinstance(entry, dict):
        if "correct" in entry:
            yield entry
        else:
            for value in entry.values():
                yield from _result_lines(value)
    elif isinstance(entry, list):
        for value in entry:
            yield from _result_lines(value)


def test_committed_benchmark_results_are_correct_runs():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files, "no committed BENCH_*.json"
    for path in files:
        lines = list(_result_lines(json.loads(path.read_text(encoding="utf-8"))))
        assert lines, f"{path.name} holds no result line"
        for line in lines:
            assert line["correct"] is True and line["failed"] == 0, path.name
