"""Context-free path querying over edge-labeled directed graphs.

Queries are context-free grammars; the engine parses the graph with a
generalized top-down strategy and returns a shared packed parse forest
holding every matched path, from which reachability pairs, concrete paths
and matched subgraphs are extracted.
"""

from .engine import QueryEngine, run_query, size_audit
from .grammar import (
    Grammar,
    GrammarError,
    ParseTable,
    build_parse_table,
    parse_grammar,
)
from .graph import (
    Graph,
    GraphFormatError,
    Path,
    complete_graph,
    format_path,
    load_ntriples,
    load_tsv,
    word,
)
from .oracle import accepts, hellings_pairs, hellings_slice
from .results import (
    PathQueryLimits,
    QueryResult,
    enumerate_paths,
    extract_subgraph,
    format_triples,
    reachable_pairs,
)
from .sppf import Sppf, export_dot, export_json

__version__ = "0.1.0"

__all__ = [
    "Grammar",
    "GrammarError",
    "Graph",
    "GraphFormatError",
    "ParseTable",
    "Path",
    "PathQueryLimits",
    "QueryEngine",
    "QueryResult",
    "Sppf",
    "accepts",
    "build_parse_table",
    "complete_graph",
    "enumerate_paths",
    "export_dot",
    "export_json",
    "extract_subgraph",
    "format_path",
    "format_triples",
    "hellings_pairs",
    "hellings_slice",
    "load_ntriples",
    "load_tsv",
    "parse_grammar",
    "reachable_pairs",
    "run_query",
    "size_audit",
    "word",
]
