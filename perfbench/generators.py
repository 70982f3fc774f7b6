"""Seeded input generators for the benchmark workloads.

Each generator returns the graph as text, exactly as a user would hand it to
the library; the same seed always gives byte-identical text.  Random streams
are seeded with strings, which ``random.Random`` hashes with SHA-512, so the
output does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random

DENSE_VERTICES = 32
SPARSE_VERTICES = 20
SPARSE_OUT_DEGREE = 2

RDFS_SUBCLASS = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
ONTOLOGY_NS = "http://example.org/onto#"

# Classes per layer, top layer first; every class below the top has 1-2
# superclasses in the layer above.  Equal widths keep each class's descendant
# set small, so the slowest lookups (from top-layer classes) take tens of
# milliseconds; a pyramid makes a top class an ancestor of most of the graph.
ONTOLOGY_LAYERS = (500,) * 6
ONTOLOGY_INSTANCES = 9600
# Single-source lookups cycle through this many vertices.
ONTOLOGY_SOURCES = 2000


def dense_tsv(seed: int) -> str:
    """The complete graph on ``DENSE_VERTICES`` vertices (no self-loops), one
    edge per label a, b and ordered pair, as TSV lines in a seeded order."""
    n = DENSE_VERTICES
    lines = [f"{u}\t{label}\t{v}" for u in range(n) for v in range(n) if u != v for label in "ab"]
    random.Random(f"dense-{seed}").shuffle(lines)
    return "".join(line + "\n" for line in lines)


def _ontology(seed: int) -> tuple[list[tuple[int, str, int]], list[str], random.Random]:
    """Edges over structural vertex indices, the seed's URI for each index, and
    the seed's random stream positioned after naming."""
    structure = random.Random("ontology-structure")
    edges: list[tuple[int, str, int]] = []
    layers: list[range] = []
    for size in ONTOLOGY_LAYERS:
        first = layers[-1].stop if layers else 0
        layer = range(first, first + size)
        for cls in layer if layers else ():
            for parent in structure.sample(layers[-1], structure.randint(1, 2)):
                edges.append((cls, RDFS_SUBCLASS, parent))
        layers.append(layer)
    classes = range(layers[-1].stop)
    for instance in range(classes.stop, classes.stop + ONTOLOGY_INSTANCES):
        for cls in structure.sample(classes, structure.randint(1, 2)):
            edges.append((instance, RDF_TYPE, cls))

    rng = random.Random(f"ontology-{seed}")
    names: list[str] = []
    for depth, layer in enumerate(layers):
        numbers = list(range(len(layer)))
        rng.shuffle(numbers)
        names.extend(f"<{ONTOLOGY_NS}C{depth}_{i}>" for i in numbers)
    numbers = list(range(ONTOLOGY_INSTANCES))
    rng.shuffle(numbers)
    names.extend(f"<{ONTOLOGY_NS}i{i}>" for i in numbers)
    return edges, names, rng


def ontology_ntriples(seed: int) -> str:
    """A layered class hierarchy with typed instances, as N-Triples with full URIs.

    Each class below the top layer has 1-2 ``subClassOf`` edges into the layer
    above; each instance has 1-2 ``type`` edges to classes of any layer.  As in
    ``sparse_tsv``, the structure is drawn once from a fixed stream and the
    seed names the classes and instances and orders the lines: the slowest
    lookups depend on the structure, and a per-seed structure made the
    99th-percentile latency differ by a third between seeds.
    """
    edges, names, rng = _ontology(seed)
    lines = [f"{names[s]} {p} {names[o]} ." for s, p, o in edges]
    rng.shuffle(lines)
    return "".join(line + "\n" for line in lines)


def ontology_sources(seed: int) -> list[str]:
    """Vertex names, as the loader compacts them, of a fixed sample of
    ``ONTOLOGY_SOURCES`` vertices drawn uniformly from all vertices, under
    the seed's naming.  Every seed asks the same lookups up to renaming."""
    edges, names, _ = _ontology(seed)
    vertices = sorted({s for s, _, _ in edges} | {o for _, _, o in edges})
    sample = random.Random("ontology-sources").sample(vertices, ONTOLOGY_SOURCES)
    return [names[v].rsplit("#", 1)[1][:-1] for v in sample]


def _strongly_connected(n: int, edges: list[tuple[int, str, int]]) -> bool:
    forward: dict[int, list[int]] = {}
    backward: dict[int, list[int]] = {}
    for u, _, v in edges:
        forward.setdefault(u, []).append(v)
        backward.setdefault(v, []).append(u)
    for adjacency in (forward, backward):
        seen = {0}
        stack = [0]
        while stack:
            for w in adjacency.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            return False
    return True


def _sparse(seed: int) -> tuple[list[tuple[int, str, int]], list[int], random.Random]:
    """Edges over structural vertex indices, the seed's id for each index, and
    the seed's random stream positioned after numbering."""
    n = SPARSE_VERTICES
    structure = random.Random("sparse-structure")
    while True:
        edges = [
            (u, structure.choice("ab"), v)
            for u in range(n)
            for v in structure.sample([w for w in range(n) if w != u], SPARSE_OUT_DEGREE)
        ]
        if _strongly_connected(n, edges):
            break
    rng = random.Random(f"sparse-{seed}")
    ids = list(range(n))
    rng.shuffle(ids)
    return edges, ids, rng


def sparse_tsv(seed: int) -> str:
    """A strongly connected random graph with ``SPARSE_OUT_DEGREE`` out-edges
    per vertex, each to a distinct other vertex under label a or b, as TSV.

    The edge structure is drawn once from a fixed stream; the seed renumbers
    the vertices and orders the lines.  Path-enumeration cost follows the
    forest size, which varies about twofold between independently drawn
    graphs of this size, so a per-seed structure would make run-to-run
    spread a property of the seed rather than of the code.
    """
    edges, ids, rng = _sparse(seed)
    lines = [f"{ids[u]}\t{label}\t{ids[v]}" for u, label, v in edges]
    rng.shuffle(lines)
    return "".join(line + "\n" for line in lines)


def sparse_ids(seed: int) -> list[int]:
    """The seed's vertex id of each structural vertex of ``sparse_tsv``."""
    return _sparse(seed)[1]
