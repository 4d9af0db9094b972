"""Bipartite-graph view of a state under a kept/dropped column partition.

Each term becomes one edge joining its kept-column word (side A) to its
dropped-column word (side B).  Two degree rules characterize uniform
reductions for states whose terms all carry one common phase:

* diagonality (rule A'): every side-B vertex has degree <= 1;
* uniformity (rule B'): all d**k side-A vertices have equal degree.

Checking both rules over every partition certifies k-uniformity for that
phase class; states with mixed phases must use the spectral certifier.
Over all partitions the rules are array properties of the terms' words
(B' is strength k, A' irredundancy at k, decided by `oa._strength` and
`oa._separation`), and the graphs all coincide iff column permutations
keep the words: no partition is visited.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .errors import BadSubset, ParameterViolation, ParseError, PhasesPresent
from .oa import _group_rows, _separation, _strength
from .states import (DIGITS36, PureState, _from_grid, _require_listable,
                     _require_proper_k, _text_words, _validated_subset)

_PHASE_EQ_TOL = 1e-12


@dataclass(frozen=True)
class BipartiteGraph:
    """All d**k kept-words (side A), all d**(N-k) dropped-words (side B),
    and one phase-annotated edge per state term."""

    qudits: int
    levels: int
    kept: Tuple[int, ...]
    edges: Tuple[Tuple[str, str, complex], ...]

    @property
    def dropped(self) -> Tuple[int, ...]:
        return tuple(i for i in range(self.qudits) if i not in self.kept)

    @property
    def vertices_a(self) -> Tuple[str, ...]:
        return _all_words(self.levels, len(self.kept))

    @property
    def vertices_b(self) -> Tuple[str, ...]:
        return _all_words(self.levels, self.qudits - len(self.kept))


def _all_words(d: int, length: int) -> Tuple[str, ...]:
    # each word is a str object plus its slot in the tuple
    _require_listable(d ** length, sys.getsizeof("0" * length) + 8,
                      f"listing {d ** length} words")
    return tuple("".join(DIGITS36[v] for v in t)
                 for t in product(range(d), repeat=length))


def graph_from_state(state: PureState, keep: Sequence[int]) -> BipartiteGraph:
    """Split every term's word across the partition; phases ride along as
    edge annotations and do not affect the topology.  Vertices are base-36
    words, so states of more than 36 levels raise Unsupported."""
    kept = _validated_subset(keep, state.qudits)
    dropped = [i for i in range(state.qudits) if i not in kept]
    grid, d = state.grid, state.levels
    edges = tuple(zip(_text_words(grid[:, list(kept)], d),
                      _text_words(grid[:, dropped], d),
                      state.phase_vector.tolist()))
    return BipartiteGraph(state.qudits, d, kept, edges)


class RuleCheck(NamedTuple):
    """diagonality = rule A' (B-degrees <= 1);
    uniformity = rule B' (all A-degrees equal, zeros included)."""

    diagonality: bool
    uniformity: bool


def check_rules(graph: BipartiteGraph) -> RuleCheck:
    b_degree: dict = {}
    a_degree = {w: 0 for w in graph.vertices_a}
    for a, b, _ in graph.edges:
        a_degree[a] += 1
        b_degree[b] = b_degree.get(b, 0) + 1
    diagonality = all(v <= 1 for v in b_degree.values())
    degrees = set(a_degree.values())
    return RuleCheck(diagonality, len(degrees) == 1)


def _require_common_phase(state: PureState) -> None:
    phases = state.phase_vector
    if (abs(phases - phases[0]) > _PHASE_EQ_TOL).any():
        raise PhasesPresent(
            "graph rules apply only to states with one common phase; "
            "use the spectral certifier for mixed phases")


def is_k_uniform_by_graphs(state: PureState, k: int) -> bool:
    """Both degree rules on every C(N, k) partition.  Only valid for states
    whose terms share one phase (raises PhasesPresent otherwise).  The
    rules are checked as strength k and irredundancy at k of the words:
    `oa._strength` and then `oa._separation` above k, fed the census the
    strength question took, if any."""
    _require_proper_k(k, state.qudits)
    _require_common_phase(state)
    grid, d = state.grid, state.levels
    strong, census = _strength(grid, d, k, reach=k)
    return strong and _separation(grid, d, k, census) > k


def graphs_identical(state: PureState, k: int) -> bool:
    """True iff the edge sets -- (kept-word, dropped-word) label pairs --
    coincide across all C(N, k) partitions, for any k.  The kept-first
    orders of R + {i} and R + {i + 1} (R any k - 1 columns but i, i + 1)
    differ by swapping columns i and i + 1, so the graphs coincide iff
    column permutations keep the words: iff the swap of columns 0 and 1
    and the rotation by one column, which generate them, keep the sorted
    grid (its rows are in word order)."""
    n = state.qudits
    _require_proper_k(k, n)
    _require_common_phase(state)
    grid = state.grid
    return all(np.array_equal(grid[_group_rows(grid, cols)[0]][:, cols], grid)
               for cols in ([1, 0, *range(2, n)], [*range(1, n), 0]))


def is_product_across(graph: BipartiteGraph) -> bool:
    """Advisory separability flag: the state factorizes across this
    partition iff the edge set is exactly (active A) x (active B).  The
    edges lie in that product, so equal sizes mean equal sets."""
    pairs = {(a, b) for a, b, _ in graph.edges}
    active_a = {a for a, _ in pairs}
    active_b = {b for _, b in pairs}
    return len(pairs) == len(active_a) * len(active_b)


# ---------------------------------------------------------------------------
# adjacency matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdjacencyMatrix:
    """0/1 grid M with one row per kept-word and one column per
    dropped-word; M[a][b] = 1 iff the state holds the interleaved word."""

    matrix: Tuple[Tuple[int, ...], ...]
    qudits: int
    levels: int
    kept: Tuple[int, ...]


def adjacency(graph: BipartiteGraph) -> AdjacencyMatrix:
    """The full d**k x d**(N-k) matrix as nested tuples; TooLarge when its
    cells, each held in a row list and again in the tuple copy, would
    pass DENSE_BYTES_LIMIT."""
    _require_listable(graph.levels ** graph.qudits, 16,
                      f"a {graph.levels}**{graph.qudits}-cell adjacency")
    index_a = {w: i for i, w in enumerate(graph.vertices_a)}
    index_b = {w: i for i, w in enumerate(graph.vertices_b)}
    grid = [[0] * len(index_b) for _ in index_a]
    for a, b, _ in graph.edges:
        grid[index_a[a]][index_b[b]] = 1
    return AdjacencyMatrix(tuple(map(tuple, grid)), graph.qudits,
                           graph.levels, graph.kept)


def state_from_adjacency(matrix: AdjacencyMatrix) -> PureState:
    """One +1 term per set bit; the kept/dropped words are re-interleaved
    back into full words using the partition metadata."""
    n, d, kept = matrix.qudits, matrix.levels, list(matrix.kept)
    dropped = [i for i in range(n) if i not in kept]
    if len(matrix.matrix) != d ** len(kept) or any(
            len(row) != d ** len(dropped) for row in matrix.matrix):
        raise ParameterViolation("matrix shape does not match the partition")
    bits = np.array(matrix.matrix)
    if not np.isin(bits, (0, 1)).all():
        raise ParameterViolation("matrix entries must be 0 or 1")
    # bit (a, b) is flat index a * d**len(dropped) + b, whose base-d digits
    # are the kept word followed by the dropped word
    cells = np.unravel_index(np.flatnonzero(bits), (d,) * n)
    if not len(cells[0]):
        raise ParameterViolation("matrix has no set bits")
    grid = np.column_stack(cells)[:, np.argsort(kept + dropped)]
    return _from_grid(grid, d, np.ones(len(grid), dtype=complex))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def to_dot(graph: BipartiteGraph) -> str:
    """Graphviz text with the two sides as ranked clusters; vertex order is
    the canonical word order and partition labels are 1-based."""
    kept_labels = ",".join(str(c + 1) for c in graph.kept)
    dropped_labels = ",".join(str(c + 1) for c in graph.dropped)
    lines = ["graph state {", "  rankdir=LR;"]
    lines.append("  subgraph cluster_a {")
    lines.append(f'    label="kept qudits {{{kept_labels}}}";')
    lines.append("    rank=same;")
    for w in graph.vertices_a:
        lines.append(f'    "A_{w}" [label="{w}"];')
    lines.append("  }")
    lines.append("  subgraph cluster_b {")
    lines.append(f'    label="dropped qudits {{{dropped_labels}}}";')
    lines.append("    rank=same;")
    for w in graph.vertices_b:
        lines.append(f'    "B_{w}" [label="{w}"];')
    lines.append("  }")
    for a, b, phase in graph.edges:
        if abs(phase - 1.0) <= _PHASE_EQ_TOL:
            lines.append(f'  "A_{a}" -- "B_{b}";')
        else:
            lines.append(f'  "A_{a}" -- "B_{b}" [label="{phase:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: BipartiteGraph) -> str:
    """Stable schema: {n, d, k, partition (1-based), vertices_a, vertices_b,
    edges: [[a_word, b_word, [re, im]], ...]}."""
    doc = {
        "n": graph.qudits,
        "d": graph.levels,
        "k": len(graph.kept),
        "partition": [c + 1 for c in graph.kept],
        "vertices_a": list(graph.vertices_a),
        "vertices_b": list(graph.vertices_b),
        "edges": [[a, b, [phase.real, phase.imag]]
                  for a, b, phase in graph.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def graph_from_json(text: str) -> BipartiteGraph:
    """Inverse of to_json."""
    try:
        doc = json.loads(text)
        n, d = int(doc["n"]), int(doc["d"])
        if not 2 <= d <= len(DIGITS36):
            raise ValueError(f"d must be in 2..{len(DIGITS36)}, got {d}")
        kept = tuple(int(c) - 1 for c in doc["partition"])
        _validated_subset(kept, n)
        edges = tuple((str(a), str(b), complex(re, im))
                      for a, b, (re, im) in doc["edges"])
        listed = [list(doc["vertices_a"]), list(doc["vertices_b"])]
    except (KeyError, TypeError, ValueError, BadSubset) as exc:
        raise ParseError(f"bad graph JSON: {exc}") from exc
    graph = BipartiteGraph(n, d, kept, edges)
    if [list(graph.vertices_a), list(graph.vertices_b)] != listed:
        raise ParseError("vertex lists do not match the declared partition")
    side_a, side_b = map(set, listed)
    if any(a not in side_a or b not in side_b for a, b, _ in edges):
        raise ParseError("an edge word is not a vertex of the partition")
    return graph
