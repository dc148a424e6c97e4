"""Complexity measures and the shallow-network Morse classification.

Local H-complexity of a flat component K at level a is H_*(F<=a, F<=a minus K).
A component that is one minimal cell v takes the link route.  Its ranks are
the reduced homology of v's lower link, one degree up (Grunert-Kuehnel-Rote).
The link's cells are v's cofaces, so that route needs no refinement.
Every other component takes the strip route: the link rule needs one vertex.
That route ranks a compact model of K's closed star in F <= a, by excision,
as H(X, D) on cellular chains (CellularComplex.local_betti).  One refinement
at -M and those components' levels serves them all.
Global complexity sums the local totals.  Stable and coarse complexities
come from one model of one refinement at -M and M, and component counts
from its pieces.
Vertices of generic transversal depth-2 networks classify as regular,
nondegenerate critical (with an index) or degenerate critical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .compact import CompactModel, ModelCell, modeled_pair, refine_at_levels, strip_pair_model
from .complexes import (
    CanonicalComplex,
    FlatComponent,
    Label,
    build_complex,
    flat_cells,
    is_generic,
    show_point,
)
from .geometry import Vec, rational_point
from .homology import CellularComplex, _trim
from .network import FRACTION_SCHEMA, Network, fraction_to_json, has_inactive_region, object_schema

REGULAR = "Regular"
NONDEGENERATE = "NondegenerateCritical"
DEGENERATE = "DegenerateCritical"
# Report keys of the stable Betti vectors, the component counts and the flags.
_STABLE = ("sub_minus", "sub_plus", "super_minus", "super_plus")
_COUNTS = ("n_minus", "n_plus", "n_super_minus", "n_super_plus")
_FLAGS = ("coarse_le_global", "global_le_vertex_count")


class UnsupportedNetworkError(ValueError):
    """The requested analysis is defined only for a class this net is not in."""


@dataclass(frozen=True)
class LocalComplexityRecord:
    level: Fraction
    labels: tuple[Label, ...]
    ranks: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.ranks)

    @property
    def h_critical(self) -> bool:
        return self.total > 0


@dataclass(frozen=True)
class VertexClass:
    point: Vec
    kind: str
    index: int | None = None


@dataclass(frozen=True)
class StableComplexities:
    m: Fraction
    sub_minus: tuple[int, ...]
    sub_plus: tuple[int, ...]
    super_minus: tuple[int, ...]
    super_plus: tuple[int, ...]


@dataclass(frozen=True)
class CoarseComplexities:
    sublevel: tuple[int, ...]
    superlevel: tuple[int, ...]

    @property
    def sublevel_total(self) -> int:
        return sum(self.sublevel)

    @property
    def superlevel_total(self) -> int:
        return sum(self.superlevel)


@dataclass(frozen=True)
class ComplexityReport:
    thresholds: tuple[Fraction, ...]
    components: tuple[LocalComplexityRecord, ...]
    global_h_complexity: int
    stable: StableComplexities
    coarse: CoarseComplexities
    counts: tuple[int, int, int, int]
    vertices: tuple[VertexClass, ...] | None
    flags: dict


def big_m(cx: CanonicalComplex) -> Fraction:
    """Level beyond every nontransversal threshold by at least 1."""
    return max((abs(t) for t in cx.nontransversal_thresholds), default=Fraction(0)) + 1


def _star_record(rcx, comp: FlatComponent) -> LocalComplexityRecord:
    model, ids = strip_pair_model(rcx, comp)
    ranks = CellularComplex(model).local_betti(ids)
    return LocalComplexityRecord(Fraction(comp.level), comp.labels, ranks)


def _link_record(cx: CanonicalComplex, comp: FlatComponent) -> LocalComplexityRecord:
    """H_i(F<=a, F<=a minus v) = reduced H_{i-1}(lower link of v), v a flat
    minimal cell with no flat coface.  A d-coface of v is a (d-k-1)-cell of the
    link, k = dim ker(W1).  The lower link is the full subcomplex on the edges
    at v along which F falls leaving v (the shelling of local_betti).  A link
    that is no sphere by its Euler characteristic, and a flat edge at v, are
    named in a RuntimeError."""
    (v,), k, n = comp.labels, len(cx.kernel), cx.network.n0
    ((p, _),) = cx.skeleton[v].points
    dims = {c: cx.cells[c].dimension - k - 1 for c in cx.cofaces_of(v)}
    if sum((-1) ** d for d in dims.values()) != 1 + (-1) ** (n - k - 1):
        raise RuntimeError(f"the link of flat cell {v} is not a {n - k - 1}-sphere")
    slopes = {c: e.slope if e.start == p else -e.slope
              for c, d in dims.items() if d == 0 for e in cx.skeleton[c].edges}
    if 0 in slopes.values():
        raise RuntimeError(f"flat cell {v} has a flat edge")
    ids = {c: i for i, c in enumerate(c for c, s in slopes.items() if s < 0)}
    at_v = {c: {f for f in (c, *cx.faces_of(c)) if f in slopes} for c in dims}
    verts = {c: frozenset(map(ids.get, fs)) for c, fs in at_v.items() if fs <= ids.keys()}
    cells = {vs: ModelCell(vs, dims[c], None,
                           frozenset(verts[f] for f in cx.faces_of(c) if f in verts))
             for c, vs in verts.items()}
    b = CellularComplex(CompactModel((), cells)).betti()
    return LocalComplexityRecord(Fraction(comp.level), comp.labels,
                                 _trim((0, b[0] - 1, *b[1:])) if b else (1,))


def _records(cx: CanonicalComplex, comps) -> tuple[LocalComplexityRecord, ...]:
    """The link route for each component that is one minimal cell, and the
    strip route for the rest, on one refinement at -M and their levels."""
    k = len(cx.kernel)
    link = {c for c in comps if len(c.labels) == 1 and cx.cells[c.labels[0]].dimension == k}
    levels = {c.level for c in comps if c not in link}
    rcx = refine_at_levels(cx, [-big_m(cx), *levels]) if levels else None
    return tuple(_link_record(cx, c) if c in link else _star_record(rcx, c) for c in comps)


def local_records(cx: CanonicalComplex) -> tuple[LocalComplexityRecord, ...]:
    """One record per flat component."""
    return _records(cx, flat_cells(cx))


def global_h_complexity(cx: CanonicalComplex) -> int:
    return sum(rec.total for rec in local_records(cx))


def stable_measures(
    cx: CanonicalComplex,
) -> tuple[StableComplexities, CoarseComplexities, tuple[int, int, int, int]]:
    """Stable Betti vectors, coarse ranks and component counts beyond +-M.

    One refinement at {-M, M} gives one model of all its pieces.  A piece's
    closure stays in its interval and the thresholds next to it, so the cells
    from F <= -M, F <= M, F >= -M and F >= M are down-sets: their Betti
    numbers are the stable vectors, and the nested pairs of them give the
    coarse ranks.  The counts of the four sets come from the refined pieces,
    one union-find growing from F <= -M to F <= M and one from F >= M to
    F >= -M, and each must equal b_0 of the same set.
    """
    m = big_m(cx)
    rcx = refine_at_levels(cx, [-m, m])
    ranges = ((None, -m), (None, m), (-m, None), (m, None))
    keys = [rcx.keys_in(*r) for r in ranges]
    counts = (*rcx.component_counts(*keys[:2]), *rcx.component_counts(keys[3], keys[2])[::-1])
    model, *sets = modeled_pair(rcx, (None, None), *ranges)
    chains = CellularComplex(model)
    vecs = [chains.betti(s) for s in sets]
    for n, (lo, hi), vec in zip(counts, ranges, vecs):
        if n != (vec[0] if vec else 0):
            where = f"F <= {hi}" if lo is None else f"F >= {lo}"
            raise RuntimeError(f"{where} has {n} connected components but Betti numbers {vec}")
    return StableComplexities(m, *vecs), CoarseComplexities(
        chains.relative_betti(sets[0], sets[1]), chains.relative_betti(sets[3], sets[2])), counts


def coarse_complexities(cx: CanonicalComplex) -> CoarseComplexities:
    """Ranks of H_*(F<=M, F<=-M) and H_*(F>=-M, F>=M)."""
    return stable_measures(cx)[1]


# ---------------------------------------------------------------------------
# vertex classification for single-hidden-layer networks


def _classify_zero_cell(cx: CanonicalComplex, label: Label) -> VertexClass:
    ((p, _),) = cx.skeleton[label].points
    n = cx.network.n0
    if sum(1 for s in label if s == 0) != n:
        raise UnsupportedNetworkError(
            f"vertex {show_point(p)} lies on more than {n} hyperplanes; the network is not generic"
        )
    pairs: dict[frozenset, list[Label]] = {}
    for lab in cx.cofaces_of(label):
        if cx.cells[lab].dimension == 1:
            pairs.setdefault(frozenset(i for i, s in enumerate(lab) if s == 0), []).append(lab)
    if len(pairs) != n or any(len(g) != 2 for g in pairs.values()):
        raise UnsupportedNetworkError(
            f"vertex {show_point(p)} has an unpaired edge coface; the network is not generic"
        )
    # Near p, F is F(p) plus one PL function of each pair's coordinate, so
    # one pair along which F is strictly monotone makes p regular whatever
    # the other pairs do; else a flat edge makes it degenerate.
    away = []  # per pair, the signs of F's change leaving p along its edges
    for group in pairs.values():
        (a,), (b,) = (cx.skeleton[lab].edges for lab in group)
        slopes = [e.slope if e.start == p else -e.slope for e in (a, b)]
        away.append({(s > 0) - (s < 0) for s in slopes})
    point = rational_point(p)
    if {-1, 1} in away:
        return VertexClass(point, REGULAR)
    if any(0 in signs for signs in away):
        return VertexClass(point, DEGENERATE)
    return VertexClass(point, NONDEGENERATE, away.count({-1}))


def _require_shallow_generic(cx: CanonicalComplex) -> None:
    net = cx.network
    if net.depth != 1:
        raise UnsupportedNetworkError("vertex classification needs a single hidden layer")
    if cx.transversality_witnesses:
        raise UnsupportedNetworkError(
            f"network is not transversal: {cx.transversality_witnesses[0]}")
    ok = is_generic(net)
    if not ok:
        raise UnsupportedNetworkError(f"network is not generic: {ok.witness}")


def classify_vertices(cx: CanonicalComplex) -> tuple[VertexClass, ...]:
    """All 0-cells classified, sorted by coordinates."""
    _require_shallow_generic(cx)
    out = [_classify_zero_cell(cx, c.label) for c in cx.cells_of_dim(0)]
    return tuple(sorted(out, key=lambda v: v.point))


def is_pl_morse_depth2(net: Network) -> bool:
    """No region where every hidden unit is strictly inactive (Morse test)."""
    if net.depth != 1:
        raise UnsupportedNetworkError("PL Morse test needs a single hidden layer")
    ok = is_generic(net)
    if not ok:
        raise UnsupportedNetworkError(f"network is not generic: {ok.witness}")
    return not has_inactive_region(net.layers[0])


# ---------------------------------------------------------------------------
# full report


def analyze(net: Network) -> ComplexityReport:
    """Every complexity measure of the network in one report.

    Raises UnsupportedNetworkError when the network is not transversal; vertex
    classifications are included only for generic single-hidden-layer nets.
    """
    cx = build_complex(net)
    if cx.transversality_witnesses:
        raise UnsupportedNetworkError(
            f"network is not transversal: {cx.transversality_witnesses[0]}")
    records = local_records(cx)
    glob = sum(rec.total for rec in records)
    stable, coarse, counts = stable_measures(cx)
    vertices: tuple[VertexClass, ...] | None
    try:
        vertices = classify_vertices(cx)
    except UnsupportedNetworkError:
        vertices = None
    flags = dict(zip(_FLAGS, (coarse.sublevel_total <= glob, glob <= len(cx.cells_of_dim(0)))))
    return ComplexityReport(cx.nontransversal_thresholds, records, glob, stable, coarse, counts,
                            vertices, flags)


def report_to_json(report: ComplexityReport) -> dict:
    """JSON-ready dict with the stable field names."""
    vertices = None
    if report.vertices is not None:
        vertices = []
        for v in report.vertices:
            entry = {"point": [fraction_to_json(x) for x in v.point], "class": v.kind}
            if v.index is not None:
                entry["index"] = v.index
            vertices.append(entry)
    return {
        "thresholds": [fraction_to_json(t) for t in report.thresholds],
        "components": [
            {
                "level": fraction_to_json(rec.level),
                "cells": [list(lab) for lab in rec.labels],
                "ranks": list(rec.ranks),
                "total": rec.total,
                "h_critical": rec.h_critical,
            }
            for rec in report.components
        ],
        "global_h_complexity": report.global_h_complexity,
        "stable": {
            "M": fraction_to_json(report.stable.m),
            **{key: list(getattr(report.stable, key)) for key in _STABLE},
        },
        "coarse": {
            "sublevel": list(report.coarse.sublevel),
            "superlevel": list(report.coarse.superlevel),
        },
        "counts": dict(zip(_COUNTS, report.counts)),
        "vertices": vertices,
        "flags": dict(report.flags),
    }


_COUNT = {"type": "integer", "minimum": 0}
_RANKS = {"type": "array", "items": _COUNT}
_LABEL = {"type": "array", "items": {"type": "integer"}}
_BOOL = {"type": "boolean"}

REPORT_SCHEMA = object_schema(
    {
        "thresholds": {"type": "array", "items": FRACTION_SCHEMA},
        "components": {"type": "array", "items": object_schema({
            "level": FRACTION_SCHEMA, "cells": {"type": "array", "items": _LABEL},
            "ranks": _RANKS, "total": _COUNT, "h_critical": _BOOL})},
        "global_h_complexity": _COUNT,
        "stable": object_schema({"M": FRACTION_SCHEMA, **dict.fromkeys(_STABLE, _RANKS)}),
        "coarse": object_schema(dict.fromkeys(("sublevel", "superlevel"), _RANKS)),
        "counts": object_schema(dict.fromkeys(_COUNTS, _COUNT), additionalProperties=_COUNT),
        "vertices": {"type": ["array", "null"], "items": {
            "type": "object", "required": ["point", "class"], "properties": {
                "point": {"type": "array", "items": FRACTION_SCHEMA},
                "class": {"enum": [REGULAR, NONDEGENERATE, DEGENERATE]}, "index": _COUNT}}},
        "flags": object_schema(dict.fromkeys(_FLAGS, _BOOL), additionalProperties=_BOOL),
    }
)
