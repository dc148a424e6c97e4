"""Outside-in tracer: times and counts calls into plmorse's public functions.

``install`` wraps the functions listed in ``SPANS`` and rebinds every
plmorse module's copy of each name, because modules import one another's
functions by name (``morse`` holds its own ``triangulate``, ``compact`` its
own ``feasible``).  Methods and the functions behind the ``cached_property``
attributes are replaced on their class.  Each call records a span
``[name, start, end, parent, op]`` in memory; self time is derived from the
spans once the run ends.  Small arithmetic helpers (``dot``, ``vec``,
``canon_constraint``) are left unwrapped: they run millions of times and a
wrapper would cost more than their work.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cached_property, update_wrapper

# (module, owner, attribute) -> span name.  ``owner`` is None for module-level
# functions, else the class that holds the method or cached property.
SPANS = [
    ("geometry", None, "rref", "geometry.rref"),
    ("geometry", None, "feasible", "geometry.feasible"),
    ("geometry", "Polyhedron", "vertices", "geometry.vertices"),
    ("network", "Network", "evaluate", "network.evaluate"),
    ("network", None, "random_network", "network.random_network"),
    ("network", None, "load_network", "network.load_network"),
    ("complexes", None, "build_complex", "complexes.build_complex"),
    ("complexes", "CanonicalComplex", "face_pairs", "complexes.face_pairs"),
    ("complexes", None, "is_generic", "complexes.is_generic"),
    ("complexes", None, "flat_cells", "complexes.flat_cells"),
    ("compact", None, "refine_at_levels", "compact.refine_at_levels"),
    ("compact", "RefinedComplex", "components", "compact.components"),
    ("compact", None, "essentialize", "compact.essentialize"),
    ("compact", None, "compact_part", "compact.compact_part"),
    ("compact", None, "sublevel_model", "compact.sublevel_model"),
    ("compact", None, "superlevel_model", "compact.superlevel_model"),
    ("compact", None, "modeled_pair", "compact.modeled_pair"),
    ("compact", None, "strip_pair_model", "compact.strip_pair_model"),
    ("homology", None, "triangulate", "homology.triangulate"),
    ("homology", None, "barycentric_pair", "homology.barycentric_pair"),
    ("homology", None, "complement_complex", "homology.complement_complex"),
    ("homology", None, "sparse_rank", "homology.sparse_rank"),
    ("homology", None, "betti", "homology.betti"),
    ("homology", None, "relative_betti", "homology.relative_betti"),
    ("homology", None, "grid_oracle", "homology.grid_oracle"),
    ("morse", None, "analyze", "morse.analyze"),
    ("morse", None, "local_records", "morse.local_records"),
    ("morse", None, "coarse_complexities", "morse.coarse_complexities"),
    ("morse", None, "classify_vertices", "morse.classify_vertices"),
    ("ensembles", None, "montecarlo_plmorse", "ensembles.montecarlo_plmorse"),
    ("ensembles", None, "montecarlo_flat_cell", "ensembles.montecarlo_flat_cell"),
    ("ensembles", None, "minimal_cell_is_flat", "ensembles.minimal_cell_is_flat"),
]


def _rank(rows) -> int:
    """Rank over Q for the vertex-subset count, written here so that counting
    adds no ``rref`` spans."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _intervals(thresholds) -> int:
    k = len({Fraction(t) for t in thresholds})
    return 2 * k + 1 if k else 1


# Counters taken at the span boundary: (counts, args, result) -> None.
def _after_refine(counts, args, out):
    counts["compact.pieces"] += len(out.cells)
    counts["compact.refine.tried"] += len(args[0].cells) * _intervals(args[1])


def _after_compact_part(counts, args, out):
    counts["compact.model_cells"] += len(out.cells)


def _after_vertices(counts, args, out):
    poly = args[0]
    counts["geometry.vertices.found"] += len(out)
    if poly.nonempty:
        eqs, stricts = poly.relint_system
        need = poly.n - _rank([c for c, _ in eqs])
        counts["geometry.vertices.subsets"] += math.comb(len(stricts), need)


def _after_build(counts, args, out):
    counts["complexes.cells"] += len(out.cells)


def _after_barycentric(counts, args, out):
    counts["homology.subdivided_simplices"] += len(out[0].simplices)


def _before_sparse_rank(counts, args):
    rows = args[0]
    counts["homology.boundary_rows"] += len(rows)
    counts["homology.boundary_nonzeros"] += sum(len(r) for r in rows)


AFTER = {
    "compact.refine_at_levels": _after_refine,
    "compact.compact_part": _after_compact_part,
    "geometry.vertices": _after_vertices,
    "complexes.build_complex": _after_build,
    "homology.barycentric_pair": _after_barycentric,
}
BEFORE = {"homology.sparse_rank": _before_sparse_rank}


class Tracer:
    """Span recorder.  ``op`` names the program call the spans belong to."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        before, after = BEFORE.get(name), AFTER.get(name)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                if before:
                    before(counts, args)
                out = fn(*args, **kwargs)
                if after:
                    after(counts, args, out)
                return out
            finally:
                stack.pop()
                rec[2] = clock()

        return update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every function in SPANS, in every plmorse module that holds it."""
        import plmorse.cli  # noqa: F401  (load every module before rebinding)

        replaced = {}
        for mod_name, owner_name, attr, name in SPANS:
            mod = sys.modules[f"plmorse.{mod_name}"]
            if owner_name is None:
                orig = getattr(mod, attr)
                replaced[id(orig)] = (orig, self.wrap(name, orig))
                continue
            owner = getattr(mod, owner_name)
            member = owner.__dict__[attr]
            if isinstance(member, cached_property):
                prop = cached_property(self.wrap(name, member.func))
                prop.__set_name__(owner, attr)
                setattr(owner, attr, prop)
            else:
                setattr(owner, attr, self.wrap(name, member))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "plmorse" and not mod_name.startswith("plmorse."):
                continue
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def summary(self) -> dict[str, float]:
        """Per span name: calls, self seconds, and inclusive seconds of the
        outermost call (a call nested in one of the same name is not counted
        twice)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.incl_s"] += end - start
        # The sub- and superlevel models are glue around refinement,
        # components, essentialization and the compact part: report them
        # inclusive of those.
        out["compact.stable_models.s"] = (
            out["compact.sublevel_model.incl_s"] + out["compact.superlevel_model.incl_s"]
        )
        out.update(self.counts)
        return dict(out)

    def write(self, path) -> None:
        """Spans as JSON: one [name, start, end, parent, op] list per call."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
