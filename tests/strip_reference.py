"""Reference for the local records: the whole-strip route.

For each nontransversal threshold a, the complex is refined at a and at a
strip floor a - eps, eps half the gap down to the next smaller threshold
(Grunert-Kuehnel-Rote's thin strip), and the compact model of the whole
strip a - eps <= F <= a is built, triangulated and ranked once, with every
flat component at level a and the floor F = a - eps marked.  A component's
local ranks are those of the strip against the complement of its cells.
``plmorse.compact.strip_pair_model`` takes each component's ranks on its
closed star in F <= a instead, in one refinement at -M and the levels, with
no floor, and is compared against this.
"""

from dataclasses import dataclass
from fractions import Fraction

from plmorse.compact import CompactModel, compact_part, essentialize, refine_at_levels
from plmorse.complexes import CanonicalComplex, FlatComponent, flat_cells
from plmorse.homology import SimplicialPair, complement_complex, relative_betti, triangulate
from plmorse.morse import LocalComplexityRecord

from order_complex import carried_simplices


def strip_epsilon(cx: CanonicalComplex, a) -> Fraction:
    """Half the gap down to the next smaller threshold, or 1 if none."""
    a = Fraction(a)
    smaller = [t for t in cx.nontransversal_thresholds if t < a]
    if smaller:
        return (a - max(smaller)) / 2
    return Fraction(1)


@dataclass(frozen=True)
class StripModel:
    model: CompactModel
    level: Fraction
    lower: Fraction
    floor: frozenset
    k_cells: tuple[tuple[FlatComponent, frozenset], ...]


def whole_strip_model(cx: CanonicalComplex, a, lower) -> StripModel:
    """Compact model of the strip lower <= F <= a, with the flat components
    at level a and the floor F = lower marked as subcomplexes.

    The open interval (lower, a) must be free of nontransversal thresholds
    and lower itself must be a transversal value.
    """
    a, lower = Fraction(a), Fraction(lower)
    if not lower < a:
        raise ValueError("strip needs lower < a")
    for t in cx.nontransversal_thresholds:
        if lower <= t < a:
            raise ValueError(f"nontransversal threshold {t} inside the strip [{lower}, {a})")
    rcx = refine_at_levels(cx, [lower, a])
    keys = rcx.keys_in(lower, a)
    pieces = essentialize([rcx.cells[k] for k in keys], cx)
    model = compact_part(pieces, rcx.closure)
    key_set = set(keys)
    floor = model.cells_with_source(rcx.keys_in(lower, lower))
    top = rcx.index_of(a)
    marks = []
    for comp in flat_cells(cx):
        if comp.level != a:
            continue
        k_keys = [(lab, top) for lab in comp.labels]
        for k in k_keys:
            if k not in key_set:
                raise RuntimeError(f"flat cell {k[0]} has no piece at level {a} in the strip")
        marks.append((comp, model.cells_with_source(k_keys)))
    return StripModel(model, a, lower, floor, tuple(marks))


def strip_records(cx: CanonicalComplex, a) -> list[LocalComplexityRecord]:
    """The records of the flat components at level a, from one strip model."""
    a = Fraction(a)
    sm = whole_strip_model(cx, a, a - strip_epsilon(cx, a))
    tri = triangulate(sm.model)
    out = []
    for comp, ids in sm.k_cells:
        away = complement_complex(tri.complex, carried_simplices(tri, ids))
        ranks = relative_betti(SimplicialPair(tri.complex, away))
        out.append(LocalComplexityRecord(a, comp.labels, ranks))
    return out


def reference_local_records(cx: CanonicalComplex) -> tuple[LocalComplexityRecord, ...]:
    """One record per flat component, one strip model per threshold."""
    return tuple(r for a in cx.nontransversal_thresholds for r in strip_records(cx, a))
