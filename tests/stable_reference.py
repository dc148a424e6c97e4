"""Reference for the +-M measures: two marked models of one refinement.

One refinement at {-M, M} gives two models: F <= M with F <= -M marked, and
F >= -M with F >= M marked.  Each yields the Betti numbers of the whole, of
the marked part, and of the pair (the coarse ranks); the component counts
of the four sets come from the refined pieces.
``plmorse.morse.stable_measures`` builds one model of every piece instead
and reads all four sets as down-sets of it, and is compared against this.
"""

from plmorse.compact import modeled_pair, refine_at_levels
from plmorse.complexes import CanonicalComplex
from plmorse.homology import CellularComplex
from plmorse.morse import CoarseComplexities, StableComplexities, big_m


def marked_measures(rcx, outer, inner):
    """Betti numbers of the outer F-range, of the inner one, and of the pair."""
    model, ids = modeled_pair(rcx, outer, inner)
    chains = CellularComplex(model)
    return chains.betti(), chains.betti(ids), chains.relative_betti(ids)


def two_model_measures(cx: CanonicalComplex):
    """(stable, coarse, counts) as ``stable_measures`` returns them."""
    m = big_m(cx)
    rcx = refine_at_levels(cx, [-m, m])
    sub_plus, sub_minus, sub_pair = marked_measures(rcx, (None, m), (None, -m))
    super_minus, super_plus, super_pair = marked_measures(rcx, (-m, None), (m, None))
    counts = tuple(
        len(rcx.components(rcx.keys_in(lo, hi)))
        for lo, hi in ((None, -m), (None, m), (-m, None), (m, None))
    )
    stable = StableComplexities(m, sub_minus, sub_plus, super_minus, super_plus)
    return stable, CoarseComplexities(sub_pair, super_pair), counts
