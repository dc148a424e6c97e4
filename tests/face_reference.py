"""Reference for the face poset: the label scan.

Each cell is tested against every cell of higher dimension, and is a face of
those whose labels its own refines.  Cells are visited by dimension, then in
cell order, so each face and coface list comes out lower dimensions first.
``plmorse.complexes.CanonicalComplex.face_pairs`` walks a trie of the labels
instead, and is compared against this, list order included.
"""


def label_refines(sub, sup) -> bool:
    return all(a == b or a == 0 for a, b in zip(sub, sup))


def scan_faces(cx):
    """(face pairs, faces by label, cofaces by label) by the label scan."""
    order = sorted(cx.cells.values(), key=lambda c: c.dimension)
    faces = {lab: [] for lab in cx.cells}
    cofaces = {lab: [] for lab in cx.cells}
    for sub in order:
        for sup in order:
            if sup.dimension > sub.dimension and label_refines(sub.label, sup.label):
                cofaces[sub.label].append(sup.label)
                faces[sup.label].append(sub.label)
    pairs = {(sub, sup) for sub in cx.cells for sup in cofaces[sub]}
    return pairs, faces, cofaces
