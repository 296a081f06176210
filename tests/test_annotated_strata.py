"""Annotated strata read from the quotient complex against the reference.

``weight_ss.annotate_from_fans`` takes its strata from each annotated
cusp's quotient complex; ``face_index_oracle.annotate_from_fans`` rebuilds
the orbit and ray classes as (cusp, rays) keys.  On Hilbert windows (raw and
subdivided), seeded rank-3 windows, 1-dimensional windows, a two-cusp
identification window and an embedded parent/child window, with several
annotations and ambient dimensions, both must give the same strata complex
with the same JSON once the reference's labels are mapped to the library's
zero-padded ones, or raise the same error type with the same message.  The
one exception: the library rejects two annotated cusps that share an orbit
class, where the reference builds the class's strata once per cusp.
"""

import json
import random

import pytest

import face_index_oracle as oracle
from fanhodge.errors import SncConditionViolated, UnsaturatedWindow
from fanhodge.fans import Cone, CuspLabel, FanSystem, Identification
from fanhodge.linalg import Matrix
from fanhodge.weight_ss import (
    CuspStrataAnnotation,
    Stratum,
    StrataComplex,
    annotate_from_fans,
    strata_complex_to_dict,
    weight_filtration_on_FnHn,
)
from test_face_index import outcome, with_subdivisions
from test_fans import one_cusp, rank3_window
from test_local_subdivision import GAP, conjugated_hilbert_window, embedded_window


def two_cusp_window():
    """A chain of three cones at F, its image under g at G, and g: F -> G."""
    g = Matrix([[1, 1], [0, 1]])
    rays = ((1, 0), (1, 1), (0, 1), (-1, 1))
    f_cones = [(rays[k], rays[k + 1]) for k in range(3)]
    g_cones = [tuple(tuple(sum(a * b for a, b in zip(row, r)) for row in g.to_lists())
                     for r in c) for c in f_cones[:2]]
    return FanSystem(
        (CuspLabel("F", 2), CuspLabel("G", 2)),
        tuple(Cone("F", c) for c in f_cones) + tuple(Cone("G", c) for c in g_cones),
        (Identification(g, "F", "G"),),
    )


# v_k = M^k (1, 0); g = M^3 takes the rays of (v3, v5) to v0 and v2, which
# lie in the window but span no window cone: unsaturated, with no two rays
# of one cone in one class
UNSATURATED = FanSystem(
    (CuspLabel("F", 2),),
    (Cone("F", ((1, 0), (2, 1))), Cone("F", ((2, 1), (5, 3))), Cone("F", ((13, 8), (89, 55)))),
    (Identification(Matrix([[13, 8], [8, 5]]), "F", "F"),),
)


# two 1-dimensional cones identified by -1: one vertex, one top stratum
LINE = FanSystem(
    (CuspLabel("L", 1),),
    (Cone("L", ((1,),)), Cone("L", ((-1,),))),
    (Identification(Matrix([[-1]]), "L", "L"),),
)


def annotations(fs):
    """Every single-cusp and all-cusp annotation, with d in 0..3 and ambient
    dimensions t and t + 1, plus annotations that must fail."""
    names = [c.name for c in fs.cusps]
    top = max((c.dim() for c in fs.cones), default=0)
    out = [CuspStrataAnnotation({}), CuspStrataAnnotation({"nowhere": 1}),
           CuspStrataAnnotation({names[0]: 1}, ambient_dim=top - 1)]
    for d in range(4):
        for ambient in (None, top + 1):
            out += [CuspStrataAnnotation({name: d}, ambient) for name in names]
            out.append(CuspStrataAnnotation({name: d + i for i, name in enumerate(names)}, ambient))
    return out


def relabelled(sc, components):
    """``sc`` with component C<j> renamed ``components[j]`` and each index
    set sorted in the new labels' order."""
    rename = {f"C{j}": label for j, label in enumerate(components)}
    strata = [Stratum(s.id, sorted(map(rename.__getitem__, s.index_set)), dict(s.cohomology))
              for s in sc.strata]
    return StrataComplex(sc.n, components, strata, dict(sc.gysin))


def shares_strata_across_cusps(sc):
    """Whether strata of two cusps have one index set."""
    cusps = {}
    for s in sc.strata:
        cusps.setdefault(s.index_set, set()).add(s.id.split("/")[0])
    return any(len(names) > 1 for names in cusps.values())


def same(fs, ann):
    """The library's outcome, once it matches the reference's: equal errors,
    or equal complexes and JSON after the reference's labels C<j> are
    zero-padded to one width (a no-op below ten classes)."""
    new = outcome(annotate_from_fans, fs, ann)
    old = outcome(oracle.annotate_from_fans, fs, ann)
    if isinstance(new, tuple) and "share an orbit class" in new[1]:
        # the reference builds the strata of such a class once per cusp
        assert shares_strata_across_cusps(old)
        return new
    if isinstance(new, tuple) and "has no cones in the window" in new[1]:
        # the reference raises one of two messages that name no cusp
        assert old in ((ValueError, "annotated cusps carry no cones"),
                       (ValueError, "annotated cusps must share one top cone dimension"))
        return new
    if not isinstance(new, tuple):
        width = len(str(len(new.components) - 1))
        assert new.components == tuple(f"C{j:0{width}d}" for j in range(len(new.components)))
        old = relabelled(old, new.components)
        text = json.dumps(strata_complex_to_dict(new), sort_keys=True)
        assert text == json.dumps(strata_complex_to_dict(old), sort_keys=True)
    assert new == old
    return new


def windows():
    rng = random.Random(17)
    out = []
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            out.append(conjugated_hilbert_window(rng, a, b, rng.randint(1, 10)))
    out += [rank3_window(rng) for _ in range(4)]
    out += [one_cusp(2, ((1, 0),), ((0, 1),), ((-1, -1),)), LINE, two_cusp_window(),
            embedded_window(), embedded_window(child="C", parent="A"), GAP, UNSATURATED]
    return out


def test_annotated_strata_match_the_reference():
    kinds, widths = set(), set()
    for fs in windows():
        for sub in with_subdivisions(fs):
            for ann in annotations(sub):
                got = same(sub, ann)
                if isinstance(got, tuple):
                    kinds.add(got[0])
                else:
                    widths.add(len(got.components[0]) - 1)
    assert kinds == {ValueError, SncConditionViolated, UnsaturatedWindow}
    assert widths == {1, 2}


def test_two_annotated_cusps_in_one_orbit_class_are_rejected():
    """F and G share the orbit classes that g: F -> G pairs, so annotating
    both would build each shared class twice, once per cusp; each cusp
    alone gives a complex whose weight filtration is computed."""
    fs = two_cusp_window()
    with pytest.raises(ValueError, match="annotated cusps 'F' and 'G' share an orbit class"):
        annotate_from_fans(fs, CuspStrataAnnotation({"F": 1, "G": 1}))
    with pytest.raises(ValueError, match="annotated cusps 'F' and 'G'"):
        annotate_from_fans(fs, CuspStrataAnnotation({"F": 0, "G": 2}, ambient_dim=3))
    for cusp, count in (("F", 7), ("G", 5)):  # the path of 3 or 2 edges
        sc = annotate_from_fans(fs, CuspStrataAnnotation({cusp: 1}))
        assert len(sc.strata) == count
        assert all(s.id.startswith(f"{cusp}/") for s in sc.strata)
        rep = weight_filtration_on_FnHn(sc)
        assert rep.graded == ((1, 0), (2, 0))  # a path carries no b_1


def test_an_annotated_cusp_alone_and_missing_from_the_window_is_named():
    """The error names the cusp, where it said that the annotated cusps
    carry no cones."""
    with pytest.raises(ValueError, match="annotated cusp 'X' has no cones in the window"):
        annotate_from_fans(two_cusp_window(), CuspStrataAnnotation({"X": 3}))


def test_an_annotated_cusp_beside_one_in_the_window_is_named():
    """The error names the missing cusp, where it said that the annotated
    cusps must share one top cone dimension."""
    with pytest.raises(ValueError, match="annotated cusp 'X' has no cones in the window"):
        annotate_from_fans(two_cusp_window(), CuspStrataAnnotation({"F": 3, "X": 1}))
