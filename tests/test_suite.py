import sys

import pytest

from psskit import VecSet, ratlin, run_property_suite, suite_passed
from psskit.genlib import (
    example_x9,
    make_cross,
    make_simplex,
    polygon_example,
    random_positive_basis,
)


@pytest.mark.parametrize(
    "X",
    [
        make_cross(2),
        make_cross(3),
        make_simplex(3),
        example_x9(),
        polygon_example(3),
        # positively independent basis with overlapping supports: the
        # all-subsets condition fails there, the implication chain holds
        VecSet(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0], [0, -1, -1]]),
        # positively dependent spanning set where the spanning-subsets
        # variant stays true
        VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]),
        # not a spanning set at all: most checks skip, the rest hold
        VecSet(2, [[1, 0], [0, 1]]),
    ],
)
def test_suite_passes_on_representative_inputs(X):
    checks = run_property_suite(X)
    assert suite_passed(checks), [
        (c.name, c.detail) for c in checks if c.applicable and not c.passed
    ]


def test_check_names_are_stable():
    names = [c.name for c in run_property_suite(make_cross(2))]
    assert names == [
        "spanning_equivalence",
        "pointed_trichotomy",
        "simplex_member_structure",
        "independence_factorization",
        "cardinality_bounds",
        "lattice_boolean_laws",
        "conic_caratheodory",
        "pointed_cover",
        "overlap_family_bound",
        "frame_full_rank",
        "frame_simplex_intersections",
        "nonnegative_dependency_basis",
        "gale_point_classes",
    ]


def test_inapplicable_checks_marked():
    checks = run_property_suite(VecSet(2, [[1, 0], [0, 1]]))
    by_name = {c.name: c for c in checks}
    assert not by_name["cardinality_bounds"].applicable
    assert not by_name["independence_factorization"].applicable
    assert by_name["pointed_trichotomy"].applicable


def test_suite_lp_count_gate(monkeypatch):
    # Every check reads the input's simplices, frames and flags from one
    # per-set memo.  The limit is a quarter of the 2,151 LPs the suite
    # took on this input when each check recomputed them.
    calls = []
    for name in ("solve_nonneg", "strict_separator"):
        original = getattr(ratlin, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "psskit" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    run_property_suite(random_positive_basis(6, 3, 1))
    assert len(calls) <= 537
