import json
import sys

import pytest

from psskit import VecSet, run_property_suite, simplicial, suite_passed
from psskit.cli import main, vecset_json
from psskit.conical import ConeFrame, enumerate_mns
from psskit.simplicial import basis_decomposition, enumerate_simplices
from psskit.genlib import (
    example_x9,
    make_cross,
    make_simplex,
    polygon_example,
    random_positive_basis,
)

from conftest import count_lp_calls


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
        # not spanning, though it holds a simplex: the simplices miss e2
        VecSet(2, [[1, 0], [-1, 0], [0, 1]]),
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
    # per-set memo, is_pss is one LP, the cover assigns the members of the
    # positive basis without one, and the frame walk takes each separator
    # of a positive basis from its basis decomposition.  The 21 left are
    # is_pss, positively_dependent's 9, the 10 Caratheodory reductions and
    # the trichotomy's separator.  It was 2,151 when each check recomputed
    # its structures, 411 while the frame walk still asked an LP of
    # extensions holding a simplex, and 344 while it asked one of every
    # simplex-free extension its parent's separator did not rescale.
    calls = count_lp_calls(monkeypatch)
    run_property_suite(random_positive_basis(6, 3, 1))
    assert len(calls) <= 21


def test_frame_witness_below_one_fails_the_rank_check(monkeypatch):
    # the suite re-checks every frame witness by multiplication, whichever
    # route built it: halved witnesses give each member a product of 1/2
    X = make_cross(3)
    halved = [ConeFrame(f.members, f.witness.scale("1/2")) for f in enumerate_mns(X)]
    monkeypatch.setattr("psskit.suite.enumerate_mns", lambda Y: halved)
    failed = [c for c in run_property_suite(X) if not c.passed]
    assert [(c.name, c.detail) for c in failed] == [
        ("frame_full_rank", f"frame {halved[0].members}: witness below 1 on 0")
    ]


@pytest.mark.parametrize("d, limit", [(6, 200), (8, 600)])
def test_suite_rank_count_gate(d, limit, monkeypatch):
    # Every subset rank is kept in the set's memo under its mask, and the
    # overlap family skips intersections of fewer than d members.  The
    # limits sit just above the counts measured then (165 and 561); they
    # were 2,198 and 33,222 while ranks were kept per call or not at all.
    calls = count_lp_calls(monkeypatch, names=("rank",))
    assert suite_passed(run_property_suite(make_cross(d)))
    assert len(calls) <= limit


def test_suite_builds_the_basis_decomposition_once(monkeypatch):
    # the decomposition re-checks each off-basis element once per build;
    # make_cross(3) has three, and both the chain and the frame checks read it
    calls = []
    original = simplicial.in_rint_positive_span
    monkeypatch.setattr(
        simplicial, "in_rint_positive_span", lambda p, B: calls.append(B) or original(p, B)
    )
    assert suite_passed(run_property_suite(make_cross(3)))
    assert len(calls) == 3


def test_suite_builds_the_union_closure_once(monkeypatch):
    # The spanning-only factorization scan and the lattice check share one
    # memoized closure; a build is one read of the simplices from inside it.
    builds = []
    original = simplicial.enumerate_simplices

    def counted(X):
        if sys._getframe(1).f_code.co_name == "positively_spanning_subsets":
            builds.append(X)
        return original(X)

    monkeypatch.setattr(simplicial, "enumerate_simplices", counted)
    checks = {c.name: c for c in run_property_suite(make_cross(3))}
    assert checks["independence_factorization"].applicable
    assert checks["lattice_boolean_laws"].applicable
    assert suite_passed(checks.values())
    assert len(builds) == 1


def _frames_and_simplices(X):
    frames = [f.member_set() for f in enumerate_mns(X)]
    simplices = [s.member_set() for s in enumerate_simplices(X)]
    return frames, simplices


def _meets_all_but_one(frame, simplices):
    return all(len(s - frame) == 1 for s in simplices)


def test_frame_missing_two_members_of_a_simplex_is_pinned(tmp_path, capsys):
    # A valid positive basis on which not every maximal frame meets every
    # simplex in all but one element: the suite must still pass.
    X = random_positive_basis(6, 3, 15)
    frames, simplices = _frames_and_simplices(X)
    frame, simplex = frozenset({0, 1, 2, 4, 6, 7, 8}), frozenset({2, 3, 4, 5, 7})
    assert frame in frames and simplex in simplices
    assert simplex - frame == {3, 5}
    check = next(c for c in run_property_suite(X) if c.name == "frame_simplex_intersections")
    assert check.passed and check.detail != "frames meet every simplex in all but one element"
    path = tmp_path / "rpb_6_3_15.json"
    path.write_text(json.dumps(vecset_json(X)))
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_frame_detail_on_a_dependent_set_counts_its_misses():
    # x9 is positively dependent: every one of its 18 frames misses two
    # members of some simplex, e.g. frame (0,1,3,4,6,7) and simplex (2,5,6),
    # and the check says so instead of claiming the all-but-one property.
    X = example_x9()
    frames, simplices = _frames_and_simplices(X)
    frame, simplex = frozenset({0, 1, 3, 4, 6, 7}), frozenset({2, 5, 6})
    assert frame in frames and simplex in simplices
    assert simplex - frame == {2, 5}
    assert len(frames) == 18
    assert all(any(len(s - f) > 1 for s in simplices) for f in frames)
    check = next(c for c in run_property_suite(X) if c.name == "frame_simplex_intersections")
    assert check.passed
    assert check.detail == (
        "18 of 18 frames miss two members of an overlapping simplex; "
        "every frame is maximal"
    )


@pytest.mark.parametrize(
    "args",
    [(d, n, seed) for d in (4, 5, 6) for n in (2, 3) for seed in (0, 1)]
    + [(5, 3, 6), (6, 3, 15)],
)
def test_frame_statements_on_seeded_bases(args):
    X = random_positive_basis(*args)
    frames, simplices = _frames_and_simplices(X)
    # (b) maximality by simplex completion
    for f in frames:
        assert not any(s <= f for s in simplices)
        for j in set(X.indices()) - f:
            assert any(j in s and s <= f | {j} for s in simplices)
    # (a) some frame through the decomposition's linear basis
    B = frozenset(basis_decomposition(X).basis)
    assert any(B <= f and _meets_all_but_one(f, simplices) for f in frames)
    # (c) pairwise disjoint simplices: every frame
    if sum(map(len, simplices)) == len(frozenset().union(*simplices)):
        assert all(_meets_all_but_one(f, simplices) for f in frames)
    assert suite_passed(run_property_suite(X))
