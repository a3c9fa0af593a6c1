"""Output checks, run outside the timed region.

Every certificate is re-checked by plain multiplication over Fractions and
every count against a value known by construction or computed by the
reference routines in ``inputs``.  No check calls the psskit function whose
output it judges.  Each check returns None when the output is right and a
one-line reason when it is not.
"""

import json
from fractions import Fraction


class Refused(str):
    """Why an operation failed without answering anything wrong.

    The program exited with an error code, or its property suite reported
    one of its own claims as failed.  Such an operation counts as failed,
    while a plain string reason marks a wrong answer or certificate.
    """


# The 13 named checks of the property suite, in report order, keyed by the
# suite function that runs each.
SUITE_CHECKS = {
    "_check_gen_equivalence": "spanning_equivalence",
    "_check_trichotomy": "pointed_trichotomy",
    "_check_simplex_members": "simplex_member_structure",
    "_check_inter": "independence_factorization",
    "_check_main_bounds": "cardinality_bounds",
    "_check_lattice": "lattice_boolean_laws",
    "_check_caratheodory": "conic_caratheodory",
    "_check_mainext": "pointed_cover",
    "_check_max_family": "overlap_family_bound",
    "_check_frame_rank": "frame_full_rank",
    "_check_maxind": "frame_simplex_intersections",
    "_check_gale_basis": "nonnegative_dependency_basis",
    "_check_gale_points": "gale_point_classes",
}
_CHECK_NAMES = tuple(SUITE_CHECKS.values())


def _dot(z, x) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(z, x)), Fraction(0))


def _combination(vectors, coeffs: dict) -> list[Fraction]:
    acc = [Fraction(0)] * len(vectors[0])
    for i, c in coeffs.items():
        acc = [a + Fraction(c) * Fraction(x) for a, x in zip(acc, vectors[int(i)])]
    return acc


def _report(result, command: str):
    """(report, reason): the parsed JSON report of a CLI run, or why not."""
    code, text = result
    if code != 0:
        return None, Refused(f"{command} exited {code}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"{command} printed invalid JSON ({exc})"
    if report.get("command") != command:
        return None, f"report is for {report.get('command')!r}, not {command!r}"
    return report, None


# ----------------------------------------------------------------------
# certificates


def check_coefficients(vectors, coeffs: dict, target, strict: bool = False) -> str | None:
    """Nonnegative (or strictly positive) coefficients rebuilding ``target``."""
    if any(Fraction(c) < 0 or (strict and Fraction(c) == 0) for c in coeffs.values()):
        return "coefficient witness has a negative or zero coefficient"
    if _combination(vectors, coeffs) != [Fraction(x) for x in target]:
        return "coefficient witness does not rebuild its vector"
    return None


def check_separator(vectors, z) -> str | None:
    """z.x >= 1 for every vector."""
    if any(_dot(z, x) < 1 for x in vectors):
        return "separator fails z.x >= 1"
    return None


def check_simplex(vectors, members, dependency: dict) -> str | None:
    """A strictly positive dependency on exactly ``members`` summing to zero."""
    if sorted(int(i) for i in dependency) != sorted(members):
        return f"simplex {list(members)}: dependency support differs"
    if any(Fraction(c) <= 0 for c in dependency.values()):
        return f"simplex {list(members)}: dependency not strictly positive"
    if any(_combination(vectors, dependency)):
        return f"simplex {list(members)}: dependency does not sum to zero"
    return None


# ----------------------------------------------------------------------
# CLI reports


def check_verify(result, simplices: int | None, frames: int | None) -> str | None:
    """``verify`` passes every applicable check of the suite.

    ``simplices`` and ``frames``, when known by construction, must match
    the counts the cardinality check reports.
    """
    code, text = result
    report, why = _report((0, text), "verify")
    if why:
        return Refused(f"verify exited {code}") if code else why
    names = tuple(c["name"] for c in report["checks"])
    if names != _CHECK_NAMES:
        return f"verify ran checks {names}"
    failed = [c["name"] for c in report["checks"] if c["applicable"] and not c["passed"]]
    if code != 0 or report["passed"] is not True or failed:
        if code == 1 and report["passed"] is False and failed:
            return Refused(f"verify exited 1: the suite reports {failed} failed")
        return f"verify exited {code} with passed={report['passed']} and failed {failed}"
    bounds = report["checks"][_CHECK_NAMES.index("cardinality_bounds")]
    if simplices is not None:
        fields = dict(tok.split("=") for tok in bounds["detail"].split())
        if int(fields.get("n", -1)) != simplices:
            return f"cardinality check reports {bounds['detail']!r}, expected n={simplices}"
        if frames is not None and int(fields.get("frames", -1)) != frames:
            return f"cardinality check reports {bounds['detail']!r}, expected frames={frames}"
    return None


def check_simplices(result, vectors, simplices) -> str | None:
    report, why = _report(result, "simplices")
    if why:
        return why
    got = [tuple(s["members"]) for s in report["simplices"]]
    if report["count"] != len(got) or got != list(simplices):
        return f"simplices {got} differ from the reference {list(simplices)}"
    for s in report["simplices"]:
        why = check_simplex(vectors, s["members"], s["dependency"])
        if why:
            return why
    return None


def check_lattice(result, simplices, size: int) -> str | None:
    report, why = _report(result, "lattice")
    if why:
        return why
    elements = report["elements"]
    if report["size"] != size or len(elements) != size:
        return f"lattice has {report['size']} elements, reference {size}"
    seen = set()
    for e in elements:
        subset = tuple(e["subset"])
        union = sorted(set().union(*(simplices[j] for j in e["simplices"])))
        if list(subset) != union:
            return f"element {list(subset)} is not the union of its simplices"
        inside = [j for j, s in enumerate(simplices) if set(s) <= set(subset)]
        if e["simplices"] != inside:
            return f"element {list(subset)} lists simplices {e['simplices']}"
        seen.add(subset)
    if len(seen) != size:
        return "lattice lists an element twice"
    return None


def check_mns(result, vectors, frames: int | None) -> str | None:
    """Every frame strictly separated by its witness; an antichain."""
    report, why = _report(result, "mns")
    if why:
        return why
    found = report["frames"]
    if report["count"] != len(found) or (frames is not None and len(found) != frames):
        return f"{report['count']} frames, expected {frames}"
    members = [frozenset(f["members"]) for f in found]
    for f in found:
        why = check_separator([vectors[i] for i in f["members"]], f["witness"])
        if why:
            return f"frame {f['members']}: {why}"
    for a in members:
        if any(a < b for b in members):
            return f"frame {sorted(a)} is not maximal"
    if len(set(members)) != len(members):
        return "a frame is listed twice"
    return None


def check_analyze(result, vectors, simplices, size: int, cross: bool, frames) -> str | None:
    report, why = _report(result, "analyze")
    if why:
        return why
    flags, counts = report["flags"], report["counts"]
    d = len(vectors[0])
    expect = {
        "rank": (report["rank"], d),
        "cardinality": (report["cardinality"], len(vectors)),
        "pss": (flags["pss"], True),
        "cross": (flags["cross"], cross),
        "simplices": (counts["simplices"], len(simplices)),
        "lattice_elements": (counts["lattice_elements"], size),
    }
    if frames is not None:
        expect["max_pointed_frames"] = (counts["max_pointed_frames"], frames)
    for name, (got, want) in expect.items():
        if got != want:
            return f"analyze {name}={got}, expected {want}"
    dep = report["certificates"].get("positive_dependence")
    if dep is not None:
        i = dep["index"]
        if int(i) in map(int, dep["coefficients"]):
            return "positive dependence witness uses its own vector"
        why = check_coefficients(vectors, dep["coefficients"], vectors[i])
        if why:
            return why
    return None


# ----------------------------------------------------------------------
# library results of query_stream


def check_query(q, result) -> str | None:
    """Expected answer and certificate of one query_stream call."""
    call, vectors = q.call, q.vectors
    if call in ("is_pss", "is_positive_basis", "skeleton_contains"):
        return None if result is q.expected else f"{call} answered {result}"
    if call == "rank":
        return None if result == q.expected else f"rank {result}, expected {q.expected}"
    if call == "positively_dependent":
        if result.verdict is not q.expected:
            return f"positively_dependent answered {result.verdict}"
        if not result.verdict:
            return None
        if result.witness_index in result.witness_coeffs:
            return "dependence witness uses its own vector"
        return check_coefficients(vectors, result.witness_coeffs, vectors[result.witness_index])
    if call == "negatively_independent":
        if (result.kind == "separator") is not q.expected:
            return f"negatively_independent answered {result.kind}"
        return check_separator(vectors, result.separator.entries) if q.expected else None
    if call == "solve_nonneg":
        if result.feasible is not q.expected:
            return f"solve_nonneg answered {result.kind}"
        return check_coefficients(vectors, result.coeffs, q.point) if q.expected else None
    if call == "caratheodory_reduce":
        if len(result.coeffs) > q.dim:
            return f"support of {len(result.coeffs)} exceeds rank {q.dim}"
        return check_coefficients(vectors, result.coeffs, q.point, strict=True)
    return f"unknown call {call}"
