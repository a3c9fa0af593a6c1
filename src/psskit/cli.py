"""Command-line frontend.

Reads vector sets as JSON ``{"dim": d, "vectors": [["p/q", ...], ...]}``
with rationals written as strings (integers allowed), runs an analysis,
prints a machine-readable JSON report with a fixed key order to stdout
and a short human summary to stderr.

Exit codes: 0 success, 1 a failing property suite (``verify``) only, 2
input error (a set past the scan guard included, or one with no vectors
and a ``dim`` past it), 3 internal error: any other exception, such as a
result that failed its own re-check (a ``PropertyViolation``), which is a
bug, not bad input.  Inside ``verify`` such a failure fails its check.
The input is parsed under Python's int-to-str digit limit; the report is
built and written without it, as an exact output value may pass it.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _json_str

from .conical import cone_decomposition, enumerate_mns, is_cross
from .errors import PreconditionError, VectorInputError
from .gale import (
    dependency_basis,
    gale_diagram,
    is_locally_equilibrated,
    nonneg_dependency_basis,
)
from .genlib import (
    AntichainSpec,
    example_x9,
    make_cross,
    make_from_antichain,
    make_simplex,
    polygon_example,
    random_positive_basis,
)
from .latticemod import build_lattice
from .ratlin import QVec, _to_rat
from .simplicial import (
    basis_decomposition,
    enumerate_simplices,
    factorization_condition,
    is_simplex,
    positively_spanning_subsets,
    reay_partition,
)
from .spanset import VecSet, is_pss, positively_dependent
from .suite import run_property_suite, suite_passed

DEFAULT_MAX_SIZE = 18
_EXIT_OK = 0
_EXIT_SUITE = 1
_EXIT_INPUT = 2
_EXIT_INTERNAL = 3
_BATCH = 65536  # pieces of report text joined into one write to stdout


class CliInputError(Exception):
    pass


def _vec_json(v: QVec) -> list[str]:
    return [str(c) for c in v]


def _coeffs_json(coeffs: dict) -> dict:
    return {str(i): str(c) for i, c in sorted(coeffs.items())}


def parse_vecset(text: str) -> VecSet:
    """The set in ``text``.  Only the JSON shape is checked here: each row
    becomes a ``QVec`` and the rows and ``dim`` a ``VecSet``, which check
    every entry and the set's shape."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an int past Python's digit limit
        raise CliInputError(f"input is not valid JSON: {exc}")
    if not (isinstance(data, dict) and "dim" in data and isinstance(data.get("vectors"), list)):
        raise CliInputError('input must be {"dim": d, "vectors": [[...], ...]}')
    vectors = []
    for i, row in enumerate(data["vectors"]):
        if not isinstance(row, list):
            raise CliInputError(f"vector {i}: expected a list of entries")
        try:
            vectors.append(QVec(row))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise CliInputError(f"vector {i}: {exc}")
    return VecSet(data["dim"], vectors)


def vecset_json(X: VecSet) -> dict:
    return {"dim": X.dim, "vectors": [_vec_json(v) for v in X]}


def _read_input(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")


def _emit(report: dict, summary: str) -> None:
    """Write ``json.dumps(report, indent=2) + "\\n"`` to stdout, then the summary."""
    pieces: list[str] = []
    _put_json(report, "\n", pieces)
    pieces.append("\n")
    sys.stdout.write("".join(pieces))
    sys.stderr.write(summary + "\n")


def _put_json(value, nl: str, pieces: list[str]) -> None:
    """Append ``value``'s ``indent=2`` JSON text to ``pieces``, nested lines
    opening with ``nl``; once ``pieces`` holds ``_BATCH``, a list item's end
    writes them to stdout.  Only str, int, bool, None, list and dict with
    str keys are written: anything else raises TypeError."""
    inner = nl + "  "
    if isinstance(value, str):
        pieces.append(_json_str(value))
    elif value is None or isinstance(value, bool):
        pieces.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    elif not isinstance(value, (list, dict)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        pieces.append("[]" if isinstance(value, list) else "{}")
    elif isinstance(value, dict):
        for k, (key, item) in enumerate(value.items()):  # _json_str refuses a non-str key
            pieces.append(("," if k else "{") + inner + _json_str(key) + ": ")
            _put_json(item, inner, pieces)
        pieces.append(nl + "}")
    elif (kinds := set(map(type, value))) in ({int}, {str}):  # one join; a bool is no int
        text = map(int.__repr__ if kinds == {int} else _json_str, value)
        pieces.append("[" + inner + ("," + inner).join(text) + nl + "]")
    else:
        for k, item in enumerate(value):
            pieces.append(("," if k else "[") + inner)
            _put_json(item, inner, pieces)
            if len(pieces) >= _BATCH:
                sys.stdout.write("".join(pieces))
                pieces.clear()
        pieces.append(nl + "]")


def _load_guarded(args) -> VecSet:
    X = parse_vecset(_read_input(args.input))
    limit = args.max_size
    if len(X) > limit or not X.vectors and X.dim > limit:  # nothing else bounds dim
        raise CliInputError(
            f"set has {len(X)} vectors in dimension {X.dim}, beyond the scan "
            f"guard {limit}; raise --max-size or PSSKIT_MAX_SIZE to override"
        )
    return X


def cmd_analyze(X: VecSet) -> tuple[dict, str]:
    simplices = enumerate_simplices(X)
    frames = enumerate_mns(X)
    pss = is_pss(X)
    posdep = positively_dependent(X)
    basis = pss and not posdep.verdict
    full = X.rank() == X.dim
    certificates: dict = {}
    if posdep.verdict:
        certificates["positive_dependence"] = {
            "index": posdep.witness_index,
            "coefficients": _coeffs_json(posdep.witness_coeffs),
        }
    lattice_size = len(positively_spanning_subsets(X)) if pss else None
    if basis and full:
        decomp = basis_decomposition(X)
        certificates["basis_decomposition"] = {
            "basis": list(decomp.basis),
            "pairs": [
                {"element": x, "support": list(a)} for x, a in decomp.pairs
            ],
        }
    fact = factorization_condition(X)
    if not fact.ok:
        certificates["factorization_counterexample"] = {
            "subset": list(fact.witness_subset),
            "simplex": list(fact.witness_simplex.members),
        }
    report = {
        "dim": X.dim,
        "cardinality": len(X),
        "rank": X.rank(),
        "flags": {
            "pss": pss,
            "positive_basis": basis,
            "cross": is_cross(X),
            "simplex": is_simplex(X) is not None,
            "locally_equilibrated": is_locally_equilibrated(X),
        },
        "counts": {
            "simplices": len(simplices),
            "max_pointed_frames": len(frames),
            "lattice_elements": lattice_size,
        },
        "certificates": certificates,
    }
    summary = (
        f"analyze: {len(X)} vectors in R^{X.dim}, rank {report['rank']}; "
        f"pss={pss} positive_basis={basis} "
        f"simplices={len(simplices)} frames={len(frames)}"
    )
    return report, summary


def cmd_simplices(X: VecSet) -> tuple[dict, str]:
    simplices = enumerate_simplices(X)
    report = {
        "count": len(simplices),
        "simplices": [
            {"members": list(s.members), "dependency": _coeffs_json(s.dependency)}
            for s in simplices
        ],
    }
    return report, f"simplices: {len(simplices)} found"


def cmd_lattice(X: VecSet) -> tuple[dict, str]:
    lattice = build_lattice(X)
    report = {
        "size": len(lattice),
        "elements": [
            {"subset": list(e.subset), "simplices": list(e.simplices)}
            for e in lattice
        ],
    }
    return report, f"lattice: {len(lattice)} positively spanning subsets"


def cmd_mns(X: VecSet) -> tuple[dict, str]:
    frames = enumerate_mns(X)
    report = {
        "count": len(frames),
        "frames": [
            {"members": list(f.members), "witness": _vec_json(f.witness)}
            for f in frames
        ],
    }
    return report, f"mns: {len(frames)} maximal pointed frames"


def cmd_cones(X: VecSet) -> tuple[dict, str]:
    cover = cone_decomposition(X)
    report = {
        "parts": [
            {
                "members": list(part),
                "frame": list(frame.members),
                "witness": _vec_json(frame.witness),
            }
            for part, frame in zip(cover.parts, cover.frames)
        ],
        "assignment": {str(i): k for i, k in sorted(cover.assignment.items())},
    }
    return report, f"cones: covered by {len(cover.parts)} pointed parts"


def cmd_gale(X: VecSet) -> tuple[dict, str]:
    basis = dependency_basis(X)
    report = {
        "dependency_dimension": len(basis),
        "locally_equilibrated": is_locally_equilibrated(X),
        "dependency_basis": [
            {str(i): str(c) for i, c in enumerate(v.coeffs) if c != 0}
            for v in basis
        ],
    }
    if is_pss(X):
        nn = nonneg_dependency_basis(X)
        diagram = gale_diagram(X, nn)
        report["nonneg_basis"] = [
            {str(i): str(c) for i, c in enumerate(v.coeffs) if c != 0}
            for v in nn
        ]
        report["points"] = [_vec_json(p) for p in diagram.points]
    return report, f"gale: dependency space of dimension {len(basis)}"


def cmd_reay(X: VecSet) -> tuple[dict, str]:
    partition = reay_partition(X)
    report = {
        "parts": [list(p) for p in partition.parts],
        "dimensions": list(partition.dimensions),
    }
    return report, f"reay: {len(partition.parts)} telescoping parts"


def cmd_verify(X: VecSet) -> tuple[dict, str]:
    checks = run_property_suite(X)
    ok = suite_passed(checks)
    report = {"passed": ok, "checks": [asdict(c) for c in checks]}
    ran = sum(1 for c in checks if c.applicable)
    return report, f"verify: {'PASS' if ok else 'FAIL'} ({ran} applicable checks)"


def _parse_list(raw: str, flag: str, parse=_to_rat) -> list:
    try:
        return [parse(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"{flag}: bad entry in {raw!r} ({exc})")


def cmd_generate(args) -> tuple[dict, str]:
    kind = args.kind
    if kind == "cross":
        scales = _parse_list(args.scales, "--scales") if args.scales else None
        X = make_cross(args.dim, scales)
    elif kind == "simplex":
        coeffs = _parse_list(args.coeffs, "--coeffs") if args.coeffs else None
        X = make_simplex(args.dim, coeffs)
    elif kind == "antichain":
        if not args.subsets:
            raise CliInputError("antichain needs --subsets like '1,2;2,3'")
        groups = [group for group in args.subsets.split(";") if group.strip()]
        subsets = [frozenset(_parse_list(group, "--subsets", int)) for group in groups]
        X = make_from_antichain(AntichainSpec(args.dim, subsets))
    elif kind == "x9":
        X = example_x9()
    elif kind == "polygon":
        X = polygon_example(args.pairs)
    elif kind == "random":
        X = random_positive_basis(args.dim, args.count, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise CliInputError(f"unknown generator {kind}")
    return vecset_json(X), f"generate {kind}: {len(X)} vectors in R^{X.dim}"


_INPUT_COMMANDS = {
    "analyze": (cmd_analyze, "classification flags and counts"),
    "simplices": (cmd_simplices, "enumerate simplex subsets"),
    "lattice": (cmd_lattice, "positively spanning subset lattice"),
    "mns": (cmd_mns, "maximal pointed frames"),
    "cones": (cmd_cones, "conical decomposition"),
    "gale": (cmd_gale, "dependency space and Gale diagram"),
    "reay": (cmd_reay, "telescoping disjoint partition"),
    "verify": (cmd_verify, "run the full property suite"),
}


@functools.cache
def build_parser(env_limit: str | None) -> argparse.ArgumentParser:
    """The parser for a given ``PSSKIT_MAX_SIZE`` value, built once per value."""
    try:
        default_limit = int(env_limit) if env_limit else DEFAULT_MAX_SIZE
    except ValueError:
        raise CliInputError(f"PSSKIT_MAX_SIZE must be an integer, got {env_limit!r}")

    parser = argparse.ArgumentParser(
        prog="psskit",
        description="Exact analysis of positive spanning structure in vector sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _INPUT_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "input",
            nargs="?",
            default="-",
            help="input JSON path, or - for stdin (default)",
        )
        p.add_argument(
            "--max-size",
            type=int,
            default=default_limit,
            help=f"refuse exponential scans beyond this many vectors "
            f"(default {default_limit}; env PSSKIT_MAX_SIZE)",
        )

    g = sub.add_parser("generate", help="emit a named example set as JSON")
    g.add_argument(
        "kind",
        choices=["cross", "simplex", "antichain", "x9", "polygon", "random"],
    )
    g.add_argument("--dim", type=int, default=2, help="ambient dimension")
    g.add_argument("--scales", help="comma-separated positive rationals (cross)")
    g.add_argument("--coeffs", help="comma-separated positive rationals (simplex)")
    g.add_argument("--subsets", help="semicolon-separated supports (antichain)")
    g.add_argument("--pairs", type=int, default=3, help="antipodal pairs (polygon)")
    g.add_argument("--count", type=int, default=1, help="simplex count (random)")
    g.add_argument("--seed", type=int, default=0, help="seed (random)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser(os.environ.get("PSSKIT_MAX_SIZE")).parse_args(argv)
        if args.command == "generate":
            _emit(*cmd_generate(args))
            return _EXIT_OK
        X = _load_guarded(args)
        digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
        if digits:
            sys.set_int_max_str_digits(0)
        try:
            report, summary = _INPUT_COMMANDS[args.command][0](X)
            _emit({"command": args.command, **report}, summary)
        finally:
            if digits:
                sys.set_int_max_str_digits(digits)
        failed = args.command == "verify" and not report["passed"]
        return _EXIT_SUITE if failed else _EXIT_OK
    except (CliInputError, VectorInputError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_INPUT
    except Exception as exc:
        sys.stderr.write(f"internal error: {str(exc) or type(exc).__name__}\n")
        return _EXIT_INTERNAL


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
