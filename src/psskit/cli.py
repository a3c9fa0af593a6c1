"""Command-line frontend.

Reads vector sets as JSON ``{"dim": d, "vectors": [["p/q", ...], ...]}``
with rationals written as strings (integers allowed), runs an analysis,
prints a machine-readable JSON report with a fixed key order to stdout
and a short human summary to stderr.

Exit codes: 0 success, 1 property-suite failure, 2 input error, 3 internal
error (a result failed its own re-check: a bug, not bad input).
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .conical import cone_decomposition, enumerate_mns, is_cross
from .errors import PreconditionError, PssKitError, VectorInputError
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
from .ratlin import QVec
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


class CliInputError(Exception):
    pass


def _vec_json(v: QVec) -> list[str]:
    return [str(c) for c in v]


def _coeffs_json(coeffs: dict) -> dict:
    return {str(i): str(c) for i, c in sorted(coeffs.items())}


def _parse_entry(raw, vec_index: int) -> Fraction:
    if isinstance(raw, bool):
        raise CliInputError(f"vector {vec_index}: boolean entry")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise CliInputError(f"vector {vec_index}: bad rational {raw!r} ({exc})")
    if isinstance(raw, float):
        raise CliInputError(
            f"vector {vec_index}: float entry {raw!r}; write rationals as strings"
        )
    raise CliInputError(f"vector {vec_index}: unsupported entry {raw!r}")


def parse_vecset(text: str) -> VecSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"input is not valid JSON: {exc}")
    if not isinstance(data, dict) or "dim" not in data or "vectors" not in data:
        raise CliInputError('input must be {"dim": d, "vectors": [[...], ...]}')
    dim = data["dim"]
    if type(dim) is not int or dim < 1:  # bool is an int subclass
        raise CliInputError(f"dim must be a positive integer, got {dim!r}")
    rows = data["vectors"]
    if not isinstance(rows, list):
        raise CliInputError("vectors must be a list")
    vectors = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise CliInputError(f"vector {i}: expected {dim} entries")
        vectors.append(QVec(_parse_entry(e, i) for e in row))
    try:
        return VecSet(dim, vectors)
    except VectorInputError as exc:
        raise CliInputError(str(exc))


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
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    sys.stderr.write(summary + "\n")


def _simplex_json(s) -> dict:
    return {
        "members": list(s.members),
        "dependency": _coeffs_json(s.dependency),
    }


def _load_guarded(args) -> VecSet:
    X = parse_vecset(_read_input(args.input))
    limit = args.max_size
    if len(X) > limit:
        raise CliInputError(
            f"set has {len(X)} vectors, beyond the scan guard {limit}; "
            "raise --max-size or PSSKIT_MAX_SIZE to override"
        )
    return X


def cmd_analyze(args) -> int:
    X = _load_guarded(args)
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
        "command": "analyze",
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
    flags = report["flags"]
    summary = (
        f"analyze: {len(X)} vectors in R^{X.dim}, rank {report['rank']}; "
        f"pss={flags['pss']} positive_basis={flags['positive_basis']} "
        f"simplices={len(simplices)} frames={len(frames)}"
    )
    _emit(report, summary)
    return _EXIT_OK


def cmd_simplices(args) -> int:
    X = _load_guarded(args)
    simplices = enumerate_simplices(X)
    report = {
        "command": "simplices",
        "count": len(simplices),
        "simplices": [_simplex_json(s) for s in simplices],
    }
    _emit(report, f"simplices: {len(simplices)} found")
    return _EXIT_OK


def cmd_lattice(args) -> int:
    X = _load_guarded(args)
    lattice = build_lattice(X)
    report = {
        "command": "lattice",
        "size": len(lattice),
        "elements": [
            {"subset": list(e.subset), "simplices": list(e.simplices)}
            for e in lattice
        ],
    }
    _emit(report, f"lattice: {len(lattice)} positively spanning subsets")
    return _EXIT_OK


def cmd_mns(args) -> int:
    X = _load_guarded(args)
    frames = enumerate_mns(X)
    report = {
        "command": "mns",
        "count": len(frames),
        "frames": [
            {"members": list(f.members), "witness": _vec_json(f.witness)}
            for f in frames
        ],
    }
    _emit(report, f"mns: {len(frames)} maximal pointed frames")
    return _EXIT_OK


def cmd_cones(args) -> int:
    X = _load_guarded(args)
    cover = cone_decomposition(X)
    report = {
        "command": "cones",
        "parts": [
            {
                "members": list(part),
                "frame": list(frame.members),
                "witness": _vec_json(z),
            }
            for part, frame, z in zip(cover.parts, cover.frames, cover.witnesses)
        ],
        "assignment": {str(i): k for i, k in sorted(cover.assignment.items())},
    }
    _emit(report, f"cones: covered by {len(cover.parts)} pointed parts")
    return _EXIT_OK


def cmd_gale(args) -> int:
    X = _load_guarded(args)
    basis = dependency_basis(X)
    report = {
        "command": "gale",
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
    _emit(report, f"gale: dependency space of dimension {len(basis)}")
    return _EXIT_OK


def cmd_reay(args) -> int:
    X = _load_guarded(args)
    partition = reay_partition(X)
    report = {
        "command": "reay",
        "parts": [list(p) for p in partition.parts],
        "dimensions": list(partition.dimensions),
    }
    _emit(report, f"reay: {len(partition.parts)} telescoping parts")
    return _EXIT_OK


def cmd_verify(args) -> int:
    X = _load_guarded(args)
    checks = run_property_suite(X)
    ok = suite_passed(checks)
    report = {
        "command": "verify",
        "passed": ok,
        "checks": [
            {
                "name": c.name,
                "applicable": c.applicable,
                "passed": c.passed,
                "detail": c.detail,
            }
            for c in checks
        ],
    }
    ran = sum(1 for c in checks if c.applicable)
    _emit(report, f"verify: {'PASS' if ok else 'FAIL'} ({ran} applicable checks)")
    return _EXIT_OK if ok else _EXIT_SUITE


def _parse_list(raw: str, flag: str, parse=Fraction) -> list:
    try:
        return [parse(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"{flag}: bad entry in {raw!r} ({exc})")


def cmd_generate(args) -> int:
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
    sys.stdout.write(json.dumps(vecset_json(X), indent=2) + "\n")
    sys.stderr.write(f"generate {kind}: {len(X)} vectors in R^{X.dim}\n")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    env_limit = os.environ.get("PSSKIT_MAX_SIZE")
    try:
        default_limit = int(env_limit) if env_limit else DEFAULT_MAX_SIZE
    except ValueError:
        raise CliInputError(f"PSSKIT_MAX_SIZE must be an integer, got {env_limit!r}")

    parser = argparse.ArgumentParser(
        prog="psskit",
        description="Exact analysis of positive spanning structure in vector sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_command(name, fn, help_text):
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
        p.set_defaults(fn=fn)
        return p

    add_input_command("analyze", cmd_analyze, "classification flags and counts")
    add_input_command("simplices", cmd_simplices, "enumerate simplex subsets")
    add_input_command("lattice", cmd_lattice, "positively spanning subset lattice")
    add_input_command("mns", cmd_mns, "maximal pointed frames")
    add_input_command("cones", cmd_cones, "conical decomposition")
    add_input_command("gale", cmd_gale, "dependency space and Gale diagram")
    add_input_command("reay", cmd_reay, "telescoping disjoint partition")
    add_input_command("verify", cmd_verify, "run the full property suite")

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
    g.set_defaults(fn=cmd_generate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CliInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_INPUT
    except VectorInputError as exc:
        where = f" (vector {exc.index})" if exc.index is not None else ""
        sys.stderr.write(f"error: {exc}{where}\n")
        return _EXIT_INPUT
    except PreconditionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_INPUT
    except PssKitError as exc:
        sys.stderr.write(f"property failure: {exc}\n")
        return _EXIT_SUITE
    except RuntimeError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return _EXIT_INTERNAL


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
