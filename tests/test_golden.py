"""Golden outputs: the CLI's exit code and stdout on a fixed corpus.

Each digest is a sha256 prefix of the exit code and the stdout of one
command on one set, recorded from the Fraction-elimination core before the
integer core replaced it.  ``TestDeterminism`` in ``test_cli.py`` compares
two runs of the same build; this module compares every build against those
recorded answers, so a change of arithmetic that moves any printed number,
index or verdict fails here.

Three digests were re-recorded since: ``verify`` on x9, polygon3 and C.
On these positively dependent sets the ``frame_simplex_intersections``
check used to report "frames meet every simplex in all but one element"
without checking it; it now counts the frames that miss two members of an
overlapping simplex (18 of 18, 6 of 6 and 1 of 4).

Three more were re-recorded since: ``gale`` on x9, polygon3 and C.  The
nonnegative dependency basis is now the first linearly independent
simplex dependencies in simplex order, where a repair loop used to patch
the kernel basis.  On these three sets the printed basis and Gale points
change; on the other six sets of the corpus they do not.

``rpb631`` joined the corpus later, the first set with d >= 5, where the
separator LP's mirrored -x block was widest; its digests were recorded
with that block still stored, before ``_phase_one`` priced free
coordinates from one column.

Five were re-recorded since: ``mns`` and ``cones`` on scaled16 and
rpb631, and ``cones`` on polygon3.  The frame walk now takes the separator
of each simplex-free subset of a full-rank positive basis in closed form
from its basis decomposition, where it asked an LP, so the printed
witnesses move on these positive bases and on the positive basis that
``cones`` extracts from polygon3.  The member lists, the parts and the
assignment do not change, and each witness still has a least product of
exactly 1 over its frame.  On the crosses and the simplex of the corpus
both routes give the same witnesses, so their digests stay.

The same five were re-recorded once more.  The closed form used to work
out its bound M again for every subset, so a rescaled parent witness
carried the parent's M and a frame's witness depended on the walk that
reached it.  M is now one constant per set, read off the simplices'
dependencies, and each witness is the closed form at its own frame.  The
member lists, the parts and the assignment again do not change, every
witness still has a least product of exactly 1 over its frame, and the
other digests of the corpus are byte-identical.

``PYTHONPATH=src python tests/test_golden.py`` prints the current
``GOLDEN`` table in this file's format.  Re-record a digest only for a
declared change of output.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from psskit import (
    VecSet,
    example_x9,
    make_cross,
    make_simplex,
    polygon_example,
    random_positive_basis,
)
from psskit.cli import main, vecset_json

COMMANDS = ("analyze", "simplices", "lattice", "mns", "cones", "gale", "reay", "verify")

# 16-bit numerators and denominators for the scaled positive basis
_SCALES = (
    Fraction(40503, 65521),
    Fraction(65497, 1021),
    Fraction(12289, 53731),
    Fraction(61001, 65449),
    Fraction(33331, 49157),
    Fraction(257, 64499),
)


def _scaled_basis() -> VecSet:
    X = random_positive_basis(4, 2, 0)
    return VecSet(X.dim, [v.scale(c) for v, c in zip(X, _SCALES, strict=True)])


CORPUS = {
    "x9": example_x9,
    "polygon3": lambda: polygon_example(3),
    "cross2": lambda: make_cross(2),
    "cross3": lambda: make_cross(3),
    "simplex4": lambda: make_simplex(4),
    # criterion 02's pinned counterexamples
    "P": lambda: VecSet(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0], [0, -1, -1]]),
    "C": lambda: VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]),
    # a pointed set: it does not positively span its hull
    "pointed": lambda: VecSet(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1], [2, 1, 1]]),
    "scaled16": _scaled_basis,
    # 9 vectors in R^6: overlapping simplices of sizes 3, 5 and 5, 13 frames
    "rpb631": lambda: random_positive_basis(6, 3, 1),
}


def _digest(X: VecSet, command: str) -> str:
    """sha256 prefix of ``psskit <command>`` on X: exit code, newline, stdout."""
    stdin = io.StringIO(json.dumps(vecset_json(X)))
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, stdin
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command])
    finally:
        sys.stdin = saved
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()[:16]


GOLDEN = {
    ("x9", "analyze"): "2a945159392912f9",
    ("x9", "simplices"): "e5e8d591e53ac2d4",
    ("x9", "lattice"): "430582eb2c96901a",
    ("x9", "mns"): "4816346130051331",
    ("x9", "cones"): "53c234e5e8472b6a",
    ("x9", "gale"): "9ffaec183679d174",
    ("x9", "reay"): "53c234e5e8472b6a",
    ("x9", "verify"): "30090d48a63f8910",
    ("polygon3", "analyze"): "536e69a7e0191c66",
    ("polygon3", "simplices"): "fe399e8b508d68cf",
    ("polygon3", "lattice"): "c55f3d462253359a",
    ("polygon3", "mns"): "c648e4d5176677cc",
    ("polygon3", "cones"): "bc3868773edd32f5",
    ("polygon3", "gale"): "3844e73c101d743d",
    ("polygon3", "reay"): "53c234e5e8472b6a",
    ("polygon3", "verify"): "384655e0a5b560f3",
    ("cross2", "analyze"): "ceb834d9ad74e234",
    ("cross2", "simplices"): "21555b16ff203373",
    ("cross2", "lattice"): "4ac8b0ed59d01d84",
    ("cross2", "mns"): "17d07c0639591bf1",
    ("cross2", "cones"): "2aee64aa3a2d76ff",
    ("cross2", "gale"): "c5aab171827a1b80",
    ("cross2", "reay"): "5a5c3cd243696872",
    ("cross2", "verify"): "b20ea61d27c383b8",
    ("cross3", "analyze"): "246c0a899ad298e3",
    ("cross3", "simplices"): "cb0a6667d6cbb584",
    ("cross3", "lattice"): "b6f8ae86e1e66b01",
    ("cross3", "mns"): "2ce64b841057ac33",
    ("cross3", "cones"): "0a4e3bc3c2c6b091",
    ("cross3", "gale"): "156c778d370ac301",
    ("cross3", "reay"): "9a9d3704a5cb43e8",
    ("cross3", "verify"): "e8398afa34594b23",
    ("simplex4", "analyze"): "b8cf089656283a94",
    ("simplex4", "simplices"): "062698378d4dba27",
    ("simplex4", "lattice"): "a04e93cd0fa178e9",
    ("simplex4", "mns"): "441f7e7833efcb36",
    ("simplex4", "cones"): "51d4767d5adfeea7",
    ("simplex4", "gale"): "1b9f2b2674c78e6c",
    ("simplex4", "reay"): "5b539e0770b22022",
    ("simplex4", "verify"): "0301d244496760bb",
    ("P", "analyze"): "f9811918e7f5d8d2",
    ("P", "simplices"): "3d56f19e8192264b",
    ("P", "lattice"): "4e00c6fa78230efb",
    ("P", "mns"): "a3bcfbe531247afe",
    ("P", "cones"): "e741a6a4a681cfb9",
    ("P", "gale"): "dea6b451fdbeb288",
    ("P", "reay"): "90d91a8e74de255a",
    ("P", "verify"): "f738619de4eb6dc6",
    ("C", "analyze"): "dffc3847ddc1523f",
    ("C", "simplices"): "e11f71c88cc21881",
    ("C", "lattice"): "e41dbcdf94579ae3",
    ("C", "mns"): "202f5dd434c7e6a6",
    ("C", "cones"): "a645c13bdcf56ab4",
    ("C", "gale"): "6f1e23f83f5472dd",
    ("C", "reay"): "53c234e5e8472b6a",
    ("C", "verify"): "0b123c6e5018dcf5",
    ("pointed", "analyze"): "8edc1343340116df",
    ("pointed", "simplices"): "6c7030db220b6569",
    ("pointed", "lattice"): "53c234e5e8472b6a",
    ("pointed", "mns"): "87ef592a281e5e3c",
    ("pointed", "cones"): "53c234e5e8472b6a",
    ("pointed", "gale"): "772aaed9699c4a3e",
    ("pointed", "reay"): "53c234e5e8472b6a",
    ("pointed", "verify"): "3ec8d7cb982cdd97",
    ("scaled16", "analyze"): "b7cc6b8f380750e6",
    ("scaled16", "simplices"): "80ce56b489ecf975",
    ("scaled16", "lattice"): "2d0782f75c4ecdcc",
    ("scaled16", "mns"): "c5061220739594d1",
    ("scaled16", "cones"): "d0f5a4650471ffe0",
    ("scaled16", "gale"): "aecbde5d24168de9",
    ("scaled16", "reay"): "4792bf3a66f08117",
    ("scaled16", "verify"): "53492b4dbdc8db01",
    ("rpb631", "analyze"): "9619534537e79c5f",
    ("rpb631", "simplices"): "04accd3f6d3b2de2",
    ("rpb631", "lattice"): "94c5473f93d32970",
    ("rpb631", "mns"): "1267248d8bb62f59",
    ("rpb631", "cones"): "efb15fd1ab990028",
    ("rpb631", "gale"): "1ce6a38280ca7f39",
    ("rpb631", "reay"): "cec8c4608000ba20",
    ("rpb631", "verify"): "3da8169bbc6168bb",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_outputs(name):
    X = CORPUS[name]()
    got = {(name, cmd): _digest(X, cmd) for cmd in COMMANDS}
    want = {key: GOLDEN[key] for key in got}
    assert got == want


def _golden_table() -> str:
    rows = [
        f'    ("{name}", "{cmd}"): "{_digest(build(), cmd)}",'
        for name, build in CORPUS.items()
        for cmd in COMMANDS
    ]
    return "\n".join(["GOLDEN = {", *rows, "}"])


if __name__ == "__main__":
    print(_golden_table())
