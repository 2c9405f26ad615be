"""JSON group-description files for the command line.

A group file is a JSON object with optional "name", a "torsion" field
("trivial", "countable", optionally with listed orders, or a list of cyclic
orders for a finite torsion subgroup) and a "free" field built from
{"free": rank}, {"rank1": characteristic}, {"cd": [...]}, {"tower": ...}
and {"sum": [...]}.  Characteristics map primes (as strings, listed in
increasing order) to exponents, with "inf" as the infinity token.  A
"rank1" group is read as the canonical rank-1 tower of its characteristic.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .compare import Witness
from .fg import TorsionDesc, from_cyclic_orders
from .groups import (AbGroupDesc, CompletelyDecomposable, DirectSum,
                     FreeOfRank, FreePart, OMEGA_COPIES, TowerForm)
from .matrices import IntMatrix, RatMatrix
from .towers import (INF, Supernatural, Tower, TypeClass, is_prime,
                     rank1_tower_from_supernatural, validate_tower)


class ParseError(ValueError):
    """Malformed input, with a position (line/column or field path)."""


class ValidationError(ValueError):
    """Well-formed input describing an invalid object (e.g. tower defects)."""


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"line {e.lineno}, column {e.colno}: {e.msg}") from None


def _fail(path: str, msg: str):
    raise ParseError(f"at {path or '$'}: {msg}")


def _is_int(x) -> bool:
    """A JSON integer; true and false are not (bool is a subclass of int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_supernatural(spec, path: str) -> Supernatural:
    if not isinstance(spec, dict) or not spec:
        _fail(path, "characteristic must be a non-empty object")
    assignments: dict[int, object] = {}
    last = 0
    for key, exp in spec.items():
        kpath = f"{path}.{key}"
        if not (isinstance(key, str) and key.isascii() and key.isdigit()):
            _fail(kpath, f"prime expected, got {key!r}")
        p = int(key)
        if not is_prime(p):
            _fail(kpath, f"{p} is not prime")
        if p <= last:
            _fail(kpath, "primes must be listed in increasing order")
        last = p
        if exp == "inf":
            assignments[p] = INF
        elif _is_int(exp) and exp >= 0:
            assignments[p] = exp
        else:
            _fail(kpath, f"exponent must be a natural or \"inf\", got {exp!r}")
    return Supernatural.of(assignments)


def _parse_matrix(spec, rank: int, path: str) -> IntMatrix:
    if (not isinstance(spec, list) or len(spec) != rank
            or any(not isinstance(row, list) or len(row) != rank
                   or any(not _is_int(x) for x in row)
                   for row in spec)):
        _fail(path, f"expected a {rank}x{rank} integer matrix")
    return IntMatrix.from_rows(spec)


def _parse_tower(spec, path: str) -> Tower:
    if not isinstance(spec, dict) or not _is_int(spec.get("rank")):
        _fail(path, "tower needs an integer \"rank\"")
    rank = spec["rank"]
    if rank < 1:
        _fail(f"{path}.rank", "rank must be >= 1")
    mats = {}
    for kind in ("prefix", "period"):
        seq = spec.get(kind, [])
        if not isinstance(seq, list):
            _fail(f"{path}.{kind}", "expected a list of matrices")
        mats[kind] = tuple(_parse_matrix(m, rank, f"{path}.{kind}[{i}]")
                           for i, m in enumerate(seq))
    t = Tower(rank, mats["prefix"], mats["period"])
    defects = validate_tower(t)
    if defects:
        raise ValidationError(f"at {path}: " + "; ".join(defects))
    return t


def _parse_free(spec, path: str) -> FreePart:
    if not isinstance(spec, dict) or len(spec) != 1:
        _fail(path, "free part must be an object with exactly one key")
    key, val = next(iter(spec.items()))
    if key == "free":
        if not _is_int(val) or val < 0:
            _fail(f"{path}.free", "rank must be a natural number")
        return FreeOfRank(val)
    if key == "rank1":
        sup = _parse_supernatural(val, f"{path}.rank1")
        return TowerForm(rank1_tower_from_supernatural(sup))
    if key == "cd":
        if not isinstance(val, list) or not val:
            _fail(f"{path}.cd", "expected a non-empty list of typed summands")
        parts = []
        for i, item in enumerate(val):
            ipath = f"{path}.cd[{i}]"
            if not isinstance(item, dict) or "type" not in item:
                _fail(ipath, "summand needs a \"type\"")
            sup = _parse_supernatural(item["type"], f"{ipath}.type")
            copies = item.get("copies", 1)
            if copies == "omega":
                copies = OMEGA_COPIES
            elif not _is_int(copies) or copies < 1:
                _fail(f"{ipath}.copies",
                      "copies must be a positive integer or \"omega\"")
            parts.append((TypeClass(sup), copies))
        return CompletelyDecomposable(tuple(parts))
    if key == "tower":
        return TowerForm(_parse_tower(val, f"{path}.tower"))
    if key == "sum":
        if not isinstance(val, list) or not val:
            _fail(f"{path}.sum", "expected a non-empty list of free parts")
        return DirectSum(tuple(_parse_free(p, f"{path}.sum[{i}]")
                               for i, p in enumerate(val)))
    _fail(path, f"unknown free part kind {key!r}")


def _parse_torsion(spec, path: str) -> TorsionDesc:
    if spec == "trivial":
        return TorsionDesc.trivial()
    if spec == "countable":
        return TorsionDesc.countably_infinite()
    if isinstance(spec, dict) and set(spec) == {"countable"}:
        # listed structure of an infinite torsion group is advisory: only
        # the cardinal enters any downstream computation
        return TorsionDesc.countably_infinite()
    if isinstance(spec, list):
        if any(not _is_int(d) or d < 2 for d in spec):
            _fail(path, "cyclic orders must be integers >= 2")
        return TorsionDesc(from_cyclic_orders(spec))
    _fail(path, "torsion must be \"trivial\", \"countable\" or a list "
                "of cyclic orders")


def parse_group_file(text: str) -> AbGroupDesc:
    data = _loads(text)
    if not isinstance(data, dict):
        _fail("$", "group file must be a JSON object")
    unknown = set(data) - {"name", "torsion", "free", "comment"}
    if unknown:
        _fail("$", f"unknown fields {sorted(unknown)}")
    torsion = _parse_torsion(data.get("torsion", "trivial"), "$.torsion")
    if "free" not in data:
        _fail("$", "missing \"free\" field")
    return AbGroupDesc(torsion, _parse_free(data["free"], "$.free"))


def _emit_supernatural(s: Supernatural) -> dict:
    return {str(p): ("inf" if e == INF else e) for p, e in s.items}


def _emit_tower(t: Tower) -> dict:
    return {"rank": t.rank,
            "prefix": [[list(row) for row in m.entries] for m in t.prefix],
            "period": [[list(row) for row in m.entries] for m in t.period]}


def _emit_free(f: FreePart) -> dict:
    if isinstance(f, FreeOfRank):
        return {"free": f.rank}
    if isinstance(f, CompletelyDecomposable):
        return {"cd": [{"type": _emit_supernatural(tc.representative),
                        "copies": "omega" if mult == OMEGA_COPIES else mult}
                       for tc, mult in f.parts]}
    if isinstance(f, TowerForm) and f.copies == 1:
        return {"tower": _emit_tower(f.tower)}
    if isinstance(f, DirectSum):
        return {"sum": [_emit_free(p) for p in f.parts]}
    raise ValueError(f"free part {f!r} has no file form")


def emit_group(desc: AbGroupDesc, name: str | None = None) -> str:
    """Canonical JSON text; parse_group_file(emit_group(d)) == d for any
    descriptor produced by parse_group_file.  A rank-1 group, "rank1" in
    the file it came from, is written as its tower."""
    t = desc.torsion
    torsion = ("countable" if t.is_countably_infinite
               else "trivial" if t.finite.is_trivial
               else list(t.finite.invariant_factors))
    out: dict = {}
    if name is not None:
        out["name"] = name
    out["torsion"] = torsion
    out["free"] = _emit_free(desc.free)
    return json.dumps(out, indent=2)


def _parse_fraction(token, path: str) -> Fraction:
    if _is_int(token):
        return Fraction(token)
    if isinstance(token, str):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            pass
    _fail(path, f"expected an integer or \"a/b\" string, got {token!r}")


def _parse_witness_map(spec, path: str) -> tuple[int, RatMatrix]:
    """copies and matrix of a witness object: a witness file, or the
    "witness" of a gallery pair configuration."""
    if not isinstance(spec, dict):
        _fail(path, "witness must be a JSON object")
    copies = spec.get("copies", 1)
    if not _is_int(copies) or copies < 1:
        _fail(f"{path}.copies", "copies must be a positive integer")
    rows = spec.get("matrix")
    if (not isinstance(rows, list) or not rows
            or any(not isinstance(r, list) or len(r) != len(rows)
                   for r in rows)):
        _fail(f"{path}.matrix", "expected a square matrix")
    # the entries are Fractions already: from_rows would build each again
    return copies, RatMatrix(tuple(
        tuple(_parse_fraction(x, f"{path}.matrix[{i}][{j}]")
              for j, x in enumerate(row)) for i, row in enumerate(rows)))


def parse_witness_file(text: str) -> Witness:
    """Witness files: copies, matrix (entries ints or "a/b"), src and dst
    free-part specs, optional name."""
    data = _loads(text)
    copies, mat = _parse_witness_map(data, "$")
    for side in ("src", "dst"):
        if side not in data:
            _fail("$", f"missing \"{side}\" free part")
    name = data.get("name", "witness")
    if not isinstance(name, str):
        _fail("$.name", f"name must be a string, got {name!r}")
    return Witness(copies, mat,
                   _parse_free(data["src"], "$.src"),
                   _parse_free(data["dst"], "$.dst"), name=name)
