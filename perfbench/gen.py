"""Seeded inputs for the abelk benchmark, each with its expected answer.

Every expected answer follows from how the input was built (conjugation by
a unimodular matrix, disjoint determinant primes, block towers with a
closed-form p-adic behaviour, semiprimes of known factors); nothing here
imports or runs abelk.  An op is written out as group and witness JSON
files plus the arguments that name them.

A workload is a fixed schedule of rungs.  One *round* runs every rung once
on fresh inputs; rounds are numbered, and round i of workload w under seed
s is built from its own random stream, so inputs almost never repeat
within a run (see the README) and the same seed gives byte-identical
files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------- numbers

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24 (Sorenson-Webster)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, bits: int, avoid=()) -> int:
    """Prime with exactly `bits` bits.  From 8 bits on its top two bits are
    set, so that primes of one size differ by less than a factor 4/3;
    below that the narrower range holds too few primes."""
    lo = 3 << (bits - 2) if bits >= 8 else 1 << (bits - 1)
    hi = (1 << bits) - 1
    while True:
        n = rng.randint(lo, hi) | 1
        if n not in avoid and is_prime(n):
            return n


# --------------------------------------------------------------- matrices

def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def diag(ds):
    return [[ds[i] if i == j else 0 for j in range(len(ds))]
            for i in range(len(ds))]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def unimodular(rng: random.Random, n: int, steps: int):
    """Random product of elementary matrices E_ij(+-1) and its exact inverse.

    E_ij(c) adds c times row j to row i; its inverse is E_ij(-c), applied on
    the right of the running inverse as a column operation."""
    u, ui = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in ui:
            row[j] -= c * row[i]
    return u, ui


def sl2_word(rng: random.Random, steps: int):
    """E_01(c1) E_10(c2) E_01(c3) ... with each c in {-2, -1, 1, 2}, and its
    inverse.  Alternating the two slots keeps steps from merging, so six
    steps give about 2000 distinct matrices of a few bits, where a random
    walk of E_ij(+-1) gives a few hundred, most of them rarely."""
    u, ui = identity(2), identity(2)
    for s in range(steps):
        i, j = s % 2, 1 - s % 2
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in ui:
            row[j] -= c * row[i]
    return u, ui


def mixed(rng: random.Random, ds, steps: int):
    """L @ diag(ds) @ R with L, R random unimodular: determinant +-prod(ds)."""
    n = len(ds)
    left, _ = unimodular(rng, n, steps)
    right, _ = unimodular(rng, n, steps)
    return matmul(matmul(left, diag(ds)), right)


def conjugate(u, ui, m):
    return matmul(matmul(u, m), ui)


def sl2_of_order(rng: random.Random, p: int) -> list[list[int]]:
    """Random 2x2 integer matrix of determinant 1 whose order mod p is p + 1.

    SL2 elements have order at most 2p mod p, so fixing the order at p + 1
    fixes the residue orbit length: p^(k-1) (p + 1) mod p^k for a vector
    that is a unit mod p.  The order depends only on the trace, so draw a
    companion matrix of trace t and conjugate it."""
    while True:
        c = [[0, -1], [1, rng.randrange(p)]]
        if _order_mod(c, p) == p + 1:
            u, ui = unimodular(rng, 2, 3)
            return conjugate(u, ui, c)


def _order_mod(m, p: int) -> int:
    ident = identity(len(m))
    cur = [[x % p for x in row] for row in m]
    k = 1
    while cur != ident:
        cur = [[x % p for x in row] for row in matmul(cur, m)]
        k += 1
    return k


# ------------------------------------------------------------- file forms

def tower(rank: int, prefix=(), period=()) -> dict:
    return {"rank": rank, "prefix": list(prefix), "period": list(period)}


def group(free: dict, torsion="trivial") -> dict:
    return {"torsion": torsion, "free": free}


def witness(matrix, src: dict, dst: dict, copies: int = 1) -> dict:
    return {"copies": copies,
            "matrix": [[x if isinstance(x, int) else
                        (int(x) if x.denominator == 1 else str(x))
                        for x in row] for row in matrix],
            "src": src, "dst": dst}


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ------------------------------------------------------------------- ops

@dataclass
class Op:
    """One call into abelk with the answer known from construction.

    kind is "cli" (argv for abelk.cli.main; file names are relative to the
    round directory) or the name of a public abelk function called on the
    parsed group file.  expect maps a check name to its expected value; see
    run.check_cli and run.check_api for the meaning of each key."""

    rung: str
    kind: str
    args: list
    expect: dict
    files: dict = field(default_factory=dict)


def _file(op: Op, stem: str, obj) -> str:
    name = f"{stem}.json"
    op.files[name] = dump(obj)
    return name


def _cli(rung: str, argv_tail, expect: dict, **files) -> Op:
    """CLI op; files named in argv_tail as '@stem' are written from **files."""
    op = Op(rung, "cli", [], expect)
    for a in argv_tail:
        op.args.append(_file(op, a[1:], files[a[1:]])
                       if isinstance(a, str) and a.startswith("@") else a)
    return op


# --------------------------------------------------------------- kgroups

KG_RANKS = (3, 4, 5, 6, 7)
KG_PRIME_BITS = (5, 10)   # each determinant is p*q with p, q of these bits


def _kg_tower(rng, r: int, primes) -> dict:
    ds = list(primes) + [1] * (r - len(primes))
    rng.shuffle(ds)
    return tower(r, period=[mixed(rng, ds, r)])


def kgroups_rung(rng: random.Random, r: int, bits: int) -> list[Op]:
    """Two compare-k1 ops on one rank-r tower whose determinant is p*q.

    The conjugate presents the same group (never not_isomorphic); the
    tower whose determinant primes are disjoint from p, q has full p-rank
    at p in every exterior power while the first does not, so the K1
    groups differ in p-rank (not_isomorphic)."""
    p = random_prime(rng, bits)
    q = random_prime(rng, bits, avoid=(p,))
    p2 = random_prime(rng, bits, avoid=(p, q))
    q2 = random_prime(rng, bits, avoid=(p, q, p2))
    a = _kg_tower(rng, r, (p, q))
    u, ui = unimodular(rng, r, r)
    conj = tower(r, period=[conjugate(u, ui, a["period"][0])])
    other = _kg_tower(rng, r, (p2, q2))
    tag = f"r={r} det_bits={2 * bits}"
    return [
        _cli(f"compare-k1 conjugate {tag}", ["compare-k1", "@g1", "@g2"],
             {"exit": 0, "verdict": ["isomorphic", "unknown"]},
             g1=group({"tower": a}), g2=group({"tower": conj})),
        _cli(f"compare-k1 disjoint {tag}", ["compare-k1", "@g1", "@g2"],
             {"exit": 0, "verdict": ["not_isomorphic"]},
             g1=group({"tower": a}), g2=group({"tower": other})),
    ]


def kgroups_kgroup(rng: random.Random, r: int, bits: int, cmd: str) -> Op:
    """k1 or k0 of a rank-r tower: its rank is 2^(r-1) for any rank-r
    torsion-free group."""
    p = random_prime(rng, bits)
    q = random_prime(rng, bits, avoid=(p,))
    return _cli(f"{cmd} r={r} det_bits={2 * bits}", [cmd, "@g"],
                {"exit": 0, "rank": 2 ** (r - 1)},
                g=group({"tower": _kg_tower(rng, r, (p, q))}))


def kgroups_round(rng: random.Random, index: int) -> list[Op]:
    """Per rank: both comparisons at both determinant sizes, and the K-group
    ops (k1, k0) x (sizes): all four at ranks 3-5, one at ranks 6-7 that
    cycles through the four from round to round.

    The cheap CLI-bound ops (K-groups up to rank 5, comparisons up to rank
    4) are then 20 of the 34 ops, so the median falls among them, where
    latencies are dense, and not on the steep stretch between rungs where
    a few slow ops move it; the 90th percentile falls among the rank-7
    disjoint comparisons."""
    kinds = [(cmd, bits) for cmd in ("k1", "k0") for bits in KG_PRIME_BITS]
    ops = []
    for r in KG_RANKS:
        picked = kinds if r <= 5 else [kinds[(index + r) % len(kinds)]]
        ops += [kgroups_kgroup(rng, r, bits, cmd) for cmd, bits in picked]
        for bits in KG_PRIME_BITS:
            ops += kgroups_rung(rng, r, bits)
    return ops


def kgroups_warmup(rng: random.Random) -> list[Op]:
    r, bits = KG_RANKS[0], KG_PRIME_BITS[0]
    return ([kgroups_kgroup(rng, r, bits, cmd) for cmd in ("k1", "k0")]
            + kgroups_rung(rng, r, bits))


# ----------------------------------------------------------------- local

LOCAL_PK = ((11, 1), (11, 2), (11, 3), (17, 1), (17, 2), (17, 3),
            (29, 1), (29, 2), (53, 1), (53, 2))
LOCAL_SEMIPRIME_BITS = (24, 32, 40, 48)
COORD = 10 ** 6   # element coordinates; wide so that no two ops coincide


def _unit_pair(rng, p: int, scale: int = 1):
    """Two integers, scaled by `scale`, not both divisible by p * scale."""
    while True:
        y, z = rng.randint(-COORD, COORD), rng.randint(-COORD, COORD)
        if y % p or z % p:
            return y * scale, z * scale


def _nonzero_unit(rng, p: int) -> int:
    while True:
        x = rng.randint(-COORD, COORD)
        if x % p:
            return x


def local_rung(rng: random.Random, p: int, k: int) -> list[Op]:
    """Six ops on the rank-3 block tower diag(p, F), F in SL2(Z).

    The group is Z[1/p] + Z^2 with F invertible mod every p^k, so
    (x, y, z) is p^k-divisible iff p^k divides y and z; its p-height is
    min(v_p(y), v_p(z)), infinite when y = z = 0.  The rational vector
    (a/p^k, b, c) is a member reached first at stage k, with coordinates
    (a, F^k (b, c)); (a, y/p^k, z/p^k) with y or z a unit mod p is not.
    F has order p + 1 mod p, which fixes the length of every residue
    orbit the engine walks."""
    f = sl2_of_order(rng, p)
    big = block_diag([[[p]], f])
    g = group({"tower": tower(3, period=[big])})
    m = p ** k
    tag = f"p^k={p}^{k}"
    x = _nonzero_unit(rng, p)
    y, z = _unit_pair(rng, p)
    yd, zd = _unit_pair(rng, p, scale=m)
    a, b, c = (_nonzero_unit(rng, p), rng.randint(-COORD, COORD),
               rng.randint(-COORD, COORD))
    fk = identity(2)
    for _ in range(k):
        fk = matmul(f, fk)
    reached = [a] + matvec(fk, [b, c])
    yh, zh = _unit_pair(rng, p, scale=p ** (k - 1))
    ops = [
        Op(f"is_divisible yes {tag}", "is_divisible",
           ["@g", [x, yd, zd], m], {"value": True}),
        Op(f"is_divisible no {tag}", "is_divisible",
           ["@g", [x, y, z], m], {"value": False}),
        Op(f"membership found {tag}", "membership",
           ["@g", [str(Fraction(a, m)), b, c]],
           {"value": [k, reached]}),
        Op(f"membership none {tag}", "membership",
           ["@g", [a * m, str(Fraction(y, m)), str(Fraction(z, m))]],
           {"value": None}),
        _cli(f"height finite {tag}",
             ["height", "@g", str(p), f"--element={x},{yh},{zh}"],
             {"exit": 0, "height": str(k - 1)}, g=g),
        _cli(f"height inf {tag}",
             ["height", "@g", str(p), f"--element={x},0,0"],
             {"exit": 0, "height": "inf"}, g=g),
    ]
    for op in ops:
        if op.kind != "cli":
            op.args[0] = _file(op, "g", g)
    return ops


def _type_str(primes) -> str:
    primes = sorted(primes)
    return ("type[" + ", ".join(f"{p}^inf" for p in primes) + "]"
            if primes else "type[integers]")


def local_type(rng: random.Random, bits: int, periodic: bool) -> Op:
    """type of the rank-1 tower on a semiprime n = p*q of `bits` bits:
    a period [[n]] makes p and q infinitely divisible, a prefix [[n]]
    leaves the group of integer type."""
    p = random_prime(rng, bits // 2)
    q = random_prime(rng, bits - bits // 2, avoid=(p,))
    spec = (tower(1, period=[[[p * q]]]) if periodic
            else tower(1, prefix=[[[p * q]]]))
    kind = "period" if periodic else "prefix"
    return _cli(f"type {kind} semiprime_bits={bits}", ["type", "@g"],
                {"exit": 0, "type": _type_str((p, q) if periodic else ())},
                g=group({"tower": spec}))


def local_rank1_heights(rng: random.Random) -> list[Op]:
    """p-heights of 1 in the rank-1 tower prefix [[p^e * u]], period [[n]]:
    infinite when p | n, else e."""
    p = rng.choice((3, 5, 7))
    e = rng.randint(1, 6)
    u = abs(_nonzero_unit(rng, p))   # a p-adic unit; wide, so no repeats
    n = rng.choice([v for v in (2, 3, 5, 7, 6, 10) if v % p])
    fin = group({"tower": tower(1, prefix=[[[p ** e * u]]], period=[[[n]]])})
    inf = group({"tower": tower(1, prefix=[[[u]]], period=[[[n * p]]])})
    return [
        _cli("height rank1 finite", ["height", "@g", str(p)],
             {"exit": 0, "height": str(e)}, g=fin),
        _cli("height rank1 inf", ["height", "@g", str(p)],
             {"exit": 0, "height": "inf"}, g=inf),
    ]


def local_round(rng: random.Random, index: int) -> list[Op]:
    ops = [op for p, k in LOCAL_PK for op in local_rung(rng, p, k)]
    ops += [local_type(rng, bits, periodic=(index + i) % 2 == 0)
            for i, bits in enumerate(LOCAL_SEMIPRIME_BITS)]
    return ops + local_rank1_heights(rng)


def local_warmup(rng: random.Random) -> list[Op]:
    p, k = LOCAL_PK[0]
    return (local_rung(rng, p, k)
            + [local_type(rng, LOCAL_SEMIPRIME_BITS[0], True)]
            + local_rank1_heights(rng))


# --------------------------------------------------------------- certify

CERT_RANKS = (2, 3, 4, 5, 6)
CERT_TORSION = {2: [2, 2], 3: [2], 4: [2], 5: [], 6: []}
_ODD_PRIMES = (3, 5, 7, 11, 13)


def _cert_tower(rng, r: int):
    """Rank-r tower with a one-matrix prefix and a two-matrix period, all
    of odd determinant, and a unimodular conjugate of it."""
    mats = [mixed(rng, [rng.choice(_ODD_PRIMES)] + [1] * (r - 1), 2)
            for _ in range(3)]
    u, ui = unimodular(rng, r, r)
    conj = [conjugate(u, ui, m) for m in mats]
    return (tower(r, prefix=mats[:1], period=mats[1:]),
            tower(r, prefix=conj[:1], period=conj[1:]), u)


def _halved(m):
    return [[Fraction(x, 2) for x in row] for row in m]


def certify_rung(rng: random.Random, r: int) -> list[Op]:
    """Witness ops on a tower T and its conjugate U T U^-1.

    U maps stage-s lattices onto each other at every stage, so it is a
    valid witness and certifies T^alpha = T'^alpha blockwise.  U/2 sends a
    generator to a vector with denominator 2, which no stage of an
    odd-determinant tower clears, so it is invalid; the pair is still
    isomorphic, so no verdict may read not_isomorphic."""
    src, dst, u = _cert_tower(rng, r)
    torsion = CERT_TORSION[r]
    alpha = math.prod(torsion)
    fs, fd = {"tower": src}, {"tower": dst}
    big = block_diag([u] * alpha)
    tag = f"r={r}"
    atag = f"r={r} alpha={alpha}"
    sound = ["isomorphic", "unknown"]
    return [
        _cli(f"check-witness valid {tag}", ["check-witness", "@w"],
             {"exit": 0, "witness": "valid"}, w=witness(u, fs, fd)),
        _cli(f"check-witness halved {tag}", ["check-witness", "@w"],
             {"exit": 0, "witness": "invalid"},
             w=witness(_halved(u), fs, fd)),
        _cli(f"compare-unitary witness {atag}",
             ["compare-unitary", "@g1", "@g2", "--witness", "@w"],
             {"exit": 0, "verdict": ["isomorphic"]},
             g1=group(fs, torsion), g2=group(fd, torsion),
             w=witness(big, fs, fd, alpha)),
        _cli(f"compare-unitary halved {atag}",
             ["compare-unitary", "@g1", "@g2", "--witness", "@w"],
             {"exit": 0, "verdict": sound},
             g1=group(fs, torsion), g2=group(fd, torsion),
             w=witness(_halved(big), fs, fd, alpha)),
    ] + ([] if r == CERT_RANKS[0] else [
        _cli(f"compare-unitary countable {tag}",
             ["compare-unitary", "@g1", "@g2", "--witness", "@w"],
             {"exit": 0, "verdict": sound},
             g1=group(fs, "countable"), g2=group(fd, "countable"),
             w=witness(u, fs, fd))])


# The packaged Fuchs pair: gamma1, gamma2 and a witness W with
# W (A (+) A) = (B (+) B) W for the period matrices A, B.
_FUCHS_A = [[2, 15], [1, 2]]
_FUCHS_B = [[1, 7], [2, 3]]
_FUCHS_W = [[0, 7, 4, -4], [1, 1, 0, 8], [-1, 1, 1, -8], [0, -2, -1, 1]]


def gallery_config(rng: random.Random) -> dict:
    """The Fuchs pair conjugated by random U1, U2 in GL2(Z), with witness
    (U2 + U2) W (U1 + U1)^-1, which intertwines the conjugated periods
    exactly as W intertwines the originals, so every checked claim of the
    gallery holds for it."""
    u1, u1i = sl2_word(rng, 6)
    u2, u2i = sl2_word(rng, 6)
    w = matmul(matmul(block_diag([u2, u2]), _FUCHS_W), block_diag([u1i, u1i]))
    return {"gamma1": tower(2, period=[conjugate(u1, u1i, _FUCHS_A)]),
            "gamma2": tower(2, period=[conjugate(u2, u2i, _FUCHS_B)]),
            "witness": {"copies": 2, "matrix": w}}


def certify_gallery(rng: random.Random) -> Op:
    return _cli("verify-gallery conjugated-pair",
                ["verify-gallery", "--gallery-config", "@c"],
                {"exit": 0, "gallery": "pass"}, c=gallery_config(rng))


def certify_round(rng: random.Random) -> list[Op]:
    """25 ops: with a count of 5 mod 10 the median and the 90th percentile
    fall in the middle of one rung's block of the sorted latencies, so the
    countable comparison is left out at the smallest rank."""
    return ([op for r in CERT_RANKS for op in certify_rung(rng, r)]
            + [certify_gallery(rng)])


def certify_warmup(rng: random.Random) -> list[Op]:
    return certify_rung(rng, CERT_RANKS[0]) + [certify_gallery(rng)]


# -------------------------------------------------------------- frontier

def frontier_ops(rng: random.Random) -> list[Op]:
    """Ops that fail on the current code: one rung past each ladder's reach
    and the known-defect repros.  Not part of the gated workloads."""
    ops = kgroups_rung(rng, 8, KG_PRIME_BITS[0])[:1]
    ops[0].rung = "past-reach compare-k1 conjugate r=8"
    t = local_type(rng, 60, periodic=True)
    t.rung = "past-reach type semiprime_bits=60"
    ops.append(t)
    # Z[1/2]^2 against (1/8)Z^2 = Z^2: the identity is no isomorphism, as
    # (1/16, 0) lies in the first group and not in the second
    half = {"tower": tower(2, period=[[[2, 0], [0, 2]]])}
    eighth = {"tower": tower(2, prefix=[[[8, 0], [0, 8]]])}
    ident = witness(identity(2), half, eighth)
    ops.append(_cli("defect identity witness Z[1/2]^2 -> (1/8)Z^2",
                    ["check-witness", "@w"],
                    {"exit": 0, "witness": "invalid"}, w=ident))
    ops.append(_cli("defect compare-k1 with identity witness",
                    ["compare-k1", "@g1", "@g2", "--witness", "@w"],
                    {"exit": 0, "verdict": ["not_isomorphic", "unknown"]},
                    g1=group(half), g2=group(eighth), w=ident))
    ops.append(_cli("defect height at composite 4",
                    ["height", "@g", "4"], {"exit": 2},
                    g=group({"tower": tower(1, period=[[[2]]])})))
    return ops


# -------------------------------------------------------------- schedule

def _rng(seed: int, workload: str, phase: str, index: int) -> random.Random:
    return random.Random(f"abelk-bench:{seed}:{workload}:{phase}:{index}")


def round_ops(workload: str, seed: int, index: int) -> list[Op]:
    """Round `index` of the workload's schedule under `seed`."""
    rng = _rng(seed, workload, "round", index)
    if workload == "kgroups":
        return kgroups_round(rng, index)
    if workload == "local":
        return local_round(rng, index)
    if workload == "certify":
        return certify_round(rng)
    if workload == "frontier":
        return frontier_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_ops(workload: str, seed: int, index: int) -> list[Op]:
    """Small warm-up set for set-up number `index`, from its own stream."""
    rng = _rng(seed, workload, "warmup", index)
    return {"kgroups": kgroups_warmup, "local": local_warmup,
            "certify": certify_warmup,
            "frontier": lambda rng: []}[workload](rng)


WORKLOADS = ("kgroups", "local", "certify", "frontier")


def write_ops(ops: list[Op], directory: Path) -> None:
    """Write every op's files under directory/<op index>/."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        d = directory / str(i)
        d.mkdir(parents=True, exist_ok=True)
        for name, text in op.files.items():
            (d / name).write_text(text, encoding="utf-8")
