"""Built-in worked examples with machine-checkable claims.

Each entry bundles group descriptions, optional isomorphism witnesses and a
list of claims.  Checked claims are re-verified from scratch on every run;
literature-trusted claims (non-isomorphism results imported from the
textbook literature) are reported as skipped with their citation and never
silently passed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from .compare import (Verdict, Witness, check_witness, compare_free_parts,
                      compare_k1, compare_unitary)
from .fg import FgAbGroup, TorsionDesc
from .groupfile import _fail, _loads, _parse_tower, _parse_witness_map
from .groups import AbGroupDesc, FreeOfRank, TowerForm, direct_sum_of, flatten
from .matrices import IntMatrix, RatMatrix, compound_matrix
from .towers import (INF, Supernatural, Tower, is_prime,
                     rank1_tower_from_supernatural)
from .wedge import (k0, k1, wedge_divisible_by_search, wedge_square_type,
                    wedge_unit_divisible)

CHECKED = "checked"
LITERATURE = "literature"

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
UNKNOWN = "UNKNOWN"

# label of a verdict that carries a notice about the gallery, not a claim
NOTICE = "notice"


@dataclass(frozen=True)
class Claim:
    """kind + indices of the entry groups it speaks about + expectation."""

    kind: str
    groups: tuple[int, ...] = ()
    expected: object = None
    provenance: str = CHECKED
    citation: str = ""


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    groups: tuple[AbGroupDesc, ...] = ()
    witnesses: tuple[Witness, ...] = ()
    claims: tuple[Claim, ...] = ()

    def __post_init__(self):
        for c in self.claims:
            if any(not 0 <= i < len(self.groups) for i in c.groups):
                raise ValueError(f"claim {c.kind} names a missing group")


FUCHS_CITATION = ("L. Fuchs, Infinite Abelian Groups, Vol. II, "
                  "Academic Press 1973, Theorem 90.3")


@dataclass(frozen=True)
class PairConfig:
    """A configured pair of rank-2 towers with a witness for squares.

    gamma1 and gamma2 present non-isomorphic groups whose doubles are
    isomorphic via the witness map; non-isomorphism itself is imported from
    the literature (see citation)."""

    gamma1: Tower
    gamma2: Tower
    witness_copies: int
    witness_map: RatMatrix
    citation: str = FUCHS_CITATION


def load_pair_config(text: str) -> PairConfig:
    """Read a pair configuration: "gamma1" and "gamma2" towers, a
    "witness" object with "copies" and "matrix", an optional "citation".

    Validated like group and witness files: malformed input raises
    ParseError with its field path, a defective tower ValidationError.
    """
    d = _loads(text)
    if not isinstance(d, dict):
        _fail("$", "pair configuration must be a JSON object")
    for key in ("gamma1", "gamma2", "witness"):
        if key not in d:
            _fail("$", f"missing \"{key}\"")
    citation = d.get("citation", FUCHS_CITATION)
    if not isinstance(citation, str):
        _fail("$.citation", "citation must be a string")
    copies, mat = _parse_witness_map(d["witness"], "$.witness")
    return PairConfig(_parse_tower(d["gamma1"], "$.gamma1"),
                      _parse_tower(d["gamma2"], "$.gamma2"),
                      copies, mat, citation)


def default_pair_config() -> PairConfig:
    """The pair shipped with the package (data/fuchs_loonstra.json)."""
    text = (resources.files("abelk") / "data" / "fuchs_loonstra.json") \
        .read_text(encoding="utf-8")
    return load_pair_config(text)


def _rank1_group(sup: Supernatural) -> AbGroupDesc:
    return AbGroupDesc.torsion_free(
        TowerForm(rank1_tower_from_supernatural(sup)))


def builtin_gallery(config: PairConfig | None = None
                    ) -> tuple[list[GalleryEntry], list[str]]:
    """All built-in entries plus notices about omitted ones.

    Entries built from the configured tower pair are omitted (with a
    notice) when config is None."""
    entries: list[GalleryEntry] = []
    notices: list[str] = []

    for m in range(1, 7):
        entries.append(GalleryEntry(
            f"free-rank-{m}",
            (AbGroupDesc.free_abelian(m),),
            claims=(Claim("k1_rank", (0,), 2 ** (m - 1)),
                    Claim("k0_rank", (0,), 2 ** (m - 1)))))

    # same countably infinite torsion, free ranks 1 and 2: unitary groups
    # agree (omega amplification erases the rank) but K1 separates them
    inf_torsion = TorsionDesc.countably_infinite()
    entries.append(GalleryEntry(
        "mixed-rank-pair",
        (AbGroupDesc(inf_torsion, FreeOfRank(1)),
         AbGroupDesc(inf_torsion, FreeOfRank(2))),
        claims=(Claim("unitary_iso", (0, 1)),
                Claim("k1_non_iso", (0, 1)))))

    # countable torsion subgroups of any listed structure have the same
    # cardinal, which is all the unitary invariant sees
    entries.append(GalleryEntry(
        "countable-torsion-pair",
        (AbGroupDesc(inf_torsion, FreeOfRank(1)),
         AbGroupDesc(inf_torsion, FreeOfRank(1))),
        claims=(Claim("unitary_iso", (0, 1)),)))

    tau_23 = Supernatural.of({2: INF, 3: INF})
    entries.append(GalleryEntry(
        "rank1-types",
        (_rank1_group(tau_23),
         _rank1_group(Supernatural.of({2: INF, 3: INF, 5: 4})),
         _rank1_group(Supernatural.of({5: INF})),
         _rank1_group(Supernatural.of({7: INF}))),
        claims=(Claim("unitary_iso", (0, 1)),
                Claim("unitary_non_iso", (2, 3)))))

    entries.append(GalleryEntry(
        "compound-block-law",
        claims=(Claim("compound_block_law", (), 50),)))

    sample = Tower(2,
                   (IntMatrix.from_rows([[2, 1], [0, 3]]),),
                   (IntMatrix.from_rows([[1, 2], [3, 1]]),))
    entries.append(GalleryEntry(
        "wedge-divisibility",
        (AbGroupDesc.torsion_free(TowerForm(sample)),),
        claims=(Claim("wedge_divisibility_equiv", (0,), 40),)))

    if config is None:
        notices.append(
            "pair configuration absent: entries rank2-indecomposable-pair, "
            "four-rank-pair, order2-torsion-pair and amplified-product-pair "
            "omitted")
        return entries, notices

    g1f, g2f = TowerForm(config.gamma1), TowerForm(config.gamma2)
    w = Witness(config.witness_copies, config.witness_map, g1f, g2f,
                name="paired-squares")
    z2 = TorsionDesc(FgAbGroup(0, (2,)))
    lit = dict(provenance=LITERATURE, citation=config.citation)

    entries.append(GalleryEntry(
        "rank2-indecomposable-pair",
        (AbGroupDesc.torsion_free(g1f), AbGroupDesc.torsion_free(g2f)),
        (w,),
        (Claim("witness_valid"),
         Claim("wedge_square_type_equal", (0, 1)),
         Claim("group_non_iso", (0, 1), **lit))))

    delta = [AbGroupDesc.torsion_free(direct_sum_of([FreeOfRank(2), gf]))
             for gf in (g1f, g2f)]
    entries.append(GalleryEntry(
        "four-rank-pair",
        tuple(delta),
        (w,),
        (Claim("k1_iso", (0, 1)),
         Claim("group_non_iso", (0, 1), **lit))))

    entries.append(GalleryEntry(
        "order2-torsion-pair",
        (AbGroupDesc(z2, g1f), AbGroupDesc(z2, g2f)),
        (w,),
        (Claim("unitary_iso", (0, 1)),
         Claim("group_non_iso", (0, 1), **lit))))

    entries.append(GalleryEntry(
        "amplified-product-pair",
        (AbGroupDesc(z2, delta[0].free), AbGroupDesc(z2, delta[1].free)),
        (w,),
        (Claim("unitary_iso", (0, 1)),
         Claim("k1_iso", (0, 1)))))

    return entries, notices


def _tower_of(g: AbGroupDesc) -> Tower:
    f = g.free
    if isinstance(f, TowerForm):
        return f.tower
    raise ValueError("claim needs a tower-presented group")


def _status(res: Verdict, want: str) -> tuple[str, str]:
    if res.verdict == want:
        return PASS, res.evidence
    if res.verdict == "unknown":
        return UNKNOWN, res.evidence
    return FAIL, f"{res.verdict}: {res.evidence}"


def _check_compound_block_law(count: int) -> tuple[str, str]:
    rng = random.Random(20260824)
    ident2 = IntMatrix.identity(2)
    done = 0
    while done < count:
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(2)]
                                 for _ in range(2)])
        d = a.det()
        if d == 0:
            continue
        done += 1
        got = compound_matrix(ident2.block_diag(a), 3)
        want = a.block_diag(IntMatrix.from_rows([[d, 0], [0, d]]))
        if got != want:
            return FAIL, (f"counterexample A = {a.entries}: "
                          f"compound {got.entries}")
    return PASS, (f"{count} random 2x2 blocks: degree-3 compound of "
                  "id2 (+) A is A (+) det(A)*id2")


def _verify_claim(e: GalleryEntry, c: Claim) -> tuple[str, str]:
    """(status, evidence) of one checked claim."""
    gs = [e.groups[i] for i in c.groups]
    if c.kind == "k1_rank":
        r = flatten(k1(gs[0])).finite_rank()
        return (PASS if r == c.expected else FAIL,
                f"k1 rank {r}, expected {c.expected}")
    if c.kind == "k0_rank":
        r = flatten(k0(gs[0])).finite_rank()
        return (PASS if r == c.expected else FAIL,
                f"k0 rank {r}, expected {c.expected}")
    if c.kind in ("unitary_iso", "unitary_non_iso"):
        res = compare_unitary(gs[0], gs[1], e.witnesses)
        want = "isomorphic" if c.kind == "unitary_iso" else "not_isomorphic"
        return _status(res, want)
    if c.kind in ("k1_iso", "k1_non_iso"):
        res = compare_k1(gs[0], gs[1], e.witnesses)
        want = "isomorphic" if c.kind == "k1_iso" else "not_isomorphic"
        return _status(res, want)
    if c.kind == "group_non_iso":
        res = compare_free_parts(gs[0].free, gs[1].free, e.witnesses)
        return _status(res, "not_isomorphic")
    if c.kind == "wedge_square_type_equal":
        t1 = wedge_square_type(_tower_of(gs[0]))
        t2 = wedge_square_type(_tower_of(gs[1]))
        return (PASS if t1 == t2 else FAIL,
                f"wedge-square types {t1} and {t2}")
    if c.kind == "witness_valid":
        for w in e.witnesses:
            if not check_witness(w):
                return FAIL, f"witness {w.name}: membership violated"
        return (PASS,
                f"{len(e.witnesses)} witness(es) pass membership both ways")
    if c.kind == "compound_block_law":
        return _check_compound_block_law(int(c.expected))
    if c.kind == "wedge_divisibility_equiv":
        # the coprime-coefficient search certifies wedge divisibility for
        # every modulus and is equivalent to it for prime moduli
        t = _tower_of(gs[0])
        for m in range(2, int(c.expected) + 1):
            fast = wedge_divisible_by_search(t, m)
            slow = wedge_unit_divisible(t, m)
            if fast and not slow:
                return FAIL, (f"m = {m}: search found an element but the "
                              "wedge tower denies divisibility")
            if fast != slow and is_prime(m):
                return FAIL, (f"prime m = {m}: search says {fast}, wedge "
                              f"tower says {slow}")
        return PASS, (f"search implies divisibility for m in "
                      f"2..{c.expected}, with equivalence at prime moduli")
    return FAIL, f"unknown claim kind {c.kind!r}"


def verify_entry(e: GalleryEntry) -> list[Verdict]:
    """One verdict per claim, labelled "<entry name>.<claim kind>", whose
    verdict is the claim status (PASS, FAIL, SKIPPED or UNKNOWN)."""
    out = []
    for c in e.claims:
        if c.provenance == LITERATURE:
            res = (SKIPPED,
                   f"literature-trusted, not machine-verified ({c.citation})")
        else:
            try:
                res = _verify_claim(e, c)
            except (ValueError, ArithmeticError) as exc:
                res = FAIL, f"error: {exc}"
        out.append(Verdict(f"{e.name}.{c.kind}", *res))
    return out


def verify_gallery(entries) -> list[Verdict]:
    """The verdicts of every entry, entries sorted by name."""
    return [v for e in sorted(entries, key=lambda e: e.name)
            for v in verify_entry(e)]


def render_report(verdicts) -> str:
    """Text report of gallery verdicts: the notices (label NOTICE) first,
    then the claims grouped by entry, then the count of each status."""
    lines = [f"notice: {v.verdict}" for v in verdicts if v.label == NOTICE]
    claims = [v for v in verdicts if v.label != NOTICE]
    entry = None
    for v in claims:
        name, _, kind = v.label.rpartition(".")
        if name != entry:
            entry = name
            lines.append(f"entry {name}")
        lines.append(f"  {v.verdict} {kind}: {v.evidence}")
    counts = Counter(v.verdict for v in claims)
    lines.append("summary: " + ", ".join(
        f"{counts[s]} {s.lower()}" for s in (PASS, FAIL, SKIPPED, UNKNOWN)))
    return "\n".join(lines)
