"""Acceptance gate: one deterministic pass/fail line per criterion.

Each test prints its verdict line directly to the terminal (outside pytest
capture) so the gate reads as a checklist under any pytest invocation.
"""

import random
import time

import pytest

from abelk import (AbGroupDesc, FgAbGroup, FreeOfRank, GroupElement, INF,
                   IntMatrix, Supernatural, TorsionDesc, TowerForm,
                   Witness, builtin_gallery, check_witness, compare_k1,
                   compare_unitary, compound_matrix, direct_sum_of,
                   is_divisible, k0, k1, rank1_tower_from_supernatural,
                   smith_normal_form, verify_gallery,
                   wedge_divisible_by_search, wedge_square_type,
                   wedge_unit_divisible)
from abelk.gallery import PASS, SKIPPED, default_pair_config
from abelk.groups import flatten
from abelk.matrices import binomial

from conftest import naive_divisible, rand_nonsingular, rand_tower, \
    unroll_depth


@pytest.fixture
def note(capsys):
    def emit(line: str):
        with capsys.disabled():
            print(line)
    return emit


def test_criterion_01_k1_rank_of_free_groups(note):
    t0 = time.perf_counter()
    for m in range(1, 7):
        assert k1(AbGroupDesc.free_abelian(m)) == FreeOfRank(2 ** (m - 1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    note(f"PASS criterion 1: k1(Z^m) = Z^(2^(m-1)) for m = 1..6 "
         f"({elapsed:.3f}s)")


def test_criterion_02_k0_rank_of_free_groups(note):
    for m in range(1, 7):
        got = flatten(k0(AbGroupDesc.free_abelian(m))).finite_rank()
        assert got == 2 ** (m - 1)
        assert got == sum(binomial(m, j) for j in range(0, m + 1, 2))
    note("PASS criterion 2: k0(Z^m) has total rank 2^(m-1) for m = 1..6")


def test_criterion_03_low_rank_k1_structurally_unchanged(note):
    rng = random.Random(101)
    for i in range(50):
        rank = 1 if i % 2 == 0 else 2
        t = rand_tower(rng, rank)
        f = TowerForm(t)
        assert k1(AbGroupDesc.torsion_free(f)) == f
    note("PASS criterion 3: k1 of 50 random rank <= 2 towers returns the "
         "input free part unchanged")


def test_criterion_04_coprime_search_vs_wedge_divisibility(note):
    # the coprime-coefficient search certifies wedge divisibility for all
    # m and is equivalent to it at prime m; for composite m only the
    # sound direction holds in general (see test_wedge for the
    # counterexample with coordinate heights split across a basis)
    t0 = time.perf_counter()
    rng = random.Random(103)
    checked = prime_checked = 0
    for _ in range(200):
        t = rand_tower(rng, 2)
        for m in range(2, 61):
            fast = wedge_divisible_by_search(t, m)
            slow = wedge_unit_divisible(t, m)
            assert not (fast and not slow), (t, m)
            checked += 1
            if all(m % p for p in range(2, m)):
                assert fast == slow, (t, m)
                prime_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    note(f"PASS criterion 4: divisibility search vs wedge tower on 200 "
         f"towers, m in 2..60: sound on all {checked} cases, exact on "
         f"{prime_checked} prime moduli ({elapsed:.1f}s)")


def test_criterion_05_compound_functoriality(note):
    rng = random.Random(107)
    for _ in range(500):
        n = rng.randint(1, 6)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)]
                                 for _ in range(n)])
        b = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)]
                                 for _ in range(n)])
        for k in range(n + 1):
            assert (compound_matrix(a @ b, k)
                    == compound_matrix(a, k) @ compound_matrix(b, k))
    note("PASS criterion 5: compound(AB) = compound(A) compound(B) for "
         "500 random pairs, n <= 6, all degrees")


def test_criterion_06_smith_normal_form(note):
    rng = random.Random(109)
    for _ in range(500):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        a = IntMatrix.from_rows([[rng.randint(-30, 30) for _ in range(c)]
                                 for _ in range(r)])
        f = smith_normal_form(a)
        assert abs(f.U.det()) == 1 and abs(f.V.det()) == 1
        assert f.U @ a @ f.V == f.D
        diag = f.diagonal()
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            assert not (diag[i] == 0 and diag[i + 1] != 0)
            if diag[i + 1] != 0:
                assert diag[i + 1] % diag[i] == 0
    note("PASS criterion 6: Smith form U A V = D with unimodular U, V and "
         "divisibility chain on 500 random matrices up to 8x8")


def test_criterion_07_compound_block_law(note):
    rng = random.Random(113)
    ident2 = IntMatrix.identity(2)
    done = 0
    while done < 50:
        a = rand_nonsingular(rng, 2)
        done += 1
        d = a.det()
        got = compound_matrix(ident2.block_diag(a), 3)
        want = a.block_diag(IntMatrix.from_rows([[d, 0], [0, d]]))
        assert got == want
    note("PASS criterion 7: degree-3 compound of id2 (+) A is "
         "A (+) det(A) id2 for 50 random nonsingular A")


def test_criterion_08_mixed_rank_pair(note):
    inf = TorsionDesc.countably_infinite()
    g1 = AbGroupDesc(inf, FreeOfRank(1))
    g2 = AbGroupDesc(inf, FreeOfRank(2))
    assert compare_unitary(g1, g2).verdict == "isomorphic"
    res = compare_k1(g1, g2)
    assert res.verdict == "not_isomorphic"
    assert "free rank 1 vs 2" in res.evidence
    note("PASS criterion 8: Z + countable torsion vs Z^2 + countable "
         "torsion: unitary groups isomorphic, K1 separated by "
         "\"free rank 1 vs 2\"")


def test_criterion_09_countable_torsion_erased(note):
    g1 = AbGroupDesc(TorsionDesc.countably_infinite(), FreeOfRank(1))
    g2 = AbGroupDesc(TorsionDesc.countably_infinite(), FreeOfRank(1))
    assert compare_unitary(g1, g2).verdict == "isomorphic"
    note("PASS criterion 9: countable torsion subgroups of different "
         "listed structure give isomorphic unitary groups")


def test_criterion_10_rank1_types_decide(note):
    def grp(sup):
        return AbGroupDesc.torsion_free(
            TowerForm(rank1_tower_from_supernatural(Supernatural.of(sup))))
    equal = compare_unitary(grp({2: INF, 3: 4}), grp({2: INF}))
    assert equal.verdict == "isomorphic"
    disjoint = compare_unitary(grp({5: INF}), grp({7: INF}))
    assert disjoint.verdict == "not_isomorphic"
    note("PASS criterion 10: rank-1 comparison decides by type: equal "
         "types isomorphic, disjoint infinity-supports not")


def test_criterion_11_configured_pair_pipeline(note):
    cfg = default_pair_config()
    g1f, g2f = TowerForm(cfg.gamma1), TowerForm(cfg.gamma2)
    w = Witness(cfg.witness_copies, cfg.witness_map, g1f, g2f)
    assert check_witness(w)
    assert wedge_square_type(cfg.gamma1) == wedge_square_type(cfg.gamma2)
    delta1 = AbGroupDesc.torsion_free(direct_sum_of([FreeOfRank(2), g1f]))
    delta2 = AbGroupDesc.torsion_free(direct_sum_of([FreeOfRank(2), g2f]))
    assert compare_k1(delta1, delta2, (w,)).verdict == "isomorphic"
    z2 = TorsionDesc(FgAbGroup(0, (2,)))
    assert compare_unitary(AbGroupDesc(z2, g1f), AbGroupDesc(z2, g2f),
                           (w,)).verdict == "isomorphic"
    entries, _ = builtin_gallery(cfg)
    statuses = {v.label: v.verdict for v in verify_gallery(entries)}
    assert all(s in (PASS, SKIPPED) for s in statuses.values())
    assert statuses["four-rank-pair.group_non_iso"] == SKIPPED
    # without the configuration the dependent entries vanish and
    # everything else still verifies
    bare, notices = builtin_gallery(None)
    assert notices
    assert all(v.verdict == PASS for v in verify_gallery(bare))
    note("PASS criterion 11: configured pair: witness valid, wedge-square "
         "types equal, K1 and unitary comparisons isomorphic, "
         "non-isomorphism claims reported as literature-trusted")


def test_criterion_12_divisibility_vs_unrolling(note):
    rng = random.Random(127)
    checked = deep = 0
    for _ in range(100):
        rank = rng.choice([1, 2])
        t = rand_tower(rng, rank)
        e = GroupElement(0, tuple(rng.randint(-6, 6) for _ in range(rank)))
        depth = unroll_depth(t, periods=4)
        for m in range(2, 13):
            got = is_divisible(t, e, m)
            want = naive_divisible(t, e, m, depth)
            checked += 1
            if got != want:
                # the exact procedure may see divisibility past the
                # unrolling horizon; deeper unrolling must then confirm
                # it, and the oracle may never contradict a negative
                assert got and not want
                assert naive_divisible(t, e, m, depth * 8)
                deep += 1
    note(f"PASS criterion 12: is_divisible vs stage-unrolling oracle on "
         f"100 towers ({checked} cases, {deep} confirmed past the "
         f"4-period horizon)")
