"""Self-tests of the benchmark: deterministic inputs, expected answers
against brute-force oracles, the tracer and self-time arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# ------------------------------------------------------------- oracles

def det(m) -> int:
    """Laplace expansion; fine for the small matrices used here."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:]
                                          for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def prime_factors(n: int) -> set[int]:
    n, out, d = abs(n), set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def rank_mod(m, p: int) -> int:
    rows = [[x % p for x in row] for row in m]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def stages(spec: dict):
    """Stage matrices 0, 1, 2, ... of a tower spec."""
    s = 0
    while True:
        if s < len(spec["prefix"]):
            yield spec["prefix"][s]
        elif spec["period"]:
            phase = (s - len(spec["prefix"])) % len(spec["period"])
            yield spec["period"][phase]
        else:
            yield gen.identity(spec["rank"])
        s += 1


def first_stage_zero_mod(spec: dict, vec, m: int, depth: int):
    """Least stage s <= depth at which the pushed integer vector is 0 mod m,
    by unrolling residues; None if there is none that early."""
    cur = [x % m for x in vec]
    for s, mat in enumerate(stages(spec)):
        if not any(cur):
            return s
        if s == depth:
            return None
        cur = [x % m for x in gen.matvec(mat, cur)]


def unrolled_member(spec: dict, vec, depth: int):
    """[stage, coords] of the rational vector at the least stage where it is
    integral, or None if no stage up to depth clears its denominators."""
    vec = [Fraction(x) for x in vec]
    d = math.lcm(*(x.denominator for x in vec))
    s = first_stage_zero_mod(spec, [int(x * d) for x in vec], d, depth)
    if s is None:
        return None
    for mat in itertools.islice(stages(spec), s):
        vec = gen.matvec(mat, vec)
    return [s, [int(x) for x in vec]]


def spec_of(op: gen.Op) -> dict:
    import json
    return json.loads(op.files["g.json"])["free"]["tower"]


# --------------------------------------------------------- determinism

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    for tag in ("a", "b"):
        ops = gen.round_ops(workload, 7, 3) + gen.warmup_ops(workload, 7, 1)
        gen.write_ops(ops, tmp_path / tag)
    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*.json"))
    files_b = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*.json"))
    assert files_a == files_b and files_a
    for f in files_a:
        assert (tmp_path / "a" / f).read_bytes() == \
            (tmp_path / "b" / f).read_bytes()
    other = gen.round_ops(workload, 8, 3)
    assert [o.files for o in other] != [o.files for o in
                                        gen.round_ops(workload, 7, 3)]


def test_rounds_and_warmups_repeat_only_the_smallest_semiprimes():
    """Only local's 24-bit semiprimes come from a small set (products of
    two of the ~120 primes of 12 bits with the top two bits set), so one
    of them may recur within a run; every other input is new."""
    for workload, seed in itertools.product(("kgroups", "local", "certify"),
                                            (1, 2, 3)):
        seen = set()
        # more rounds than a 30 s run makes of any workload
        ops = [op for i in range(40)
               for op in gen.round_ops(workload, seed, i)]
        ops += [op for i in range(run.SETUPS)
                for op in gen.warmup_ops(workload, seed, i)]
        for op in ops:
            key = (op.kind, repr(op.args), tuple(sorted(op.files.items())))
            assert key not in seen or op.rung.endswith("semiprime_bits=24")
            seen.add(key)


# ----------------------------------------------- expected answers (oracles)

@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_local_expectations_match_bounded_unrolling(p, k):
    """A rank-3 residue vector mod m has m^3 states, so unrolling that many
    stages of a one-matrix period decides reachability exactly."""
    rng = random.Random(f"local-{p}-{k}")
    for _ in range(3):
        ops = gen.local_rung(rng, p, k)
        spec = spec_of(ops[0])
        big = spec["period"][0]
        assert det(big) == p and det([row[1:] for row in big[1:]]) == 1
        for op in ops:
            if op.kind == "is_divisible":
                vec, m = op.args[1], op.args[2]
                got = first_stage_zero_mod(spec, vec, m, m ** 3) is not None
                assert got == op.expect["value"], op.rung
            elif op.kind == "membership":
                d = math.lcm(*(Fraction(x).denominator for x in op.args[1]))
                got = unrolled_member(spec, op.args[1], d ** 3)
                assert got == op.expect["value"], op.rung
            else:
                coords = [int(x) for x in op.args[-1].split("=")[1].split(",")]
                h = op.expect["height"]
                if h == "inf":
                    for j in range(k + 3):
                        assert first_stage_zero_mod(spec, coords, p ** j,
                                                    p ** (3 * j)) is not None
                else:
                    h = int(h)
                    m = p ** (h + 1)
                    assert first_stage_zero_mod(spec, coords, p ** h,
                                                p ** (3 * h)) is not None
                    assert first_stage_zero_mod(spec, coords, m, m ** 3) \
                        is None


def test_rank1_heights_and_types_match_factoring():
    rng = random.Random(5)
    for op in gen.local_rank1_heights(rng):
        spec = spec_of(op)
        p = int(op.args[2])
        reach = [j for j in range(12)
                 if first_stage_zero_mod(spec, [1], p ** j, 40) is not None]
        assert op.expect["height"] == ("inf" if len(reach) == 12
                                       else str(max(reach)))
    for bits in (16, 20, 24):
        for periodic in (True, False):
            op = gen.local_type(rng, bits, periodic)
            spec = spec_of(op)
            n = (spec["period"] or spec["prefix"])[0][0][0]
            primes = prime_factors(n)
            assert len(primes) == 2 and math.prod(primes) == n
            assert n.bit_length() == bits
            assert op.expect["type"] == gen._type_str(
                primes if periodic else ())


@pytest.mark.parametrize("r", [3, 4])
def test_kgroups_pairs_are_conjugate_or_separated_by_p_rank(r):
    rng = random.Random(r)
    for bits in gen.KG_PRIME_BITS:
        conj, disj = gen.kgroups_rung(rng, r, bits)
        for cmd in ("k1", "k0"):
            assert gen.kgroups_kgroup(rng, r, bits, cmd).expect["rank"] == \
                2 ** (r - 1)
        import json
        a = json.loads(conj.files["g1.json"])["free"]["tower"]["period"][0]
        c = json.loads(conj.files["g2.json"])["free"]["tower"]["period"][0]
        b = json.loads(disj.files["g2.json"])["free"]["tower"]["period"][0]
        pa, pb = prime_factors(det(a)), prime_factors(det(b))
        assert len(pa) == 2 and len(pb) == 2 and not pa & pb
        assert det(a) == det(c)
        # a similarity U a U^-1 = c over Z exists by construction; p-ranks
        # of a and c agree and those of a and b differ at every prime of a
        for p in pa:
            assert rank_mod(a, p) == rank_mod(c, p) == r - 1
            assert rank_mod(b, p) == r


def test_generator_inverses_are_exact():
    rng = random.Random(0)
    for n in (2, 3, 6):
        u, ui = gen.unimodular(rng, n, 3 * n)
        assert gen.matmul(u, ui) == gen.identity(n)
    for p in (11, 17, 53):
        f = gen.sl2_of_order(rng, p)
        assert det(f) == 1 and gen._order_mod(f, p) == p + 1


def test_certify_witnesses_by_construction():
    import json
    rng = random.Random(3)
    for r in (2, 3):
        ops = gen.certify_rung(rng, r)
        w = json.loads(ops[0].files["w.json"])
        u = w["matrix"]
        src, dst = w["src"]["tower"], w["dst"]["tower"]
        for ms, md in zip(src["prefix"] + src["period"],
                          dst["prefix"] + dst["period"]):
            assert gen.matmul(u, ms) == gen.matmul(md, u)
            assert det(ms) % 2 == 1
        assert abs(det(u)) == 1
        bad = json.loads(ops[1].files["w.json"])["matrix"]
        assert bad == [[str(Fraction(x, 2)) if x % 2 else x // 2
                        for x in row] for row in u]
    cfg = gen.gallery_config(rng)
    a = cfg["gamma1"]["period"][0]
    b = cfg["gamma2"]["period"][0]
    w = cfg["witness"]["matrix"]
    assert gen.matmul(w, gen.block_diag([a, a])) == \
        gen.matmul(gen.block_diag([b, b]), w)
    assert abs(det(w)) == abs(det(gen._FUCHS_W))


def test_is_prime_agrees_with_trial_division():
    for n in range(-3, 3000):
        assert gen.is_prime(n) == (n >= 2 and prime_factors(n) == {n})
    assert gen.is_prime(1000000007) and not gen.is_prime(1000000007 * 3)


# ------------------------------------------------------------- checks

def test_kgroup_rank_parses_cli_descriptions():
    assert run.kgroup_rank("free rank 1 + tower group of rank 35 + "
                           "rank-1 group of type[integers]") == 37
    assert run.kgroup_rank("trivial") == 0
    with pytest.raises(run.Unchecked):
        run.kgroup_rank("omega copies of rank-2 tower group")


def test_check_cli_reports_wrong_exit_and_verdict():
    assert run.check_cli({"exit": 2}, 0, "") == "exit code 0, expected 2"
    out = '{"verdicts": [{"label": "verdict", "value": "isomorphic"}]}'
    assert run.check_cli({"exit": 0, "verdict": ["isomorphic"]}, 0, out) \
        is None
    assert "expected one of" in run.check_cli(
        {"exit": 0, "verdict": ["unknown"]}, 0, out)


def test_check_cli_refuses_output_it_cannot_read():
    for out in ("not json", '{"verdicts": []}', '{"verdicts": [{}]}',
                '{"verdicts": [{"label": "k1", "value": null}]}'):
        with pytest.raises(run.Unchecked):
            run.check_cli({"exit": 0, "rank": 1}, 0, out)
    with pytest.raises(run.Unchecked):
        run.check_cli({"exit": 0, "colour": "red"}, 0,
                      '{"verdicts": [{"label": "x", "value": "y"}]}')


def test_time_cap_interrupts_a_pure_python_loop(monkeypatch, tmp_path):
    import signal

    class Spin:
        class wedge:
            _factor_cache = {6: {2: 1, 3: 1}}

        class cli:
            @staticmethod
            def main(argv):
                while True:
                    pass

    monkeypatch.setattr(run, "OP_CAP_S", 0.05)
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        latency, why, checked = run.run_op(
            Spin, gen.Op("spin", "cli", [], {"exit": 0}), tmp_path)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert why.startswith("timeout") and 0.05 <= latency < 1 and checked
    assert Spin.wedge._factor_cache == {}


def test_unreadable_output_is_a_failed_unchecked_op(tmp_path):
    class Mute:
        class wedge:
            _factor_cache = {}

        class cli:
            @staticmethod
            def main(argv):
                print("no report")
                return 0

    p = run.Pass()
    p.run_round(Mute, [gen.Op("mute", "cli", [], {"exit": 0, "rank": 4})],
                tmp_path / "r")
    assert p.unchecked == 1 and p.failures[0].startswith("mute: cannot check")


def test_traced_run_runs_each_round_untraced_and_traced(monkeypatch):
    ran = []

    def run_round(self, abelk, ops, directory):
        ran.append((ops, self, bool(tr._undo)))   # _undo: tracer installed
        self.wall += 1.0
        self.rounds += 1

    run.import_abelk()
    monkeypatch.setattr(run.Pass, "run_round", run_round)
    monkeypatch.setattr(run.gen, "round_ops", lambda w, s, i: i)
    tr = tracer.Tracer()
    plain, traced = run.measure(None, "local", 1, 4.0, tr)
    assert ran == [(0, plain, False), (0, traced, True),
                   (1, traced, True), (1, plain, False)]
    assert plain.rounds == traced.rounds == 2 and not tr._undo


# ------------------------------------------------------------- tracing

def test_self_time_of_synthetic_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6];
    # c [20, 30] with overlapping children [21, 25] and [23, 27]
    parent = [-1, 0, 1, 0, -1, 4, 4]
    start = [0.0, 1.0, 2.0, 5.0, 20.0, 21.0, 23.0]
    end = [10.0, 4.0, 3.0, 6.0, 30.0, 25.0, 27.0]
    assert tracer.self_times(parent, start, end) == \
        [6.0, 2.0, 1.0, 1.0, 4.0, 4.0, 4.0]


def test_layer_metrics_from_recorded_spans():
    tr = tracer.Tracer()
    outer = tr.wrap("towers.membership", lambda x: x, "found_ratio",
                    lambda a, r: r is not None)
    inner = tr.wrap("matrices.matmul", lambda: None)

    def body(x):
        inner()
        inner()
        return x
    traced = tr.wrap("towers.height", body)
    traced(1)
    outer(None)
    outer(3)
    m = tracer.layer_metrics(tr, per=2)
    assert m["matrices.matmul.calls"] == 1.0
    assert m["towers.height.calls"] == 0.5
    assert m["towers.membership.found_ratio"] == 0.5
    assert m["wedge.k1.calls"] == 0
    assert set(m) | {"trace.overhead_ratio"} == \
        {k for k, _ in tracer.metric_names()}


def test_install_wraps_rebound_names_and_uninstall_restores():
    abelk = run.import_abelk()
    compare, cli = sys.modules["abelk.compare"], sys.modules["abelk.cli"]
    orig_k1, orig_cw = compare._k1, cli.check_witness
    orig_matmul = abelk.IntMatrix.__matmul__
    tr = tracer.Tracer()
    tr.install()
    try:
        assert compare._k1 is not orig_k1
        assert cli.check_witness is not orig_cw
        assert abelk.check_witness is cli.check_witness
        abelk.IntMatrix.identity(2) @ abelk.IntMatrix.identity(2)
    finally:
        tr.uninstall()
    assert compare._k1 is orig_k1 and cli.check_witness is orig_cw
    assert abelk.IntMatrix.__matmul__ is orig_matmul
    assert [tr.names[i] for i in tr.name_of] == ["matrices.matmul"]
    assert tr.maxima["matrices.matmul.max_bits"] == 1


def test_every_workload_round_is_correct_on_a_small_seed(tmp_path):
    """One warm-up set per workload through the real program."""
    import signal
    abelk = run.import_abelk()
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        for workload in gen.WORKLOADS:   # frontier has no warm-up ops
            p = run.Pass()
            p.run_round(abelk, gen.warmup_ops(workload, 11, 0),
                        tmp_path / workload)
            assert p.failures == []
    finally:
        signal.signal(signal.SIGALRM, old)
