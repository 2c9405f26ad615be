"""abelk benchmark: seeded closed-loop workloads through the CLI and API.

    python3 perfbench/run.py --workload kgroups --seed 1 --seconds 30 --trace 0

One client, one process, one thread: each op starts after the previous one
ends.  An op is one ``abelk.cli.main(argv)`` call on generated group and
witness files, or one public abelk function on a parsed group file; every
answer is checked against the value known from how the input was built
(see gen.py).  Ops run in rounds, one op per rung of the workload's
schedule, and a pass runs whole rounds until ``--seconds`` have been spent
in ops, so every pass has the same mix of rungs.

--trace 0 prints the end-to-end metrics; --trace 1 runs every round twice,
untraced and traced, and prints the per-layer metrics (per traced round),
with ``trace.overhead_ratio`` = traced wall / untraced wall of the same
rounds.  Human-readable lines come first; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
Each run also writes its full record, with the median latency of every
rung (the growth curves) and every failed op by name, under
perfbench/.work/results/.

Exit codes: 0 when every answer could be checked and, on a gated workload,
was right; 1 when a gated workload has a failed op; 2 when there is no
abelk to run; 3 when some output could not be checked at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
OP_CAP_S = 5.0      # per-op time cap; an op past it is a failure
SETUPS = 9          # set-ups per run; setup_s is their median
EXIT_FAILED, EXIT_NO_PROGRAM, EXIT_UNCHECKED = 1, 2, 3
UNGATED = ("frontier",)   # workloads whose ops are expected to fail


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; BaseException so that no handler in
    abelk (which catches ValueError and friends) can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Unchecked(Exception):
    """The program's output is not in a form the checks can read."""


def import_abelk():
    """Fresh import of abelk from the checkout's src/, never from elsewhere."""
    for name in [n for n in sys.modules
                 if n == "abelk" or n.startswith("abelk.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    abelk = importlib.import_module("abelk")
    importlib.import_module("abelk.cli")
    if Path(abelk.__file__).resolve().parent != ROOT / "src" / "abelk":
        raise ImportError(f"abelk imported from {abelk.__file__}")
    return abelk


# ------------------------------------------------------------------ checks

_PART_RANK = (
    ("free rank ", lambda s: int(s)),
    ("tower group of rank ", lambda s: int(s)),
    ("rank-1 group of ", lambda s: 1),
)


def kgroup_rank(text: str) -> int:
    """Total rank of a K-group as the CLI describes it ("A + B + ...")."""
    total = 0
    for part in text.split(" + "):
        if part == "trivial":
            continue
        for prefix, rank in _PART_RANK:
            if part.startswith(prefix):
                total += rank(part[len(prefix):])
                break
        else:
            raise Unchecked(f"unrecognised K-group part {part!r}")
    return total


def check_cli(expect: dict, code: int, out: str) -> str | None:
    """None when the CLI result matches the expectation, else why not;
    raises Unchecked when the output cannot be read."""
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    if len(expect) == 1:
        return None
    try:
        verdicts = json.loads(out)["verdicts"]
        labels = [(v["label"], v["value"]) for v in verdicts]
        value = labels[0][1]
    except (ValueError, KeyError, TypeError, IndexError):
        raise Unchecked("output is not a JSON report with verdicts")
    if "rank" in expect:
        if not isinstance(value, str):
            raise Unchecked(f"K-group {value!r} is not text")
        got = kgroup_rank(value)
        return None if got == expect["rank"] else \
            f"K-group rank {got}, expected {expect['rank']}"
    if "verdict" in expect:
        return None if value in expect["verdict"] else \
            f"verdict {value!r}, expected one of {expect['verdict']}"
    if "gallery" in expect:
        bad = [f"{label}={v}" for label, v in labels
               if v != ("SKIPPED" if label.endswith(".group_non_iso")
                        else "PASS")]
        return f"gallery claims not as expected: {bad}" if bad else None
    for key in ("witness", "height", "type"):
        if key in expect:
            return None if value == expect[key] else \
                f"{key} {value!r}, expected {expect[key]!r}"
    raise Unchecked(f"no check for {sorted(expect)}")


def check_api(expect: dict, result) -> str | None:
    got = result
    if result is not None and not isinstance(result, bool):
        try:
            got = [result.stage, list(result.coords)]
        except (AttributeError, TypeError):
            raise Unchecked(f"result {result!r} has no stage and coords")
    return None if got == expect["value"] else \
        f"returned {got!r}, expected {expect['value']!r}"


# -------------------------------------------------------------------- ops

def run_op(abelk, op: gen.Op,
           directory: Path) -> tuple[float, str | None, bool]:
    """Run one op under the time cap; (latency s, failure reason or None,
    whether the output could be checked)."""
    out, err = io.StringIO(), io.StringIO()
    code = result = None
    # every op starts from an empty factor cache, as a one-shot CLI
    # process does; the divisors and moduli of the ops repeat across ops
    abelk.wedge._factor_cache.clear()
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    t0 = time.perf_counter()
    try:
        if op.kind == "cli":
            argv = ["--format", "json"] + [
                str(directory / a) if a in op.files else a for a in op.args]
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = abelk.cli.main(argv)
        else:
            text = (directory / op.args[0]).read_text(encoding="utf-8")
            t = abelk.parse_group_file(text).free.tower
            if op.kind == "is_divisible":
                result = abelk.is_divisible(
                    t, abelk.GroupElement(0, tuple(op.args[1])), op.args[2])
            else:
                result = abelk.membership(
                    t, [Fraction(x) for x in op.args[1]])
        latency = time.perf_counter() - t0
    except OpTimeout:
        return (time.perf_counter() - t0, f"timeout after {OP_CAP_S:g} s",
                True)
    except Exception as e:  # any crash of the program is a failed op
        return (time.perf_counter() - t0,
                f"raised {type(e).__name__}: {e}", True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        if op.kind == "cli":
            return latency, check_cli(op.expect, code, out.getvalue()), True
        return latency, check_api(op.expect, result), True
    except Unchecked as e:
        return latency, f"cannot check output: {e}", False


class Pass:
    """Latencies and failures of one closed-loop pass over whole rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_rung: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.unchecked = 0
        self.wall = 0.0
        self.rounds = 0

    def run_round(self, abelk, ops, directory: Path) -> None:
        gen.write_ops(ops, directory)
        # start every round from the same collector state, so that a full
        # collection owed to earlier rounds does not land inside an op
        gc.collect()
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            latency, why, checked = run_op(abelk, op, directory / str(i))
            self.unchecked += not checked
            self.latencies.append(latency)
            self.by_rung.setdefault(op.rung, []).append(latency)
            if why:
                self.failures.append(f"{op.rung}: {why}")
        self.wall += time.perf_counter() - t0
        self.rounds += 1
        shutil.rmtree(directory)


def setup(workload: str, seed: int, index: int, directory: Path):
    """Import abelk, build and write a round of inputs, run the warm-up.
    Returns (abelk, seconds, the warm-up pass)."""
    t0 = time.perf_counter()
    abelk = import_abelk()
    gen.write_ops(gen.round_ops(workload, seed, -1 - index), directory / "g")
    warm = Pass()
    warm.run_round(abelk, gen.warmup_ops(workload, seed, index),
                   directory / "w")
    seconds = time.perf_counter() - t0
    shutil.rmtree(directory)
    return abelk, seconds, warm


def measure(abelk, workload: str, seed: int, seconds: float,
            tr: tracer.Tracer | None = None) -> list[Pass]:
    """Run rounds 0, 1, ... until `seconds` are spent in ops.  Without a
    tracer that is one pass.  With one, each round runs twice, untraced
    and traced, first one way round and then the other, and the result is
    [untraced, traced]: both passes do the same work and see the same
    drift of the machine's speed, so their ratio is the tracer's cost."""
    passes = [Pass()] if tr is None else [Pass(), Pass()]
    directory = WORK / "inputs" / workload
    i = 0
    while sum(p.wall for p in passes) < seconds:
        ops = gen.round_ops(workload, seed, i)
        if tr is None:
            passes[0].run_round(abelk, ops, directory)
        else:
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    tr.install()
                try:
                    passes[traced].run_round(abelk, ops, directory)
                finally:
                    tr.uninstall()
        i += 1
    return passes


def end_to_end(p: Pass, setups: list[float]) -> dict:
    ms = [x * 1000 for x in p.latencies]
    return {
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "ops_per_s": (len(ms) / p.wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_abelk()
    except ImportError as e:
        print(f"error: cannot import abelk from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    signal.signal(signal.SIGALRM, _on_alarm)

    w = args.workload
    shutil.rmtree(WORK / "inputs" / w, ignore_errors=True)
    setups, failures, unchecked, attempted = [], [], 0, 0
    for i in range(SETUPS):
        abelk, s, warm = setup(w, args.seed, i, WORK / "inputs" / w / "setup")
        setups.append(s)
        failures += [f"warm-up {x}" for x in warm.failures]
        unchecked += warm.unchecked
        attempted += len(warm.latencies)

    record = {"workload": w, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "machine": platform.machine(), "op_cap_s": OP_CAP_S}
    if args.trace == 0:
        passes = measure(abelk, w, args.seed, args.seconds)
        metrics = end_to_end(passes[0], setups)
    else:
        tr = tracer.Tracer()
        passes = plain, traced = measure(abelk, w, args.seed, args.seconds,
                                         tr)
        spans = WORK / "spans" / f"{w}-seed{args.seed}"
        tr.write(spans)
        units = dict(tracer.metric_names())
        layer = tracer.layer_metrics(tr, traced.rounds)
        layer["trace.overhead_ratio"] = traced.wall / plain.wall
        metrics = {k: (v, units[k]) for k, v in layer.items()}
        record["spans"] = str(spans.relative_to(ROOT))

    for p in passes:
        attempted += len(p.latencies)
        failures += p.failures
        unchecked += p.unchecked
    record["rounds"] = [p.rounds for p in passes]
    record["pass_wall_s"] = [p.wall for p in passes]
    record["growth_ms"] = {
        rung: statistics.median(v) * 1000
        for rung, v in sorted(passes[0].by_rung.items())}
    record["latencies_ms"] = {
        rung: [x * 1000 for x in v]
        for rung, v in sorted(passes[0].by_rung.items())}
    record.update(attempted=attempted, failed=len(failures),
                  fail_ratio=len(failures) / attempted, failures=failures,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {w}, seed {args.seed}: closed loop, 1 client")
    for label, p in zip(("untraced", "traced"), passes):
        print(f"  {label} pass: {len(p.latencies)} ops in {p.rounds} rounds, "
              f"{p.wall:.2f} s in ops")
    if args.trace == 0:
        n = len(passes[0].latencies)
        above = sum(1 for x in passes[0].latencies
                    if x * 1000 > metrics["op_p90_ms"][0])
        print(f"  op_p90_ms has {above} of {n} ops above it")
    for k, (v, u) in metrics.items():
        print(f"  {k:<44} {v:>14.6g} {u}")
    print(f"  {'fail_ratio':<44} {len(failures) / attempted:>14.6g} ratio "
          f"({len(failures)} failed / {attempted} attempted)")
    for f in failures:
        print(f"  FAILED {f}")
    print("  growth (median ms per rung):")
    for rung, v in record["growth_ms"].items():
        print(f"    {rung:<46} {v:10.3f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": record["metrics"]}))
    if unchecked:
        return EXIT_UNCHECKED
    return EXIT_FAILED if failures and w not in UNGATED else 0


if __name__ == "__main__":
    sys.exit(main())
