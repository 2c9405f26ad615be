"""Outside-in tracer: wraps abelk's public functions from the benchmark.

Each wrapped call records one span (name, start, end, parent) in flat
arrays kept in memory; spans are written out once, when the run ends.
Self time, call counts and the per-function extras (largest output entry,
ratio of useful outcomes) are computed from the spans and the counters
afterwards.  Nothing in abelk itself is changed: the wrappers are bound in
place of the originals in every abelk module that imported them (including
names rebound by ``from ... import``) and on the classes whose methods are
traced, and the originals are put back by uninstall().
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path


def _max_entry_bits(m) -> int:
    return max((abs(x).bit_length() for row in m.entries for x in row),
               default=0)


# (metric name, module, class or None, attribute, extra stat, extra fn).
# extra fn maps (args, result) to a number: "max_*" stats keep the
# largest, "*_ratio" stats count truthy outcomes per call.
TARGETS = (
    ("matrices.compound_matrix", "matrices", None, "compound_matrix",
     "max_bits", lambda a, r: _max_entry_bits(r)),
    ("matrices.det", "matrices", "IntMatrix", "det", None, None),
    ("matrices.matmul", "matrices", "IntMatrix", "__matmul__",
     "max_bits", lambda a, r: _max_entry_bits(r)),
    ("matrices.rational_inverse", "matrices", None, "rational_inverse",
     None, None),
    ("matrices.smith_normal_form", "matrices", None, "smith_normal_form",
     None, None),
    ("towers.factorize", "towers", None, "factorize",
     "max_in_bits", lambda a, r: abs(a[0]).bit_length()),
    ("towers.mod_p_rank", "towers", None, "mod_p_rank", None, None),
    ("towers.is_divisible", "towers", None, "is_divisible", None, None),
    ("towers.membership", "towers", None, "membership",
     "found_ratio", lambda a, r: r is not None),
    ("towers.height", "towers", None, "height", None, None),
    ("towers.characteristic", "towers", None, "characteristic", None, None),
    ("towers.direct_sum_towers", "towers", None, "direct_sum_towers",
     None, None),
    ("towers.tensor_towers", "towers", None, "tensor_towers", None, None),
    ("wedge.wedge_power_tower", "wedge", None, "wedge_power_tower",
     None, None),
    ("wedge.k1", "wedge", None, "k1", None, None),
    ("wedge.k0", "wedge", None, "k0", None, None),
    ("wedge.wedge_divisible_by_search", "wedge", None,
     "wedge_divisible_by_search", None, None),
    ("compare.compare_free_parts", "compare", None, "compare_free_parts",
     "decided_ratio", lambda a, r: r.verdict != "unknown"),
    ("compare.check_witness", "compare", None, "check_witness",
     "valid_ratio", lambda a, r: r),
    ("compare.amplify", "compare", None, "amplify", None, None),
    ("groups.flatten", "groups", None, "flatten", None, None),
    ("fg.from_relations", "fg", None, "from_relations", None, None),
    ("groupfile.parse_group_file", "groupfile", None, "parse_group_file",
     None, None),
    ("groupfile.parse_witness_file", "groupfile", None, "parse_witness_file",
     None, None),
    ("gallery.verify_gallery", "gallery", None, "verify_gallery", None, None),
    ("cli.report", "cli", "Report", "to_json", None, None),
    ("cli.report", "cli", "Report", "to_text", None, None),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit) the traced run reports."""
    out: list[tuple[str, str]] = []
    for name, _, _, _, stat, _ in TARGETS:
        for s, unit in (("calls", "count"), ("self_s", "s")):
            if (f"{name}.{s}", unit) not in out:
                out.append((f"{name}.{s}", unit))
        if stat:
            out.append((f"{name}.{stat}",
                        "bits" if stat.startswith("max_") else "ratio"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Span recorder; install() wraps the targets, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.maxima: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, stat=None, extra=None):
        nid = self._name_id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack, clock = self._stack, time.perf_counter
        key = f"{name}.{stat}" if stat else None
        maxima, hits = self.maxima, self.hits
        if key:
            (maxima if stat.startswith("max_") else hits).setdefault(key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if key:
                v = extra(args, result)
                if key in maxima:
                    if v > maxima[key]:
                        maxima[key] = v
                elif v:
                    hits[key] += 1
            return result

        return traced

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == "abelk" or n.startswith("abelk.")}
        for name, modname, cls, attr, stat, extra in TARGETS:
            mod = mods[f"abelk.{modname}"]
            if cls:
                owner = getattr(mod, cls)
                self._rebind(owner, attr,
                             self.wrap(name, vars(owner)[attr], stat, extra))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, stat, extra)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._rebind(m, key, wrapped)

    def _rebind(self, owner, key: str, new) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)

    def write(self, path: Path) -> None:
        """Spans as JSON header + four raw arrays (name id, parent, start,
        end), in that order, machine byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["name_of:int32", "parent:int32",
                             "start:float64", "end:float64"]}
        path.with_suffix(".json").write_text(json.dumps(header),
                                             encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as f:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(f)


def self_times(parent, start, end) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = []
    for i in range(n):
        covered = 0.0
        lo_cur = hi_cur = None
        for c in sorted(children[i], key=start.__getitem__):
            lo, hi = max(start[c], start[i]), min(end[c], end[i])
            if hi <= lo:
                continue
            if hi_cur is None or lo > hi_cur:
                if hi_cur is not None:
                    covered += hi_cur - lo_cur
                lo_cur, hi_cur = lo, hi
            elif hi > hi_cur:
                hi_cur = hi
        if hi_cur is not None:
            covered += hi_cur - lo_cur
        out.append((end[i] - start[i]) - covered)
    return out


def layer_metrics(tr: Tracer, per: float) -> dict[str, float]:
    """calls and self_s of every target, divided by `per` (the number of
    rounds traced), and the extras: maxima as they are, ratios over calls."""
    selfs = self_times(tr.parent, tr.start, tr.end)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, nid in enumerate(tr.name_of):
        name = tr.names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
    out: dict[str, float] = {}
    for metric, _ in metric_names():
        name, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls.get(name, 0) / per
        elif stat == "self_s":
            out[metric] = self_s.get(name, 0.0) / per
        elif stat.startswith("max_"):
            out[metric] = tr.maxima.get(metric, 0)
        elif stat.endswith("_ratio"):
            out[metric] = (tr.hits.get(metric, 0) / calls[name]
                           if calls.get(name) else 0.0)
    return out
