"""Command-line front end.

Exit codes: 0 for any computed verdict (including not-isomorphic and
unknown), 1 when gallery verification reports a FAIL, 2 on input errors or
bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .compare import (DimensionMismatchError, SingularWitnessError, Verdict,
                      check_witness, compare_k1, compare_unitary)
from .gallery import (FAIL, NOTICE, builtin_gallery, default_pair_config,
                      load_pair_config, render_report, verify_gallery)
from .groupfile import (ParseError, ValidationError, parse_group_file,
                        parse_witness_file)
from .groups import Rank1, TowerForm, describe
from .towers import GroupElement, height, tower_type
from .wedge import k0, k1


@dataclass(frozen=True)
class Report:
    command: str
    inputs: tuple[str, ...]
    verdicts: tuple[Verdict, ...]
    seconds: float

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "inputs": list(self.inputs),
            "verdicts": [{"label": v.label, "value": v.verdict,
                          "evidence": v.evidence} for v in self.verdicts],
            "seconds": self.seconds,
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "Report":
        d = json.loads(text)
        return Report(d["command"], tuple(d["inputs"]),
                      tuple(Verdict(v["label"], v["value"], v["evidence"])
                            for v in d["verdicts"]),
                      d["seconds"])

    def to_text(self) -> str:
        lines = [f"{self.command} {' '.join(self.inputs)}".rstrip()]
        for v in self.verdicts:
            line = f"{v.label}: {v.verdict}"
            if v.evidence:
                line += f"  [{v.evidence}]"
            lines.append(line)
        lines.append(f"({self.seconds:.3f}s)")
        return "\n".join(lines)


class InputError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None


def _load_group(path: str):
    return parse_group_file(_read(path))


def _load_witnesses(paths):
    return tuple(parse_witness_file(_read(p)) for p in paths)


def _rank1_tower(desc):
    f = desc.free
    if isinstance(f, Rank1):
        return f.tower
    if isinstance(f, TowerForm) and f.tower.rank == 1:
        return f.tower
    raise InputError("this command needs a rank-1 group "
                     "(free part \"rank1\" or a rank-1 tower)")


def _tower(desc):
    f = desc.free
    if isinstance(f, (Rank1, TowerForm)):
        return f.tower
    raise InputError("this command needs a tower-presented free part")


def _parse_coords(text: str, rank: int):
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"bad element coordinates {text!r}") from None
    if len(coords) != rank:
        raise InputError(f"element has {len(coords)} coordinates, "
                         f"tower has rank {rank}")
    return coords


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="abelk",
        description="Exact invariants of abelian group C*-algebras")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("k1", "k0"):
        p = sub.add_parser(name, help=f"compute {name.upper()} of a group")
        p.add_argument("group")

    p = sub.add_parser("type", help="type of a rank-1 group")
    p.add_argument("group")

    p = sub.add_parser("height", help="p-height of an element")
    p.add_argument("group")
    p.add_argument("prime", type=int)
    p.add_argument("--element", default=None,
                   help="comma-separated stage-0 integer coordinates "
                        "(default: first unit vector)")

    for name in ("compare-unitary", "compare-k1"):
        p = sub.add_parser(name, help=f"{name.split('-')[1]} comparison")
        p.add_argument("group1")
        p.add_argument("group2")
        p.add_argument("--witness", action="append", default=[],
                       help="witness file (repeatable)")

    p = sub.add_parser("check-witness", help="validate a witness file")
    p.add_argument("witness")

    p = sub.add_parser("verify-gallery", help="run all built-in checks")
    p.add_argument("--gallery-config", default=None,
                   help="pair configuration file; \"none\" disables the "
                        "configured entries (default: packaged data)")
    return ap


def _run(args) -> tuple[int, Report]:
    t0 = time.perf_counter()
    cmd = args.command
    code = 0
    if cmd in ("k1", "k0"):
        g = _load_group(args.group)
        result = (k1 if cmd == "k1" else k0)(g)
        verdicts = (Verdict(cmd, describe(result)),)
        inputs = (args.group,)
    elif cmd == "type":
        g = _load_group(args.group)
        verdicts = (Verdict("type", str(tower_type(_rank1_tower(g)))),)
        inputs = (args.group,)
    elif cmd == "height":
        g = _load_group(args.group)
        t = _tower(g)
        coords = ((1,) + (0,) * (t.rank - 1) if args.element is None
                  else _parse_coords(args.element, t.rank))
        h = height(t, GroupElement(0, coords), args.prime)
        verdicts = (Verdict(f"height at {args.prime}",
                            "inf" if h == float("inf") else str(h)),)
        inputs = (args.group,)
    elif cmd in ("compare-unitary", "compare-k1"):
        g1, g2 = _load_group(args.group1), _load_group(args.group2)
        ws = _load_witnesses(args.witness)
        fn = compare_unitary if cmd == "compare-unitary" else compare_k1
        verdicts = (fn(g1, g2, ws),)
        inputs = (args.group1, args.group2)
    elif cmd == "check-witness":
        w = parse_witness_file(_read(args.witness))
        try:
            ok = check_witness(w)
        except (DimensionMismatchError, SingularWitnessError) as e:
            raise InputError(str(e)) from None
        verdicts = (Verdict("witness", "valid" if ok else "invalid"),)
        inputs = (args.witness,)
    else:  # verify-gallery
        opt = args.gallery_config
        config = (None if opt == "none"
                  else load_pair_config(_read(opt)) if opt
                  else default_pair_config())
        entries, notices = builtin_gallery(config)
        verdicts = tuple(verify_gallery(entries))
        verdicts += tuple(Verdict(NOTICE, n) for n in notices)
        if any(v.verdict == FAIL for v in verdicts):
            code = 1
        inputs = ()
    seconds = time.perf_counter() - t0
    return code, Report(cmd, inputs, verdicts, round(seconds, 6))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        code, report = _run(args)
    except (InputError, ParseError, ValidationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    elif args.command == "verify-gallery":
        print(render_report(report.verdicts))
    else:
        print(report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
