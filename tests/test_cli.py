"""End-to-end CLI behavior: commands, formats, exit codes, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abelk
from abelk import cli
from abelk.cli import Report, Verdict, main

PACKAGED_CONFIG = (Path(abelk.__file__).parent / "data"
                   / "fuchs_loonstra.json")


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


Z4 = '{"torsion": "trivial", "free": {"free": 4}}'
G1 = '{"torsion": "countable", "free": {"free": 1}}'
G2 = '{"torsion": "countable", "free": {"free": 2}}'
R1 = '{"free": {"rank1": {"2": "inf", "5": 3}}}'
WITNESS = """
{"copies": 2,
 "matrix": [[0, 7, 4, -4], [1, 1, 0, 8], [-1, 1, 1, -8], [0, -2, -1, 1]],
 "src": {"tower": {"rank": 2, "period": [[[2, 15], [1, 2]]]}},
 "dst": {"tower": {"rank": 2, "period": [[[1, 7], [2, 3]]]}}}
"""


class TestCommands:
    def test_k1_free_rank(self, files, capsys):
        path = files("z4.grp", Z4)
        assert main(["k1", path]) == 0
        assert "free rank 8" in capsys.readouterr().out

    def test_k0(self, files, capsys):
        path = files("z4.grp", Z4)
        assert main(["k0", path]) == 0
        assert "free rank 8" in capsys.readouterr().out

    def test_type(self, files, capsys):
        path = files("r1.grp", R1)
        assert main(["type", path]) == 0
        assert "type[2^inf]" in capsys.readouterr().out

    def test_height(self, files, capsys):
        path = files("r1.grp", R1)
        assert main(["height", path, "5"]) == 0
        assert ": 3" in capsys.readouterr().out
        assert main(["height", path, "2"]) == 0
        assert ": inf" in capsys.readouterr().out

    def test_compare_unitary_isomorphic(self, files, capsys):
        p1, p2 = files("g1.grp", G1), files("g2.grp", G2)
        assert main(["compare-unitary", p1, p2]) == 0
        assert "isomorphic" in capsys.readouterr().out

    def test_compare_k1_not_isomorphic_still_exit_zero(self, files, capsys):
        p1, p2 = files("g1.grp", G1), files("g2.grp", G2)
        assert main(["compare-k1", p1, p2]) == 0
        out = capsys.readouterr().out
        assert "not_isomorphic" in out and "free rank 1 vs 2" in out

    def test_check_witness(self, files, capsys):
        path = files("w.json", WITNESS)
        assert main(["check-witness", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_compare_unitary_with_witness(self, files, capsys):
        tower1 = ('{"torsion": [2], "free": {"tower": '
                  '{"rank": 2, "period": [[[2, 15], [1, 2]]]}}}')
        tower2 = ('{"torsion": [2], "free": {"tower": '
                  '{"rank": 2, "period": [[[1, 7], [2, 3]]]}}}')
        p1, p2 = files("t1.grp", tower1), files("t2.grp", tower2)
        w = files("w.json", WITNESS)
        assert main(["compare-unitary", p1, p2, "--witness", w]) == 0
        assert "isomorphic" in capsys.readouterr().out
        assert main(["compare-unitary", p1, p2]) == 0
        assert "unknown" in capsys.readouterr().out

    def test_verify_gallery(self, capsys):
        assert main(["verify-gallery"]) == 0
        out = capsys.readouterr().out
        assert "0 fail" in out and "skipped" in out

    def test_verify_gallery_checks_its_witness_once(self, capsys,
                                                    monkeypatch):
        # the entries of the packaged pair share one witness, checked once:
        # one lattice check in each direction
        calls = []
        kernel = abelk.compare._maps_lattices_into

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(abelk.compare, "_maps_lattices_into", counted)
        assert main(["verify-gallery"]) == 0
        assert "0 fail" in capsys.readouterr().out
        assert len(calls) == 2

    def test_verify_gallery_without_config(self, capsys):
        assert main(["verify-gallery", "--gallery-config", "none"]) == 0
        out = capsys.readouterr().out
        assert "notice" in out and "0 fail" in out


class TestRank1Twins:
    """A "rank1" file and the canonical tower of its characteristic are
    one descriptor, so every command answers them alike."""

    TWIN = ('{"free": {"tower": {"rank": 1, "prefix": [[[125]]], '
            '"period": [[[2]]]}}}')
    THIRD = '{"free": {"rank1": {"2": "inf", "3": "inf"}}}'

    def verdicts(self, capsys, argv):
        assert main(["--format", "json", *argv]) == 0
        return json.loads(capsys.readouterr().out)["verdicts"]

    def test_same_verdicts(self, files, capsys):
        third = files("third.grp", self.THIRD)
        paths = files("r1.grp", R1), files("twin.grp", self.TWIN)
        for argv in (["k1"], ["k0"], ["type"], ["height", "5"],
                     ["height", "2"], ["compare-unitary", third]):
            got = [self.verdicts(capsys, [argv[0], p, *argv[1:]])
                   for p in paths]
            assert got[0] == got[1], argv
        assert got[0][0]["value"] == "not_isomorphic"
        assert self.verdicts(capsys, ["k1", paths[1]])[0]["value"] == \
            "rank-1 group of type[2^inf]"

    def test_equal_descriptors(self):
        assert (abelk.parse_group_file(R1)
                == abelk.parse_group_file(self.TWIN))


class TestRepeatedCalls:
    def test_consecutive_calls_share_no_state(self, files, capsys,
                                              monkeypatch):
        # one parser serves every call; each call sees only its own options
        seen = []

        def recorded(args):
            seen.append((args.format, list(args.witness)))
            return 0, Report(args.command, (), (), 0.0)

        monkeypatch.setattr(cli, "_run", recorded)
        p1, p2 = files("g1.grp", G1), files("g2.grp", G2)
        w1, w2 = files("w1.json", WITNESS), files("w2.json", WITNESS)
        assert main(["--format", "json", "compare-k1", p1, p2,
                     "--witness", w1, "--witness", w2]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "compare-k1"
        assert main(["compare-k1", p1, p2, "--witness", w2]) == 0
        assert capsys.readouterr().out.startswith("compare-k1")
        assert main(["compare-k1", p1, p2]) == 0
        assert seen == [("json", [w1, w2]), ("text", [w2]), ("text", [])]
        assert cli._build_parser() is cli._build_parser()


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["k1", "nope.grp"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_group_file(self, files, capsys):
        path = files("bad.grp", "{nope")
        assert main(["k1", path]) == 2

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2

    def test_bad_prime(self, files):
        path = files("r1.grp", R1)
        assert main(["height", path, "1"]) == 2

    def test_oversized_rank_height(self, files, capsys):
        # the default element of a rank past sys.maxsize cannot be built
        path = files("huge.grp", json.dumps(
            {"free": {"tower": {"rank": 10 ** 30}}}))
        assert main(["height", path, "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_of_memory(self, files):
        # the default element of a rank-10^9 tower needs gigabytes: in a
        # child that caps its own address space at 1 GB that ends in a
        # MemoryError, whose message is empty
        pytest.importorskip("resource")
        path = files("huge.grp", json.dumps(
            {"free": {"tower": {"rank": 10 ** 9}}}))
        child = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({10 ** 9}, {10 ** 9}))\n"
            "from abelk.cli import main\n"
            f"sys.exit(main(['height', {path!r}, '2']))\n")
        src = str(Path(abelk.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: out of memory"), done.stderr
        assert "Traceback" not in done.stderr

    def test_composite_prime(self, files):
        path = files("half.grp", json.dumps(
            {"free": {"tower": {"rank": 1, "period": [[[2]]]}}}))
        assert main(["height", path, "4"]) == 2

    @pytest.mark.parametrize("entry", [2.7, True])
    def test_gallery_config_entry_not_an_integer(self, files, entry):
        # the packaged configuration with one period entry 2 replaced
        cfg = json.loads(PACKAGED_CONFIG.read_text())
        assert cfg["gamma1"]["period"][0][0][0] == 2
        cfg["gamma1"]["period"][0][0][0] = entry
        path = files("cfg.json", json.dumps(cfg))
        assert main(["verify-gallery", "--gallery-config", path]) == 2

    def test_witness_name_not_a_string(self, files, capsys):
        data = json.loads(WITNESS)
        data["name"] = 7
        path = files("w.json", json.dumps(data))
        assert main(["check-witness", path]) == 2
        assert "$.name" in capsys.readouterr().err

    def test_oversized_copies(self, files, capsys, monkeypatch):
        def no_summands(f):
            raise AssertionError("summands listed before the rank check")

        monkeypatch.setattr(abelk.compare, "summand_towers", no_summands)
        tower = {"tower": {"rank": 2, "period": [[[2, 1], [1, 1]]]}}
        path = files("w.json", json.dumps(
            {"copies": 10 ** 6, "matrix": [[1, 0], [0, 1]],
             "src": tower, "dst": tower}))
        assert main(["check-witness", path]) == 2
        assert "witness map is 2x2" in capsys.readouterr().err

    @pytest.mark.parametrize("copies", [10 ** 6, 10 ** 9])
    def test_oversized_summand_copies(self, files, capsys, monkeypatch,
                                      copies):
        # the ranks are read off the counts: no summand is listed before
        # the map's size is compared with them
        def no_listing(f):
            raise AssertionError("summands listed before the rank check")

        monkeypatch.setattr(abelk.compare, "summand_towers", no_listing)
        path = files("w.json", json.dumps(
            {"matrix": [[1, 0], [0, 1]],
             "src": {"cd": [{"type": {"2": "inf"}, "copies": copies}]},
             "dst": {"tower": {"rank": 2, "period": [[[2, 1], [1, 1]]]}}}))
        assert main(["check-witness", path]) == 2
        assert (f"towers have ranks {copies} and 2"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["k1", "k0"])
    def test_huge_free_rank(self, files, capsys, command):
        # refused before 2^(rank - 1) is computed, naming the rank and
        # the digit limit on integer strings
        path = files("g.json", '{"free": {"free": 1000000000}}')
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert "total rank 1000000000" in err
        assert f"{sys.get_int_max_str_digits()} digits" in err

    def test_witness_between_groups_of_rank_zero_and_one(self, files):
        path = files("w.json", json.dumps(
            {"matrix": [[1]], "src": {"free": 0}, "dst": {"free": 1}}))
        assert main(["check-witness", path]) == 2

    def test_type_on_higher_rank(self, files):
        path = files("z4.grp", Z4)
        assert main(["type", path]) == 2


class TestJsonFormat:
    def test_json_output_parses(self, files, capsys):
        path = files("z4.grp", Z4)
        assert main(["--format", "json", "k1", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["command"] == "k1"
        assert data["verdicts"][0]["value"] == "free rank 8"

    def test_report_roundtrip(self):
        r = Report("k1", ("a.grp",),
                   (Verdict("k1", "free rank 8", "note"),), 0.125)
        assert Report.from_json(r.to_json()) == r

    def test_gallery_json(self, capsys):
        assert main(["--format", "json", "verify-gallery"]) == 0
        data = json.loads(capsys.readouterr().out)
        statuses = {v["value"] for v in data["verdicts"]
                    if v["label"] != "notice"}
        assert statuses == {"PASS", "SKIPPED"}
