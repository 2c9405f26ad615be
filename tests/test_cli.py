"""End-to-end CLI behavior: commands, formats, exit codes, round-trips."""

import json
from pathlib import Path

import pytest

import abelk
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

    def test_verify_gallery_without_config(self, capsys):
        assert main(["verify-gallery", "--gallery-config", "none"]) == 0
        out = capsys.readouterr().out
        assert "notice" in out and "0 fail" in out


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
