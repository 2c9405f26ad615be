"""Built-in gallery: construction, verification, determinism."""

from fractions import Fraction

import pytest

from abelk import (Claim, GalleryEntry, RatMatrix, TowerForm, Verdict,
                   Witness, builtin_gallery, render_report, verify_entry,
                   verify_gallery)
from abelk.gallery import (FAIL, NOTICE, PASS, SKIPPED, default_pair_config,
                           load_pair_config)
from abelk.groupfile import ParseError
from abelk.groups import AbGroupDesc

from conftest import rat_det


class TestConstruction:
    def test_without_config_omits_pair_entries(self):
        entries, notices = builtin_gallery(None)
        names = {e.name for e in entries}
        assert "free-rank-3" in names
        assert "rank2-indecomposable-pair" not in names
        assert notices and "omitted" in notices[0]

    def test_with_config_has_pair_entries(self):
        entries, notices = builtin_gallery(default_pair_config())
        names = {e.name for e in entries}
        assert {"rank2-indecomposable-pair", "four-rank-pair",
                "order2-torsion-pair", "amplified-product-pair"} <= names
        assert not notices

    def test_claim_group_indices_checked(self):
        g = AbGroupDesc.free_abelian(1)
        with pytest.raises(ValueError):
            GalleryEntry("bad", (g,), claims=(Claim("k1_rank", (1,), 1),))


class TestVerification:
    def test_everything_passes_or_skips(self):
        entries, _ = builtin_gallery(default_pair_config())
        statuses = {v.verdict for v in verify_gallery(entries)}
        assert statuses == {PASS, SKIPPED}

    def test_literature_claims_skipped_with_citation(self):
        entries, _ = builtin_gallery(default_pair_config())
        skipped = [v for v in verify_gallery(entries) if v.verdict == SKIPPED]
        assert skipped
        assert all(v.label.endswith(".group_non_iso") and "Fuchs" in v.evidence
                   for v in skipped)

    def test_report_sorted_and_deterministic(self):
        entries, notices = builtin_gallery(default_pair_config())
        notes = [Verdict(NOTICE, n) for n in notices]
        r1 = render_report(verify_gallery(entries) + notes)
        r2 = render_report(verify_gallery(list(reversed(entries))) + notes)
        assert r1 == r2
        names = [v.label.rpartition(".")[0] for v in verify_gallery(entries)]
        assert names == sorted(names)

    def test_invalid_witness_fails_entry(self):
        cfg = default_pair_config()
        rows = [list(r) for r in cfg.witness_map.entries]
        rows[0][0] += 1
        bad = Witness(cfg.witness_copies, RatMatrix.from_rows(rows),
                      TowerForm(cfg.gamma1), TowerForm(cfg.gamma2),
                      name="tampered")
        entry = GalleryEntry(
            "negative-control",
            (AbGroupDesc.torsion_free(TowerForm(cfg.gamma1)),
             AbGroupDesc.torsion_free(TowerForm(cfg.gamma2))),
            (bad,),
            (Claim("witness_valid"),))
        results = verify_entry(entry)
        assert any(v.verdict == FAIL for v in results)
        assert results[0].verdict == FAIL

    def test_unknown_claim_kind_fails(self):
        entry = GalleryEntry("odd", claims=(Claim("no_such_kind"),))
        assert verify_entry(entry)[0].verdict == FAIL


class TestConfig:
    def test_roundtrip_from_text(self):
        cfg = default_pair_config()
        assert cfg.gamma1.rank == cfg.gamma2.rank == 2
        assert cfg.witness_copies == 2
        assert abs(rat_det(cfg.witness_map)) == 1

    def test_load_rejects_garbage(self):
        with pytest.raises(Exception):
            load_pair_config("{not json")

    @pytest.mark.parametrize("text, path", [
        ('{"gamma1": {"rank": 1, "period": [[[2.7]]]},'
         ' "gamma2": {"rank": 1}, "witness": {"matrix": [[1]]}}',
         r"\$\.gamma1\.period\[0\]"),
        ('{"gamma1": {"rank": 1}, "gamma2": {"rank": 1},'
         ' "witness": {"copies": true, "matrix": [[1]]}}',
         r"\$\.witness\.copies"),
        ('{"gamma1": {"rank": 1}, "gamma2": {"rank": 1}}', r"witness"),
    ], ids=["float-entry", "boolean-copies", "missing-witness"])
    def test_validated_like_group_files(self, text, path):
        with pytest.raises(ParseError, match=path):
            load_pair_config(text)

    def test_fraction_entries_accepted(self):
        cfg_text = """
        {"gamma1": {"rank": 1, "period": [[[2]]]},
         "gamma2": {"rank": 1, "period": [[[2]]]},
         "witness": {"copies": 1, "matrix": [["1/2", 0], [0, 2]]}}
        """
        cfg = load_pair_config(cfg_text)
        assert cfg.witness_map[0, 0] == Fraction(1, 2)
