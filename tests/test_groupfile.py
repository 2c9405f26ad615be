"""Group-description file parsing, validation and round-trips."""

import pytest

from abelk import (AbGroupDesc, FreeOfRank, ParseError, Rank1, TorsionDesc,
                   TowerForm, ValidationError, emit_group, parse_group_file,
                   parse_witness_file, tower_type)
from abelk.groups import DirectSum, flatten


class TestParsing:
    def test_free_group(self):
        g = parse_group_file('{"torsion": "trivial", "free": {"free": 2}}')
        assert g == AbGroupDesc.free_abelian(2)

    def test_torsion_defaults_to_trivial(self):
        g = parse_group_file('{"free": {"free": 1}}')
        assert g.torsion == TorsionDesc.trivial()

    def test_countable_torsion_with_listed_structure(self):
        g = parse_group_file(
            '{"torsion": {"countable": [2]}, "free": {"free": 1}}')
        assert g.torsion.is_countably_infinite
        assert g.free == FreeOfRank(1)

    def test_finite_torsion_orders(self):
        g = parse_group_file('{"torsion": [2, 6], "free": {"free": 0}}')
        assert g.torsion.finite.invariant_factors == (2, 6)

    def test_rank1_with_infinity_token(self):
        g = parse_group_file(
            '{"free": {"rank1": {"2": "inf", "5": 3}}}')
        assert isinstance(g.free, Rank1)
        assert str(tower_type(g.free.tower)) == "type[2^inf]"

    def test_tower_and_sum(self):
        g = parse_group_file("""
        {"free": {"sum": [
            {"free": 1},
            {"tower": {"rank": 2, "prefix": [],
                       "period": [[[2, 15], [1, 2]]]}}]}}
        """)
        assert isinstance(g.free, DirectSum)
        s = flatten(g.free)
        assert s.free_rank == 1 and len(s.towers) == 1

    def test_cd_with_omega(self):
        g = parse_group_file("""
        {"free": {"cd": [{"type": {"2": "inf"}, "copies": "omega"},
                         {"type": {"3": "inf"}, "copies": 2}]}}
        """)
        s = flatten(g.free)
        assert len(s.omega_types) == 1 and len(s.types) == 2


class TestErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError, match=r"line \d+, column \d+"):
            parse_group_file('{"free": {"free": }')

    def test_malformed_exponent_has_path(self):
        with pytest.raises(ParseError, match=r"\$\.free\.rank1\.2"):
            parse_group_file('{"free": {"rank1": {"2": "lots"}}}')

    def test_nonprime_rejected(self):
        with pytest.raises(ParseError, match="not prime"):
            parse_group_file('{"free": {"rank1": {"6": 1}}}')

    @pytest.mark.parametrize("key", ["\u00b2", "\u0663"],
                             ids=["superscript-two", "arabic-indic-three"])
    def test_prime_key_must_be_ascii_digits(self, key):
        with pytest.raises(ParseError, match="prime expected"):
            parse_group_file('{"free": {"rank1": {"%s": 1}}}' % key)

    def test_primes_must_increase(self):
        with pytest.raises(ParseError, match="increasing"):
            parse_group_file('{"free": {"rank1": {"5": 1, "3": 1}}}')

    def test_singular_tower_forwarded_as_validation_error(self):
        with pytest.raises(ValidationError, match="singular"):
            parse_group_file(
                '{"free": {"tower": {"rank": 1, "period": [[[0]]]}}}')

    def test_unknown_field(self):
        with pytest.raises(ParseError, match="unknown fields"):
            parse_group_file('{"free": {"free": 1}, "extra": 1}')

    def test_missing_free(self):
        with pytest.raises(ParseError, match="free"):
            parse_group_file('{"torsion": "trivial"}')

    # JSON true is a Python int; it must not be read as the integer 1
    @pytest.mark.parametrize("text, path", [
        ('{"free": {"rank1": {"2": true}}}', r"\$\.free\.rank1\.2"),
        ('{"free": {"tower": {"rank": 1, "period": [[[true]]]}}}',
         r"\$\.free\.tower\.period\[0\]"),
        ('{"free": {"tower": {"rank": true, "period": [[[2]]]}}}',
         r"\$\.free\.tower"),
        ('{"free": {"free": true}}', r"\$\.free\.free"),
        ('{"free": {"cd": [{"type": {"2": "inf"}, "copies": true}]}}',
         r"\$\.free\.cd\[0\]\.copies"),
    ], ids=["exponent", "matrix-entry", "rank", "free-rank", "cd-copies"])
    def test_boolean_is_not_an_integer(self, text, path):
        with pytest.raises(ParseError, match=path):
            parse_group_file(text)


class TestRoundTrip:
    CASES = [
        '{"torsion": "trivial", "free": {"free": 3}}',
        '{"torsion": "countable", "free": {"free": 1}}',
        '{"torsion": [2, 4], "free": {"rank1": {"2": "inf", "3": 2}}}',
        """{"free": {"cd": [{"type": {"2": "inf"}, "copies": "omega"},
                            {"type": {"5": "inf"}, "copies": 3}]}}""",
        """{"free": {"sum": [{"free": 2},
            {"tower": {"rank": 2, "prefix": [[[3, 1], [0, 2]]],
                       "period": [[[2, 15], [1, 2]]]}}]}}""",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_emit_parse(self, text):
        g = parse_group_file(text)
        assert parse_group_file(emit_group(g)) == g

    def test_name_is_preserved_in_emission(self):
        g = parse_group_file('{"free": {"free": 1}}')
        assert '"name": "z"' in emit_group(g, name="z")


class TestWitnessFiles:
    TEXT = """
    {"copies": 2, "name": "w",
     "matrix": [[0, 7, 4, -4], [1, 1, 0, 8],
                [-1, 1, 1, -8], [0, -2, -1, 1]],
     "src": {"tower": {"rank": 2, "period": [[[2, 15], [1, 2]]]}},
     "dst": {"tower": {"rank": 2, "period": [[[1, 7], [2, 3]]]}}}
    """

    def test_parse(self):
        w = parse_witness_file(self.TEXT)
        assert w.copies == 2 and w.name == "w"
        assert isinstance(w.src, TowerForm)
        assert w.map.det() == 1

    def test_bad_matrix(self):
        with pytest.raises(ParseError, match="square"):
            parse_witness_file('{"copies": 1, "matrix": [[1, 2]],'
                               ' "src": {"free": 1}, "dst": {"free": 1}}')

    def test_bad_fraction(self):
        with pytest.raises(ParseError, match=r"matrix\[0\]\[0\]"):
            parse_witness_file('{"copies": 1, "matrix": [["x"]],'
                               ' "src": {"free": 1}, "dst": {"free": 1}}')

    @pytest.mark.parametrize("copies, entry, path", [
        ("true", "1", r"\$\.copies"),
        ("1", "true", r"\$\.matrix\[0\]\[0\]"),
    ], ids=["copies", "fraction-token"])
    def test_boolean_is_not_an_integer(self, copies, entry, path):
        with pytest.raises(ParseError, match=path):
            parse_witness_file(f'{{"copies": {copies}, "matrix": [[{entry}]],'
                               ' "src": {"free": 1}, "dst": {"free": 1}}')
