import random
import warnings

import pytest

from reducto.dimacs import DimacsError, DimacsWarning, emit_dimacs, parse_dimacs
from reducto.sat import BOTTOM, Formula, TOP

from helpers import random_formula


class TestParse:
    def test_basic(self):
        assert parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n") == Formula([[1, -2], [2]])

    def test_single_empty_clause_is_bottom(self):
        assert parse_dimacs("p cnf 1 1\n0\n") == BOTTOM

    def test_complementary_pair_rejected(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 1\n1 -1 0\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "c a comment\n\np cnf 2 1\nc another\n1 2 0\n"
        assert parse_dimacs(text) == Formula([[1, 2]])

    def test_clause_spanning_lines(self):
        assert parse_dimacs("p cnf 3 1\n1 2\n3 0\n") == Formula([[1, 2, 3]])

    def test_duplicate_literals_collapse(self):
        assert parse_dimacs("p cnf 1 1\n1 1 0\n") == Formula([[1]])

    def test_missing_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("1 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf two 2\n1 0\n")
        with pytest.raises(DimacsError):
            parse_dimacs("p sat 1 1\n1 0\n")

    def test_non_integer_token(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 1\n1 x 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 1\n1\n")

    def test_count_mismatch_warns_by_default(self):
        with pytest.warns(DimacsWarning):
            phi = parse_dimacs("p cnf 1 2\n1 0\n")
        assert phi == Formula([[1]])

    def test_count_mismatch_raises_in_strict_mode(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 2\n1 0\n", strict=True)

    def test_satlib_trailer_ends_input(self):
        # SATLIB's uf*/uuf* files end with a '%' line and a lone 0.
        assert parse_dimacs("p cnf 2 1\n1 -2 0\n%\n0\n") == Formula([[1, -2]])
        assert parse_dimacs("p cnf 2 1\n1 -2 0\n%\n0\n\n", strict=True) == Formula([[1, -2]])

    def test_variable_above_header_count_warns_by_default(self):
        with pytest.warns(DimacsWarning, match="variable 5"):
            phi = parse_dimacs("p cnf 1 1\n1 -5 0\n")
        assert phi == Formula([[1, -5]])

    def test_variable_above_header_count_raises_in_strict_mode(self):
        with pytest.raises(DimacsError, match="variable 5"):
            parse_dimacs("p cnf 1 1\n1 5 0\n", strict=True)

    def test_variables_within_header_count_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_dimacs("p cnf 3 2\n-3 1 0\n0\n", strict=True) == Formula([[1, -3], []])

    def test_empty_formula(self):
        assert parse_dimacs("p cnf 0 0\n") == TOP


class TestEmit:
    def test_canonical_text(self):
        assert emit_dimacs(Formula([[2], [-2, 1]])) == "p cnf 2 2\n1 -2 0\n2 0\n"

    def test_top_and_bottom(self):
        assert emit_dimacs(TOP) == "p cnf 0 0\n"
        assert emit_dimacs(BOTTOM) == "p cnf 0 1\n0\n"

    def test_round_trip_is_identity_on_canonical_forms(self):
        rng = random.Random(23)
        for _ in range(100):
            phi = random_formula(rng, 5, 8)
            text = emit_dimacs(phi)
            again = parse_dimacs(text)
            assert again == phi
            assert emit_dimacs(again) == text
