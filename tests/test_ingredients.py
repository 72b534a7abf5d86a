from fractions import Fraction

import pytest

from recipe_nutrients.util import parse_quantity


class TestParseQuantity:
    @pytest.mark.parametrize("token,expected", [
        ("1/2", Fraction(1, 2)),
        ("2", Fraction(2)),
        ("1 1/2", Fraction(3, 2)),
        ("2.5", Fraction(5, 2)),
        ("3/4", Fraction(3, 4)),
    ])
    def test_values(self, token, expected):
        assert parse_quantity(token) == expected

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            parse_quantity("1/0")

    def test_non_numeric(self):
        with pytest.raises(ValueError):
            parse_quantity("handful")
