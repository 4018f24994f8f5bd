import sys
from fractions import Fraction

import pytest

from rieszkit import as_fraction, format_rational, parse_rational


def test_parse_plain_and_fraction():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)
    assert parse_rational("0") == 0


@pytest.mark.parametrize(
    "bad",
    ["", "1.5", "1/0", "1/-2", "a", "1 / 2", "--3", "1/+2", "0x2", "2/02"]
    # one spelling per number: other Unicode digits and padding are not 3
    + ["٣", "３", "1/٣", "٣/2", "-３", "৩/৪", "3\n", " 3", "1_000"]
    # nor is a zero-padded numerator another spelling of a number
    + ["007", "+007", "-00/1", "00", "-01/2"],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trip():
    for text in ["0", "5", "-3", "1/2", "-9/7"]:
        assert format_rational(parse_rational(text)) == text
    # non-canonical inputs come back reduced
    assert format_rational(parse_rational("4/6")) == "2/3"


def test_as_fraction_refuses_floats():
    assert as_fraction(3) == 3
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_format_ignores_digit_limit():
    # Witness coordinates can outgrow the interpreter's int-to-str limit; the
    # wire form must stay exact and must not depend on that global setting.
    value = Fraction(7**3000, 3)
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = str(value)
        sys.set_int_max_str_digits(640)
        assert format_rational(value) == expected
        assert format_rational(-value) == "-" + expected
        assert format_rational(Fraction(3, 7**3000)) == "3/" + expected.split("/")[0]
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(previous)
