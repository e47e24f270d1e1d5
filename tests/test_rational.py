"""The canonical rational encoding: one string per value."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flipcluster.rational import format_rational, parse_rational

F = Fraction


# near-canonical strings: signs, slashes, zeros, a non-ASCII digit and
# whitespace around ASCII digits, in any order
near_canonical = st.one_of(
    st.text(alphabet="-/0123456789٣ \n", max_size=7),
    st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?"),   # may carry a prefix or suffix
    st.fractions().map(format_rational),
)


class TestParseRational:
    @settings(max_examples=600, deadline=None)
    @given(near_canonical)
    def test_every_accepted_string_is_the_canonical_one(self, text):
        try:
            value = parse_rational(text)
        except ValueError:
            return
        assert format_rational(value) == text

    @given(st.fractions())
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value

    @pytest.mark.parametrize("text, message", [
        ("007", "non-canonical rational '007': write it as '7'"),
        ("-0", "non-canonical rational '-0': write it as '0'"),
        ("1/04", "non-canonical rational '1/04': write it as '1/4'"),
        ("5\n", "malformed rational '5\\n'"),
        ("٣", "malformed rational '٣'"),
        ("1/٣", "malformed rational '1/٣'"),
        # the cases rejected before keep their messages
        ("1/0", "zero denominator in '1/0'"),
        ("1/00", "zero denominator in '1/00'"),
        ("3/1", "non-canonical rational '3/1': integers must omit '/1'"),
        ("2/4", "non-canonical rational '2/4': not in lowest terms"),
        ("-0/3", "non-canonical rational '-0/3': not in lowest terms"),
        ("1.5", "malformed rational '1.5'"),
        ("+1", "malformed rational '+1'"),
    ])
    def test_rejects_non_canonical(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_rational(text)
        assert str(exc.value) == message

    def test_rejects_non_strings(self):
        with pytest.raises(ValueError, match="must be a string, got int"):
            parse_rational(7)

    @pytest.mark.parametrize("text, value", [("0", F(0)), ("-7", F(-7)), ("10/3", F(10, 3)),
                                             ("-1/20", F(-1, 20))])
    def test_accepts_canonical(self, text, value):
        assert parse_rational(text) == value
