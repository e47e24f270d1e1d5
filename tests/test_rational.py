"""The canonical rational encoding: one string per value."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_cluster import two_piece

from flipcluster.distance_oracle import DiscretizedOracle
from flipcluster.errors import FlipClusterError, RationalTooLong, excerpt
from flipcluster.metric_tree import Line, MetricTree
from flipcluster.rational import as_fraction, format_rational, parse_rational
from flipcluster.tree_graded import FiniteGraph

F = Fraction


# near-canonical strings: signs, slashes, zeros, a non-ASCII digit and
# whitespace around ASCII digits, in any order
near_canonical = st.one_of(
    st.text(alphabet="-/0123456789٣ \n", max_size=7),
    st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?"),   # may carry a prefix or suffix
    st.fractions().map(format_rational),
)


def old_format_rational(value: Fraction | int) -> str:
    """format_rational as it was first written, through Fraction(value)."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


class TestFormatRational:
    BIG = 3 ** 200

    @pytest.mark.parametrize("value", [
        0, 1, -1, 7, -7, BIG, -BIG,
        F(0), F(5), F(-5), F(1, 2), F(-1, 2), F(-22, 8), F(BIG, 7), F(-BIG, 2 ** 100),
        F(1, BIG), F(-BIG + 1, BIG),
    ])
    def test_same_text_as_the_fraction_body(self, value):
        assert format_rational(value) == old_format_rational(value)

    @given(st.one_of(st.integers(), st.fractions()))
    def test_same_text_on_any_value(self, value):
        assert format_rational(value) == old_format_rational(value)


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


def segment() -> MetricTree:
    return MetricTree([(0, 1, 10)])


class TestExactInputs:
    """The kernel takes a rational as a Fraction, an int or a canonical
    string, and nothing that Fraction() would read inexactly or loosely."""

    # each entry point fed one rational that is in range for it; the
    # oracle's cap is tiny, so a value it took would fail on the cap
    ENTRY_POINTS = {
        "MetricTree": lambda x: MetricTree([(0, 1, 1), (1, 2, x)]),
        "MetricTree.point": lambda x: segment().point(0, x),
        "Line": lambda x: Line(segment(), [0], 0, x),
        "Line.point_at": lambda x: Line(segment(), [0], 0, 0).point_at(x),
        "Cluster.resolve": lambda x: two_piece().resolve(0, 0, F(1), x),
        "DiscretizedOracle": lambda x: DiscretizedOracle(two_piece(), x, cap=10),
        "FiniteGraph": lambda x: FiniteGraph([0, 1], [(0, 1, x)]),
    }

    @pytest.mark.parametrize("value, error", [
        (0.1, TypeError), (True, TypeError),
        (" 3 ", ValueError), ("2/4", ValueError), ("1e1", ValueError),
    ])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_points_refuse_inexact_inputs(self, entry, value, error):
        with pytest.raises(error):
            self.ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("value", [0.5, 0.1, True, False])
    def test_format_refuses_floats_and_bools(self, value):
        with pytest.raises(TypeError):
            format_rational(value)

    def test_exact_inputs(self):
        f = F(7, 6)
        assert as_fraction(f) is f
        assert as_fraction(3) == 3 and type(as_fraction(3)) is Fraction
        assert as_fraction("-1/20") == F(-1, 20)
        assert segment().point(0, "5") == segment().point(0, F(5))


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="no int digit limit in this interpreter")
class TestDigitLimit:
    """Values with more digits than the interpreter writes as a string:
    an error message describes them by size, and the wire refuses them
    with a package error."""

    @staticmethod
    def huge() -> int:
        """An int one digit past the limit."""
        return 10 ** sys.get_int_max_str_digits()

    def test_excerpt_describes_by_size(self):
        big = self.huge()
        bits = big.bit_length()
        assert excerpt(big) == f"<int of {bits} bits>"
        assert excerpt(-big) == f"<int of {bits} bits>"
        assert excerpt(F(1, big)) == f"<Fraction of 1 bits over {bits} bits>"
        assert excerpt([0, big]) == "<list too long to print>"
        assert excerpt(F(big - 1, 7)).endswith(f"... ({len(str(big - 1)) + 2} characters)")

    def test_excerpt_never_raises(self):
        nested: list = []
        for _ in range(100_000):   # past the recursion limit of str()
            nested = [nested]
        assert excerpt(nested) == "<list too long to print>"

    def test_format_raises_package_error(self):
        big = self.huge()
        for value in (big, -big, F(1, big), F(big, 3)):
            with pytest.raises(RationalTooLong, match="more digits than the interpreter") as ex:
                format_rational(value)
            assert isinstance(ex.value, FlipClusterError) and len(str(ex.value)) <= 200
        assert format_rational(F(1, big - 1)) == "1/" + "9" * sys.get_int_max_str_digits()
