from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from difflocal import reportfmt


def test_emit_simple_tree():
    report = {"report": "demo", "count": 3, "flag": True, "ratio": Fraction(3, 2)}
    assert reportfmt.emit(report) == "report: demo\ncount: 3\nflag: true\nratio: 3/2\n"


def test_round_trip_nested():
    report = {
        "report": "scan",
        "c": Fraction(2, 1),
        "witness": [1, 2, 4, 5],
        "histogram": [{"certified": 0, "subsets": 10}, {"certified": 2, "subsets": 4}],
        "empty": [],
        "nested": {"deep": [["a", "b"], []]},
    }
    assert reportfmt.parse(reportfmt.emit(report)) == report


def test_integer_valued_fraction_keeps_slash():
    text = reportfmt.emit({"c": Fraction(2)})
    assert text == "c: 2/1\n"
    assert reportfmt.parse(text) == {"c": Fraction(2)}


def test_strings_that_would_not_round_trip_are_rejected():
    with pytest.raises(ValueError):
        reportfmt.emit({"bad": "42"})
    with pytest.raises(ValueError):
        reportfmt.emit({"bad": "3/4"})
    with pytest.raises(ValueError):
        reportfmt.emit({"bad": "two\nlines"})


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        reportfmt.parse("key\n")
    with pytest.raises(ValueError):
        reportfmt.parse("a: 1\n   b: 2\n")  # three-space indent
    for truncated in ("", "\n", "a:", "x: 1\ny:"):
        with pytest.raises(ValueError):
            reportfmt.parse(truncated)
    with pytest.raises(ValueError):
        reportfmt.parse("a: 1/0")
    with pytest.raises(ValueError):
        reportfmt.parse("\n".join("  " * depth + "-" for depth in range(5000)))


safe_string = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=127),
    min_size=1,
    max_size=10,
).filter(lambda s: s not in ("true", "false"))
scalar = st.one_of(
    st.integers(-10**6, 10**6),
    st.booleans(),
    safe_string,
    st.fractions(min_value=-100, max_value=100),
)
trees = st.recursive(
    scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(safe_string, children, min_size=1, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(safe_string, trees, min_size=1, max_size=5))
def test_round_trip_property(tree):
    assert reportfmt.parse(reportfmt.emit(tree)) == tree


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(" \n-:/0123456789abxy\t"), max_size=40) | st.text(max_size=40))
def test_parse_raises_only_value_error(text):
    try:
        reportfmt.parse(text)
    except ValueError:
        pass
