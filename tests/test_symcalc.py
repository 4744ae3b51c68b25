"""Coefficient ring: parsing, canonical form, calculus and evaluation."""

import copy
import math
import types
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foliavg import symcalc
from foliavg.action import haar_average
from foliavg.errors import (
    ChartMismatch,
    NonPolynomialIntegrand,
    ParseError,
    UnknownSymbol,
)
from foliavg.symcalc import (
    Chart,
    Scalar,
    Substitution,
    _product_items,
    mean_of_product,
    parse,
    render,
)

from conftest import CHART, polynomials, sc, scalars


# ----------------------------------------------------------------------
# charts


def test_chart_classification(chart):
    assert chart.coords == ("x1", "x2", "q", "p")
    assert chart.dim == 4
    assert chart.is_symbol("q") and chart.is_symbol("th") and chart.is_symbol("pi")
    assert not chart.is_symbol("y")
    assert chart.is_angle("th") and not chart.is_angle("q")
    assert chart.coord_index("x2") == 1
    assert [chart.coord_index(name) for name in chart.coords] == [0, 1, 2, 3]
    assert chart.is_coord("p") and not chart.is_coord("th") and not chart.is_coord("pi")
    for name in ("th", "pi", "y"):
        with pytest.raises(UnknownSymbol, match="is not a coordinate"):
            chart.coord_index(name)
    with pytest.raises(AttributeError):
        chart.coords = ("x1",)


def test_chart_rejects_collisions():
    with pytest.raises(UnknownSymbol):
        Chart(("x", "q"), ("q",), ("th",))
    for name, meaning in [("pi", "the circle constant"), ("sin", "the sine"), ("cos", "the cosine")]:
        with pytest.raises(UnknownSymbol, match=f"'{name}' is reserved for {meaning}"):
            Chart(("x",), (name,), ("th",))


# ----------------------------------------------------------------------
# parsing and rendering


CANONICAL = [
    ("-x2*q", "-q*x2"),
    ("(q^2+p^2)/2", "1/2*p^2 + 1/2*q^2"),
    ("q*cos(th) - p*sin(th)", "-p*sin(th) + q*cos(th)"),
    ("3/4*x1^2*sin(2*th)", "3/4*x1^2*sin(2*th)"),
    ("th^2/2", "1/2*th^2"),
    ("q^2/4 + 1", "1 + 1/4*q^2"),
    ("1 - cos(th)", "1 - cos(th)"),
    ("x1*x2*q*p", "p*q*x1*x2"),
    ("pi*q", "pi*q"),
    ("sin(-th)", "-sin(th)"),
    ("cos(-2*th)", "cos(2*th)"),
]


@pytest.mark.parametrize("text,expected", CANONICAL)
def test_render_is_canonical(text, expected):
    assert render(sc(text)) == expected


def test_render_zero():
    assert render(Scalar.zero(CHART)) == "0"


TWO_ANGLES = Chart(("x1", "x2"), ("q", "p"), ("th", "ph"))


@pytest.mark.parametrize(
    "bad,exc,message",
    [
        ("1 +* 2", ParseError, "unexpected token '*' in '1 +* 2'"),
        ("q + ", ParseError, "unexpected token '' in 'q + '"),
        ("x3", UnknownSymbol, None),
        ("sin(q)", UnknownSymbol, None),
        ("2^q", ParseError, "exponents must be non-negative integers"),
        ("q/p", ParseError, "division is only allowed by nonzero rationals"),
        ("1/0", ParseError, "division is only allowed by nonzero rationals"),
        ("0/0", ParseError, "division is only allowed by nonzero rationals"),
        ("q@p", ParseError, "unexpected character '@' at position 1"),
        ("", ParseError, None),
        pytest.param(
            "(" * 300 + "q" + ")" * 300, ParseError, "expression nests too deeply",
            id="nested-parentheses",
        ),
        pytest.param(
            "-" * 3000 + "q", ParseError, "expression nests too deeply", id="unary-minus-chain"
        ),
        (
            "(q+p+x1+x2+cos(th))^20",
            ParseError,
            "a 5-term expression to the power 20 may expand to more than 10000 terms",
        ),
        (
            "(q+p+x1+x2+cos(th))^30",
            ParseError,
            "a 5-term expression to the power 30 may expand to more than 10000 terms",
        ),
        (
            "(q+p+x1+x2+cos(th))^10*(q+p+x1+x2+cos(th))^10",
            ParseError,
            "a product of 1792 and 1792 terms may expand to more than 10000 terms",
        ),
        (
            "cos(th)^400",
            ParseError,
            "a term with harmonics to the power 400 may expand to more than 10000 terms",
        ),
        (
            "(cos(th)*cos(ph))^60",
            ParseError,
            "a term with harmonics to the power 60 may expand to more than 10000 terms",
        ),
        (
            "(q*cos(th)*sin(ph))^80",
            ParseError,
            "a term with harmonics to the power 80 may expand to more than 10000 terms",
        ),
        (
            "cos(th)^5000",
            ParseError,
            "a term with harmonics to the power 5000 may expand to more than 10000 terms",
        ),
        (
            "(cos(th)+cos(ph))^50",
            ParseError,
            "a 2-term expression with harmonics to the power 50 may expand to more "
            "than 10000 terms",
        ),
        (
            "(cos(th)+sin(ph)+cos(2*th))^40",
            ParseError,
            "a 3-term expression with harmonics to the power 40 may expand to more "
            "than 10000 terms",
        ),
        pytest.param(
            "1" * 5000,
            ParseError,
            "a number in the expression needs more than 1000 digits",
            id="long-literal",
        ),
        pytest.param(
            "2^20000",
            ParseError,
            "a number in the expression needs more than 1000 digits",
            id="huge-power",
        ),
        pytest.param(
            "2^300000000",
            ParseError,
            "a number in the expression needs more than 1000 digits",
            id="huger-power",
        ),
        pytest.param(
            "q*(1/7)^700*(1/7)^700",
            ParseError,
            "a number in the expression needs more than 1000 digits",
            id="huge-product",
        ),
        pytest.param(
            "1/" + "9" * 600 + " + 1/" + "9" * 599 + "8",
            ParseError,
            "a number in the expression needs more than 1000 digits",
            id="huge-sum",
        ),
        pytest.param(
            "(10^999 + q)^2",
            ParseError,
            "a number in the expression needs more than 1000 digits",
            id="huge-multi-term-power",
        ),
        pytest.param(
            "(q+p+cos(th))^60",
            ParseError,
            "a 3-term expression to the power 60 needs a product of 252 and 525 terms, "
            "more than 100000 term pairs",
            id="mixed-base-power",
        ),
    ],
)
def test_parse_errors(bad, exc, message):
    with pytest.raises(exc) as info:
        sc(bad, TWO_ANGLES)
    if message is not None:
        assert str(info.value) == message


def test_harmonic_powers_below_the_bound_parse():
    assert len(sc("cos(th)^40").terms) == 21
    assert len(sc("(q*cos(th)*sin(ph))^20", TWO_ANGLES).terms) == 121


def test_numbers_up_to_the_digit_bound_parse():
    assert sc("9" * 1000).den == 1
    assert sc("1/" + "9" * 1000).den == 10**1000 - 1
    assert sc("(10^333*q)^3").nums == {((("q", 3),), ()): 10**999}
    assert sc("q^" + "9" * 30).nums == {((("q", 10**30 - 1),), ()): 1}


def test_power_binds_tighter_than_division():
    assert sc("th^2/2") == sc("th*th/2")
    assert sc("q^2/4") == sc("q*q") * Fraction(1, 4)


@given(scalars())
def test_parse_render_round_trip(f):
    assert parse(CHART, render(f)) == f


# ----------------------------------------------------------------------
# product-to-sum canonical form


def test_product_to_sum():
    s, c = Scalar.sin(CHART, "th"), Scalar.cos(CHART, "th")
    assert render(s * c) == "1/2*sin(2*th)"
    assert render(c**2) == "1/2 + 1/2*cos(2*th)"
    assert render(s**2) == "1/2 - 1/2*cos(2*th)"
    assert (s**2 + c**2) == Scalar.one(CHART)


def trig_pair_reference(kind1, m1, kind2, m2):
    """trig(m1*th) * trig(m2*th) as (coefficient, kind, multiple) terms."""
    half = Fraction(1, 2)
    if kind1 == "c" and kind2 == "c":
        raw = [(half, "c", m1 - m2), (half, "c", m1 + m2)]
    elif kind1 == "s" and kind2 == "s":
        raw = [(half, "c", m1 - m2), (-half, "c", m1 + m2)]
    elif kind1 == "s":
        raw = [(half, "s", m1 + m2), (half, "s", m1 - m2)]
    else:
        raw = [(half, "s", m1 + m2), (-half, "s", m1 - m2)]
    out = []
    for coef, kind, m in raw:
        if m < 0:
            coef, m = (coef, -m) if kind == "c" else (-coef, -m)
        if m:
            out.append((coef, kind, m))
        elif kind == "c":
            out.append((coef, None, 0))
    return out


def mul_keys_reference(k1, k2):
    """The product of two monomials, angle by angle."""
    powers = {}
    for name, e in k1[0] + k2[0]:
        powers[name] = powers.get(name, 0) + e
    trig1 = dict((a, (kind, m)) for a, kind, m in k1[1])
    trig2 = dict((a, (kind, m)) for a, kind, m in k2[1])
    partial = [(Fraction(1), {})]
    for angle in sorted(set(trig1) | set(trig2)):
        if angle in trig1 and angle in trig2:
            expansions = trig_pair_reference(*trig1[angle], *trig2[angle])
            nxt = []
            for coef, trig in partial:
                for c2, kind, m in expansions:
                    t = dict(trig)
                    if kind is not None:
                        t[angle] = (kind, m)
                    nxt.append((coef * c2, t))
            partial = nxt
        else:
            kind, m = trig1.get(angle) or trig2[angle]
            for _, trig in partial:
                trig[angle] = (kind, m)
    powkey = tuple(sorted(powers.items()))
    return [
        ((powkey, tuple((a, kind, m) for a, (kind, m) in sorted(trig.items()))), coef)
        for coef, trig in partial
    ]


def product_reference(left, right):
    """Uncollected terms of a product: each pair of terms multiplied afresh."""
    right = list(right)
    items = []
    for k1, c1 in left:
        for k2, c2 in right:
            for key, factor in mul_keys_reference(k1, k2):
                items.append((key, c1 * c2 * factor))
    return items


@st.composite
def term_lists(draw, max_terms=4):
    """Terms of a sum on TWO_ANGLES; in some lists no term has a harmonic."""
    items = []
    harmonics = draw(st.booleans())
    for _ in range(draw(st.integers(0, max_terms))):
        coef = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
        powers = {name: draw(st.integers(0, 2)) for name in ("p", "pi", "q", "th")}
        trig = []
        for angle in ("ph", "th") if harmonics else ():
            kind = draw(st.sampled_from((None, "s", "c")))
            if kind is not None:
                trig.append((angle, kind, draw(st.integers(1, 3))))
        items.append(((tuple((n, e) for n, e in powers.items() if e), tuple(trig)), coef))
    return items


def integer_terms(items):
    """Rational terms as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for _, c in items))
    return [(key, c.numerator * (den // c.denominator)) for key, c in items], den


@given(term_lists(), term_lists())
def test_product_kernel_matches_reference(left, right):
    (left_nums, left_den), (right_nums, right_den) = integer_terms(left), integer_terms(right)
    items, shift = _product_items(left_nums, right_nums)
    den = left_den * right_den << shift
    assert Scalar(TWO_ANGLES, [(key, Fraction(n, den)) for key, n in items]) == Scalar(
        TWO_ANGLES, product_reference(left, right)
    )


@given(term_lists(), term_lists(), term_lists(), term_lists())
def test_product_kernel_keeps_no_state_between_calls(left, right, other_left, other_right):
    left, right = integer_terms(left)[0], integer_terms(right)[0]
    first = _product_items(left, right)
    _product_items(*(integer_terms(terms)[0] for terms in (other_left, other_right)))
    assert _product_items(left, right) == first


def _global_names(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def test_product_kernel_writes_no_module_state():
    # every module global the kernel reaches, through the functions it calls
    kernel, todo = {}, [symcalc._product_items]
    while todo:
        for name in _global_names(todo.pop().__code__):
            value = vars(symcalc).get(name)
            if name in kernel or value is None:
                continue
            kernel[name] = value
            if isinstance(value, types.FunctionType) and value.__module__ == symcalc.__name__:
                todo.append(value)
    assert {"_merge_powers", "_mul_trig", "_trig_pair"} <= kernel.keys()
    for name, value in kernel.items():
        assert not isinstance(value, (dict, list, set, bytearray)), name
        assert not hasattr(value, "cache_info"), name
    containers = {
        name: copy.deepcopy(value)
        for name, value in vars(symcalc).items()
        if isinstance(value, (dict, list, set, bytearray)) and not name.startswith("__")
    }
    f = parse(TWO_ANGLES, "(q*cos(th) - p*sin(2*ph) + th*pi)^2")
    assert f * f == f**2
    assert containers == {name: vars(symcalc)[name] for name in containers}


@given(scalars(), st.integers(1, 3), st.integers(1, 3))
def test_harmonic_products_evaluate_consistently(f, j, k):
    g = f * Scalar.sin(CHART, "th", j) * Scalar.cos(CHART, "th", k)
    pt = {"x1": 2, "x2": -1, "q": Fraction(1, 2), "p": 3, "th": 0.7}
    expect = f.evaluate(pt) * math.sin(j * 0.7) * math.cos(k * 0.7)
    assert abs(g.evaluate(pt) - expect) < 1e-12


# ----------------------------------------------------------------------
# derivatives and antiderivatives


def test_diff_examples():
    assert sc("q^2*x1").diff("q") == sc("2*q*x1")
    assert sc("cos(2*th)").diff("th") == sc("-2*sin(2*th)")
    assert sc("th^2/2").diff("th") == sc("th")
    assert sc("pi*q").diff("q") == sc("pi")


@given(scalars(), scalars(), st.sampled_from(CHART.coords + CHART.angles))
def test_diff_is_a_derivation(f, g, name):
    lhs = (f * g).diff(name)
    assert lhs == f.diff(name) * g + f * g.diff(name)


def test_antiderivative_examples():
    F = sc("q*cos(th)").antiderivative_from_zero("th")
    assert render(F) == "q*sin(th)"
    assert sc("1 - cos(th)").antiderivative_from_zero("th") == sc("th - sin(th)")
    with pytest.raises(NonPolynomialIntegrand):
        sc("th*cos(th)").antiderivative_from_zero("th")


@given(scalars())
def test_antiderivative_inverts_diff(f):
    F = f.antiderivative_from_zero("th")
    assert F.diff("th") == f
    assert F.substitute_angle("th", []).is_zero


# ----------------------------------------------------------------------
# averaging


def test_average_examples():
    assert render((Scalar.cos(CHART, "th") ** 2).average_over_angle("th")) == "1/2"
    assert Scalar.var(CHART, "th").average_over_angle("th") == Scalar.pi(CHART)
    theta, s = Scalar.var(CHART, "th"), Scalar.sin(CHART, "th")
    assert render((theta * s).average_over_angle("th")) == "-1"
    assert sc("q*sin(3*th)").average_over_angle("th").is_zero


@given(scalars())
def test_average_is_idempotent(f):
    mean = f.average_over_angle("th")
    assert mean.average_over_angle("th") == mean
    assert not mean.depends_on("th")


@given(scalars(), scalars(angles=False))
def test_average_is_linear_over_invariants(f, g):
    assert (f * g).average_over_angle("th") == f.average_over_angle("th") * g


def test_running_mean_examples():
    one = sc("1")
    assert mean_of_product(one, one, "th", running=True) == Scalar.pi(CHART)
    assert render(mean_of_product(sc("q*sin(3*th)"), one, "th", running=True)) == "1/3*q"
    assert mean_of_product(sc("cos(2*th)"), one, "th", running=True).is_zero


@given(
    scalars(TWO_ANGLES, freq=3, max_terms=4),
    scalars(TWO_ANGLES, freq=3, max_terms=4),
    st.sampled_from(TWO_ANGLES.angles),
)
def test_mean_of_product_matches_the_mean_of_the_product(a, b, angle):
    """Both sides have harmonics in the averaged angle and in the other
    one, whose shared harmonics go through the product's shift."""
    product = a * b
    assert mean_of_product(a, b, angle) == haar_average(product, angle)
    running = haar_average(product.antiderivative_from_zero(angle), angle)
    assert mean_of_product(a, b, angle, running=True) == running


def test_mean_of_product_refuses_a_bare_power_of_the_angle():
    th, q = Scalar.var(CHART, "th"), sc("q*cos(th)")
    for a, b in ((th, q), (q, th * q)):
        for running in (False, True):
            with pytest.raises(NonPolynomialIntegrand, match="bare power of 'th'"):
                mean_of_product(a, b, "th", running)
    # a bare power of another angle is a coefficient like any other
    other = Scalar.var(TWO_ANGLES, "ph") * parse(TWO_ANGLES, "cos(th)")
    assert mean_of_product(other, other, "th") == Scalar.var(TWO_ANGLES, "ph") ** 2 * Fraction(1, 2)


# ----------------------------------------------------------------------
# substitution along flows


def test_substitute_angle_forms():
    g = sc("q*cos(th) - p*sin(th)")
    assert render(g.substitute_angle("th", [("th", -1)])) == "p*sin(th) + q*cos(th)"
    assert render(g.substitute_angle("th", [])) == "q"
    doubled = Scalar.cos(CHART, "th").substitute_angle("th", [("th", 1), ("th", 1)])
    assert render(doubled) == "cos(2*th)"


def test_substitute_coordinates():
    f = sc("q^2 + p")
    g = f.substitute({"q": sc("q + x1"), "p": sc("-p")})
    assert g == sc("q^2 + 2*q*x1 + x1^2 - p")


def naive_substitute(f, rules):
    """Reference substitution: term by term, powers by repeated products."""
    total = Scalar.zero(f.chart)
    for (powers, trig), coef in f.terms.items():
        piece = Scalar(f.chart, {((), trig): coef})
        for name, e in powers:
            image = rules.get(name, Scalar.var(f.chart, name))
            for _ in range(e):
                piece = piece * image
        total = total + piece
    return total


@st.composite
def scalars_with_bare_angles(draw):
    """Ring elements with harmonics and bare powers of the angle."""
    f = draw(scalars())
    g = draw(scalars(max_terms=2))
    return f + g * Scalar.var(CHART, "th") ** draw(st.integers(1, 3))


@st.composite
def substitution_rules(draw):
    """Rules mixing identity images, constants and moved coordinates."""
    rules = {}
    for name in CHART.coords:
        kind = draw(st.sampled_from(("absent", "identity", "constant", "polynomial", "trig")))
        if kind == "identity":
            rules[name] = Scalar.var(CHART, name)
        elif kind == "constant":
            rules[name] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        elif kind == "polynomial":
            rules[name] = draw(polynomials(coord_degree=1, max_terms=2))
        elif kind == "trig":
            rules[name] = draw(scalars(coord_degree=1, max_terms=2))
    return rules


def _as_scalars(rules):
    return {
        name: value if isinstance(value, Scalar) else Scalar.const(CHART, value)
        for name, value in rules.items()
    }


@given(scalars_with_bare_angles(), substitution_rules())
def test_substitute_matches_naive_reference(f, rules):
    assert f.substitute(rules) == naive_substitute(f, _as_scalars(rules))


@given(st.lists(scalars_with_bare_angles(), min_size=1, max_size=4), substitution_rules())
def test_one_substitution_serves_many_scalars(fs, rules):
    shared = Substitution(CHART, rules)
    for f in fs + fs[::-1]:
        assert f.substitute(shared) == f.substitute(Substitution(CHART, rules))
        assert shared.apply(f) == f.substitute(dict(rules))


def test_substitution_is_a_mapping_of_every_coordinate():
    sub = Substitution(CHART, {"q": sc("p"), "p": sc("p"), "x1": 2})
    assert list(sub) == list(CHART.coords)
    assert len(sub) == CHART.dim
    assert sub["q"] == sc("p")
    assert sub["p"] == sc("p")
    assert sub["x1"] == sc("2")
    assert sub["x2"] == sc("x2")
    assert "th" not in sub
    with pytest.raises(KeyError):
        sub["th"]
    with pytest.raises(UnknownSymbol):
        Substitution(CHART, {"th": sc("q")})
    with pytest.raises(ChartMismatch):
        Substitution(CHART, {"q": "p"})


def test_substitution_powers_of_an_image():
    sub = Substitution(CHART, {"q": sc("q*cos(th) - p*sin(th)")})
    image = sub["q"]
    assert sub.power("q", 0) == Scalar.one(CHART)
    assert sub.power("q", 1) == image
    assert sub.power("q", 3) == image**3
    assert sub.power("q", 0) == Scalar.one(CHART)
    with pytest.raises(ValueError):
        sub.power("q", -1)


def test_zero_on_another_chart_still_mismatches():
    other = Chart(("y",), ("u",), ("s",))
    zero = Scalar.zero(other)
    f = sc("q + 1")
    for a, b in ((zero, f), (f, zero), (zero, Scalar.zero(CHART))):
        with pytest.raises(ChartMismatch):
            a + b
        with pytest.raises(ChartMismatch):
            a * b
    with pytest.raises(ChartMismatch):
        zero.substitute({"u": sc("q")})
    with pytest.raises(ChartMismatch):
        zero.substitute(Substitution(CHART, {"q": sc("p")}))
    assert zero != Scalar.zero(CHART)


def test_power_by_squaring_keeps_one_term():
    power = Scalar.var(CHART, "q") ** 20000
    assert power.terms == {((("q", 20000),), ()): 1}


def test_power_matches_repeated_product():
    two = Chart(("x1",), ("q", "p"), ("th", "ph"))
    f = parse(two, "q*cos(th) - p*sin(2*ph) + 1/3")
    product = Scalar.one(two)
    for e in range(10):
        assert f**e == product
        product = product * f


@st.composite
def single_terms(draw, harmonics=True):
    """One nonzero term on TWO_ANGLES: a rational coefficient, powers of
    coordinates, of pi and of a bare angle, and with ``harmonics`` a sine or
    a cosine in each of some of the angles, so that two terms share angles
    or not."""
    coef = Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 6)))
    powers = tuple((n, e) for n in ("p", "pi", "q", "th") if (e := draw(st.integers(0, 3))))
    trig = []
    for angle in ("ph", "th") if harmonics else ():
        kind = draw(st.sampled_from((None, "s", "c")))
        if kind is not None:
            trig.append((angle, kind, draw(st.integers(1, 3))))
    return Scalar(TWO_ANGLES, {(powers, tuple(trig)): coef})


def general_product(a, b):
    """``a * b`` by the general route: the product kernel over every pair
    of terms, then one collection."""
    items, shift = _product_items(a.nums.items(), b.nums.items())
    return symcalc._collect(a.chart, items, a.den * b.den << shift)


@given(single_terms(), single_terms())
def test_products_of_single_terms_are_those_of_the_general_route(a, b):
    product, general = a * b, general_product(a, b)
    assert (product.nums, product.den) == (general.nums, general.den)


@given(single_terms(harmonics=False), st.integers(0, 6))
def test_powers_of_single_terms_are_those_of_the_general_route(f, e):
    power = f**e
    general = symcalc._binary_power(Scalar.one(TWO_ANGLES), f, e, general_product)
    assert (power.nums, power.den) == (general.nums, general.den)


# ----------------------------------------------------------------------
# integer numerators over one denominator


def assert_canonical(f):
    assert f.den > 0
    assert all(isinstance(n, int) and n for n in f.nums.values())
    assert math.gcd(f.den, *f.nums.values()) == 1
    if f.is_zero:
        assert f.den == 1


@given(
    scalars_with_bare_angles(),
    scalars_with_bare_angles(),
    scalars(),
    substitution_rules(),
    st.sampled_from(CHART.coords + CHART.angles),
)
def test_every_ring_result_is_canonical(f, g, h, rules, name):
    results = [
        f + g, f - g, f - f, f * g, -f, f * Fraction(-6, 4), g**2, Scalar.sum(CHART, [f, g, h]),
        f.diff(name), f.average_over_angle("th"), h.antiderivative_from_zero("th"),
        f.substitute(rules), f.substitute_angle("th", [("th", 2)]),
        f.substitute_angle("th", []), Scalar(CHART, f.terms), Scalar.const(CHART, "-4/6"),
    ]
    for result in results:
        assert_canonical(result)


@given(scalars_with_bare_angles(), scalars(), scalars())
def test_routes_to_one_value_are_equal_and_hash_alike(f, g, h):
    routes = [
        ((f * g) * h, f * (g * h)),
        (f + g - g, f),
        (f * (g + h), f * g + f * h),
        (Scalar.sum(CHART, [f, g, h]), h + (g + f)),
        (f * Fraction(2, 3) * 3, f + f),
        (Scalar(CHART, f.terms), f),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)


@given(scalars_with_bare_angles())
def test_mutating_the_terms_dict_leaves_the_scalar_as_it_was(f):
    g = Scalar(CHART, f.terms)
    before = (render(f), hash(f))
    terms = f.terms
    terms.clear()
    terms[((("q", 7),), ())] = Fraction(5, 3)
    assert (render(f), hash(f)) == before
    assert f == g and hash(f) == hash(g)


@given(st.lists(scalars_with_bare_angles(), min_size=1, max_size=4))
def test_one_angle_combination_serves_many_scalars(fs):
    doubled = [("th", 3), ("th", -1)]
    for f in fs + fs[::-1]:
        assert f.substitute_angle("th", doubled) == f.substitute_angle("th", [("th", 2)])
    assert fs[0].substitute_angle("th", [("th", 1)]) == fs[0]


# ----------------------------------------------------------------------
# evaluation


def test_evaluate_mixed_point():
    pt = {
        "x1": Fraction(1, 2),
        "x2": Fraction(-2),
        "q": Fraction(3),
        "p": Fraction(1, 3),
        "th": 0.5,
    }
    f = sc("x1*q^2 + p*sin(2*th) - pi")
    expect = 0.5 * 9 + (1 / 3) * math.sin(1.0) - math.pi
    assert abs(f.evaluate(pt) - expect) < 1e-12


@given(scalars(), scalars())
def test_evaluate_respects_ring_operations(f, g):
    pt = {"x1": Fraction(2), "x2": Fraction(-1, 3), "q": Fraction(5, 2), "p": 1, "th": 1.1}
    assert abs((f + g).evaluate(pt) - (f.evaluate(pt) + g.evaluate(pt))) < 1e-9
    assert abs((f * g).evaluate(pt) - f.evaluate(pt) * g.evaluate(pt)) < 1e-9


# ----------------------------------------------------------------------
# structural helpers


def test_free_symbols_and_depends_on():
    f = sc("x1*q + sin(th)")
    assert f.free_symbols() == {"x1", "q", "th"}
    assert f.depends_on("th") and not f.depends_on("p")
    assert Scalar.pi(CHART).free_symbols() == {"pi"}
    assert Scalar.one(CHART).free_symbols() == set()


def test_harmonic_kind_aliases():
    assert Scalar.harmonic(CHART, "sin", "th", 2) == Scalar.sin(CHART, "th", 2)
    assert Scalar.harmonic(CHART, "cos", "th") == Scalar.cos(CHART, "th")
    with pytest.raises(UnknownSymbol):
        Scalar.harmonic(CHART, "tan", "th")


def test_cross_chart_arithmetic_rejected():
    other = Chart(("y",), ("u",), ("s",))
    with pytest.raises(ChartMismatch):
        Scalar.one(CHART) + Scalar.one(other)
