"""The coefficient ring against an independent exact oracle (sympy).

Each ``Scalar`` is translated term by term into a sympy expression.  An
identity holds when the difference of both sides vanishes in a normal form:
harmonics are rewritten as exponentials and the result is expanded, which
leaves a Laurent polynomial in exp(i*angle) with polynomial coefficients,
zero exactly when the identity holds.  The operations are checked against
sympy's own product, derivative, definite integral and substitution, and
the two means of a product against sympy's integrals of that product.
Products and powers of single terms, which the ring forms as one key, are
checked against sympy twice: as the parser reads them, and as the ring
operators build them.
"""

from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from foliavg.symcalc import (  # noqa: E402
    COS,
    PI,
    SIN,
    Chart,
    Scalar,
    _expanded_substitute_angle,
    mean_of_product,
    parse,
)

ANGLES = ("th", "ph", "ps")
CHART = Chart(("x",), ("q", "p"), ANGLES)
SYM = {name: sp.Symbol(name, real=True) for name in CHART.coords + ANGLES}


def to_sympy(f: Scalar):
    total = sp.Integer(0)
    for (powers, trig), coef in f.terms.items():
        term = sp.Rational(coef.numerator, coef.denominator)
        for name, e in powers:
            term *= (sp.pi if name == PI else SYM[name]) ** e
        for angle, kind, m in trig:
            term *= (sp.sin if kind == SIN else sp.cos)(m * SYM[angle])
        total += term
    return total


def vanishes(expr) -> bool:
    return sp.expand(expr.rewrite(sp.exp)) == 0


@st.composite
def poisson_series(draw, angles=ANGLES, max_terms=3, bare=True):
    """Canonical scalars built from keys directly, not through the product.

    Each term may carry a power of pi, a bare power of one angle and one
    harmonic in each of ``angles``.
    """
    items = []
    for _ in range(draw(st.integers(0, max_terms))):
        coef = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        powers = {name: draw(st.integers(0, 2)) for name in CHART.coords}
        if bare:
            powers[PI] = draw(st.integers(0, 1))
            powers[draw(st.sampled_from(angles))] = draw(st.integers(0, 2))
        trig = []
        for angle in angles:
            kind = draw(st.sampled_from((None, SIN, COS)))
            if kind is not None:
                trig.append((angle, kind, draw(st.integers(1, 3))))
        key = (tuple(sorted((n, e) for n, e in powers.items() if e)), tuple(sorted(trig)))
        items.append((key, coef))
    return Scalar(CHART, items)


@given(
    st.sampled_from((ANGLES[:2], ANGLES)).flatmap(
        lambda shared: st.tuples(poisson_series(shared), poisson_series(shared))
    ),
    poisson_series(max_terms=2),
)
def test_products_match_sympy(pair, h):
    f, g = pair
    assert vanishes(to_sympy(f * g) - to_sympy(f) * to_sympy(g))
    assert vanishes(to_sympy(f * g * h) - to_sympy(f) * to_sympy(g) * to_sympy(h))


@given(poisson_series(max_terms=2), st.integers(0, 3))
def test_powers_match_sympy(f, e):
    assert vanishes(to_sympy(f**e) - to_sympy(f) ** e)


@given(poisson_series(), st.sampled_from(CHART.coords + ANGLES))
def test_diff_matches_sympy(f, name):
    assert sp.expand(to_sympy(f.diff(name)) - sp.diff(to_sympy(f), SYM[name])) == 0


@settings(max_examples=10)
@given(poisson_series(max_terms=2), st.sampled_from(ANGLES))
def test_average_matches_sympy_integral(f, angle):
    th = SYM[angle]
    mean = sp.integrate(to_sympy(f), (th, 0, 2 * sp.pi)) / (2 * sp.pi)
    assert vanishes(to_sympy(f.average_over_angle(angle)) - mean)


@settings(max_examples=10)
@given(poisson_series(max_terms=2), st.sampled_from(ANGLES))
def test_antiderivative_matches_sympy_integral(f, angle):
    # a bare power times a harmonic of the same angle has no polynomial
    # antiderivative; those terms are dropped
    f = Scalar(
        CHART,
        [
            ((powers, trig), coef)
            for (powers, trig), coef in f.terms.items()
            if angle not in dict(powers) or all(a != angle for a, _, _ in trig)
        ],
    )
    th, t = SYM[angle], sp.Symbol("t", real=True)
    integral = sp.integrate(to_sympy(f).subs(th, t), (t, 0, th))
    assert vanishes(to_sympy(f.antiderivative_from_zero(angle)) - integral)



@settings(max_examples=10)
@given(
    poisson_series(max_terms=2, bare=False),
    poisson_series(max_terms=2, bare=False),
    st.sampled_from(ANGLES),
)
def test_means_of_products_match_sympy_integrals(a, b, angle):
    """(1/2pi) int_0^2pi a*b and (1/2pi) int_0^2pi int_0^th a*b, the
    product formed by sympy, against the kernel that never forms it."""
    th, t = SYM[angle], sp.Symbol("t", real=True)
    product = to_sympy(a) * to_sympy(b)
    mean = sp.integrate(product, (th, 0, 2 * sp.pi)) / (2 * sp.pi)
    assert vanishes(to_sympy(mean_of_product(a, b, angle)) - mean)
    running = sp.integrate(product.subs(th, t), (t, 0, th))
    running_mean = sp.integrate(running, (th, 0, 2 * sp.pi)) / (2 * sp.pi)
    assert vanishes(to_sympy(mean_of_product(a, b, angle, running=True)) - running_mean)

@given(
    poisson_series(),
    st.sampled_from(ANGLES),
    st.lists(st.tuples(st.sampled_from(ANGLES), st.integers(-2, 2)), max_size=3),
)
def test_substitute_angle_matches_sympy(f, angle, combo):
    image = sum((c * SYM[a] for a, c in combo), sp.Integer(0))
    expected = to_sympy(f).subs(SYM[angle], image)
    assert vanishes(to_sympy(f.substitute_angle(angle, combo)) - expected)


# the two combinations rewritten by sign rules: th -> 0 and th -> -th
SIGN_RULE_COMBOS = st.sampled_from(((), (("th", -1),), (("ph", -1),), (("ps", -1),)))


@st.composite
def angle_monomials(draw):
    """Sums of bare angle powers times sine or cosine multiples, the terms
    the sign rules rewrite, with coefficients in the other symbols."""
    items = []
    for _ in range(draw(st.integers(1, 4))):
        angle = draw(st.sampled_from(ANGLES))
        powers = {angle: draw(st.integers(0, 3)), draw(st.sampled_from(CHART.coords)): 1}
        kind = draw(st.sampled_from((None, SIN, COS)))
        trig = [] if kind is None else [(angle, kind, draw(st.integers(1, 4)))]
        other = draw(st.sampled_from(ANGLES))
        if other != angle and draw(st.booleans()):
            trig.append((other, draw(st.sampled_from((SIN, COS))), draw(st.integers(1, 2))))
        key = (tuple(sorted((n, e) for n, e in powers.items() if e)), tuple(sorted(trig)))
        items.append((key, Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))))
    return Scalar(CHART, items)


@given(st.one_of(poisson_series(), angle_monomials()), SIGN_RULE_COMBOS)
def test_sign_rule_substitutions_match_sympy_and_the_expansion(f, combo):
    angle = combo[0][0] if combo else "th"
    got = f.substitute_angle(angle, list(combo))
    image = -SYM[angle] if combo else sp.Integer(0)
    assert vanishes(to_sympy(got) - to_sympy(f).subs(SYM[angle], image))
    # the general expansion, which every other combination takes, is the
    # reference: the same numerators over the same denominator
    expanded = _expanded_substitute_angle(f, angle, combo)
    assert (got.nums, got.den) == (expanded.nums, expanded.den)


@pytest.mark.parametrize("e", range(4))
@pytest.mark.parametrize("kind", (None, SIN, COS))
@pytest.mark.parametrize("m", (1, 3))
def test_sign_rules_on_each_angle_monomial(e, kind, m):
    """th^e * trig(m*th) at zero and reflected, one monomial at a time."""
    th = SYM["th"]
    powers = (("q", 1), ("th", e)) if e else (("q", 1),)
    trig = (("th", kind, m),) if kind else ()
    f = Scalar(CHART, {(powers, trig): Fraction(3, 2)})
    expected = to_sympy(f)
    for combo, image in (((), sp.Integer(0)), ((("th", -1),), -th)):
        got = f.substitute_angle("th", list(combo))
        assert vanishes(to_sympy(got) - expected.subs(th, image))


# ----------------------------------------------------------------------
# products and powers of single terms


@st.composite
def single_terms(draw, harmonics=True):
    """One term as (text, sympy expression, scalar built with operators):
    a rational coefficient, maybe with a leading minus, coordinate powers,
    maybe pi and, with ``harmonics``, sines and cosines of angle multiples."""
    num, den = draw(st.integers(-6, 6)), draw(st.integers(1, 4))
    parts = [str(abs(num)) if den == 1 else f"{abs(num)}/{den}"]
    expr = sp.Rational(num, den)
    built = Scalar.const(CHART, Fraction(num, den))
    for name in draw(st.lists(st.sampled_from(CHART.coords + (PI,)), max_size=3)):
        e = draw(st.integers(1, 3))
        parts.append(name if e == 1 else f"{name}^{e}")
        expr *= (sp.pi if name == PI else SYM[name]) ** e
        built = built * (Scalar.var(CHART, name) ** e)
    if harmonics:
        for angle in draw(st.lists(st.sampled_from(ANGLES), max_size=2, unique=True)):
            kind, m = draw(st.sampled_from(("sin", "cos"))), draw(st.integers(-3, 3).filter(bool))
            parts.append(f"{kind}({m}*{angle})" if m != 1 else f"{kind}({angle})")
            expr *= getattr(sp, kind)(m * SYM[angle])
            built = built * Scalar.harmonic(CHART, kind, angle, m)
    draw(st.randoms()).shuffle(parts)
    text = ("-" if num < 0 else "") + "*".join(parts)
    return text, expr, built


@given(st.lists(single_terms(), min_size=1, max_size=4))
def test_products_of_single_terms_parse_like_sympy_and_operators(terms):
    text = "*".join(t if not t.startswith("-") else f"({t})" for t, _, _ in terms)
    expr = sp.Mul(*(e for _, e, _ in terms))
    built = Scalar.one(CHART)
    for _, _, f in terms:
        built = built * f
    got = parse(CHART, text)
    assert (got.nums, got.den) == (built.nums, built.den)
    # the parser and the operators share one product, so sympy is the
    # independent reference for both
    assert vanishes(to_sympy(got) - expr)
    assert vanishes(to_sympy(built) - expr)


@given(st.one_of(single_terms(harmonics=False), single_terms()), st.integers(0, 4))
def test_powers_of_single_terms_parse_like_sympy_and_operators(term, e):
    text, expr, built = term
    got = parse(CHART, f"({text})^{e}")
    power = built**e
    assert (got.nums, got.den) == (power.nums, power.den)
    assert vanishes(to_sympy(got) - expr**e)
    assert vanishes(to_sympy(power) - expr**e)
    # a leading minus binds looser than the power
    negated = parse(CHART, f"-({text})^{e}")
    assert (negated.nums, negated.den) == ((-power).nums, power.den)
