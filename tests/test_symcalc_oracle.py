"""The coefficient ring against an independent exact oracle (sympy).

Each ``Scalar`` is translated term by term into a sympy expression.  An
identity holds when the difference of both sides vanishes in a normal form:
harmonics are rewritten as exponentials and the result is expanded, which
leaves a Laurent polynomial in exp(i*angle) with polynomial coefficients,
zero exactly when the identity holds.  The operations are checked against
sympy's own product, derivative, definite integral and substitution, and
the two means of a product against sympy's integrals of that product.
"""

from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from foliavg.symcalc import COS, PI, SIN, Chart, Scalar, mean_of_product  # noqa: E402

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
