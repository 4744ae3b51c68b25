"""Tensor calculus on one chart: fields, forms, multivectors, graded brackets.

All tensors are represented by sparse dictionaries of canonical components
over the manifold coordinates of a :class:`~foliavg.symcalc.Chart` (angles
are parameters and carry no components).  Component indices are strictly
increasing tuples of coordinate positions, and only nonzero components are
stored, so two tensors are equal exactly when their component dictionaries
are equal.  Vector fields are the degree-one case of the same container,
keyed ``(i,)``.  The public constructors check every index; the library's
own results go through :meth:`_Graded._make`, which trusts its indices,
stores no zero item and sets the slots directly.

Every change of basis expands through one generator, :func:`_expansions`:
it rewrites each basis index as a combination of others and yields each
term of the wedge as (sorted index, sign, path), the path naming the factor
chosen for each index.  :meth:`_Graded._rebase` multiplies each component
by its paths' factors and collects by sorted index; a component none of
whose indices has an image passes through it unexpanded.  Its callers are
:meth:`ChartMap.pull_vector`, :meth:`ChartMap.pull_form`,
:meth:`ChartMap.pull_multivector`, :meth:`ChartMap.pull_valued_form`,
:func:`foliavg.foliation.bigrade` and :meth:`_Graded._contract`:
contraction with k degree-one arguments is a change of basis onto k
argument slots, whose component (0, ..., k-1) is the value.
:meth:`ChartMap.pull_linear` walks the same paths to apply a linear
functional L to a pullback without building it: the averages of
:mod:`foliavg.action` use it.
A pullback costs what the map moves: a scalar that contains no moved
coordinate comes back as it is from
:meth:`~foliavg.symcalc.Substitution.apply`, and a tensor none of whose
components changes comes back as it is from its pullback.  The same rule
holds in :meth:`ChartMap.pull_linear`: a component none of whose indices
(nor, in a valued form, its value's field indices) has a basis image, and
none of whose coefficients contains a moved coordinate, comes back as L(1)
times itself, with no expansion and no table lookup.

Derivatives and pullbacks are sparse by construction.  :func:`_gradient`
differentiates a scalar only along the coordinates it contains, found by
their chart indices rather than by a scan of the chart;
:func:`exterior_derivative` and the two image builders of :class:`ChartMap`
use it, and those builders give images only to the coordinates the map
moves.  :meth:`VectorField.apply` differentiates only along the coordinates
that both the field and the scalar contain, and :meth:`_Graded._contract`,
behind the three ``evaluate`` methods, visits only stored entries.
:func:`schouten_bracket` takes each component's partials once, through
:func:`_gradient`, and pairs an index i of one operand only with the
stored partials along x_i of the other.  :meth:`ChartMap.pull_linear`
reads a coefficient that contains no moved coordinate off one table entry,
with no split.

Which brackets and pullbacks are zero, or trivial, because of which
coordinates their operands use is decided before any of them is built:
:func:`support` gives the indices a tensor stores and the coordinates its
components depend on, :func:`supports_meet` tells from two supports whether
a bracket can be nonzero, :func:`reaches_form` whether a field's Lie
derivative of a form can be, and :meth:`ChartMap.moved_indices` names the
indices a pullback rewrites.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ChartMismatch,
    DegreeOverflow,
    DegreeUnderflow,
    MissingInverse,
    UnsupportedDegree,
)
from .symcalc import Chart, Powers, Scalar, Substitution, recombine

Index = tuple[int, ...]
# (the indices a tensor stores, the coordinates its components depend on)
Support = tuple[frozenset[int], frozenset[int]]


def _sort_index(idx: Sequence[int]) -> tuple[Index, int] | None:
    """Sort an index tuple, returning (sorted, sign) or None on repeats."""
    n = len(idx)
    if n < 2:
        return tuple(idx), 1
    if n == 2:
        a, b = idx
        if a < b:
            return (a, b), 1
        return ((b, a), -1) if a > b else None
    idx = list(idx)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return tuple(idx), sign


def _det(rows: list[list[Scalar]]) -> Scalar:
    """The cofactor expansion of a square determinant: the tests' reference
    for contraction, which the library computes through
    :meth:`_Graded._rebase`."""
    if not rows:
        raise ValueError("empty determinant")
    if len(rows) == 1:
        return rows[0][0]
    chart = rows[0][0].chart
    total = Scalar.zero(chart)
    for col in range(len(rows)):
        entry = rows[0][col]
        if entry.is_zero:
            continue
        minor = [[row[c] for c in range(len(rows)) if c != col] for row in rows[1:]]
        cofactor = _det(minor)
        total = total + (entry * cofactor if col % 2 == 0 else -(entry * cofactor))
    return total


def _gradient(f: Scalar) -> list[tuple[int, Scalar]]:
    """The nonzero partials (c, df/dx_c) of a scalar, in chart order.

    Only the coordinates f contains are differentiated along, found by
    their chart indices, and angles and ``pi`` are skipped; each of those
    partials is nonzero, since lowering one exponent keeps distinct
    monomials distinct.
    """
    chart = f.chart
    coords = chart.coords
    found = sorted(chart.coord_index(name) for name in f.free_symbols() if chart.is_coord(name))
    return [(c, f.diff(coords[c])) for c in found]


def support(t: _Graded) -> Support:
    """The indices t stores a component at, and the coordinates its
    components depend on, for a tensor with scalar components.

    A derivative of t is nonzero only along a coordinate of the second set,
    a contraction with t only at an index of the first, and a pullback
    rewrites t only where the map meets one of them, so the structural
    zeros of brackets and pullbacks are read off these two sets.
    """
    chart = t.chart
    stored: set[int] = set()
    names: set[str] = set()
    for idx, value in t.comps.items():
        stored.update(idx)
        names |= value.free_symbols()
    return (
        frozenset(stored),
        frozenset(chart.coord_index(name) for name in names if chart.is_coord(name)),
    )


def supports_meet(a: Support, b: Support) -> bool:
    """False when neither support (reach, touch) reaches an index that the
    other touches.  Then the Lie bracket of fields with these supports, as
    :func:`support` gives them, is zero: [X, Y]^k = X^i d_i Y^k - Y^i d_i X^k,
    and each term needs X^i != 0 at an i that Y^k depends on, or the
    mirror.  :func:`foliavg.dirac.verify_involutive` applies the same rule
    to sections."""
    return not (a[0].isdisjoint(b[1]) and b[0].isdisjoint(a[1]))


def reaches_form(reach: frozenset[int], form: Support) -> bool:
    """False when a field that stores only the indices ``reach`` has a zero
    Lie derivative of a form with the support ``form``, as :func:`support`
    gives it.  L_X a = d(i_X a) + i_X d(a): i_X a needs X^i != 0 at an index
    a stores, and d(a) stores only indices that a stores or depends on.

    This is not :func:`supports_meet`, which holds each side's reach
    against the other's dependencies only: X = x3 d/dx1 and a = dx1 ^ dx2
    have supports that do not meet, yet L_X a = dx3 ^ dx2."""
    return not (reach.isdisjoint(form[0]) and reach.isdisjoint(form[1]))


def _check_chart(a, b) -> None:
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartMismatch(f"{a.chart} vs {b.chart}")


def _summed(items: Iterable[tuple[Index, object]]) -> dict[Index, object]:
    """The values of the items added up per index."""
    acc: dict[Index, object] = {}
    for idx, value in items:
        acc[idx] = acc[idx] + value if idx in acc else value
    return acc


def _expansions(
    idx: Index, images: Mapping[int, Sequence[tuple[int, Scalar | None]]]
) -> Iterator[tuple[Index, int, tuple[tuple[int, Scalar | None], ...]]]:
    """The terms of the wedge of the basis images of the entries of a sorted
    index, as (sorted index, sign, path).

    Each entry i is rewritten as the combination images[i] of pairs
    (j, factor), and an entry without an image as the pair (i, None); a
    factor of None stands for 1.  The path lists the pair chosen for each
    entry of ``idx``, in order, so the term is sign times the product of
    the path's factors on the sorted index.  Choices that repeat an index
    vanish and are not yielded.
    """
    if len(idx) == 1:
        for pair in images.get(idx[0], ((idx[0], None),)):
            yield (pair[0],), 1, (pair,)
        return
    # (the chosen indices, the path)
    paths: list[tuple[Index, tuple[tuple[int, Scalar | None], ...]]] = [((), ())]
    for i in idx:
        paths = [
            (head + (pair[0],), path + (pair,))
            for pair in images.get(i, ((i, None),))
            for head, path in paths
            if pair[0] not in head
        ]
    for head, path in paths:
        sidx, sign = _sort_index(head)
        yield sidx, sign, path


class _Graded:
    """Shared container behaviour of fields, forms, multivectors and valued
    forms."""

    __slots__ = ("chart", "degree", "comps")
    # makes the value of an absent component on a chart
    _zero_value = staticmethod(Scalar.zero)
    # written before each coordinate name of a basis element in the repr
    _basis_prefix = "d"

    def __init__(self, chart: Chart, degree: int, comps: Mapping[Index, object]) -> None:
        if degree < 0:
            raise DegreeUnderflow("negative degree")
        if degree > chart.dim:
            raise DegreeOverflow(f"degree {degree} exceeds dimension {chart.dim}")
        for idx in comps:
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad component index {idx}")
        self._fill(chart, degree, comps)

    def _fill(self, chart: Chart, degree: int, comps: Mapping[Index, object]) -> None:
        """Set the slots, keeping only the nonzero components."""
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", {i: v for i, v in comps.items() if not v.is_zero})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _make(cls, chart: Chart, degree: int, items: Iterable[tuple[Index, object]]):
        """The tensor of the summed items; each index must be sorted and of
        length ``degree``, as nothing checks it here.  The items are summed
        into the component dictionary itself: a zero item is not stored, and
        only the indices where a sum happened are swept for zeros."""
        comps: dict[Index, object] = {}
        summed = []
        for idx, value in items:
            old = comps.get(idx)
            if old is not None:
                comps[idx] = old + value
                summed.append(idx)
            elif not value.is_zero:
                comps[idx] = value
        for idx in summed:
            value = comps.get(idx)
            if value is not None and value.is_zero:
                del comps[idx]
        out = _new_object(cls)
        _set_chart(out, chart)
        _set_degree(out, degree)
        _set_comps(out, comps)
        return out

    @classmethod
    def from_dict(cls, chart: Chart, degree: int, comps: Mapping[Sequence[str], object]):
        """Build from components keyed by coordinate names in any order."""
        items = []
        for names, value in comps.items():
            idx = tuple(chart.coord_index(n) for n in names)
            sorted_sign = _sort_index(idx)
            if sorted_sign is None:
                raise ValueError(f"repeated coordinate in {names}")
            sidx, sign = sorted_sign
            items.append((sidx, value if sign > 0 else -value))
        return cls(chart, degree, _summed(items))

    def coefficient(self, *names: str):
        """The component on the named coordinates, signed by their order."""
        idx = tuple(self.chart.coord_index(n) for n in names)
        sorted_sign = _sort_index(idx)
        if sorted_sign is None:
            return self._zero_value(self.chart)
        sidx, sign = sorted_sign
        value = self.comps.get(sidx)
        if value is None:
            return self._zero_value(self.chart)
        return value if sign > 0 else -value

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def _binop(self, other, sign: int):
        _check_chart(self, other)
        if self.degree != other.degree:
            raise UnsupportedDegree("degrees differ")
        items = list(self.comps.items())
        items += [(i, v if sign > 0 else -v) for i, v in other.comps.items()]
        return type(self)._make(self.chart, self.degree, items)

    def __add__(self, other):
        return self._binop(other, +1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return type(self)._make(self.chart, self.degree, ((i, -v) for i, v in self.comps.items()))

    def __mul__(self, factor):
        return type(self)._make(
            self.chart, self.degree, ((i, v * factor) for i, v in self.comps.items())
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.chart, self.degree, tuple(sorted(self.comps.items(), key=lambda kv: kv[0]))))

    def _contract(self, args: Sequence["_Graded"]):
        """Sum of value * det(args at idx) over the components (idx, value),
        where each argument is a degree-one tensor (a field or a one-form)
        and its entry at i is its component (i,).  With no arguments this is
        the degree-0 component.

        This is a change of basis onto the argument slots: coordinate index
        i goes to the pairs (r, entry of argument r at i) of the entries the
        arguments store, and the component (0, ..., k-1) of the rebased
        tensor is the sum, by the Leibniz expansion over stored entries.  A
        component with an index that no argument stores is dropped first.
        """
        images: dict[int, list[tuple[int, Scalar]]] = {}
        for r, arg in enumerate(args):
            for (i,), entry in arg.comps.items():
                images.setdefault(i, []).append((r, entry))
        items = [(idx, value) for idx, value in self.comps.items() if all(i in images for i in idx)]
        slots = self._rebase(self.chart, len(args), items, images)
        value = slots.comps.get(tuple(range(len(args))))
        return self._zero_value(self.chart) if value is None else value

    @classmethod
    def _rebase(
        cls,
        chart: Chart,
        degree: int,
        items: Iterable[tuple[Index, object]],
        images: Mapping[int, Sequence[tuple[int, Scalar | None]]],
    ):
        """Rewrite each basis index of every component (idx, value) through
        ``images``, as :func:`_expansions` does, and collect the terms by
        sorted index.

        Each ``idx`` must be sorted, as the keys of a tensor are.  A
        component none of whose indices has an image passes straight
        through.  ``value`` is a Scalar or a VectorField.
        """
        out = []
        for idx, value in items:
            if images.keys().isdisjoint(idx):
                out.append((idx, value))
                continue
            for sidx, sign, path in _expansions(idx, images):
                coef = value
                for _, factor in path:
                    if factor is not None:
                        coef = coef * factor
                out.append((sidx, coef if sign > 0 else -coef))
        return cls._make(chart, degree, out)

    def _names(self, idx: Index) -> tuple[str, ...]:
        return tuple(self.chart.coords[i] for i in idx)

    def __repr__(self) -> str:
        if not self.comps:
            return "0"
        parts = []
        for idx in sorted(self.comps):
            basis = "^".join(self._basis_prefix + n for n in self._names(idx)) or "1"
            parts.append(f"({self.comps[idx]})*{basis}")
        return " + ".join(parts)


# The slots' own setters, past the immutability guard of _Graded.__setattr__.
_new_object = object.__new__
_set_chart, _set_degree, _set_comps = (
    _Graded.chart.__set__, _Graded.degree.__set__, _Graded.comps.__set__
)


class VectorField(_Graded):
    """A vector field: the degree-one tensor with components keyed (i,)."""

    __slots__ = ()
    _basis_prefix = "d/d"

    def __init__(self, chart: Chart, degree: int, comps: Mapping[Index, Scalar]) -> None:
        if degree != 1:
            raise UnsupportedDegree(f"a vector field has degree 1, not {degree}")
        super().__init__(chart, degree, comps)

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        return VectorField(chart, 1, {})

    @staticmethod
    def basis(chart: Chart, name: str) -> "VectorField":
        return VectorField(chart, 1, {(chart.coord_index(name),): Scalar.one(chart)})

    @staticmethod
    def from_dict(chart: Chart, comps: Mapping[str, Scalar]) -> "VectorField":
        return VectorField(
            chart, 1, {(chart.coord_index(name),): value for name, value in comps.items()}
        )

    def apply(self, f: Scalar) -> Scalar:
        """Directional derivative of a scalar, along the coordinates that
        both the field and f contain."""
        coords = self.chart.coords
        names = f.free_symbols()
        return Scalar.sum(
            self.chart,
            (comp * f.diff(coords[i]) for (i,), comp in self.comps.items() if coords[i] in names),
        )

    def bracket(self, other: "VectorField") -> "VectorField":
        """The Lie bracket, [X, Y]^i = X(Y^i) - Y(X^i)."""
        _check_chart(self, other)
        items = [(idx, self.apply(value)) for idx, value in other.comps.items()]
        items += [(idx, -other.apply(value)) for idx, value in self.comps.items()]
        return VectorField._make(self.chart, 1, items)


class DiffForm(_Graded):
    """A differential k-form with canonical components on coordinate wedges."""

    @staticmethod
    def zero(chart: Chart, degree: int) -> "DiffForm":
        return DiffForm(chart, degree, {})

    @staticmethod
    def function(chart: Chart, f: Scalar) -> "DiffForm":
        return DiffForm(chart, 0, {(): f})

    @staticmethod
    def d_coord(chart: Chart, name: str) -> "DiffForm":
        return DiffForm(chart, 1, {(chart.coord_index(name),): Scalar.one(chart)})

    def evaluate(self, *fields: VectorField) -> Scalar:
        if len(fields) != self.degree:
            raise UnsupportedDegree(
                f"form of degree {self.degree} evaluated on {len(fields)} fields"
            )
        return self._contract(fields)


class Multivector(_Graded):
    """A k-vector field with components on coordinate wedge products."""

    _basis_prefix = "d/d"

    @staticmethod
    def zero(chart: Chart, degree: int) -> "Multivector":
        return Multivector(chart, degree, {})

    def evaluate(self, *forms: DiffForm) -> Scalar:
        if len(forms) != self.degree:
            raise UnsupportedDegree(
                f"multivector of degree {self.degree} contracted with {len(forms)} forms"
            )
        for alpha in forms:
            if alpha.degree != 1:
                raise UnsupportedDegree("contraction requires one-forms")
        return self._contract(forms)


class VecValuedForm(_Graded):
    """A k-form with vector-field values, stored per coordinate wedge."""

    _zero_value = staticmethod(VectorField.zero)

    @staticmethod
    def zero(chart: Chart, degree: int) -> "VecValuedForm":
        return VecValuedForm(chart, degree, {})

    @staticmethod
    def identity(chart: Chart) -> "VecValuedForm":
        comps = {
            (i,): VectorField.basis(chart, name)
            for i, name in enumerate(chart.coords)
        }
        return VecValuedForm(chart, 1, comps)

    @staticmethod
    def vector(chart: Chart, field: VectorField) -> "VecValuedForm":
        return VecValuedForm(chart, 0, {(): field})

    def __repr__(self) -> str:
        if not self.comps:
            return "0"
        parts = []
        for idx in sorted(self.comps):
            basis = "^".join(f"d{n}" for n in self._names(idx)) or "1"
            parts.append(f"{basis} (x) [{self.comps[idx]!r}]")
        return " + ".join(parts)

    def evaluate(self, *fields: VectorField) -> VectorField:
        if len(fields) != self.degree:
            raise UnsupportedDegree(
                f"valued form of degree {self.degree} evaluated on {len(fields)} fields"
            )
        return self._contract(fields)

    def apply(self, field: VectorField) -> VectorField:
        if self.degree != 1:
            raise UnsupportedDegree("apply is defined for degree-1 valued forms")
        return self.evaluate(field)


# ----------------------------------------------------------------------
# exterior algebra


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    _check_chart(a, b)
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        raise DegreeOverflow(
            f"wedge degree {degree} exceeds dimension {a.chart.dim}"
        )
    items = []
    for ia, va in a.comps.items():
        for ib, vb in b.comps.items():
            sorted_sign = _sort_index(ia + ib)
            if sorted_sign is None:
                continue
            idx, sign = sorted_sign
            value = va * vb
            items.append((idx, value if sign > 0 else -value))
    return DiffForm._make(a.chart, degree, items)


def exterior_derivative(a: DiffForm) -> DiffForm:
    chart = a.chart
    if a.degree == chart.dim:
        # top forms are closed; keep the degree representable
        return DiffForm.zero(chart, chart.dim)
    items = []
    for idx, value in a.comps.items():
        for c, dv in _gradient(value):
            sorted_sign = _sort_index((c,) + idx)
            if sorted_sign is None:
                continue
            sidx, sign = sorted_sign
            items.append((sidx, dv if sign > 0 else -dv))
    return DiffForm._make(chart, a.degree + 1, items)


def interior_product(field: VectorField, a: DiffForm) -> DiffForm:
    _check_chart(field, a)
    if a.degree == 0:
        raise DegreeUnderflow("interior product of a zero-form")
    items = []
    for idx, value in a.comps.items():
        for t, c in enumerate(idx):
            comp = field.comps.get((c,))
            if comp is None:
                continue
            rest = idx[:t] + idx[t + 1 :]
            contrib = comp * value
            items.append((rest, contrib if t % 2 == 0 else -contrib))
    return DiffForm._make(a.chart, a.degree - 1, items)


def _lie_of_basis_form(field: VectorField, idx: Index) -> DiffForm:
    """Lie derivative of a closed coordinate wedge dx^idx along a field."""
    chart = field.chart
    if not idx:
        return DiffForm.zero(chart, 0)
    basis = DiffForm(chart, len(idx), {idx: Scalar.one(chart)})
    return exterior_derivative(interior_product(field, basis))


def lie_derivative(field: VectorField, target):
    """Lie derivative along a vector field, for any tensor kind here."""
    if isinstance(target, Scalar):
        return field.apply(target)
    if isinstance(target, VectorField):
        return field.bracket(target)
    if isinstance(target, DiffForm):
        if target.degree == 0:
            value = target.comps.get((), Scalar.zero(target.chart))
            return DiffForm.function(target.chart, field.apply(value))
        return exterior_derivative(interior_product(field, target)) + interior_product(
            field, exterior_derivative(target)
        )
    if isinstance(target, Multivector):
        return schouten_bracket(Multivector(field.chart, 1, field.comps), target)
    if isinstance(target, VecValuedForm):
        chart = target.chart
        result = VecValuedForm.zero(chart, target.degree)
        for idx, vec in target.comps.items():
            moved = _lie_of_basis_form(field, idx)
            result = result + _tensor(moved, vec)
            result = result + VecValuedForm(
                chart, target.degree, {idx: field.bracket(vec)}
            )
        return result
    raise TypeError(f"cannot Lie-derive {type(target).__name__}")


def _tensor(form: DiffForm, vec: VectorField) -> VecValuedForm:
    """Distribute (form) ⊗ (vector field) over canonical components."""
    comps = {idx: vec * value for idx, value in form.comps.items()}
    return VecValuedForm._make(form.chart, form.degree, list(comps.items()))


# ----------------------------------------------------------------------
# Schouten bracket


def schouten_bracket(a: Multivector, b: Multivector) -> Multivector:
    """Schouten bracket; on (1, k) it is the Lie derivative.

    In the odd coordinates xi_i = d/dx_i, for a of degree p and b of degree q,

        [a, b] = sum_i (d_r a / d xi_i) (d b / d x_i)
                 - (-1)^((p-1)(q-1)) (d_r b / d xi_i) (d a / d x_i),

    with the wedge as product and the right derivative
    d_r (xi_i1 ... xi_ip) / d xi_is = (-1)^(p-s) xi_(I without is).  On two
    vector fields this is the Lie bracket [X, Y] = X(Y) - Y(X).  Both
    operands must have degree at least one; the result has degree p + q - 1.

    The partials d/dx_i of each operand's components are taken once, with
    :func:`_gradient`, and grouped by i in the operand's component order,
    so the index i of a component of one operand meets only the nonzero
    partials along x_i of the other, in that order.
    """
    _check_chart(a, b)
    if a.degree < 1 or b.degree < 1:
        raise UnsupportedDegree("schouten_bracket needs degrees >= 1")
    chart = a.chart
    degree = a.degree + b.degree - 1
    if degree > chart.dim:
        raise DegreeOverflow("bracket degree exceeds dimension")
    # the sign -(-1)^((p-1)(q-1)) of the second term
    swap = -1 if (a.degree - 1) * (b.degree - 1) % 2 == 0 else 1
    columns_a = _partials_by_coordinate(a)
    columns_b = columns_a if b is a else _partials_by_coordinate(b)
    items = []
    for x, columns, sign in ((a, columns_b, 1), (b, columns_a, swap)):
        for ix, vx in x.comps.items():
            for s, i in enumerate(ix):
                rest = ix[:s] + ix[s + 1 :]
                parity = sign if (x.degree - 1 - s) % 2 == 0 else -sign
                for iy, dy in columns.get(i, ()):
                    sorted_sign = _sort_index(rest + iy)
                    if sorted_sign is None:
                        continue
                    idx, order = sorted_sign
                    value = vx * dy
                    items.append((idx, value if parity * order > 0 else -value))
    return Multivector._make(chart, degree, items)


def _partials_by_coordinate(t: _Graded) -> dict[int, list[tuple[Index, Scalar]]]:
    """The nonzero partials of t's components, each taken once: coordinate c
    maps to the pairs (index, d(component)/dx_c), in t's component order."""
    columns: dict[int, list[tuple[Index, Scalar]]] = {}
    for idx, value in t.comps.items():
        for c, dv in _gradient(value):
            columns.setdefault(c, []).append((idx, dv))
    return columns


# ----------------------------------------------------------------------
# Froelicher-Nijenhuis bracket


def fn_bracket(K: VecValuedForm, X: VectorField) -> VecValuedForm:
    """Froelicher-Nijenhuis bracket [K, X] = -L_X K with a vector field."""
    return -lie_derivative(X, K)


# ----------------------------------------------------------------------
# pullback along chart maps


class ChartMap:
    """A polynomial coordinate map of the chart into itself.

    ``mapping`` and ``inverse_mapping`` are
    :class:`~foliavg.symcalc.Substitution` objects sending each manifold
    coordinate to its image expression; coordinates they do not move stay
    fixed.  Angles never move, they may only appear as parameters of the
    images.  Pulling back vector fields and multivectors requires
    ``inverse_mapping``.

    A pullback rewrites basis indices through the images of the coordinate
    differentials (forms) or of the coordinate fields (fields and
    multivectors), built only for what the map moves: dc goes to the
    gradient of the image of a moved c, and d/de to the entries of the
    moved coordinates whose inverse images contain e, plus d/de itself when
    e is fixed.  Every other index stays as it is.

    Everything a pullback reuses depends only on the map, so the map keeps
    it: ``mapping`` keeps the powers of each moved coordinate's image, and
    both image tables are kept too.  All of it is built on first use: a flow
    pulls back many tensors, and building it when the map is made would
    charge that work to loading a scenario.
    """

    __slots__ = ("chart", "mapping", "inverse_mapping", "_field_images", "_images")

    def __init__(
        self,
        chart: Chart,
        mapping: Mapping[str, Scalar],
        inverse_mapping: Mapping[str, Scalar] | None = None,
    ) -> None:
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "mapping", Substitution(chart, mapping))
        inverse = None if inverse_mapping is None else Substitution(chart, inverse_mapping)
        object.__setattr__(self, "inverse_mapping", inverse)
        object.__setattr__(self, "_field_images", None)
        object.__setattr__(self, "_images", None)

    def __setattr__(self, name, value):
        raise AttributeError("ChartMap is immutable")

    def inverse(self) -> "ChartMap":
        if self.inverse_mapping is None:
            raise MissingInverse("this chart map has no inverse attached")
        return ChartMap(self.chart, self.inverse_mapping.moved, self.mapping.moved)

    def pull_scalar(self, f: Scalar) -> Scalar:
        return f.substitute(self.mapping)

    def _vector_images(self) -> dict[int, list[tuple[int, Scalar | None]]]:
        """The pulled coordinate fields as basis images: d/de goes to
        sum_c (d(inverse)^c / d e, composed with the map) d/dc, and only a
        coordinate c that the inverse moves gives an entry off the diagonal."""
        inverse = self.inverse_mapping
        if inverse is None:
            raise MissingInverse("pulling back vector fields needs the inverse map")
        if self._field_images is None:
            moved = {self.chart.coord_index(n): image for n, image in inverse.moved.items()}
            columns: dict[int, dict[int, Scalar | None]] = {c: {} for c in moved}
            for c, image in moved.items():
                for e, entry in _gradient(image):
                    # a fixed e keeps its own d/de, the factor None standing for 1
                    column = columns.setdefault(e, {} if e in moved else {e: None})
                    column[c] = entry.substitute(self.mapping)
            images = {e: sorted(column.items()) for e, column in columns.items()}
            object.__setattr__(self, "_field_images", images)
        return self._field_images

    def _form_images(self) -> dict[int, list[tuple[int, Scalar]]]:
        """The pulled differentials d(mapping^c) of the moved coordinates c
        as basis images."""
        if self._images is None:
            coord_index = self.chart.coord_index
            images = {coord_index(n): _gradient(image) for n, image in self.mapping.moved.items()}
            object.__setattr__(self, "_images", images)
        return self._images

    def moved_indices(self) -> tuple[frozenset[int], frozenset[int]]:
        """(the coordinates the map moves, the indices e whose coordinate
        field d/de has a basis image).

        The first set holds the keys of the form images, the second those of
        the field images.  So a tensor whose components depend on no moved
        coordinate is its own pullback exactly when it stores no index of
        the first set (a form) or of the second (a field or a multivector).
        The second set is larger than the first on a flow that depends on a
        fixed coordinate: p -> p + x1*q^2 moves only p, yet d/dx1 gains
        -q^2 d/dp.
        """
        moved = frozenset(self.chart.coord_index(name) for name in self.mapping.moved)
        return moved, frozenset(self._vector_images())

    def _pull(self, a: _Graded, images: Mapping[int, Sequence[tuple[int, Scalar | None]]]):
        """Pull back a tensor with scalar components through basis images."""
        items = [(idx, self.pull_scalar(value)) for idx, value in a.comps.items()]
        if _untouched(a, items, images):
            return a
        return type(a)._rebase(self.chart, a.degree, items, images)

    def pull_vector(self, field: VectorField) -> VectorField:
        return self._pull(field, self._vector_images())

    def pull_form(self, a: DiffForm) -> DiffForm:
        return self._pull(a, self._form_images())

    def pull_multivector(self, a: Multivector) -> Multivector:
        return self._pull(a, self._vector_images())

    def pull_valued_form(self, a: VecValuedForm) -> VecValuedForm:
        items = [(idx, self.pull_vector(vec)) for idx, vec in a.comps.items()]
        images = self._form_images()
        if _untouched(a, items, images):
            return a
        return VecValuedForm._rebase(self.chart, a.degree, items, images)

    def pull_linear(self, target, entry: Callable[[Powers, tuple, tuple], Scalar]):
        """L applied to each coefficient of the pullback of ``target``,
        without building the pullback.

        Each coefficient is split by its monomial m in the moved coordinates
        (:meth:`~foliavg.symcalc.Substitution.split`), and each basis index
        is expanded through the basis images as a pullback expands it
        (:func:`_expansions`).  ``entry(m, key, factors)`` must return
        L(image of m * product of factors), where ``factors`` are the basis
        factors of one expansion path that are not 1 and ``key`` names them:
        one (images, i, j) per factor, with images "d" for the form images
        and "v" for the field images.  Each group of the split contributes
        its rest times that value, so L must be linear over those rests.
        A coefficient that contains no moved coordinate is one group, the
        whole value with the monomial 1, so it costs one call of ``entry``
        and no split.  Each coefficient is split, or compared with 1, once
        for all the expansion paths of its component.

        A component that the map leaves as it is passes through: when no
        index of it has a basis image, none of a valued form's field indices
        has a field image, and no coefficient contains a moved coordinate,
        its value is L(1) times the component, read off the one unit entry
        with no expansion, no path key and no other call of ``entry``.
        This is the rule of :meth:`_Graded._rebase` and :func:`_untouched`.
        """
        moved, chart = self.mapping.moved, self.chart
        split = self.mapping.split
        one = Scalar.one(chart)
        unit = entry((), (), ())
        # L(1) is 1 for the Haar mean, so a passed-through value stays itself
        unit_is_one = unit == one

        def fixed(value: Scalar) -> bool:
            return not any(name in moved for powers, _ in value.nums for name, _ in powers)

        def passed(value):
            return value if unit_is_one else value * unit

        def functional(value):
            """L(value * factors) as a function of an expansion path's key
            and factors."""
            if not fixed(value):
                groups = split(value)
                return lambda key, factors: recombine(
                    value, groups, lambda hit: entry(hit, key, factors)
                )
            if value == one:
                return lambda key, factors: entry((), key, factors) if key else unit

            # the split is one group, the whole value with the monomial 1:
            # L(value * factors) = value * L(factors)
            def scaled(key, factors):
                if not key:
                    return passed(value)
                mean = entry((), key, factors)
                return value if mean == one else value * mean

            return scaled

        if isinstance(target, Scalar):
            return functional(target)((), ())
        if isinstance(target, VecValuedForm):
            forms, fields = self._form_images(), self._vector_images()
            out: dict[Index, list[tuple[Index, Scalar]]] = {}
            kept = []
            for idx, vec in target.comps.items():
                if forms.keys().isdisjoint(idx) and all(
                    k not in fields and fixed(value) for (k,), value in vec.comps.items()
                ):
                    kept.append((idx, passed(vec)))
                    continue
                outer = [
                    (sidx, sign, *_path_key("d", idx, path))
                    for sidx, sign, path in _expansions(idx, forms)
                ]
                for k, value in vec.comps.items():
                    mean_of = functional(value)
                    for cidx, csign, cpath in _expansions(k, fields):
                        ckey, cfactors = _path_key("v", k, cpath)
                        for sidx, sign, key, factors in outer:
                            mean = mean_of(key + ckey, factors + cfactors)
                            out.setdefault(sidx, []).append(
                                (cidx, mean if sign * csign > 0 else -mean)
                            )
            kept.extend((sidx, VectorField._make(chart, 1, parts)) for sidx, parts in out.items())
            return VecValuedForm._make(chart, target.degree, kept)
        if isinstance(target, DiffForm):
            images, name = self._form_images(), "d"
        elif isinstance(target, (VectorField, Multivector)):
            images, name = self._vector_images(), "v"
        else:
            raise TypeError(f"cannot pull back {type(target).__name__}")
        items = []
        for idx, value in target.comps.items():
            if images.keys().isdisjoint(idx) and fixed(value):
                items.append((idx, passed(value)))
                continue
            mean_of = functional(value)
            for sidx, sign, path in _expansions(idx, images):
                mean = mean_of(*_path_key(name, idx, path))
                items.append((sidx, mean if sign > 0 else -mean))
        return type(target)._make(chart, target.degree, items)


def _path_key(
    name: str, idx: Index, path: Sequence[tuple[int, Scalar | None]]
) -> tuple[tuple[tuple[str, int, int], ...], tuple[Scalar, ...]]:
    """The key and the factors of an expansion path of ``idx`` through the
    images called ``name``, for :meth:`ChartMap.pull_linear`."""
    key = tuple((name, i, j) for i, (j, factor) in zip(idx, path) if factor is not None)
    if not key:
        return (), ()
    return key, tuple(factor for _, factor in path if factor is not None)


def _untouched(
    a: _Graded, pulled: Sequence[tuple[Index, object]], images: Mapping[int, object]
) -> bool:
    """True when every pulled component is a's own value, unchanged, and no
    index of a has a basis image, so that the pullback of a is a itself."""
    return all(
        new is old and images.keys().isdisjoint(idx)
        for (idx, new), old in zip(pulled, a.comps.values())
    )


def pullback(phi: ChartMap, target):
    """Pull a tensor back along a chart map (vectors need the inverse)."""
    if isinstance(target, Scalar):
        return phi.pull_scalar(target)
    if isinstance(target, VectorField):
        return phi.pull_vector(target)
    if isinstance(target, DiffForm):
        return phi.pull_form(target)
    if isinstance(target, Multivector):
        return phi.pull_multivector(target)
    if isinstance(target, VecValuedForm):
        return phi.pull_valued_form(target)
    raise TypeError(f"cannot pull back {type(target).__name__}")
