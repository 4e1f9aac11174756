"""Finite-order equivalence of self-map germs and formal vector fields.

Self-maps transform by conjugation G = Phi o F o Phi^-1, formed as
Phi o (F o Phi^-1); vector fields by the pushforward (DPhi . xi) o Phi^-1.
Each transport solves Phi once.  A VectorField is a FormalMap's component
tuple without a map's own methods, and never equals a map.  Order-k
closeness means each component of the difference vanishes to order >= k.
F itself is never required to be invertible; only the conjugating map is.

The checks never form Phi^-1: they compare G o Phi with Phi o F and
eta o Phi with DPhi . xi, reading the lowest degree where the two differ
without forming the difference.  Composing with a map of invertible linear
part keeps that degree, so verdicts and discrepancy orders are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import DimensionError, PrecisionError
from .monomial import FIELD_BITS
from .series import FormalMap, _ComponentTuple, _bound


class VectorField(_ComponentTuple):
    """A formal vector field vanishing at the origin, one coefficient
    series per coordinate direction."""

    __slots__ = ()
    _kind = "vector field"


def _require(name: str, obj, kind: type, phi) -> None:
    """Refuse a field where a map belongs, or a map where a field does."""
    for what, got, want in ((name, obj, kind), ("Phi", phi, FormalMap)):
        if not isinstance(got, want):
            raise TypeError(f"{what} must be a {want._kind}, got {type(got).__name__}")


def _refuse(name: str, obj, kind: type, phi, noun: str, solve: bool):
    """A transport's refusals in order: the wrong kind of object, another
    dimension than Phi's, a singular Phi.  Returns Phi^-1 when solve."""
    _require(name, obj, kind, phi)
    if obj.dimension != phi.dimension:
        raise DimensionError(f"{noun} dimensions differ")
    if solve:
        return phi.inverse()
    phi.linear_inverse()


def _phi_after(f: FormalMap, phi: FormalMap, solve: bool = False) -> FormalMap:
    """Phi o F, or with solve Phi o (F o Phi^-1), after the checks of conjugate."""
    inverse = _refuse("F", f, FormalMap, phi, "map", solve)
    return phi.compose(f.compose(inverse) if solve else f)


def conjugate(f: FormalMap, phi: FormalMap) -> FormalMap:
    """Phi o F o Phi^-1, formed as Phi o (F o Phi^-1); F need not be
    invertible."""
    return _phi_after(f, phi, solve=True)


def _dphi_times(xi: VectorField, phi: FormalMap, solve: bool = False) -> VectorField:
    """DPhi . xi, or with solve (DPhi . xi) o Phi^-1, after the checks of
    pushforward_field."""
    inverse = _refuse("xi", xi, VectorField, phi, "field and map", solve)
    comps = []
    for row in phi.components:
        terms = [row.derivative(j) * c for j, c in enumerate(xi.components)]
        comps.append(sum(terms[1:], terms[0]))
    return VectorField(comps).compose(inverse) if solve else VectorField(comps)


def pushforward_field(xi: VectorField, phi: FormalMap) -> VectorField:
    """(DPhi . xi) o Phi^-1, exact one degree below the inputs.

    Differentiating Phi costs one degree of precision, so the result
    carries truncation min(truncations) - 1.
    """
    return _dphi_times(xi, phi, solve=True)


@dataclass(frozen=True)
class ComponentVerdict:
    label: str
    ok: bool
    # Order of the first discrepancy (lowest degree present in the
    # difference), None when the difference vanishes identically within
    # the comparison window.
    discrepancy_order: Optional[int] = None


@dataclass(frozen=True)
class DynamicsReport:
    ok: bool
    order: int
    per_index: tuple[ComponentVerdict, ...]

    def __bool__(self):
        return self.ok


def _difference_verdict(
    label: str, moved: _ComponentTuple, target, phi: FormalMap, k: int
) -> ComponentVerdict:
    _require(f"right object {label}", target, type(moved), phi)
    if target.dimension != phi.dimension:
        raise DimensionError(
            f"series dimensions differ: {target.dimension} vs {phi.dimension}"
        )
    composed = target.compose(phi)  # phi's powers built once for every component
    trunc = min(composed.truncation, moved.truncation)
    if trunc < k - 1:
        raise PrecisionError(f"order-{k} comparison needs degree {k - 1}, have {trunc}")
    # the order of the difference is that of the lowest key below the
    # window where the two tables differ; no difference is formed
    low = bound = _bound(phi.dimension, trunc)
    for a, b in zip(composed.components, moved.components):
        p, q = a._table, b._table
        low = min([low] + [key for key in p.keys() | q.keys()
                           if key < low and p.get(key) != q.get(key)])
    worst = None if low == bound else low >> FIELD_BITS * phi.dimension
    ok = worst is None or worst >= k
    return ComponentVerdict(label=label, ok=ok, discrepancy_order=worst)


def _labels(count: int, labels: Optional[Sequence[str]]) -> list[str]:
    if labels is None:
        return [str(i) for i in range(count)]
    labels = list(labels)
    if len(labels) != count:
        raise ValueError("label count differs from family size")
    return labels


def _check_transported(
    move: Callable,
    what: str,
    phi: FormalMap,
    lefts: Sequence,
    rights: Sequence,
    k: int,
    labels: Optional[Sequence[str]],
) -> DynamicsReport:
    """Whether each right object, composed with phi, agrees to order k
    with move(its left partner, phi), index by index."""
    if k < 1:
        raise ValueError(f"{what} order must be at least 1")
    if len(lefts) != len(rights):
        raise ValueError("families differ in length")
    names = _labels(len(lefts), labels)
    verdicts = tuple(
        _difference_verdict(label, move(f, phi), g, phi, k)
        for label, f, g in zip(names, lefts, rights)
    )
    return DynamicsReport(
        ok=all(v.ok for v in verdicts), order=k, per_index=verdicts
    )


def is_order_k_conjugacy(
    phi: FormalMap,
    lefts: Sequence[FormalMap],
    rights: Sequence[FormalMap],
    k: int,
    labels: Optional[Sequence[str]] = None,
) -> DynamicsReport:
    """Whether each right map agrees with the conjugate of its left
    partner to order k, index by index."""
    return _check_transported(_phi_after, "conjugacy", phi, lefts, rights, k, labels)


def is_order_k_field_equivalence(
    phi: FormalMap,
    lefts: Sequence[VectorField],
    rights: Sequence[VectorField],
    k: int,
    labels: Optional[Sequence[str]] = None,
) -> DynamicsReport:
    """Whether each right field agrees with the pushforward of its left
    partner to order k, index by index."""
    return _check_transported(
        _dphi_times, "field equivalence", phi, lefts, rights, k, labels
    )
