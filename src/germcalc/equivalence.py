"""Finite-order equivalence of families and sets of ideals.

A map Phi is an equivalence of order k between ideals I and J when every
generator of J pulled back through Phi lies in I + m^k and every generator
of I pulled back through Phi's inverse lies in J + m^k.  The second half
needs no inverse: Phi* (composition with Phi) is an automorphism fixing
m^k, so g o Phi^-1 lies in J + m^k exactly when g lies in Phi*J + m^k.
Once the first half puts Phi*J + m^k inside I + m^k, the second holds
exactly when the two have one dimension modulo m^k, and for an invertible
Phi that of Phi*J is J's.  So the second half runs only when Phi is
singular or the jet dimensions of I and J differ or cannot be read off
(ideals._jet_dimension).  Phi*J's generators are built once per right
member a check touches, from one table of images Phi^a per truncation.
Families are checked index by index; sets are checked by existence of
partners in both directions, with pairwise verdicts memoized.  In a set
check the first ``nominal`` members of each family need a partner and
every member is a candidate; a proposal hook may prune the candidates
tried, which can only lose matches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from .errors import DimensionError, PrecisionError
from .ideals import HorizonReport, IdealPresentation, _jet_dimension, jet_membership
from .series import FormalMap, FormalSeries, _Images

MODES = ("family", "set")

CandidateHook = Callable[[str, int], Optional[Iterable[int]]]


@dataclass(frozen=True)
class GermFamily:
    """Finitely many labelled ideals in a common dimension."""

    labels: tuple[str, ...]
    ideals: tuple[IdealPresentation, ...]
    mode: str = "family"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if len(self.labels) != len(self.ideals):
            raise ValueError("labels and ideals differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("family labels must be distinct")
        if not self.ideals:
            raise ValueError("a germ family needs at least one member")
        dims = {i.dimension for i in self.ideals}
        if len(dims) != 1:
            raise DimensionError("family members live in different dimensions")

    @classmethod
    def of(cls, mode: str, items: Iterable[tuple[str, IdealPresentation]]) -> "GermFamily":
        pairs = list(items)
        return cls(
            labels=tuple(label for label, _ in pairs),
            ideals=tuple(ideal for _, ideal in pairs),
            mode=mode,
        )

    @property
    def dimension(self) -> int:
        return self.ideals[0].dimension

    @property
    def generator_truncation(self) -> Optional[int]:
        bounds = [b for b in (i.generator_truncation for i in self.ideals) if b is not None]
        return min(bounds) if bounds else None

    def with_mode(self, mode: str) -> "GermFamily":
        if mode == self.mode:
            return self
        return GermFamily(labels=self.labels, ideals=self.ideals, mode=mode)

    def __len__(self):
        return len(self.ideals)


def _pulled(ideal: IdealPresentation, phi: FormalMap, images: dict) -> tuple:
    """The generators composed with phi, zeros kept so that positions index
    ideal.generators.  images maps a working truncation to phi's table of
    monomial images at it (series._Images), filled on demand and shared by
    the calls that pass the same dict."""
    if phi.dimension != ideal.dimension:
        raise DimensionError("map dimension differs from ideal dimension")
    gens = []
    for g in ideal.generators:
        trunc = min(g.truncation, phi.truncation)
        if trunc not in images:
            images[trunc] = _Images(phi.components, trunc)
        table = images[trunc].composed(g.truncate(trunc)._table)
        gens.append(FormalSeries._from_table(ideal.dimension, trunc, table))
    return tuple(gens)


def pullback(ideal: IdealPresentation, phi: FormalMap) -> IdealPresentation:
    """The ideal generated by the compositions g(Phi) of the generators."""
    return IdealPresentation(ideal.dimension, _pulled(ideal, phi, {}))


@dataclass(frozen=True)
class IndexVerdict:
    label: str
    ok: bool
    # (direction, generator position) of the first failing membership:
    # "pullback", a right generator composed with Phi misses I + m^k, or
    # "inverse", a left generator misses Phi*J + m^k (so g o Phi^-1 misses J + m^k).
    failure: Optional[tuple[str, int]] = None


@dataclass(frozen=True)
class MatchVerdict:
    label: str
    partner: Optional[str]
    tried: int = 0


@dataclass(frozen=True)
class EquivalenceReport:
    ok: bool
    order: int
    mode: str
    per_index: tuple[IndexVerdict, ...] = ()
    left_matching: tuple[MatchVerdict, ...] = ()
    right_matching: tuple[MatchVerdict, ...] = ()

    def __bool__(self):
        return self.ok


def _check_shapes(
    phi: FormalMap, left: GermFamily, right: GermFamily, k: int, precision: str
):
    """One dimension for families and map, generators known to degree k
    (``precision`` is the message, with ``{bound}`` for the shortfall) and
    the map known to degree k - 1."""
    if left.dimension != right.dimension or phi.dimension != left.dimension:
        raise DimensionError("families and map must share one dimension")
    for fam in (left, right):
        bound = fam.generator_truncation
        if bound is not None and bound < k:
            raise PrecisionError(precision.format(bound=bound))
    if phi.truncation < k - 1:
        raise PrecisionError(
            f"order-{k} check needs the map known to degree {k - 1}"
        )


def _common_mode(left: GermFamily, right: GermFamily) -> str:
    if right.mode != left.mode:
        raise ValueError("families disagree about the comparison mode")
    return left.mode


def _pair_order_k(
    left: IdealPresentation, gens: tuple, k: int, one_way: bool = False
) -> tuple[bool, Optional[tuple[str, int]]]:
    """(ok, failure) of one pair, given the right generators pulled back;
    one_way (an invertible phi, equal jet dimensions) skips the second half."""
    for pos, g in enumerate(gens):
        if not jet_membership(g, left, k):
            return False, ("pullback", pos)
    if one_way:
        return True, None
    pulled_ideal = IdealPresentation(left.dimension, gens)
    for pos, g in enumerate(left.generators):
        if not jet_membership(g, pulled_ideal, k):
            return False, ("inverse", pos)
    return True, None


def _match(
    phi: FormalMap,
    left: GermFamily,
    right: GermFamily,
    k: int,
    invertible: bool,
    nominal: Optional[int] = None,
    candidates: Optional[CandidateHook] = None,
) -> EquivalenceReport:
    """Compare two families of one mode, pair by pair with _pair_order_k.

    Family mode pairs members by position.  Set mode searches a partner
    for each of the first ``nominal`` members of each family (every member
    when None) among all members of the other, in the order the candidate
    hook proposes (every index by default), and evaluates each (left,
    right) pair only once.
    Each right member is pulled back at most once, when a pair first
    needs it, so members the hook never proposes cost nothing, and every
    pullback reads one table of phi's monomial images per working truncation.
    When the caller knows phi invertible, each member's jet dimension is
    read once too, and a pair whose dimensions agree runs only its pullback half.
    """
    images: dict = {}
    pulled: dict[int, tuple] = {}
    left_dims: dict[int, Optional[int]] = {}
    right_dims: dict[int, Optional[int]] = {}

    def pair(i: int, ileft: IdealPresentation, j: int, iright: IdealPresentation) -> tuple:
        if j not in pulled:
            pulled[j] = _pulled(iright, phi, images)
        one_way = False
        if invertible:
            if i not in left_dims:
                left_dims[i] = _jet_dimension(ileft, k)
            if j not in right_dims:
                right_dims[j] = _jet_dimension(iright, k)
            one_way = left_dims[i] is not None and left_dims[i] == right_dims[j]
        return _pair_order_k(ileft, pulled[j], k, one_way)

    if left.mode == "family":
        if left.labels != right.labels:
            raise ValueError("family mode requires identical label sequences")
        verdicts = []
        for i, (label, ileft, iright) in enumerate(zip(left.labels, left.ideals, right.ideals)):
            good, failure = pair(i, ileft, i, iright)
            verdicts.append(IndexVerdict(label=label, ok=good, failure=failure))
        return EquivalenceReport(
            ok=all(v.ok for v in verdicts),
            order=k,
            mode="family",
            per_index=tuple(verdicts),
        )

    memo: dict[tuple[int, int], bool] = {}

    def hit(i: int, j: int) -> bool:
        key = (i, j)
        known = memo.get(key)
        if known is None:
            known = memo[key] = pair(i, left.ideals[i], j, right.ideals[j])[0]
        return known

    def search(side: str, index: int) -> MatchVerdict:
        fam, pool = (left, right) if side == "left" else (right, left)
        order = candidates(side, index) if candidates is not None else None
        if order is None:
            order = range(len(pool))
        tried = 0
        for j in order:
            tried += 1
            if hit(index, j) if side == "left" else hit(j, index):
                return MatchVerdict(
                    label=fam.labels[index], partner=pool.labels[j], tried=tried
                )
        return MatchVerdict(label=fam.labels[index], partner=None, tried=tried)

    left_matches = tuple(search("left", i) for i in range(nominal or len(left)))
    right_matches = tuple(search("right", j) for j in range(nominal or len(right)))
    return EquivalenceReport(
        ok=all(m.partner is not None for m in left_matches + right_matches),
        order=k,
        mode="set",
        left_matching=left_matches,
        right_matching=right_matches,
    )


def is_order_k_equivalence(
    phi: FormalMap,
    left: GermFamily,
    right: GermFamily,
    k: int,
    *,
    nominal: Optional[int] = None,
    candidates: Optional[CandidateHook] = None,
) -> EquivalenceReport:
    """Order-k equivalence verdict between two families of ideals.

    Family mode matches members by position (labels must agree).  Set mode
    asks a partner, among all members of the other family, for each of the
    first ``nominal`` members of each family (every member when None);
    ``nominal`` is read in set mode only.  ``candidates(side, index)``
    ("left" or "right") may return the indices of the other family to try,
    in order, or None for all.  Pruning can only lose matches: a positive
    verdict holds whatever it proposes, a negative one only if it proposed
    every possible partner, so a pruning caller cross-checks its negatives
    (as verify_finite_order_equivalence does).  Verdicts compare the
    presented ideals, not the set germs: (w^2) and (w) are not order-2 close.
    """
    if k < 1:
        raise ValueError("equivalence order must be at least 1")
    precision = f"order-{k} check needs generator truncations >= {k}, have {{bound}}"
    _check_shapes(phi, left, right, k, precision)
    mode = _common_mode(left, right)
    phi.linear_inverse()  # refuses a singular Phi, so _match may take it as invertible
    most = min(len(left), len(right))
    if mode == "set" and nominal is not None and not 1 <= nominal <= most:
        raise ValueError(f"nominal must be in 1..{most}, got {nominal}")
    return _match(phi, left, right, k, True, nominal, candidates)


def jet_coset_membership(
    lam: FormalMap, left: GermFamily, right: GermFamily
) -> EquivalenceReport:
    """Whether the degree-k jet of lam carries the right jet ideals onto
    the left ones, for k = lam.truncation; the report's order is k.

    Two ideals have equal degree-k jets exactly when each lies in the
    other + m^(k+1), so this is the order-(k+1) pair check, witnesses
    included.  Unlike is_order_k_equivalence it takes a singular lam and
    needs the generators known only to degree k.
    """
    k = lam.truncation
    _check_shapes(
        lam, left, right, k, f"jet comparison at degree {k} needs truncations >= {k}"
    )
    _common_mode(left, right)
    return replace(_match(lam, left, right, k + 1, lam.is_invertible), order=k)


def equivalence_horizon(
    left: GermFamily, right: GermFamily, phi: FormalMap, bound: int
) -> HorizonReport:
    """Scan orders k = 1..bound and report each verdict individually.

    Verdicts fall with k and never rise again, in either mode: I + m^(k+1)
    lies in I + m^k, so a pair that passes at order k + 1 passes at order
    k.  Set-mode partners may differ from one order to the next, but a
    member with no partner at order k has none at any higher order.
    Every order is still evaluated on its own.
    """
    if bound < 1:
        raise ValueError("horizon bound must be at least 1")
    per_order = []
    first_failure = None
    for k in range(1, bound + 1):
        report = is_order_k_equivalence(phi, left, right, k)
        per_order.append((k, report.ok))
        if not report.ok and first_failure is None:
            first_failure = k
    return HorizonReport(
        bound=bound, per_order=tuple(per_order), first_failure=first_failure
    )
