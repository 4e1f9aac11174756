"""Two families of plane curve germs equivalent to every finite order.

The construction walks a nested chain of arithmetic progressions.  Start
with c_1 = 1 and S_m = 2^m Z + c_m; level m has a maximum negative
element a_m and a minimum positive element b_m with b_m - a_m = 2^m, and
c_{m+1} is whichever of the two is larger in absolute value (b_m on
ties).  The progressions are nested, their small elements grow like
2^(m-2), and no integer stays in all of them.

On top of the sequence sit two curve sets in the (z, w) plane:

    phi curves   w = 2^m n z + z^(m+1)
    psi curves   w = (2^m n + c_m) z + z^(m+1)

The linear shear (z, w) -> (z, w + c z) matches the two sets to finite
order when c is drawn from a deep enough level, while the empty
intersection of the S_m rules out a single map working at every order:
any formal equivalence would pin an integer tangent datum lying in all
S_m at once.

How deep is deep enough.  Modulo m^K the curve w = a z + z^(m+1) is
fixed by a alone once m + 1 >= K, and by both a and m when m + 1 < K.
Take the shear by c_j and the order K = k + 2:

- a curve of level m <= k keeps its level, and needs a partner at
  level m, that is c_j = c_m mod 2^m; the progressions are nested, so
  this holds for every j >= m;
- a curve of level m > k is fixed by its tangent alone, and its partners
  are the curves of every level >= k + 1, whose tangents all lie in
  2^(k+1) Z + c_(k+1) on the psi side and in 2^(k+1) Z on the phi side;
  a partner exists iff c_j = c_(k+1) mod 2^(k+1).

So the shear by c_(k+1) gives order k + 2 on the whole construction.  The
shear by c_k gives order k + 1 (the same argument one order lower), and
order k + 2 only when no curve level exceeds k: c_(k+1) - c_k is +-2^k
for every k >= 2 (c = 1, 1, -3, 5, -11, 21, ...), so each curve of level
> k on either side is left without a partner.  k = 1 is the exception:
the tie rule gives c_2 = c_1 = 1, and the shear by c_1 is the shear by
c_2.

verify_finite_order_equivalence runs the matching through the general
set-mode equivalence checker, phi curves on the left and psi curves on
the right.  Each side's pool is its nominal window followed by every
index a partner of a nominal curve can need, and the nominal family is a
prefix of the pool over the same ideals.  An arithmetic candidate
proposal narrows the partner search (the linear coefficients force the
only possible partners), and because the proposal could in principle be
wrong in the pruning direction, excluded pool positions {0, len // 2,
len - 1} are re-checked with the general pairwise verdict for the first
few unmatched curves of each side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .equivalence import GermFamily, is_order_k_equivalence, pair_order_k
from .errors import CrossCheckError, PrecisionError, _Frozen
from .ideals import IdealPresentation
from .series import FormalMap, FormalSeries, realify, realify_map


class ShiftSequence(_Frozen):
    """The integers c_1..c_M together with their progressions S_m."""

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[int]):
        vals = tuple(int(v) for v in values)
        if not vals:
            raise ValueError("a shift sequence needs at least one level")
        object.__setattr__(self, "_values", vals)

    @property
    def levels(self) -> int:
        return len(self._values)

    @property
    def values(self) -> tuple[int, ...]:
        return self._values

    def c(self, m: int) -> int:
        if not 1 <= m <= self.levels:
            raise ValueError(f"level {m} outside 1..{self.levels}")
        return self._values[m - 1]

    def contains(self, t: int, m: int) -> bool:
        """Whether t lies in S_m = 2^m Z + c_m."""
        return (t - self.c(m)) % (1 << m) == 0

    def min_positive(self, m: int) -> int:
        """b_m, the smallest positive element of S_m."""
        r = self.c(m) % (1 << m)
        return r if r else 1 << m

    def max_negative(self, m: int) -> int:
        """a_m, the largest negative element of S_m."""
        return self.min_positive(m) - (1 << m)

    def __repr__(self):
        return f"ShiftSequence({list(self._values)!r})"


def build_shift_sequence(levels: int) -> ShiftSequence:
    """Levels c_1..c_levels of the nested progression construction."""
    if levels < 1:
        raise ValueError("need at least one level")
    values = [1]
    for m in range(1, levels):
        modulus = 1 << m
        b = values[-1] % modulus
        if b == 0:
            b = modulus
        a = b - modulus
        values.append(a if abs(a) > b else b)
    return ShiftSequence(values)


def membership_horizon(t: int, seq: ShiftSequence) -> Optional[int]:
    """Least level m with t outside S_m; None if t sits in every computed
    level."""
    for m in range(1, seq.levels + 1):
        if not seq.contains(t, m):
            return m
    return None


def membership_horizons(
    lo: int, hi: int, seq: ShiftSequence
) -> list[tuple[int, Optional[int]]]:
    """(t, membership_horizon(t, seq)) for every integer t in lo..hi."""
    return [(t, membership_horizon(t, seq)) for t in range(lo, hi + 1)]


@dataclass(frozen=True)
class CurveSpec:
    tag: str  # "phi" or "psi"
    level: int
    index: int
    series: FormalSeries  # the defining function w - (tangent z + z^(level+1))

    @property
    def label(self) -> str:
        return f"{self.tag}({self.level},{self.index})"


def tangent_coefficient(tag: str, m: int, n: int, seq: ShiftSequence) -> int:
    if tag == "phi":
        return (1 << m) * n
    if tag == "psi":
        return (1 << m) * n + seq.c(m)
    raise ValueError(f"curve tag must be 'phi' or 'psi', got {tag!r}")


def curve(tag: str, m: int, n: int, truncation: int, seq: ShiftSequence) -> CurveSpec:
    """The defining function w - a z - z^(m+1) presented at the given
    truncation; the power term drops out when m + 1 exceeds it, which is
    exactly the information an order <= truncation + 1 comparison needs."""
    if m < 1:
        raise ValueError("curve level must be at least 1")
    a = tangent_coefficient(tag, m, n, seq)
    terms = {(0, 1): 1, (1, 0): -a, (m + 1, 0): -1}
    return CurveSpec(tag=tag, level=m, index=n, series=FormalSeries(2, truncation, terms))


def curve_ideal(spec: CurveSpec, realified: bool = False) -> IdealPresentation:
    if not realified:
        return IdealPresentation(2, [spec.series])
    re, im = realify(spec.series)
    return IdealPresentation(4, [re, im])


def shift_map(c: int, truncation: int, realified: bool = False) -> FormalMap:
    """(z, w) -> (z, w + c z)."""
    z = FormalSeries.variable(2, truncation, 0)
    w = FormalSeries.variable(2, truncation, 1)
    phi = FormalMap([z, w + c * z])
    return realify_map(phi) if realified else phi


def curve_specs(
    tag: str, m_max: int, n_bound: int, truncation: int, seq: ShiftSequence
) -> list[CurveSpec]:
    return [
        curve(tag, m, n, truncation, seq)
        for m in range(1, m_max + 1)
        for n in range(-n_bound, n_bound + 1)
    ]


@dataclass(frozen=True)
class CurveMatch:
    tag: str
    level: int
    index: int
    partner: Optional[tuple[str, int, int]]

    @property
    def classification(self) -> str:
        return "unmatched" if self.partner is None else "matched"


@dataclass(frozen=True)
class CurveSetReport:
    ok: bool
    order: int
    shift_level: int
    shift_value: int
    m_max: int
    n_max: int
    pool_windows: tuple[tuple[int, int], ...]  # (level, index bound) per level
    truncation: int
    left: tuple[CurveMatch, ...]
    right: tuple[CurveMatch, ...]
    cross_checked: int

    def __bool__(self):
        return self.ok

    @property
    def unmatched(self) -> list[CurveMatch]:
        return [m for m in self.left + self.right if m.partner is None]


def _partner_levels(m: int, order: int, m_max: int) -> range:
    """Levels whose curves can match a level-m curve modulo m^order: level
    m itself while the power term z^(m+1) is visible, and every level
    >= order - 1 once it is not."""
    if m + 1 <= order - 1:
        return range(m, m + 1)
    return range(max(1, order - 1), m_max + 1)


def _propose_partners(
    source_tag: str,
    m: int,
    n: int,
    shift: int,
    order: int,
    m_max: int,
    seq: ShiftSequence,
) -> list[tuple[int, int]]:
    """All (level, index) pairs whose curve could match the image of the
    given curve under the shear, by comparing tangent coefficients.

    The image of a curve w = a z + z^(m+1) is w = (a + shift) z + z^(m+1)
    when mapping phi curves forward (shift = +c) or psi curves backward
    (shift = -c).  A partner must reproduce that function modulo z^order,
    so its level is one of _partner_levels and its tangent equals the
    image's.
    """
    a_image = tangent_coefficient(source_tag, m, n, seq) + shift
    out: list[tuple[int, int]] = []
    for level in _partner_levels(m, order, m_max):
        num = a_image - (seq.c(level) if source_tag == "phi" else 0)
        if num % (1 << level) == 0:
            out.append((level, num // (1 << level)))
    return out


def _pool_windows(
    shift: int, order: int, m_max: int, n_max: int, seq: ShiftSequence
) -> dict[str, dict[int, int]]:
    """Per-level index bounds making the pools complete for the nominal
    window: every arithmetically possible partner of a nominal curve is
    inside the pool, so a failed search is a theorem about the infinite
    sets, not an artifact of the cut-off.

    A partner index is an affine image (2^m n + offset) / 2^level of the
    source index, so its magnitude over the nominal window is bounded by
    (2^m n_max + |offset|) / 2^level; the dominant case is a high level
    retargeting down to level order-1, where the bound grows like
    2^(m - order + 1) n_max."""
    windows = {tag: dict.fromkeys(range(1, m_max + 1), n_max) for tag in ("phi", "psi")}
    for m in range(1, m_max + 1):
        for level in _partner_levels(m, order, m_max):
            # a phi source maps forward onto psi, a psi source back onto phi
            for target, offset in (("psi", shift - seq.c(level)), ("phi", seq.c(m) - shift)):
                bound = -(-((1 << m) * n_max + abs(offset)) // (1 << level))
                windows[target][level] = max(windows[target][level], bound)
    return windows


def verify_finite_order_equivalence(
    k: int,
    m_max: int,
    n_max: int,
    truncation: Optional[int] = None,
    *,
    order: Optional[int] = None,
    shift_level: Optional[int] = None,
    seq: Optional[ShiftSequence] = None,
    realified: bool = False,
    cross_check_samples: int = 3,
) -> CurveSetReport:
    """Match the two curve sets through the general set-mode checker.

    Defaults follow the construction: the shear uses c_k and the claimed
    order is k + 2.  Both can be overridden.  What holds (see the module
    docstring for the derivation):

    - the level-k shear gives order k + 1 for every m_max;
    - the level-k shear gives order k + 2 when m_max == k, or when k == 1,
      since the tie rule makes c_2 = c_1;
    - otherwise the level-k shear at order k + 2 leaves exactly the phi
      and psi curves of level > k unmatched, because c_(k+1) - c_k = +-2^k;
    - shift_level=k + 1 gives order k + 2 for every m_max.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if m_max < k:
        raise ValueError("m_max must be at least k")
    order = k + 2 if order is None else order
    shift_level = k if shift_level is None else shift_level
    truncation = k + 3 if truncation is None else truncation
    if truncation < order:
        raise PrecisionError(
            f"truncation {truncation} cannot certify order {order}"
        )
    levels_needed = max(m_max, shift_level)
    if seq is None:
        seq = build_shift_sequence(levels_needed)
    elif seq.levels < levels_needed:
        raise ValueError(f"shift sequence too short, need {levels_needed} levels")

    shift_value = seq.c(shift_level)
    windows = _pool_windows(shift_value, order, m_max, n_max, seq)
    phi = shift_map(shift_value, truncation, realified=realified)
    nominal = m_max * (2 * n_max + 1)
    other = {"phi": "psi", "psi": "phi"}

    specs, pools, index_of = {}, {}, {}
    for tag in ("phi", "psi"):
        specs[tag] = curve_specs(tag, m_max, n_max, truncation, seq) + [
            curve(tag, m, n, truncation, seq)
            for m in range(1, m_max + 1)
            for n in range(-windows[tag][m], windows[tag][m] + 1)
            if abs(n) > n_max
        ]
        pools[tag] = GermFamily.of(
            "set", [(s.label, curve_ideal(s, realified)) for s in specs[tag]]
        )
        index_of[tag] = {(s.level, s.index): i for i, s in enumerate(specs[tag])}
    left, right = (
        GermFamily.of("set", zip(pools[tag].labels[:nominal], pools[tag].ideals[:nominal]))
        for tag in ("phi", "psi")
    )

    def proposed(tag: str, index: int) -> list[int]:
        # phi curves go forward through the shear, psi curves backward
        spec = specs[tag][index]
        shift = shift_value if tag == "phi" else -shift_value
        partners = _propose_partners(tag, spec.level, spec.index, shift, order, m_max, seq)
        target = index_of[other[tag]]
        return [target[p] for p in partners if p in target]

    report = is_order_k_equivalence(
        phi,
        left,
        right,
        order,
        left_pool=pools["phi"],
        right_pool=pools["psi"],
        candidates=lambda side, index: proposed("phi" if side == "left" else "psi", index),
    )

    def summarize(tag: str, matches) -> tuple[CurveMatch, ...]:
        spec_of = {s.label: s for s in specs[other[tag]]}
        out = []
        for spec, match in zip(specs[tag], matches):
            found = spec_of.get(match.partner)
            partner = None if found is None else (found.tag, found.level, found.index)
            out.append(CurveMatch(spec.tag, spec.level, spec.index, partner))
        return tuple(out)

    left_summary = summarize("phi", report.left_matching)
    right_summary = summarize("psi", report.right_matching)

    # Cross-check the pruning direction of the proposal arithmetic: curves
    # left unmatched must also fail the general pairwise verdict against
    # candidates the proposal never suggested.
    cross_checked = 0
    for tag, summary in (("phi", left_summary), ("psi", right_summary)):
        source, target = pools[tag], pools[other[tag]]
        failures = [i for i, m in enumerate(summary) if m.partner is None]
        for i in failures[:cross_check_samples]:
            samples = {0, len(target) // 2, len(target) - 1} - set(proposed(tag, i))
            for j in sorted(samples):
                pair = (source.ideals[i], target.ideals[j])
                left_ideal, right_ideal = pair if tag == "phi" else pair[::-1]
                cross_checked += 1
                if pair_order_k(phi, left_ideal, right_ideal, order):
                    raise CrossCheckError(
                        "candidate proposal missed a genuine partner; "
                        f"{specs[tag][i].label} matches pool position {j}"
                    )

    pool_windows = tuple(
        (m, max(windows["phi"][m], windows["psi"][m]))
        for m in range(1, m_max + 1)
    )
    return CurveSetReport(
        ok=report.ok,
        order=order,
        shift_level=shift_level,
        shift_value=shift_value,
        m_max=m_max,
        n_max=n_max,
        pool_windows=pool_windows,
        truncation=truncation,
        left=left_summary,
        right=right_summary,
        cross_checked=cross_checked,
    )


@dataclass(frozen=True)
class ObstructionReport:
    ok: bool
    m_max: int
    window: int
    zero_excluded: bool
    all_horizons_finite: bool
    max_horizon: Optional[int]

    def __bool__(self):
        return self.ok


def verify_tangent_obstruction(
    m_max: int, seq: Optional[ShiftSequence] = None, *, window: int = 1000
) -> ObstructionReport:
    """Check the arithmetic facts behind the non-equivalence argument: no
    integer within the window survives every level (so no tangent datum
    can be preserved by a single formal map), and 0 is in no level at
    all."""
    if seq is None:
        seq = build_shift_sequence(m_max)
    if seq.levels < m_max:
        raise ValueError(f"shift sequence too short, need {m_max} levels")
    zero_excluded = all(not seq.contains(0, m) for m in range(1, m_max + 1))
    horizons = membership_horizons(-window, window, seq)
    finite = [h for _, h in horizons if h is not None]
    all_finite = len(finite) == len(horizons)
    max_horizon = max(finite, default=None)
    ok = zero_excluded and all_finite
    return ObstructionReport(
        ok=ok,
        m_max=m_max,
        window=window,
        zero_excluded=zero_excluded,
        all_horizons_finite=all_finite,
        max_horizon=max_horizon,
    )
