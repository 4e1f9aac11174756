"""Two families of plane curve germs equivalent to every finite order.

The construction walks a nested chain of arithmetic progressions.  Start
with c_1 = 1 and S_m = 2^m Z + c_m; level m has a maximum negative
element a_m and a minimum positive element b_m with b_m - a_m = 2^m, and
c_{m+1} is whichever of the two is larger in absolute value (b_m on
ties).  In closed form c_m = ((-2)^m - 1)/3 for m >= 2, so 3 c_m + 1 is
(-2)^m (and 4 at m = 1), and S_m is exactly {t : 2^m | 3t + 1}.  The
progressions are nested, the smallest |element| of S_m is the Jacobsthal
number (2^m - (-1)^m)/3 >= 2^(m-2), and no integer stays in all of them:
t leaves at level v_2(3t + 1) + 1, since 3t + 1 is never 0.

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
the right.  Each side is one family: its nominal window, whose curves
need a partner, followed by every index a partner of a nominal curve can
need, which serve only as candidates.  curve gives a curve's defining
function as a series and curve_ideal its ideal.  An arithmetic candidate
proposal narrows the partner search (the linear coefficients force the
only possible partners), and because the proposal could in principle be
wrong in the pruning direction, excluded pool positions {0, len // 2,
len - 1} are re-checked with the general pairwise verdict for the first
few unmatched curves of each side.

realified=True gives the complex verdicts at every order: for holomorphic
F and g with no constant term, Re F and Im F lie in (Re g, Im g) + m^K
exactly when F lies in (g) + m^K.  Complexified, (Re g, Im g) becomes
(g(z), conj(g)(conj z)); setting conj z = 0 is a ring map that fixes F and
g, kills conj(g)(conj z) and keeps m^K.  A realified pullback by a
holomorphic map is the Re/Im pair of the complex pullback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .equivalence import GermFamily, _pair_order_k, _pulled, is_order_k_equivalence
from .errors import CrossCheckError, LimitError, PrecisionError, _Frozen
from .ideals import IdealPresentation
from .monomial import check_width, pack
from .series import FormalMap, FormalSeries, realify, realify_map

# The most curves, over both pools, that one verification builds.
MAX_POOL = 1 << 20
_POOL_LIMIT = "the curve pools need {} curves, over the limit of {:,}"
# Unmatched curves per side whose pruned candidates the driver re-checks.
_CROSS_CHECK_SAMPLES = 3
# The obstruction check clears every integer in -window..window.
_OBSTRUCTION_WINDOW = 1000
_W, _Z, _ONE, _MINUS_ONE = pack((0, 1)), pack((1, 0)), Fraction(1), Fraction(-1)


class ShiftSequence(_Frozen):
    """The levels 1..M of the construction, each answered from m alone."""

    __slots__ = ("levels",)

    def __init__(self, levels: int):
        if levels < 1:
            raise ValueError("a shift sequence needs at least one level")
        object.__setattr__(self, "levels", levels)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(map(self.c, range(1, self.levels + 1)))

    def _modulus(self, m: int) -> int:
        if not 1 <= m <= self.levels:
            raise ValueError(f"level {m} outside 1..{self.levels}")
        return 1 << m

    def c(self, m: int) -> int:
        """c_1 = 1 and c_m = ((-2)^m - 1)/3 for m >= 2."""
        modulus = self._modulus(m)
        return 1 if m == 1 else ((-modulus if m & 1 else modulus) - 1) // 3

    def contains(self, t: int, m: int) -> bool:
        """Whether t lies in S_m = 2^m Z + c_m, that is 2^m | 3t + 1."""
        return (3 * t + 1) % self._modulus(m) == 0

    def min_positive(self, m: int) -> int:
        """b_m, the smallest positive element of S_m (c_m is odd)."""
        return self.c(m) % (1 << m)

    def max_negative(self, m: int) -> int:
        """a_m, the largest negative element of S_m."""
        return self.min_positive(m) - (1 << m)

    def __eq__(self, other):
        if isinstance(other, ShiftSequence):
            return self.levels == other.levels
        return NotImplemented

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        return f"ShiftSequence({self.levels})"


def build_shift_sequence(levels: int) -> ShiftSequence:
    """Levels c_1..c_levels of the nested progression construction."""
    return ShiftSequence(levels)


def membership_horizon(t: int, seq: ShiftSequence) -> Optional[int]:
    """Least level m with t outside S_m, v_2(3t + 1) + 1; None if t sits
    in every computed level."""
    x = 3 * t + 1
    horizon = (x & -x).bit_length()
    return horizon if horizon <= seq.levels else None


def _curve_label(tag: str, level: int, index: int) -> str:
    return f"{tag}({level},{index})"


def tangent_coefficient(tag: str, m: int, n: int, seq: ShiftSequence) -> int:
    if tag == "phi":
        return (1 << m) * n
    if tag == "psi":
        return (1 << m) * n + seq.c(m)
    raise ValueError(f"curve tag must be 'phi' or 'psi', got {tag!r}")


def curve(tag: str, m: int, n: int, truncation: int, seq: ShiftSequence) -> FormalSeries:
    """The defining function w - a z - z^(m+1) of the curve (tag, m, n),
    presented at the given truncation; the power term drops out when m + 1
    exceeds it, which is exactly the information an order <= truncation + 1
    comparison needs."""
    if m < 1:
        raise ValueError("curve level must be at least 1")
    a = tangent_coefficient(tag, m, n, seq)
    if truncation < 0:
        raise ValueError("truncation degree must be a natural number")
    check_width("truncation", truncation)
    table = {_W: _ONE} if truncation else {}
    if a and truncation:
        table[_Z] = Fraction(-a)
    if m + 1 <= truncation:
        table[pack((m + 1, 0))] = _MINUS_ONE
    return FormalSeries._from_table(2, truncation, table)


def curve_ideal(series: FormalSeries, realified: bool = False) -> IdealPresentation:
    """The ideal of a curve's defining function; realified, of its real and
    imaginary parts in four real variables."""
    return IdealPresentation(4, realify(series)) if realified else IdealPresentation(2, [series])


def shift_map(c: int, truncation: int, realified: bool = False) -> FormalMap:
    """(z, w) -> (z, w + c z)."""
    z = FormalSeries.variable(2, truncation, 0)
    w = FormalSeries.variable(2, truncation, 1)
    phi = FormalMap([z, w + c * z])
    return realify_map(phi) if realified else phi


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
    so its tangent equals the image's and its level is m while the power
    term shows (m < h = max(1, order - 1)), any level >= h once it does not.
    """
    a_image = tangent_coefficient(source_tag, m, n, seq) + shift
    h = max(1, order - 1)
    out: list[tuple[int, int]] = []
    for level in range(m, m + 1) if m < h else range(h, m_max + 1):
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
    sets, not an artifact of the cut-off.  A partner of curve (m, n) has
    index (2^m n + offset) / 2^level, at most (2^m n_max + |offset|) /
    2^level.  Below h = max(1, order - 1) a level is reached by its own
    curves alone; from h on, by every level m >= h, with offset shift -
    c_level from phi sources and c_m - shift from psi sources."""
    h = max(1, order - 1)
    far = max(
        ((n_max << m) + abs(seq.c(m) - shift) for m in range(h, m_max + 1)), default=0
    )
    windows = {"phi": {}, "psi": {}}
    for level in range(1, m_max + 1):
        gap = abs(shift - seq.c(level))
        if level < h:
            windows["phi"][level] = windows["psi"][level] = n_max - (-gap >> level)
        else:
            windows["psi"][level] = -(-((n_max << m_max) + gap) >> level)
            windows["phi"][level] = -(-far >> level)
    return windows


def verify_finite_order_equivalence(
    k: int,
    m_max: int,
    n_max: int,
    truncation: Optional[int] = None,
    *,
    order: Optional[int] = None,
    shift_level: Optional[int] = None,
    realified: bool = False,
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
    if n_max < 0:
        raise ValueError("n_max must be at least 0")
    order = k + 2 if order is None else order
    shift_level = k if shift_level is None else shift_level
    truncation = k + 3 if truncation is None else truncation
    if order < 1:
        raise ValueError("equivalence order must be at least 1")
    if shift_level < 1:
        raise ValueError("shift_level must be at least 1")
    if truncation < order:
        raise PrecisionError(
            f"truncation {truncation} cannot certify order {order}"
        )
    check_width("truncation", truncation)
    # Bounds that need no window pass, with h = max(1, order - 1): the phi
    # window at level h is at least 2^(m_max - h - 2), as c_m_max - c_(m_max-1)
    # = +-2^(m_max - 1); the psi window at level 1 at least 2^(shift_level - 4);
    # every window at least n_max.  Past 2^64 they refuse at once, and below
    # it the exact count is short enough to print.
    low = max(m_max - max(1, order - 1) - 1, shift_level - 3, n_max.bit_length() + 1)
    if low >= 64:
        raise LimitError(_POOL_LIMIT.format(f"at least 2^{low:,}", MAX_POOL))
    seq = build_shift_sequence(max(m_max, shift_level))
    shift_value = seq.c(shift_level)
    windows = _pool_windows(shift_value, order, m_max, n_max, seq)
    positions = sum(2 * bound + 1 for tag in windows.values() for bound in tag.values())
    if positions > MAX_POOL:
        raise LimitError(_POOL_LIMIT.format(f"{positions:,}", MAX_POOL))
    phi = shift_map(shift_value, truncation, realified=realified)
    other = {"phi": "psi", "psi": "phi"}

    keys, pools, index_of = {}, {}, {}
    levels = range(1, m_max + 1)
    for tag in ("phi", "psi"):
        # the pool as (level, index) keys: the nominal window, then the rest
        window = windows[tag]
        keys[tag] = [(m, n) for m in levels for n in range(-n_max, n_max + 1)] + [
            (m, n) for m in levels for n in range(-window[m], window[m] + 1) if abs(n) > n_max
        ]
        pools[tag] = GermFamily(
            tuple(_curve_label(tag, m, n) for m, n in keys[tag]),
            tuple(curve_ideal(curve(tag, m, n, truncation, seq), realified) for m, n in keys[tag]),
            "set",
        )
        index_of[tag] = {key: i for i, key in enumerate(keys[tag])}

    def proposed(tag: str, index: int) -> list[int]:
        # phi curves go forward through the shear, psi curves backward
        m, n = keys[tag][index]
        shift = shift_value if tag == "phi" else -shift_value
        partners = _propose_partners(tag, m, n, shift, order, m_max, seq)
        target = index_of[other[tag]]
        return [target[p] for p in partners if p in target]

    report = is_order_k_equivalence(
        phi,
        pools["phi"],
        pools["psi"],
        order,
        nominal=m_max * (2 * n_max + 1),
        candidates=lambda side, index: proposed("phi" if side == "left" else "psi", index),
    )

    def summarize(tag: str, matches) -> tuple[CurveMatch, ...]:
        twin = other[tag]
        key = {label: (twin, *k) for label, k in zip(pools[twin].labels, keys[twin])}
        return tuple(
            CurveMatch(tag, m, n, key.get(match.partner))
            for (m, n), match in zip(keys[tag], matches)
        )

    left_summary = summarize("phi", report.left_matching)
    right_summary = summarize("psi", report.right_matching)

    # Cross-check the pruning direction of the proposal arithmetic: curves
    # left unmatched must also fail the general pairwise verdict against
    # candidates the proposal never suggested.
    cross_checked, powers = 0, {}
    for tag, summary in (("phi", left_summary), ("psi", right_summary)):
        source, target = pools[tag], pools[other[tag]]
        failures = [i for i, m in enumerate(summary) if m.partner is None]
        for i in failures[:_CROSS_CHECK_SAMPLES]:
            samples = {0, len(target) // 2, len(target) - 1} - set(proposed(tag, i))
            for j in sorted(samples):
                pair = (source.ideals[i], target.ideals[j])
                left_ideal, right_ideal = pair if tag == "phi" else pair[::-1]
                cross_checked += 1
                if _pair_order_k(left_ideal, _pulled(right_ideal, phi, powers), order)[0]:
                    raise CrossCheckError(
                        "candidate proposal missed a genuine partner; "
                        f"{source.labels[i]} matches pool position {j}"
                    )

    return CurveSetReport(
        ok=report.ok,
        order=order,
        shift_level=shift_level,
        shift_value=shift_value,
        m_max=m_max,
        n_max=n_max,
        pool_windows=tuple(
            (m, max(windows["phi"][m], windows["psi"][m])) for m in range(1, m_max + 1)
        ),
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


def verify_tangent_obstruction(m_max: int) -> ObstructionReport:
    """Check the arithmetic behind the non-equivalence argument: through
    m_max the closed form obeys the endpoint rule, so 3 c_m + 1 = (-2)^m and
    no integer is in every S_m (no formal map preserves a tangent datum); no
    |t| <= _OBSTRUCTION_WINDOW survives m_max levels; 0 is in no level."""
    seq = build_shift_sequence(m_max)
    # c_(m+1) is the endpoint of S_m larger in absolute value, b_m on ties
    rule = all(
        seq.c(m + 1) == max(seq.min_positive(m), seq.max_negative(m), key=abs)
        for m in range(1, m_max)
    )
    window = range(-_OBSTRUCTION_WINDOW, _OBSTRUCTION_WINDOW + 1)
    horizons = [membership_horizon(t, seq) for t in window]
    all_finite = None not in horizons
    zero_excluded = not seq.contains(0, 1)
    return ObstructionReport(
        ok=rule and zero_excluded and all_finite,
        m_max=m_max,
        window=_OBSTRUCTION_WINDOW,
        zero_excluded=zero_excluded,
        all_horizons_finite=all_finite,
        max_horizon=max(filter(None, horizons), default=None),
    )
