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
set-mode equivalence checker.  An arithmetic candidate proposal narrows
the partner search (the linear coefficients force the only possible
partners), and because the proposal could in principle be wrong in the
pruning direction, excluded candidates are sampled and re-checked with
the general pairwise verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .equivalence import GermFamily, is_order_k_equivalence, pair_order_k
from .errors import CrossCheckError, PrecisionError
from .ideals import IdealPresentation
from .series import FormalMap, FormalSeries, realify, realify_map


class ShiftSequence:
    """The integers c_1..c_M together with their progressions S_m."""

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[int]):
        vals = tuple(int(v) for v in values)
        if not vals:
            raise ValueError("a shift sequence needs at least one level")
        object.__setattr__(self, "_values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("ShiftSequence is immutable")

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
    classification: str  # "matched" | "unmatched"


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
    which pins the partner level to m while the power term is visible and
    to any level >= order - 1 once it is not.
    """
    target_tag = "psi" if source_tag == "phi" else "phi"
    a_image = tangent_coefficient(source_tag, m, n, seq) + shift
    out: list[tuple[int, int]] = []

    def solve(level: int) -> Optional[int]:
        base = seq.c(level) if target_tag == "psi" else 0
        num = a_image - base
        modulus = 1 << level
        if num % modulus == 0:
            return num // modulus
        return None

    if m + 1 <= order - 1:
        idx = solve(m)
        if idx is not None:
            out.append((m, idx))
    else:
        for level in range(max(1, order - 1), m_max + 1):
            idx = solve(level)
            if idx is not None:
                out.append((level, idx))
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
    windows = {
        "phi": {m: n_max for m in range(1, m_max + 1)},
        "psi": {m: n_max for m in range(1, m_max + 1)},
    }

    def targets(m: int) -> range:
        if m + 1 <= order - 1:
            return range(m, m + 1)
        return range(max(1, order - 1), m_max + 1)

    for m in range(1, m_max + 1):
        for level in targets(m):
            spread = 1 << m
            # forward: phi source, image tangent 2^m n + shift, psi target
            offset = abs(shift - seq.c(level))
            bound = -((-(spread * n_max + offset)) // (1 << level))
            windows["psi"][level] = max(windows["psi"][level], bound)
            # reverse: psi source through the inverse shear, phi target
            offset = abs(seq.c(m) - shift)
            bound = -((-(spread * n_max + offset)) // (1 << level))
            windows["phi"][level] = max(windows["phi"][level], bound)
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

    sides: dict[str, dict] = {}
    for side, tag in (("left", "phi"), ("right", "psi")):
        nominal = curve_specs(tag, m_max, n_max, truncation, seq)
        extras = [
            curve(tag, m, n, truncation, seq)
            for m in range(1, m_max + 1)
            for n in range(-windows[tag][m], windows[tag][m] + 1)
            if abs(n) > n_max
        ]
        pool = nominal + extras
        index_of = {(s.level, s.index): i for i, s in enumerate(pool)}
        sides[side] = {"nominal": nominal, "pool": pool, "index_of": index_of}

    def family_of(specs: list[CurveSpec]) -> GermFamily:
        return GermFamily.of(
            "set", [(s.label, curve_ideal(s, realified)) for s in specs]
        )

    left = family_of(sides["left"]["nominal"])
    right = family_of(sides["right"]["nominal"])
    left_pool = family_of(sides["left"]["pool"])
    right_pool = family_of(sides["right"]["pool"])

    proposals: dict[tuple[str, int], list[tuple[int, int]]] = {}

    def candidate_hook(side: str, index: int):
        # "left" searches the psi pool with the forward shear, "right"
        # searches the phi pool with the inverse shear.
        spec = sides[side]["nominal"][index]
        shift = shift_value if spec.tag == "phi" else -shift_value
        partners = _propose_partners(
            spec.tag, spec.level, spec.index, shift, order, m_max, seq
        )
        proposals[(side, index)] = partners
        target = sides["right" if side == "left" else "left"]["index_of"]
        return [target[p] for p in partners if p in target]

    report = is_order_k_equivalence(
        phi,
        left,
        right,
        order,
        left_pool=left_pool,
        right_pool=right_pool,
        candidates=candidate_hook,
    )

    phi_inv = phi.inverse()

    def summarize(side: str, matches) -> tuple[CurveMatch, ...]:
        out = []
        pool = sides["right" if side == "left" else "left"]["pool"]
        label_of = {s.label: s for s in pool}
        for index, match in enumerate(matches):
            spec = sides[side]["nominal"][index]
            partner = None
            if match.partner is not None:
                found = label_of[match.partner]
                partner = (found.tag, found.level, found.index)
            out.append(
                CurveMatch(
                    tag=spec.tag,
                    level=spec.level,
                    index=spec.index,
                    partner=partner,
                    classification="matched" if partner else "unmatched",
                )
            )
        return tuple(out)

    left_summary = summarize("left", report.left_matching)
    right_summary = summarize("right", report.right_matching)

    # Cross-check the pruning direction of the proposal arithmetic: curves
    # left unmatched must also fail the general pairwise verdict against
    # candidates the proposal never suggested.
    cross_checked = 0
    for side, summary in (("left", left_summary), ("right", right_summary)):
        target_side = "right" if side == "left" else "left"
        target_pool = sides[target_side]["pool"]
        target_family = right_pool if side == "left" else left_pool
        failures = [
            i for i, m in enumerate(summary) if m.partner is None
        ][:cross_check_samples]
        for i in failures:
            spec = sides[side]["nominal"][i]
            proposed = {
                sides[target_side]["index_of"][p]
                for p in proposals.get((side, i), [])
                if p in sides[target_side]["index_of"]
            }
            sample_positions = {0, len(target_pool) // 2, len(target_pool) - 1}
            for j in sorted(sample_positions - proposed):
                if side == "left":
                    hit = pair_order_k(
                        phi,
                        left.ideals[i],
                        target_family.ideals[j],
                        order,
                        phi_inv=phi_inv,
                    )
                else:
                    hit = pair_order_k(
                        phi,
                        target_family.ideals[j],
                        right.ideals[i],
                        order,
                        phi_inv=phi_inv,
                    )
                cross_checked += 1
                if hit:
                    raise CrossCheckError(
                        "candidate proposal missed a genuine partner; "
                        f"{spec.label} matches pool position {j}"
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
