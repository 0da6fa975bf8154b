"""Exact generalized sumsets over Z and Z/pZ.

For a set A = {a_1 < ... < a_k} and integers h >= 1, r >= 1 with
h <= r*k, the generalized sumset is

    h^(r)A = { r_1 a_1 + ... + r_k a_k : 0 <= r_i <= r, sum r_i = h },

i.e. all sums of h elements of A where no element is used more than r
times.  Two classical cases fall out: r = h gives the h-fold sumset hA
(unbounded repetition never exceeds h anyway), and r = 1 gives the
restricted sumset h^A of sums of h distinct elements.

Everything here is exact integer arithmetic.  Sumsets are computed by a
dynamic program over big-int bit vectors: dp[t] is the bitmask of sums
achievable using the elements scanned so far with total multiplicity
exactly t.  Scanning the element a gives

    dp'[t] = OR over c in 0..min(r, t) of  dp[t - c] << (c * a')

where a' = a - min(A), so shifts stay non-negative.  Modulo a prime p
the shifts are c * a mod p on p-bit masks, and each mask is folded once,
(mask & (2^p - 1)) | (mask >> p), which is exact because every shift is
below p; folding commutes with OR, so this equals OR-ing rotations.

The DP runs in one of two layouts.  Per t, ``_mask_at`` computes one
dp'[t] with min(r, t) + 1 shifts, and ``_extend`` runs it at every t of
a window; each mask is only as wide as the sums it holds.  Packed, the
masks are one integer, a row, with the mask at t in the slot of
``stride`` bits from bit t * stride on, and an element is scanned as the
OR of row << c * (stride + a') over c = 0..r: a shift by c slots moves
dp[t - c] to t.  The c are built in O(log r) doublings, the shifts
{0..n-1} OR-ed with themselves shifted by d to give {0..n-1+d},
d = min(n, r + 1 - n), so a step runs a few big-int operations and no
loop over t.  ``_shifts`` gives an element's doubling shifts, and
``_step``, the one packed step body, applies them to a row.  Over Z a
slot must hold the mask at the largest t read, t * span + 1 bits.
Modulo p a slot holds p bits and room for shifts below p, stride = 2p,
and each doubling folds every slot once, (row | row >> p) & keep, with
``keep`` (``_keep``) the low p bits of each slot.  A row keeps the
slots up to its height and drops the rest, and the cap r is cut to the
height, since no larger c reaches a kept slot.  Every slot is as wide as
the widest, so a packed row holds up to twice the bits of the per-t
masks over Z, more when the sums are sparse, and twice the p-bit masks
mod p; in exchange its interpreter cost does not grow with r * h.

One function, ``_packed``, decides the packed row format: from the slot
width, ``_stride``, it gives the step, each element's shifts, and the
offsets at which a row holds its masks at t = h - min(r, h)..h, the only
ones that a last element a carries to t = h, each shifted by c * a.
:func:`_profile` steps its rows, and the scans (``scan.py``) walk their
candidates depth-first on them: they run packed at every point, price
nothing, and refuse a row above the mask guard.  The one cost rule,
``_packs``, picks the layout of an engine call at h alone from numbers
known before any DP.  Counted in per-t shifts, a per-t mask costs one
more, and a packed doubling costs two plus one per 2**12 bits of row it
passes over; a row must also be within the mask guard.  Small rows, the
exhaustive grids' traffic, run packed; wide rows, from a large span, a
far element or a large p, run per t.  ``_read`` lists a mask's values in
one pass over its binary string, and ``_add_part`` adds a set, given by
its shifts, to a mask.

One packed DP at height H holds h^(r)A at every h <= H, one slot each:
:func:`profile` runs it, and a slot is read by a popcount or ``_read``.
The checkers and the acceptance grids ask for many h of one (A, r), so
``_kept``, a ``functools.lru_cache`` of the last 16 (A, p, r) called
for, holds each set's profile at H = r * k when that row of r * k + 1
slots (r * k * span + 1 bits over Z, 2p mod p) fits 2**18 bits and the
64-bit guard holds at r * k, and a call reads its slot h; every guard is
monotone in h, so the read needs no validation.  Any other call
validates at h and runs at h alone, in the layout that the rule picks:
packed, it reads slot h of the profile at h; per t, it computes each
element's masks only at the t of its ``_window``, the t that the
elements after it can still complete to h, which for the last element
is h alone.  The memo holds at most 16 rows of 2**18 bits, 512 KiB; its
profiles are never mutated, so threads may share the engine, and no
result depends on which calls came before.

Conventions: modular elements are residues in [0, p) and p must be
prime; integer ground sets are kept sorted ascending; h = m*r + eps
with 0 <= eps <= r - 1 is the Euclidean split used by the closed-form
bounds and the minimum/maximum formulas.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress
from typing import Iterable, NamedTuple, Optional, Tuple

from .errors import DomainError

# Resource guards, not correctness limits: sums are exact bigints, but a
# ground set whose span overflows 64 bits signals an unreasonable input,
# and h + 1 masks of more than 2**33 bits in all (1 GiB) are refused
# before the DP allocates them.  A packed row holds those masks one per
# slot, and mod p a slot has 2p bits, so every packed row is also kept
# within 2**33 bits: the cost rule runs a wider engine call per t, and a
# scan, which walks packed rows only, is refused.
_MAX_MAGNITUDE = 2**63 - 1
_MAX_MASK_BITS = 2**33
# The cost rule (:func:`_packs`): a doubling of the packed step costs about
# two shifts of the per-t step plus one per 2**12 bits of the row it passes
# over, fitted to cold timings of both steps (``tools/rowwidth.py``).
_DOUBLING_BITS = 2**12

# The largest profile row that the memo (:func:`_kept`) holds.  The cap is
# set by peak RSS: on CPython 3.11 a store of this cap grew a verify-sweep
# benchmark process by 5-8 % at 2**20 and by 2 % at 2**18.
_MEMO_MAX_BITS = 2**18

# bin(mask) digits to the 0/1 bytes that itertools.compress selects by.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class SetLiteralWarning(UserWarning):
    """Emitted when a parsed set literal had to be canonicalized."""


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2**64; larger n are refused."""
    if n < 2:
        return False
    if n >= 2**64:
        raise DomainError(f"primality is decided only below 2**64, got {n}")
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def split_h(h: int, r: int) -> Tuple[int, int]:
    """Euclidean split h = m*r + eps with 0 <= eps <= r - 1."""
    if r < 1:
        raise DomainError(f"r >= 1 required, got r={r}")
    if h < 0:
        raise DomainError(f"h >= 0 required, got h={h}")
    return divmod(h, r)


@dataclass(frozen=True)
class GroundSet:
    """A finite set of integers, optionally viewed inside Z/pZ.

    ``elements`` must be strictly increasing; with a modulus they must
    be residues in [0, p) and p must be prime.  Use :meth:`of` to build
    one from unordered values, or :func:`parse_ground_set` for text.
    """

    elements: Tuple[int, ...]
    modulus: Optional[int] = None

    def __post_init__(self):
        if not self.elements:
            raise DomainError("ground set must be nonempty")
        if not all(isinstance(e, int) for e in self.elements):
            raise DomainError("ground set elements must be integers")
        for x, y in zip(self.elements, self.elements[1:]):
            if x >= y:
                raise DomainError(
                    "ground set elements must be strictly increasing; "
                    "use GroundSet.of() to canonicalize"
                )
        if self.modulus is not None:
            p = self.modulus
            if not isinstance(p, int) or not is_prime(p):
                raise DomainError(f"modulus must be prime, got {p}")
            if self.elements[0] < 0 or self.elements[-1] >= p:
                raise DomainError(
                    f"modular elements must be residues in [0, {p})"
                )
        else:
            if max(abs(self.elements[0]), abs(self.elements[-1])) > _MAX_MAGNITUDE:
                raise DomainError("element magnitude exceeds 64 bits")

    @classmethod
    def of(cls, values: Iterable[int], modulus: Optional[int] = None) -> "GroundSet":
        """Build a ground set, sorting, deduplicating and (if modular)
        reducing values into [0, p).  Silent; the text parser warns."""
        vals = list(values)
        if modulus is not None:
            if not isinstance(modulus, int) or not is_prime(modulus):
                raise DomainError(f"modulus must be prime, got {modulus}")
            vals = [v % modulus for v in vals]
        return cls(tuple(sorted(set(vals))), modulus)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def translate(self, t: int) -> "GroundSet":
        return GroundSet.of((e + t for e in self.elements), self.modulus)

    def dilate(self, c: int) -> "GroundSet":
        if c == 0:
            raise DomainError("dilation factor must be nonzero")
        return GroundSet.of((e * c for e in self.elements), self.modulus)


@dataclass(frozen=True)
class SumParams:
    """The pair (h, r): total multiplicity h, per-element cap r."""

    h: int
    r: int

    def __post_init__(self):
        if not (isinstance(self.h, int) and isinstance(self.r, int)):
            raise DomainError(
                f"h and r must be integers: h={self.h!r}, r={self.r!r}"
            )
        if self.r < 1:
            raise DomainError(f"r >= 1 required, got r={self.r}")
        if self.h < 1:
            raise DomainError(f"h >= 1 required, got h={self.h}")

    @property
    def m(self) -> int:
        return self.h // self.r

    @property
    def epsilon(self) -> int:
        return self.h % self.r


@dataclass(frozen=True)
class SumsetResult:
    """A computed sumset: sorted values, plus the modulus if modular."""

    values: Tuple[int, ...]
    modulus: Optional[int] = None

    @property
    def cardinality(self) -> int:
        return len(self.values)

    @property
    def min(self) -> int:
        return self.values[0]

    @property
    def max(self) -> int:
        return self.values[-1]

    def as_set(self) -> set:
        return set(self.values)

    def __iter__(self):
        return iter(self.values)


class Profile(NamedTuple):
    """h^(r)A at every h <= ``height``, from one packed DP: slot t of
    ``row``, ``stride`` bits from bit t * stride on, is the mask of
    t^(r)A, bit i for t * min A + i over Z and for the residue i mod p."""

    ground: GroundSet
    r: int
    height: int
    stride: int
    row: int

    def mask(self, t: int) -> int:
        if not 0 <= t <= self.height:
            raise DomainError(f"0 <= t <= {self.height} required, got t={t}")
        return self.row >> t * self.stride & ((1 << self.stride) - 1)

    def cardinality(self, t: int) -> int:
        """|t^(r)A|, a popcount."""
        return self.mask(t).bit_count()

    def sumset(self, t: int) -> SumsetResult:
        return _read(self.mask(t), self.ground, t)


def parse_ground_set(text: str) -> GroundSet:
    """Parse a set literal like ``"0,1,3,7"`` or ``"0,1,3,7 mod 11"``.

    Whitespace-insensitive.  Values are sorted and deduplicated, and
    modular values reduced into [0, p); any such canonicalization emits
    a :class:`SetLiteralWarning`.
    """
    parts = text.split("mod")
    if len(parts) > 2:
        raise DomainError(f"set literal has more than one 'mod': {text!r}")
    modulus = None
    if len(parts) == 2:
        mod_text = parts[1].strip()
        try:
            modulus = int(mod_text)
        except ValueError:
            raise DomainError(f"bad modulus {mod_text!r} in set literal") from None
    tokens = [t.strip() for t in parts[0].split(",")]
    tokens = [t for t in tokens if t]
    if not tokens:
        raise DomainError("set literal has no elements")
    raw = []
    for t in tokens:
        try:
            raw.append(int(t))
        except ValueError:
            raise DomainError(f"bad element {t!r} in set literal") from None
    gs = GroundSet.of(raw, modulus)
    reduced = [v % modulus for v in raw] if modulus is not None else raw
    if reduced != raw:
        warnings.warn(
            "set literal contained residues outside [0, p); reduced mod p",
            SetLiteralWarning,
            stacklevel=2,
        )
    if list(gs.elements) != reduced:
        warnings.warn(
            "set literal was unsorted or contained duplicates; canonicalized",
            SetLiteralWarning,
            stacklevel=2,
        )
    return gs


def _check_draws(k: int, h: int, r: int) -> None:
    """h <= r*k, the one check of a call that allocates no DP."""
    if h > r * k:
        raise DomainError(
            f"h <= r*k required (no multiset of {h} draws fits "
            f"{k} elements with cap {r}): h={h}, r*k={r * k}"
        )


def _validate_params(ground: GroundSet, h: int, r: int) -> None:
    """Every size check of a DP call, in this order: ``_check_draws``;
    integer sums h * max|a_i| within 64 bits; and h + 1 masks of width
    W = h * span + 1 over Z (span = max A - min A), or W = p modulo p, at
    most 2**33 bits in all, so that no oversized DP is allocated."""
    A, p = ground.elements, ground.modulus
    _check_draws(len(A), h, r)
    magnitude = h * max(abs(A[0]), abs(A[-1]))
    if p is None and magnitude > _MAX_MAGNITUDE:
        raise DomainError(f"h * max|a_i| = {magnitude} exceeds the 64-bit guard")
    width = h * (A[-1] - A[0]) + 1 if p is None else p
    if (h + 1) * width > _MAX_MASK_BITS:
        raise DomainError(
            f"(h + 1) * mask width = {(h + 1) * width} bits exceeds the "
            f"2**33-bit guard"
        )


def _validate_row(ground: GroundSet, height: int, r: int) -> None:
    """The checks of a packed DP at ``height``: ``_validate_params``, and
    mod p also its row of height + 1 slots of 2p bits within the mask guard
    (over Z a row is the (height + 1) * W bits that ``_validate_params``
    bounds)."""
    _validate_params(ground, height, r)
    p = ground.modulus
    if p is not None and (height + 1) * 2 * p > _MAX_MASK_BITS:
        raise DomainError("a packed row of 2p-bit slots exceeds the 2**33-bit guard")


def _packs(h: int, r: int, stride: int) -> bool:
    """The cost rule: True when a DP read at t = h costs less packed in
    slots of ``stride`` bits than per t, and its row is within the mask
    guard.  Both layouts step every element, so the rule prices one step.
    In units of one per-t shift: per t, a step computes h + 1 masks, each
    for one unit plus min(r, t) + 1 shifts; packed, it makes
    min(r, h).bit_length() doublings, each for two units plus one per
    ``_DOUBLING_BITS`` bits of the row it passes over."""
    m = min(r, h)
    per_t = 2 * (h + 1) + m * (m + 1) // 2 + (h - m) * m
    packed = m.bit_length() * (2 * _DOUBLING_BITS + (h + 1) * stride)
    return (h + 1) * stride <= _MAX_MASK_BITS and packed <= per_t * _DOUBLING_BITS


def _stride(height: int, p: Optional[int], span: int) -> int:
    """The slot width of a packed row at ``height`` of a set of span at most
    ``span``: height * span + 1 bits over Z, the widest mask it holds, and
    2p mod p, a p-bit mask and room for its shifts below p."""
    return height * span + 1 if p is None else 2 * p


def _keep(height: int, stride: int, p: Optional[int]) -> int:
    """The bits of a row of slots 0..height that a step keeps: all of them
    over Z, and mod p the low p bits of each slot, built by doubling
    shifts."""
    if p is None:
        return (1 << (height + 1) * stride) - 1
    keep, n = (1 << p) - 1, 1
    while n <= height:
        keep |= keep << n * stride
        n *= 2
    return keep & ((1 << (height + 1) * stride) - 1)


def _shifts(cap: int, stride: int, p: Optional[int], a: int) -> list:
    """The shifts of the packed step's doublings for the element a (over Z,
    translated by -min A) at cap ``cap``: the shifts {0..n-1} of
    row << c * (stride + a) double to {0..n-1+d}, d = min(n, cap + 1 - n),
    by a shift of d * stride + d * a, with d * a reduced mod p."""
    shifts, n = [], 1
    while n <= cap:
        d = n if 2 * n <= cap + 1 else cap + 1 - n
        shifts.append(d * stride + (d * a if p is None else d * a % p))
        n += d
    return shifts


def _step(p: Optional[int], keep: int, row: int, shifts: list) -> int:
    """The packed step: the row after an element, given by its
    :func:`_shifts`, joins the elements behind ``row``, i.e. the OR of
    row << c * (stride + a) over c = 0..cap, cut to ``keep`` (:func:`_keep`).
    Mod p each doubling folds every slot once, exact because every shift
    within a slot is below p, and the fold also cuts the row to ``keep``.
    The layout comes first, for ``functools.partial``."""
    for shift in shifts:
        row |= row << shift
        if p is not None:
            row = (row | row >> p) & keep
    return row & keep if p is None else row


def _packed(height: int, r: int, p: Optional[int], span: int) -> tuple:
    """The packed row format at ``height`` of a set of span at most
    ``span`` (over Z, translated by -min A): (stride, step, shifts, offsets,
    cut), which :func:`_profile` steps and the scans walk.  A row of no
    element is 1, and step(row, shifts(a)) scans the element a into it
    (:func:`_step`, with :func:`_shifts` at cap m = min(r, height)).  The
    mask at t is row >> t * stride & cut, and offsets[c], c = 0..max(m, 3),
    is that of the mask at t = height - c, the ones that a last element's
    step carries to t = height; past c = m the offset is above the top
    slot, so it reads 0."""
    m, stride = min(r, height), _stride(height, p, span)
    offsets = (*range(height * stride, (height - m - 1) * stride, -stride),
               *((height + 1) * stride,) * (3 - m))
    return (stride, partial(_step, p, _keep(height, stride, p)), partial(_shifts, m, stride, p),
            offsets, (1 << stride) - 1)


def _mask_at(t: int, r: int, p: Optional[int], dp: list, a: int) -> int:
    """The per-t step: the mask at multiplicity t after the element a (over
    Z, translated by -min A) joins the elements behind the masks ``dp``,
    i.e. the OR of dp[t - c] << c*a over c = 0..min(r, t), folded onto p
    bits mod p."""
    acc = 0
    for c in range(min(r, t) + 1):
        x = dp[t - c]
        if x:
            acc |= x << (c * a if p is None else c * a % p)
    if p is not None:
        # Every mask has p bits and every shift is below p, so one fold
        # turns the shifts into rotations.
        acc = (acc & ((1 << p) - 1)) | (acc >> p)
    return acc


def _extend(r: int, p: Optional[int], window: range, dp: list, a: int) -> list:
    """The per-t masks ``dp`` extended by the element a, computed at every
    t in ``window``; the other t are 0."""
    tail = [0] * (len(dp) - window.stop)
    return [0] * window.start + [_mask_at(t, r, p, dp, a) for t in window] + tail


def _window(k: int, h: int, r: int, i: int) -> range:
    """The t that the first i + 1 of k elements reach and the other
    k - i - 1 can still complete to h: the per-t masks a DP read at t = h
    needs after its i-th element."""
    return range(max(0, h - (k - i - 1) * r), min(h, (i + 1) * r) + 1)


def _add_part(mask: int, shifts: Iterable[int], p: Optional[int]) -> int:
    """The mask of X + B from the mask of X and the shifts b of B (over Z,
    translated by -min B; residues mod p): the OR of mask << b, folded
    once onto p bits mod p, exact because every shift is below p."""
    acc = 0
    for b in shifts:
        acc |= mask << b
    if p is not None:
        acc = (acc & ((1 << p) - 1)) | (acc >> p)
    return acc


def _bits(mask: int, offset: int = 0) -> tuple:
    """The positions of a mask's bits, each plus ``offset``, ascending."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)  # lowest bit first
    return tuple(compress(range(offset, offset + len(bits)), bits))


def _read(mask: int, ground: GroundSet, h: int) -> SumsetResult:
    """The values of h^(r)A from its mask, read as :class:`Profile` says."""
    p = ground.modulus
    return SumsetResult(_bits(mask, h * ground.elements[0] if p is None else 0), p)


def profile(ground: GroundSet, r: int, height: int) -> Profile:
    """h^(r)A at every h <= ``height``, from one packed DP (see
    :class:`Profile`).  Refused as :func:`_validate_row` refuses it."""
    SumParams(height, r)  # the type and sign checks of a call's h and r
    _validate_row(ground, height, r)
    return _profile(ground, r, height)


def _profile(ground: GroundSet, r: int, height: int) -> Profile:
    """The packed DP of :func:`profile`, not validated."""
    A, p = ground.elements, ground.modulus
    base = A[0] if p is None else 0
    stride, step, shifts, _, _ = _packed(height, r, p, A[-1] - base)
    row = 1
    for a in A:
        row = step(row, shifts(a - base))
    return Profile(ground, r, height, stride, row)


@lru_cache(maxsize=16)
def _kept(elements: tuple, p: Optional[int], r: int) -> Optional[Profile]:
    """The profile at height r * k of the set ``elements`` (mod p if p is
    not None), when its row fits ``_MEMO_MAX_BITS`` and the 64-bit guard
    holds at r * k; None otherwise.  Not validated."""
    top, lo, hi = r * len(elements), elements[0], elements[-1]
    if (top + 1) * _stride(top, p, hi - lo) > _MEMO_MAX_BITS or (
        p is None and top * max(abs(lo), abs(hi)) > _MAX_MAGNITUDE
    ):
        return None
    return _profile(GroundSet(elements, p), r, top)


def _sumset_mask(ground: GroundSet, h: int, r: int) -> int:
    """The mask of h^(r)A, for any 0 <= h <= r*k, as ``_read`` takes it:
    slot h of the set's :func:`_kept` profile, or of a DP at h alone in the
    layout that :func:`_packs` picks: packed, the :func:`_profile` at h;
    per t, each element's :func:`_extend` over its :func:`_window`, which
    for the last element is {h}."""
    A, p = tuple(ground.elements), ground.modulus
    prof = _kept(A, p, r)
    if prof is None or h > prof.height:
        _validate_params(ground, h, r)
        base = A[0] if p is None else 0
        if not _packs(h, r, _stride(h, p, A[-1] - base)):
            dp = [1] + [0] * h
            for i, a in enumerate(A):
                dp = _extend(r, p, _window(len(A), h, r, i), dp, a - base)
            return dp[h]
        prof = _profile(ground, r, h)
    return prof.row >> h * prof.stride & ((1 << prof.stride) - 1)


def generalized_sumset(ground: GroundSet, params: SumParams) -> SumsetResult:
    """Compute h^(r)A exactly.

    Slot h of the set's :func:`profile` at r*k, which the engine keeps
    for later calls of the same (A, r) when it fits, or, for a set too
    wide to keep, a DP at h alone in the layout that :func:`_packs` picks
    by the cost rule (see the module docstring).  No result depends on
    earlier calls.
    """
    return _read(_sumset_mask(ground, params.h, params.r), ground, params.h)


def classical_sumset(ground: GroundSet, h: int) -> SumsetResult:
    """hA: sums of h elements with repetition unrestricted (cap r = h)."""
    return generalized_sumset(ground, SumParams(h=h, r=h))


def restricted_sumset(ground: GroundSet, h: int) -> SumsetResult:
    """h^A: sums of h distinct elements (cap r = 1)."""
    return generalized_sumset(ground, SumParams(h=h, r=1))


def bound_direct_integers(k: int, h: int, r: int) -> int:
    """Closed-form lower bound for |h^(r)A| over the integers.

    With h = m*r + eps the bound is h*k - m^2*r + 1 - 2*m*eps - eps.
    Hypotheses: k >= 1, r >= 1, 1 <= h <= r*k.  Equality holds exactly
    on arithmetic progressions (for k >= 5, 2 <= r <= h <= r*k - 2 the
    progressions are the only equality sets).
    """
    if k < 1:
        raise DomainError(f"k >= 1 required, got k={k}")
    if r < 1:
        raise DomainError(f"r >= 1 required, got r={r}")
    if not 1 <= h <= r * k:
        raise DomainError(f"1 <= h <= r*k required: h={h}, r*k={r * k}")
    m, eps = split_h(h, r)
    return h * k - m * m * r + 1 - 2 * m * eps - eps


def bound_direct_mod_p(k: int, h: int, r: int, p: int) -> int:
    """Lower bound for |h^(r)A| in Z/pZ: min(p, integer bound).

    Hypotheses: p prime, 1 <= k <= p, r >= 1 and 1 <= h <= r*k, as in the
    integer case.  The classical bounds are its two ends: r = h gives
    Cauchy-Davenport, r = 1 gives Erdos-Heilbronn.  At h <= r the cap
    never binds, h^(r)A = hA, and the formula is Cauchy-Davenport's
    min(p, h*k - h + 1).
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got p={p}")
    if not 1 <= k <= p:
        raise DomainError(f"1 <= k <= p required: k={k}, p={p}")
    # bound_direct_integers checks r and h.
    return min(p, bound_direct_integers(k, h, r))


def bound_cauchy_davenport(k: int, h: int, p: int) -> int:
    """Cauchy-Davenport lower bound for |hA| in Z/pZ: min(p, h*k - h + 1),
    the mod-p bound at r = h.  Needs h >= 1."""
    return bound_direct_mod_p(k, h, h, p)


def bound_erdos_heilbronn(k: int, h: int, p: int) -> int:
    """Erdos-Heilbronn lower bound for |h^A| in Z/pZ: min(p, h*k - h^2 + 1),
    the mod-p bound at r = 1.  Needs 1 <= h <= k."""
    return bound_direct_mod_p(k, h, 1, p)


def extremes_closed_form(ground: GroundSet, params: SumParams) -> Tuple[int, int]:
    """Minimum and maximum of h^(r)A over the integers, in closed form.

    With h = m*r + eps:

        min = r*(a_1 + ... + a_m) + eps*a_{m+1}
        max = r*(a_{k-m+1} + ... + a_k) + eps*a_{k-m}

    When eps = 0 the stray terms vanish (and for h = r*k, i.e. m = k,
    the indices a_{m+1} / a_{k-m} do not exist at all).
    """
    if ground.modulus is not None:
        raise DomainError("extremes are defined for integer ground sets only")
    _check_draws(ground.size, params.h, params.r)
    A = ground.elements
    k = len(A)
    m, eps = params.m, params.epsilon
    lo = params.r * sum(A[:m])
    hi = params.r * sum(A[k - m:]) if m > 0 else 0
    if eps:
        lo += eps * A[m]
        hi += eps * A[k - m - 1]
    return lo, hi
