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
exactly t.  One step function, ``_mask_at``, gives the new mask at one t
when element a is scanned:

    dp'[t] = OR over c in 0..min(r, t) of  dp[t - c] << (c * a')

where a' = a - min(A), so shifts stay non-negative.  Modulo a prime p
the same step runs with a' = a and shifts c * a mod p on p-bit masks;
each new dp'[t] is folded once, (mask & (2^p - 1)) | (mask >> p), which
is exact because every shift is below p.  Folding commutes with OR, so
this equals OR-ing rotations.  ``_extend`` scans one element by taking
``_mask_at`` at every t of a window its caller gives.  ``generalized_sumset``
validates, runs ``_extend`` on every element but the last, takes the last
element's mask at t = h alone and reads it in one pass over its binary
string, translated back by h * min(A).  The exhaustive scans
(``scan.py``) run the same steps depth-first over their candidates,
sharing each prefix's DP, with the window cut to the t that the
remaining elements can still complete to h, and read only the popcount
of each candidate's ``_mask_at`` at t = h.

Callers such as the checkers and the acceptance grids call the engine
many times with one (k, r, p), running every h of a set and then moving
to a set that shares a prefix with it.  So ``generalized_sumset`` keeps,
for each (k, r, p), the last call's translated prefix (every element but
the last, minus min A over Z), a height H, and the DP row after each
prefix element, as one immutable tuple.  The rows skip the lower
completability cut: row i holds dp[t] for every t <= min(H, (i+1)*r),
which depends on nothing but r, p, H and the translated elements before
it, and dp[t] at t <= H is the same for every H >= t.  A call at h <= H
therefore runs ``_extend`` only from its first element that differs from
the kept prefix, and a kept row is exactly the row a cold call would
compute for the t it reads.  The entry also keeps the last set's
elements and the results already read for it, one per h, so a repeated
(A, h) skips the last step and the extraction.  No result can depend on
which calls came before.

One rule sizes the store.  An entry of height H is charged
(k + 1) * (H + 1) * W(H) bits, W(t) = t * span + 1 over Z and p modulo
p: its k rows of H + 1 masks, plus room for its results, at most one
per t <= H and none wider than W(H).  An entry is kept only when its
charge fits 2**18 bits.  The height is a high-water mark: a call runs at
H' = max(h, H) when an entry of height H' fits and at H' = h otherwise,
and starts over from the first element when H' != H.  So a grid that
runs h upwards pays one DP per set after the key's first set, and a call
that does not fit even at h keeps nothing and runs as before.  The store
is cleared when a new entry would take it past 2**18 charged bits or
4 096 keys.  Entries are replaced under a lock, never mutated, so
threads may share the engine.

Conventions: modular elements are residues in [0, p) and p must be
prime; integer ground sets are kept sorted ascending; h = m*r + eps
with 0 <= eps <= r - 1 is the Euclidean split used by the closed-form
bounds and the minimum/maximum formulas.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, Optional, Tuple

from .errors import DomainError

# Resource guards, not correctness limits: sums are exact bigints, but a
# ground set whose span overflows 64 bits signals an unreasonable input,
# and h + 1 masks of more than 2**33 bits in all (1 GiB) are refused
# before the DP allocates them.
_MAX_MAGNITUDE = 2**63 - 1
_MAX_MASK_BITS = 2**33

# The row store (see the module docstring).  Small masks cost far more
# memory as Python objects than their bits, so the bit cap is set by peak
# RSS: on CPython 3.11 it grew a verify-sweep benchmark process by 5-8 %
# at 2**20 and by 2 % at 2**18.
_REUSE_MAX_KEYS = 4096
_REUSE_MAX_BITS = 2**18
# (k, r, p) -> (prefix, rows, H, bits, elements, {h: SumsetResult});
# entries are never mutated.
_reuse: dict = {}
_reuse_bits = 0
_reuse_lock = threading.Lock()

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


def _validate_params(ground: GroundSet, params: SumParams) -> None:
    """Every size check of a call, in this order: h <= r*k; integer sums
    h * max|a_i| within 64 bits; and h + 1 masks of width W = h * span + 1
    over Z (span = max A - min A), or W = p modulo p, at most 2**33 bits in
    all, so that no oversized DP is allocated."""
    A, h, p = ground.elements, params.h, ground.modulus
    k = len(A)
    if h > params.r * k:
        raise DomainError(
            f"h <= r*k required (no multiset of {h} draws fits "
            f"{k} elements with cap {params.r}): h={h}, r*k={params.r * k}"
        )
    magnitude = h * max(abs(A[0]), abs(A[-1]))
    if p is None and magnitude > _MAX_MAGNITUDE:
        raise DomainError(f"h * max|a_i| = {magnitude} exceeds the 64-bit guard")
    width = h * (A[-1] - A[0]) + 1 if p is None else p
    if (h + 1) * width > _MAX_MASK_BITS:
        raise DomainError(
            f"(h + 1) * mask width = {(h + 1) * width} bits exceeds the "
            f"2**33-bit guard"
        )


def _mask_at(dp: list, a: int, t: int, r: int, p: Optional[int]) -> int:
    """The one DP step: the mask at multiplicity t after the element a (over
    Z, translated by -min A) joins the elements behind ``dp``, i.e. the OR
    of dp[t - c] << c*a over c = 0..min(r, t), folded onto p bits mod p."""
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


def _extend(dp: list, a: int, lo: int, hi: int, r: int, p: Optional[int]) -> list:
    """The DP ``dp`` extended by the element a, computed at every t in
    lo..hi; the other t stay 0."""
    return [_mask_at(dp, a, t, r, p) if lo <= t <= hi else 0 for t in range(len(dp))]


def _remember(key: tuple, entry: tuple) -> None:
    """Keep ``entry`` for ``key``, clearing the store first if its charged
    bits would take the store past either cap."""
    global _reuse_bits
    with _reuse_lock:
        old = _reuse.get(key)
        bits = entry[3]
        held = _reuse_bits + bits - (old[3] if old else 0)
        if held > _REUSE_MAX_BITS or (old is None and len(_reuse) >= _REUSE_MAX_KEYS):
            _reuse.clear()
            held = bits
        _reuse[key] = entry
        _reuse_bits = held


def generalized_sumset(ground: GroundSet, params: SumParams) -> SumsetResult:
    """Compute h^(r)A exactly.

    Bit-vector dynamic program over exact multiplicity: one
    :func:`_extend` step per element but the last, tracking for each
    total multiplicity t the bitmask of achievable sums, and for the last
    element one :func:`_mask_at` at t = h.  Integers run in the
    translated coordinates a - min(A); modulo p the shifts are reduced
    mod p and each new mask is folded back onto p bits.

    The rows after each element but the last, and the result, are kept
    for later calls with the same (k, r, p) under the one rule that the
    module docstring states; no result depends on earlier calls.
    """
    A = ground.elements
    h, r = params.h, params.r
    k = len(A)
    p = ground.modulus
    key = (k, r, p)
    entry = _reuse.get(key)
    same_set = entry is not None and entry[4] == A
    # A kept result passed the same validation when it was computed.
    if same_set and h in entry[5]:
        return entry[5][h]
    _validate_params(ground, params)
    # A mask at multiplicity t is w1 * t + w0 bits wide.
    w1, w0 = (A[-1] - A[0], 1) if p is None else (0, p)
    base = A[0] if p is None else 0
    prefix = A[:-1] if p is not None else tuple([a - base for a in A[:-1]])
    kept_prefix, kept, kept_height = entry[:3] if entry else ((), (), -1)
    height = max(h, kept_height)
    if (k + 1) * (height + 1) * (w1 * height + w0) > _REUSE_MAX_BITS:
        height = h
    charge = (k + 1) * (height + 1) * (w1 * height + w0)
    j = 0
    if height != kept_height:
        rows = [(1,) + (0,) * height]
    else:
        # kept[i] is the DP over kept_prefix[:i], so it holds for this
        # call up to the first element where the two prefixes differ.
        for x, y in zip(prefix, kept_prefix):
            if x != y:
                break
            j += 1
        rows = list(kept[: j + 1])
    for i in range(j, k - 1):
        rows.append(tuple(_extend(rows[i], prefix[i], 0, min(height, (i + 1) * r), r, p)))
    # The last element is needed only at t = h.
    mask = _mask_at(rows[-1], A[-1] - base, h, r, p)
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)  # lowest bit first
    offset = h * base
    result = SumsetResult(tuple(compress(range(offset, offset + len(bits)), bits)), p)
    if charge <= _REUSE_MAX_BITS:
        results = {**entry[5], h: result} if same_set else {h: result}
        _remember(key, (prefix, tuple(rows), height, charge, A, results))
    return result


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

    Hypotheses: p prime, 1 <= k <= p, and 1 <= r <= h <= r*k.  Note the
    extra r <= h requirement, absent in the integer case.  The classical
    bounds are its two ends: r = h gives Cauchy-Davenport, r = 1 gives
    Erdos-Heilbronn.
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got p={p}")
    if not 1 <= k <= p:
        raise DomainError(f"1 <= k <= p required: k={k}, p={p}")
    if r < 1:
        raise DomainError(f"r >= 1 required, got r={r}")
    if not r <= h <= r * k:
        raise DomainError(f"r <= h <= r*k required: r={r}, h={h}, r*k={r * k}")
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
    _validate_params(ground, params)
    A = ground.elements
    k = len(A)
    m, eps = params.m, params.epsilon
    lo = params.r * sum(A[:m])
    hi = params.r * sum(A[k - m:]) if m > 0 else 0
    if eps:
        lo += eps * A[m]
        hi += eps * A[k - m - 1]
    return lo, hi
