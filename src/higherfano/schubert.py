"""Schubert calculus on the Grassmannian G(k, n).

The basis of the Chow ring is indexed by partitions inside the k x (n-k)
box; products are computed by the Pieri rule, with general classes expanded
through the Jacobi-Trudi determinant in the special (one-row) classes.
Partitions are plain tuples, stored without trailing zeros, with canonical
labels like "σ[2,1]" ("1" for the empty partition).

A ring computes the product of two Schubert classes in its own k x (n-k)
box, and its mul_basis memo is the one memo of products.  A ring builds the
labels of a degree when that degree is first read.

The tangent character of G(k, n) and of its zero loci is read off integer power
sums p_j = j! ch_j, one {label: int} per degree j, with no class product:
tangent_power_sum (n*p_j(S^dual) minus the t = -1 entry of the memoised table
_adams_square, from hooks and border strips by the Murnaghan-Nakayama rule),
square_power_sum (Sym^2 and Lambda^2 S^dual, from its t = +1 entry) and
o1_power_sum (O(1), from the hook lengths).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb, factorial, prod
from typing import Iterable, Iterator

from .rings import GradedClass, RingModel, basis_size_error

Partition = tuple[int, ...]

# the largest basis an ambient ring builds, in labels: C(n, k) for G(k, n), and
# through families.check_ambient_bound n+1 for P^n and (a+1)(b+1) for P^a x P^b.
# A ring builds its degrees when they are read, and only a full basis()
# pays about 0.4 KB per label (G(10,20): 184,756 labels, 67 MB on CPython 3.11),
# so the bound keeps one full ring near 0.4 GB; a check on P^n reads four of its
# degrees, and holds only one empty entry per other degree (P^999999: 8 MB)
MAX_BASIS_LABELS = 10**6


def normalize_partition(parts: Iterable[int]) -> Partition:
    p = tuple(int(x) for x in parts if int(x) != 0)
    if any(x < 0 for x in p):
        raise ValueError(f"partition parts must be nonnegative: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {p}")
    return p


def _label(p: Partition) -> str:
    """Label of a partition already in canonical form."""
    return "σ[" + ",".join(map(str, p)) + "]" if p else "1"


def partition_label(p: Iterable[int]) -> str:
    return _label(normalize_partition(p))


def conjugate(p: Partition) -> Partition:
    p = normalize_partition(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > i) for i in range(p[0]))


def partitions_in_box(rows: int, cols: int, size: int) -> list[Partition]:
    """All partitions of `size` with at most `rows` parts, each at most `cols`, in sorted order."""
    out: list[Partition] = []

    def rec(prefix: list[int], remaining: int, bound: int, slots: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots * bound < remaining:
            return
        # ascending parts give sorted output; a part below remaining/slots
        # leaves too little room for the rest, so the loop starts above it
        for part in range(-(-remaining // slots), min(bound, remaining) + 1):
            prefix.append(part)
            rec(prefix, remaining - part, part, slots - 1)
            prefix.pop()

    if size >= 0:
        rec([], size, cols, rows)
    return out


def _horizontal_strips(lam: Partition, i: int, rows: int, cols: int) -> Iterator[Partition]:
    """The shapes of a canonical lam plus i boxes, no two in a column, in the box; each canonical too."""
    ell = len(lam)
    last = min(ell, rows - 1)  # the lowest row that can take boxes
    acc: list[int] = []

    def rec(r: int, remaining: int):
        if remaining == 0:
            yield tuple(acc) + lam[r:]
            return
        if r > last:
            return
        lower = lam[r] if r < ell else 0
        upper = cols if r == 0 else lam[r - 1]
        # boxes added in row r cannot exceed what remains
        for mu_r in range(min(upper, lower + remaining), lower - 1, -1):
            acc.append(mu_r)
            yield from rec(r + 1, remaining - (mu_r - lower))
            acc.pop()

    return rec(0, i)


def _jt_terms(mu: Partition) -> tuple[tuple[int, Partition], ...]:
    """det(sigma_{mu_i - i + j}) as signed products of one-row classes.

    One-row classes commute, so each product is keyed by its rows sorted
    into a partition, and like products are merged (cancelling ones dropped).
    """
    ell = len(mu)
    terms: dict[Partition, int] = {}
    for perm in permutations(range(ell)):
        rows = [mu[i] - i + perm[i] for i in range(ell)]
        if any(v < 0 for v in rows):
            continue
        # permutation sign by counting inversions
        inv = sum(1 for a in range(ell) for b in range(a + 1, ell) if perm[a] > perm[b])
        key = tuple(sorted((v for v in rows if v), reverse=True))
        terms[key] = terms.get(key, 0) + (-1 if inv % 2 else 1)
    return tuple((c, rows) for rows, c in terms.items() if c)


def _product(a: Partition, b: Partition, rows: int, cols: int) -> dict[str, int]:
    """sigma_a * sigma_b in the rows x cols box as {label: nonzero count}, by Jacobi-Trudi and Pieri steps."""
    # expand the partition with fewer rows through Jacobi-Trudi
    if len(b) > len(a):
        a, b = b, a
    out: dict[Partition, int] = {}
    for coeff, parts in _jt_terms(b):
        if parts and parts[0] > cols:
            # one-row classes above cols vanish (Chern classes of the
            # rank-cols quotient bundle)
            continue
        acc = {a: coeff}
        for r in parts:
            nxt: dict[Partition, int] = {}
            for lam, c in acc.items():
                for mu in _horizontal_strips(lam, r, rows, cols):
                    nxt[mu] = nxt.get(mu, 0) + c
            acc = nxt
        for mu, c in acc.items():
            out[mu] = out.get(mu, 0) + c
    return {_label(mu): c for mu, c in out.items() if c}


def check_basis_bound(k: int, n: int) -> None:
    """ValueError if the Schubert basis of G(k, n), C(n, k) labels, exceeds MAX_BASIS_LABELS.

    C(n, k) >= 2^j for j = min(k, n-k), so from j = MAX_BASIS_LABELS.bit_length() (20) on it
    is past the bound and is refused unevaluated: C(400000, 200000) has 120,000 digits.
    So is any n > MAX_BASIS_LABELS, since C(n, k) >= n for 1 <= k <= n-1: an n of
    thousands of digits would otherwise give a count too long to print.  Below both the
    exact count is cheap, with at most j times the digits of n.
    """
    huge = n > MAX_BASIS_LABELS or min(k, n - k) >= MAX_BASIS_LABELS.bit_length()
    count = None if huge else comb(n, k)
    if count is None or count > MAX_BASIS_LABELS:
        raise basis_size_error(f"G({k},{n})", f"C({n},{k})", count, MAX_BASIS_LABELS, "Schubert classes")


class GrassmannianRing(RingModel):
    """Chow ring of G(k, n) in the Schubert basis."""

    def __init__(self, k: int, n: int):
        if not 1 <= k <= n - 1:
            raise ValueError(f"G(k, n) needs 1 <= k <= n-1, got k={k}, n={n}")
        check_basis_bound(k, n)
        self.k = k
        self.n = n
        self.cols = n - k
        super().__init__(f"G({k},{n})", k * self.cols, _label((self.cols,) * k))

    def _build_degree(self, degree):
        return [(_label(p), p) for p in partitions_in_box(self.k, self.cols, degree)]

    def _has_label(self, label: str) -> bool:
        """True for a basis label; builds at most the one degree that the parts of "σ[...]" add up to.

        Every label in the box has at most k parts of at most n-k, so none is
        longer than the point's label, and a longer string is not read.
        """
        if label not in self._key and label.startswith("σ[") and label.endswith("]") \
                and len(label) <= len(self.point_label):
            parts = label[2:-1].split(",")
            if all(p.isascii() and p.isdigit() for p in parts):
                self.basis(sum(map(int, parts)))
        return label in self._key

    def partition_of(self, label: str) -> Partition:
        self._has_label(label)
        return self._key[label]

    def sigma(self, parts: Iterable[int]) -> GradedClass:
        """sigma_parts; ValueError unless the partition fits the k x (n-k) box."""
        p = normalize_partition(parts)
        if len(p) > self.k or (p and p[0] > self.cols):
            raise ValueError(f"partition {p} does not fit the {self.k}x{self.cols} box")
        return self.monomial(_label(p))

    def _mul_labels(self, a, b):
        return _product(self.partition_of(a), self.partition_of(b), self.k, self.cols)


def _power_sum(ring: GrassmannianRing, j: int, times: int = 1) -> dict[str, int]:
    """times * p_j(S^dual) as {label: int}: the signed hooks of size j in the box.

    With x the Chern roots of S^dual, sigma_lam = s_lam(x), and p_j(x) is the alternating
    sum of the hooks of size j, sum_b (-1)^b sigma[j-b, 1^b] (the one-part case of the
    Murnaghan-Nakayama rule; Macdonald, Symmetric Functions and Hall Polynomials, I.7):
    the border strips of size j on the empty shape, the height b giving the sign.
    """
    return {_label(hook): times * sign for sign, hook in border_strips((), j, ring.k, ring.cols)}


def tangent_power_sum(ring: GrassmannianRing, j: int) -> dict[str, int]:
    """j! ch_j(T_G) as {label: int}: ch(T_G) = n*ch(S^dual) - ch(End S), summed on integers.

    T_G = S^dual (x) Q, and 0 -> S -> O^n -> Q -> 0 turns it into n*S^dual - S^dual (x) S.
    With p_b the power sums of S^dual (signed hooks) and p_0 = k,

        j! ch_j(T_G) = n p_j - sum_{a+b=j} C(j, a) (-1)^b p_a p_b,

    the sum being the _adams_square entry at t = -1.  End S is self-dual, so for
    odd j that entry is zero and this is n p_j.
    """
    acc = _power_sum(ring, j, ring.n)
    for label, c in _adams_square(j, -1, ring.k, min(ring.cols, j)).items():
        acc[label] = acc.get(label, 0) - c
    return acc


def square_power_sum(ring: GrassmannianRing, j: int, sign: int) -> dict[str, int]:
    """j! ch_j of Sym^2 S^dual at sign 1, of Lambda^2 S^dual at sign -1, as {label: int}.

    ch(Sym^2 E), ch(Lambda^2 E) = (ch(E)^2 +- psi^2 ch(E)) / 2, and j! ch_j(psi^2 E) = 2^j p_j,
    so this is (the _adams_square entry at t = +1 +- 2^j p_j) / 2.  The power sums of a
    bundle are integer polynomials in its Chern classes, so the halving is exact.
    """
    acc = dict(_adams_square(j, 1, ring.k, min(ring.cols, j)))
    for label, c in _power_sum(ring, j, sign * 2**j).items():
        acc[label] = acc.get(label, 0) + c
    return {label: c // 2 for label, c in acc.items()}


def o1_power_sum(ring: GrassmannianRing, j: int) -> dict[str, int]:
    """j! ch_j(O(1)) = sigma_1^j as {label: int}, read off the hook lengths with no product.

    sigma_1 adds one box (Pieri), so sigma_1^j is the sum of f^lam sigma_lam over the shapes lam
    of size j in the k x (n-k) box, f^lam the standard tableaux of shape lam.  By the hook-length
    formula (Frame, Robinson and Thrall) f^lam = j! / H(lam), H(lam) the product of lam's hooks.
    """
    scale = factorial(j)
    return {label: scale // _hook_product(ring._key[label]) for label in ring.basis(j)}


def _hook_product(lam: Partition) -> int:
    heights = conjugate(lam)
    return prod(part - j + heights[j] - i - 1 for i, part in enumerate(lam) for j in range(part))


def border_strips(mu: Partition, r: int, rows: int, cols: int) -> list[tuple[int, Partition]]:
    """p_r * sigma_mu in the rows x cols box as (sign, shape) pairs, by the Murnaghan-Nakayama rule.

    mu (canonical, at most `rows` parts) is read as `rows` beads on the
    positions 0..rows+cols-1, its i-th part (0-based, padded with zeros) at
    mu_i + rows-1-i.  Each shape moves one bead up by r onto an empty position
    of that range, and its sign is (-1)^(beads jumped), the height of the
    border strip added (Macdonald, Symmetric Functions and Hall Polynomials, I.7).
    """
    beads = [part + rows - 1 - i for i, part in enumerate(mu + (0,) * (rows - len(mu)))]
    top = rows + cols - 1
    out = []
    for i, bead in enumerate(beads):
        to = bead + r
        if to > top or to in beads:
            continue
        # beads are decreasing, so the ones jumped sit just before i
        above = i
        while above and beads[above - 1] < to:
            above -= 1
        moved = beads[:above] + [to] + beads[above:i] + beads[i + 1:]
        # the parts are weakly decreasing and nonnegative, so without its zeros the shape is canonical
        shape = tuple(b + pos - rows + 1 for pos, b in enumerate(moved) if b + pos >= rows)
        out.append((-1 if (i - above) % 2 else 1, shape))
    return out


@lru_cache(maxsize=None)
def _adams_square(j: int, t: int, k: int, cols: int) -> dict[str, int]:
    """j! * ch_j(x * psi^t x) for x = ch(S^dual) of rank k, as {label: nonzero int}.

    With p_0 = k and p_b the power sums of the Chern roots of S^dual,

        j! ch_j(x * psi^t x) = sum_{a+b=j} C(j, a) t^b p_a p_b,

    summed over a <= b with weight C(j, a)(t^a + t^b), or C(j, a) t^a when
    a = b.  p_b is the signed hooks of size b (the border strips added to the
    empty shape) and p_a p_b adds a border strip of size a to each of them.
    Every shape of size j in the k x (n-k) box fits the rows x cols box with
    rows = min(k, j), cols = min(n-k, j), so Grassmannians of one rank k that
    agree on cols share the entry.
    """
    rows = min(k, j)
    acc: dict[Partition, int] = {}
    for a in range(j // 2 + 1):
        b = j - a
        w = comb(j, a) * (t**a if a == b else t**a + t**b)
        if not w:
            continue
        for sign, hook in border_strips((), b, rows, cols):
            if not a:
                acc[hook] = acc.get(hook, 0) + w * k * sign
                continue
            for strip_sign, lam in border_strips(hook, a, rows, cols):
                acc[lam] = acc.get(lam, 0) + w * sign * strip_sign
    return {_label(lam): c for lam, c in acc.items() if c}

