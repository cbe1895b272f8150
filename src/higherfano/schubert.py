"""Schubert calculus on the Grassmannian G(k, n).

The basis of the Chow ring is indexed by partitions inside the k x (n-k)
box; products are computed by the Pieri rule, with general classes expanded
through the Jacobi-Trudi determinant in the special (one-row) classes.
Partitions are plain tuples, stored without trailing zeros, with canonical
labels like "σ[2,1]" ("1" for the empty partition).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Iterable, Iterator

from .rings import DegreeError, GradedClass, RingModel

Partition = tuple[int, ...]


def normalize_partition(parts: Iterable[int]) -> Partition:
    p = tuple(int(x) for x in parts if int(x) != 0)
    if any(x < 0 for x in p):
        raise ValueError(f"partition parts must be nonnegative: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {p}")
    return p


def partition_label(p: Iterable[int]) -> str:
    p = normalize_partition(p)
    if not p:
        return "1"
    return "σ[" + ",".join(str(x) for x in p) + "]"


def conjugate(p: Partition) -> Partition:
    p = normalize_partition(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > i) for i in range(p[0]))


def partitions_in_box(rows: int, cols: int, size: int) -> list[Partition]:
    """All partitions of `size` with at most `rows` parts, each at most `cols`."""
    out: list[Partition] = []

    def rec(prefix: list[int], remaining: int, bound: int, slots: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots == 0:
            return
        for part in range(min(bound, remaining), 0, -1):
            prefix.append(part)
            rec(prefix, remaining - part, part, slots - 1)
            prefix.pop()

    rec([], size, cols, rows)
    return sorted(out)


def pieri_shapes(lam: Partition, i: int, rows: int, cols: int) -> Iterator[Partition]:
    """Partitions obtained from lam by adding i boxes, no two in a column, inside the box."""
    lam = normalize_partition(lam)
    padded = list(lam) + [0] * (rows - len(lam))

    def rec(r: int, remaining: int, acc: list[int]):
        if r == rows:
            if remaining == 0:
                yield normalize_partition(acc)
            return
        upper = cols if r == 0 else padded[r - 1]
        lower = padded[r]
        # boxes added in row r cannot exceed what remains
        for mu_r in range(min(upper, lower + remaining), lower - 1, -1):
            acc.append(mu_r)
            yield from rec(r + 1, remaining - (mu_r - lower), acc)
            acc.pop()

    yield from rec(0, i, [])


class GrassmannianRing(RingModel):
    """Chow ring of G(k, n) in the Schubert basis."""

    def __init__(self, k: int, n: int):
        if not 1 <= k <= n - 1:
            raise ValueError(f"G(k, n) needs 1 <= k <= n-1, got k={k}, n={n}")
        self.k = k
        self.n = n
        self.cols = n - k
        dim = k * self.cols
        self._by_label: dict[str, Partition] = {}
        basis: list[list[str]] = []
        for d in range(dim + 1):
            labels = []
            for p in partitions_in_box(k, self.cols, d):
                label = partition_label(p)
                self._by_label[label] = p
                labels.append(label)
            basis.append(labels)
        point = partition_label((self.cols,) * k)
        super().__init__(f"G({k},{n})", dim, basis, point)

    def partition_of(self, label: str) -> Partition:
        return self._by_label[label]

    def sigma(self, parts: Iterable[int]) -> GradedClass:
        p = normalize_partition(parts)
        if len(p) > self.k or (p and p[0] > self.cols):
            raise ValueError(f"partition {p} does not fit the {self.k}x{self.cols} box")
        return self.monomial(partition_label(p))

    def complement(self, parts: Iterable[int]) -> Partition:
        p = normalize_partition(parts)
        padded = list(p) + [0] * (self.k - len(p))
        return normalize_partition(self.cols - padded[i] for i in reversed(range(self.k)))

    def pieri_dict(self, lam: Partition, i: int) -> dict[str, Fraction]:
        if i == 0:
            return {partition_label(lam): Fraction(1)}
        return {partition_label(mu): Fraction(1) for mu in pieri_shapes(lam, i, self.k, self.cols)}

    def _jt_terms(self, mu: Partition) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Signed products of one-row classes from det(sigma_{mu_i - i + j})."""
        ell = len(mu)
        for perm in permutations(range(ell)):
            # permutation sign by counting inversions
            inv = sum(1 for a in range(ell) for b in range(a + 1, ell) if perm[a] > perm[b])
            sign = -1 if inv % 2 else 1
            rows = []
            ok = True
            for i in range(ell):
                v = mu[i] - i + perm[i]
                if v < 0:
                    ok = False
                    break
                if v > 0:
                    rows.append(v)
            if ok:
                yield sign, tuple(rows)

    def _mul_labels(self, a, b):
        pa, pb = self._by_label[a], self._by_label[b]
        # expand the partition with fewer rows through Jacobi-Trudi
        if len(pb) > len(pa):
            pa, pb = pb, pa
        out: dict[str, Fraction] = {}
        for sign, rows in self._jt_terms(pb):
            acc = {partition_label(pa): Fraction(1)}
            for r in rows:
                if r > self.cols:
                    # one-row classes above n-k vanish (Chern classes of the
                    # rank n-k quotient bundle)
                    acc = {}
                    break
                nxt: dict[str, Fraction] = {}
                for label, c in acc.items():
                    for m_label, m in self.pieri_dict(self._by_label[label], r).items():
                        nxt[m_label] = nxt.get(m_label, Fraction(0)) + c * m
                acc = nxt
            for label, c in acc.items():
                out[label] = out.get(label, Fraction(0)) + sign * c
        return {l: c for l, c in out.items() if c}


def grassmannian_ring(k: int, n: int) -> GrassmannianRing:
    return GrassmannianRing(k, n)


def pieri(ring: GrassmannianRing, lam: Iterable[int], i: int) -> GradedClass:
    """sigma_lam * sigma_i by the Pieri rule (possibly zero)."""
    lam = normalize_partition(lam)
    if not 1 <= i <= ring.cols:
        raise ValueError(f"Pieri index must be in 1..{ring.cols}")
    return GradedClass(ring, ring.pieri_dict(lam, i))


def schubert_multiply(x: GradedClass, y: GradedClass) -> GradedClass:
    """Product of two classes; structure constants are nonnegative integers."""
    if not isinstance(x.ring, GrassmannianRing) or y.ring is not x.ring:
        raise ValueError("schubert_multiply needs two classes on one Grassmannian")
    return x * y


def tautological_chern(ring: GrassmannianRing, which: str) -> tuple[GradedClass, ...]:
    """Chern classes of the dual tautological subbundle or the quotient bundle.

    "sub-dual": c_i(S^dual) = sigma_{1^i}, rank k.
    "quotient": c_i(Q) = sigma_i, rank n-k.
    """
    if which == "quotient":
        return tuple(ring.sigma((i,)) for i in range(1, ring.cols + 1))
    if which == "sub-dual":
        return tuple(ring.sigma((1,) * i) for i in range(1, ring.k + 1))
    raise ValueError("which must be 'sub-dual' or 'quotient'")


def dual_pairing(x: GradedClass, mu: Iterable[int]) -> Fraction:
    """integrate(x * sigma_mu) for mu of complementary codimension."""
    ring = x.ring
    if not isinstance(ring, GrassmannianRing):
        raise ValueError("dual_pairing needs a Grassmannian class")
    mu = normalize_partition(mu)
    c = x.homogeneous_degree()
    if c is None:
        return Fraction(0)
    if sum(mu) != ring.dimension - c:
        raise DegreeError(
            f"degree mismatch: codim {c} class needs |mu| = {ring.dimension - c}, got {sum(mu)}"
        )
    return (x * ring.sigma(mu)).integrate()
