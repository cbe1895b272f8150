"""Fixed reference kernel that measures how fast the machine runs Python right now.

run.py times this script between workload runs and scales each workload
sample by REF_NOMINAL_S / (the mean of the reference runs just before and
after it).  The kernel does the kind of work the package does (dicts keyed
by tuples and labels, Fraction sums, small calls) but imports nothing from
it, so a change to the package never moves the reference.  Do not edit it:
that would change the scale of every normalized time.
"""

from fractions import Fraction


def label(parts: tuple[int, ...]) -> str:
    return "σ[" + ",".join(str(x) for x in parts) + "]"


def kernel(n: int) -> int:
    acc: dict[str, Fraction] = {}
    for i in range(n):
        parts = tuple(sorted((i % 5, i % 3, i % 7), reverse=True))
        key = label(parts)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11, 7)
    return len(acc)


if __name__ == "__main__":
    print(kernel(40000))
