"""Brute-force reference checks for the benchmark's outputs.

Nothing here imports permdeflate: every check is an independent,
deliberately naive re-derivation (itertools enumeration, direct interval
scans), so a fast-path bug in the program cannot also hide in its oracle.
Permutations are tuples of the values 1..n.
"""

from __future__ import annotations

from itertools import combinations

#: Members of Av(2413) by length 1..10 (OEIS A022558).
AV2413_COUNTS = (1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662)

#: The length-5 principal classes the classifier leaves open, one
#: representative per symmetry class.
OPEN_LENGTH_5 = ((2, 5, 3, 1, 4), (2, 4, 1, 5, 3), (2, 3, 5, 1, 4), (2, 4, 5, 1, 3))


def parse(text: str) -> tuple[int, ...]:
    """Whitespace-separated values, or a compact digit string."""
    parts = text.split()
    if len(parts) == 1 and len(parts[0]) > 1:
        parts = list(parts[0])
    return tuple(int(v) for v in parts)


def text(p) -> str:
    return " ".join(map(str, p))


def same_order(a, b) -> bool:
    """Do the two sequences have the same relative order?"""
    return all((a[i] < a[j]) == (b[i] < b[j]) for i in range(len(a)) for j in range(i + 1, len(a)))


def least_occurrence(pattern, host):
    """1-based positions of the position-lexicographically least occurrence
    of ``pattern`` in ``host``, or None."""
    for idx in combinations(range(len(host)), len(pattern)):
        if same_order(pattern, [host[i] for i in idx]):
            return tuple(i + 1 for i in idx)
    return None


def avoids_all(perm, basis) -> bool:
    return all(least_occurrence(b, perm) is None for b in basis)


def insert(perm, pos_slot: int, val_slot: int):
    """Insert the value ``val_slot`` before 1-based position ``pos_slot``,
    shifting the values at or above it up by one."""
    bumped = [v + 1 if v >= val_slot else v for v in perm]
    return tuple(bumped[: pos_slot - 1] + [val_slot] + bumped[pos_slot - 1 :])


def is_simple(perm) -> bool:
    """No interval of size 2..n-1: checked window by window."""
    n = len(perm)
    for size in range(2, n):
        for start in range(n - size + 1):
            window = perm[start : start + size]
            if max(window) - min(window) == size - 1:
                return False
    return True


def symmetries(perm):
    """The eight images of ``perm`` under reverse, complement and inverse."""
    n = len(perm)
    inverse = [0] * n
    for i, v in enumerate(perm):
        inverse[v - 1] = i + 1
    images = set()
    for base in (tuple(perm), tuple(inverse)):
        for img in (base, base[::-1]):
            images.add(img)
            images.add(tuple(n + 1 - v for v in img))
    return images


def is_open_length_5(pi) -> bool:
    return any(tuple(pi) in symmetries(b) for b in OPEN_LENGTH_5)


def reinflate(tree) -> tuple[int, ...]:
    """The permutation a JSON decomposition tree describes: each node's
    skeleton inflated by its children, leaves being single points."""
    if tree.get("leaf"):
        return (1,)
    return inflate(parse(tree["skeleton"]), [reinflate(child) for child in tree["children"]])


def inflate(skeleton, parts) -> tuple[int, ...]:
    """Replace entry i of ``skeleton`` by the block ``parts[i]``."""
    if len(parts) != len(skeleton):
        raise ValueError("skeleton and block count differ")
    offsets = {}
    base = 0
    for value in range(1, len(skeleton) + 1):
        offsets[value] = base
        base += len(parts[skeleton.index(value)])
    out = []
    for value, part in zip(skeleton, parts):
        out.extend(v + offsets[value] for v in part)
    return tuple(out)


def has_simple_extension(perm, basis, max_len: int) -> bool:
    """Does some simple member of Av(basis) of length <= max_len contain
    ``perm``?  Every such member is reached from ``perm`` by one-point
    insertions through members, because the class is downward closed."""
    level = {tuple(perm)}
    for n in range(len(perm), max_len + 1):
        if any(is_simple(p) for p in level):
            return True
        if n == max_len:
            break
        level = {
            child
            for p in level
            for ps in range(1, n + 2)
            for vs in range(1, n + 2)
            if avoids_all(child := insert(p, ps, vs), basis)
        }
    return False


def witness_holds(witness, basis, max_len: int) -> bool:
    """A reported witness is a member with no simple extension up to
    ``max_len``."""
    return avoids_all(witness, basis) and not has_simple_extension(witness, basis, max_len)
