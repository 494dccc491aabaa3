"""A fixed pure-Python task that gauges the machine's speed during a run.

    python3 -I -S perfbench/speedref.py

The benchmark runs it as a child process between passes, exactly as it
runs the CLI, and scales its timings by how long this task took (see
README.md, "Steadiness").  It imports nothing from pgstar, so no change
to the program can change its time.  Its work is of the kind the engine
does: the independence polynomial of a fixed random graph by branching
on a vertex, with a memo keyed by frozensets and polynomials as lists
of ints.  Of the tasks tried, this one followed the CLI's changes of
speed most closely.  It prints a checksum of its result, which the
benchmark compares with ``CHECKSUM`` so that a task cut short cannot
pass as a fast one.
"""

import random

CHECKSUM = "0000000003538683"

# A fixed G(40, 0.12); random() with an int seed gives the same sequence
# on every Python version.
N = 40
_rng = random.Random(5)
_edges = [(u, v) for u in range(N) for v in range(u + 1, N) if _rng.random() < 0.12]
ADJ = {v: frozenset([b for a, b in _edges if a == v] + [a for a, b in _edges if b == v])
       for v in range(N)}


def add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    total = list(a)
    for i, c in enumerate(b):
        total[i] += c
    return total


def independence_polynomial(vertices: frozenset, memo: dict) -> list[int]:
    """I(G[vertices]) = I(G - v) + x I(G - N[v]) for a vertex v of largest degree."""
    if not vertices:
        return [1]
    hit = memo.get(vertices)
    if hit is not None:
        return hit
    v = max(vertices, key=lambda u: len(ADJ[u] & vertices))
    rest = vertices - {v}
    poly = add(independence_polynomial(rest, memo),
               [0] + independence_polynomial(rest - ADJ[v], memo))
    memo[vertices] = poly
    return poly


def main() -> None:
    poly = independence_polynomial(frozenset(range(N)), {})
    print(format(sum((k + 1) * c for k, c in enumerate(poly)) % (1 << 64), "016x"))


if __name__ == "__main__":
    main()
