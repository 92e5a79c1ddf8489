"""Workload inputs, made from the workload seed with the oracles' own graph code."""

from __future__ import annotations

import random

import oracles

# The acceptance suite's figure-8 instances: pendant path lengths at the
# five cycle vertices, n = 10..12.
FIG8_LENGTHS = (
    (1, 1, 1, 1, 1),
    (2, 1, 1, 1, 1),
    (2, 2, 1, 1, 1),
    (2, 1, 2, 1, 1),
    (3, 1, 1, 1, 1),
    (1, 2, 2, 1, 1),
)


def random_connected_subcubic(rng, n):
    """A random tree of maximum degree 3, then random extra edges that keep
    every degree at most 3."""
    degree = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if degree[w] < 3])
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    for _ in range(rng.randint(0, n // 2 + 1)):
        free = [w for w in range(n) if degree[w] < 3]
        pairs = [(u, v) for i, u in enumerate(free) for v in free[i + 1 :] if (u, v) not in edges]
        if not pairs:
            break
        u, v = rng.choice(pairs)
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def structure_corpus(seed, count, sizes=(11, 12)):
    """count distinct labelled graphs, as graph6 lines, in the order drawn."""
    rng = random.Random(seed)
    seen = set()
    lines = []
    while len(lines) < count:
        line = oracles.encode_graph6(*random_connected_subcubic(rng, rng.choice(sizes)))
        if line not in seen:
            seen.add(line)
            lines.append(line)
    return lines


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description="Write the structure-n12 corpus as graph6 lines.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in structure_corpus(args.seed, args.count)))


if __name__ == "__main__":
    main()
