"""Seeded input generators for the benchmark workloads.

Each generator returns a `Pairs` of integer ids plus the string names the
edge-list file uses; the program under test only ever sees the written file.
The same numpy Generator state gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Pairs:
    """A binary relation as parallel integer columns with printable names."""
    left: np.ndarray
    right: np.ndarray
    left_names: list
    right_names: list

    @property
    def n(self) -> int:
        return len(self.left)

    def write(self, path) -> None:
        ln, rn = self.left_names, self.right_names
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(f"{ln[a]} {rn[b]}"
                              for a, b in zip(self.left.tolist(),
                                              self.right.tolist())))
            f.write("\n")


def community(rng: np.random.Generator, nodes: int, communities: int,
              prob: float) -> Pairs:
    """Edges (a, b), self-loops included, only inside evenly split blocks."""
    bounds = np.linspace(0, nodes, communities + 1).astype(np.int64)
    blocks = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        members = np.arange(lo, hi, dtype=np.int64)
        a = np.repeat(members, len(members))
        b = np.tile(members, len(members))
        keep = rng.random(len(a)) < prob
        blocks.append(np.stack([a[keep], b[keep]], axis=1))
    edges = np.concatenate(blocks)
    names = [str(i) for i in range(nodes)]
    return Pairs(edges[:, 0], edges[:, 1], names, names)


def set_family(rng: np.random.Generator, sets: int, universe: int,
               max_size: int) -> Pairs:
    """The `mmjoin gen --kind sets` recipe: set a gets a uniform size in
    [1, max_size] and that many distinct elements of the universe."""
    left, right = [], []
    for a in range(sets):
        size = int(rng.integers(1, max_size + 1))
        elems = rng.choice(universe, size=min(size, universe), replace=False)
        left.append(np.full(len(elems), a, dtype=np.int64))
        right.append(elems.astype(np.int64))
    return Pairs(np.concatenate(left), np.concatenate(right),
                 [f"s{a}" for a in range(sets)],
                 [f"e{e}" for e in range(universe)])
