"""One sha256 digest of every GF(2) elimination output the tables rest on.

For each model below it records, in a fixed order:

* for every boundary matrix: the rank, the kernel basis, and the solution
  of one seeded consistent system (right-hand side = matrix times a
  seeded random vector), all read off ``relations`` among its columns;
* the cohomology basis in every degree;
* the coordinates of Sq^0 of each basis class in that basis.

Two versions of the library that print the same digest agree bit for bit
on all of these.  Run from the repository root:

    PYTHONPATH=src python3 tools/elimination_digest.py
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from expk.cochains import square_coordinates
from expk.complexes import projective_plane, torus
from expk.gf2 import Gf2Vector, relations
from expk.spaces import SpaceSpec, build_space, sphere

MODELS = {
    "torus": torus,
    "rp2": projective_plane,
    "sphere2-cap4": lambda: sphere(2, 4),
    "exp3-sphere1": lambda: build_space(SpaceSpec("exp", n=1, k=3)),
    "exp2-sphere2": lambda: build_space(SpaceSpec("exp", n=2, k=2)),
    "exp2-sphere3": lambda: build_space(SpaceSpec("exp", n=3, k=2)),
    "exp3-sphere2": lambda: build_space(SpaceSpec("exp", n=2, k=3)),
    "sym3-sphere1": lambda: build_space(SpaceSpec("sym", n=1, k=3)),
    "sym3-sphere2": lambda: build_space(SpaceSpec("sym", n=2, k=3)),
}


def boundary_columns(model, n: int) -> list[int]:
    """Each column of the boundary ∂_n as an int: the xor of its faces' bits."""
    kept_sets = [tuple(t for t in range(n + 1) if t != i) for i in range(n + 1)]
    faces = np.stack([model.restrict(n, kept) for kept in kept_sets], axis=1)
    columns = []
    for column in faces.tolist():
        x = 0
        for row in column:
            if row >= 0:
                x ^= 1 << row
        columns.append(x)
    return columns


def model_outputs(model, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    boundaries = []
    for n in range(1, model.level_cap + 1):
        columns = boundary_columns(model, n)
        width = len(columns)
        kernel = relations(columns)
        x = rng.integers(0, 2, size=width, dtype=np.uint8)
        b = 0  # m.x: the xor of the columns x selects
        for j in np.flatnonzero(x).tolist():
            b ^= columns[j]
        # the solution with free variables zero is b's relation, less b
        solution = relations([*columns, b])[-1] ^ 1 << width
        boundaries.append(
            {
                "rank": width - len(kernel),
                "kernel": [Gf2Vector(width, z).nonzero_indices() for z in kernel],
                "solve": Gf2Vector(width, solution).nonzero_indices(),
            }
        )
    bases, squares = [], []
    for d in range(model.top_nondegenerate_level() + 1):
        basis = model.cohomology_basis(d)
        bases.append([c.support.nonzero_indices() for c in basis])
        squares.append(
            [
                [j for j, bit in enumerate(coords) if bit]
                for coords in square_coordinates(model, 0, d)
            ]
        )
    return {"boundaries": boundaries, "bases": bases, "sq0": squares}


def main() -> int:
    total = hashlib.sha256()
    for seed, (name, build) in enumerate(MODELS.items()):
        text = json.dumps(model_outputs(build(), seed), separators=(",", ":"))
        total.update(name.encode() + b"\0" + text.encode() + b"\0")
        print(f"{name}: {hashlib.sha256(text.encode()).hexdigest()}", flush=True)
    print(f"digest: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
