"""Classical small triangulations used as independent test spaces."""

from __future__ import annotations

from .simplicial import SimplicialSetModel
from .spaces import DEFAULT_MAX_LEVEL_SIZE, from_complex

# Minimal 6-vertex triangulation of the real projective plane: all 15
# pairs appear as edges, 10 triangles, Euler characteristic 1.
PROJECTIVE_PLANE_FACETS = (
    (0, 1, 3),
    (0, 1, 4),
    (0, 2, 3),
    (0, 2, 5),
    (0, 4, 5),
    (1, 2, 4),
    (1, 2, 5),
    (1, 3, 5),
    (2, 3, 4),
    (3, 4, 5),
)

# 5-vertex Moebius band: a strip of five triangles whose boundary is a
# single 5-cycle.
MOEBIUS_BAND_FACETS = (
    (0, 1, 2),
    (1, 2, 3),
    (2, 3, 4),
    (0, 3, 4),
    (0, 1, 4),
)


def torus_facets():
    """18-triangle torus on the 3x3 grid with wrap-around diagonals."""
    out = []

    def v(a, b):
        return 3 * (a % 3) + (b % 3)

    for i in range(3):
        for j in range(3):
            out.append(tuple(sorted((v(i, j), v(i + 1, j), v(i + 1, j + 1)))))
            out.append(tuple(sorted((v(i, j), v(i, j + 1), v(i + 1, j + 1)))))
    return tuple(out)


def projective_plane(
    cap: int = 4, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE
) -> SimplicialSetModel:
    return from_complex(
        PROJECTIVE_PLANE_FACETS, cap, "projective plane", max_level_size
    )


def moebius_band(
    cap: int = 3, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE
) -> SimplicialSetModel:
    return from_complex(MOEBIUS_BAND_FACETS, cap, "moebius band", max_level_size)


def torus(
    cap: int = 3, max_level_size: int = DEFAULT_MAX_LEVEL_SIZE
) -> SimplicialSetModel:
    return from_complex(torus_facets(), cap, "9-vertex torus", max_level_size)
