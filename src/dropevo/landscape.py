"""Gaussian-RBF kernel ridge regression over formulation space, simplex-face
grids, local maxima and fitness-island catchment maps.

The model is the dual form only: dual weights solve (K + lambda*I) theta = y
with K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)); a prediction is the kernel-
weighted sum over training points. Neither step calls BLAS, whose rounding
depends on its thread count (landscape contract 2): the solve is a blocked
Cholesky factorization built from elementwise numpy and non-optimized
``einsum``, and a prediction is an ``einsum`` row sum, whose bits for one
row do not depend on the other rows of the call.

Each of the four faces of the composition simplex (one component held at
zero) is rasterized to a resolution x resolution triangular lattice, and each
valid cell is assigned to the fitness island reached by steepest ascent over
its 8-neighbourhood, with the ascent allowed to cross the shared edges where
two faces describe the same composition.

The catchment is rank-min ascent with pointer jumping, after Vincent & Soille
(1991) watersheds: each cell gets a global rank (value descending, ties to the
smallest canonical (face, i, j)), its parent is the lowest rank in its 3x3
window on every face hosting it, and ``parent = parent[parent]`` repeats until
each cell points at its island's maximum.

The faces are independent: ``face_grid`` and ``face_csv`` take one face, so a
caller may map them over worker processes (the ``landscape`` command forks
one per usable CPU, up to 4), and the bytes do not depend on how many.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

# Landscape arithmetic contract, named in the landscape manifest: 2 is the
# BLAS-free Cholesky solve and einsum row sums.
LANDSCAPE_CONTRACT = 2

DEFAULT_SIGMA = 0.15
DEFAULT_LAMBDA = 1e-3
DEFAULT_RESOLUTION = 301


class LandscapeError(ValueError):
    pass


class NonpositiveBandwidth(LandscapeError):
    pass


class DimensionMismatch(LandscapeError):
    pass


class SolveFailure(LandscapeError):
    pass


def _check_sigma(sigma: float) -> None:
    # Below the smallest normal float, 2 sigma^2 is 0 or subnormal and the
    # kernel's d / (2 sigma^2) overflows to inf (NaN at d = 0 when it is 0).
    if not (sigma > 0 and 2.0 * sigma * sigma >= sys.float_info.min):
        raise NonpositiveBandwidth(
            f"sigma must be > 0 with 2*sigma^2 >= {sys.float_info.min:.4g}, got {sigma}")


def rbf_kernel(a, b, sigma: float) -> float:
    """exp(-||a-b||^2 / (2 sigma^2)), in (0, 1]."""
    _check_sigma(sigma)
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.exp(-np.dot(d, d) / (2.0 * sigma * sigma)))


def _kernel_matrix(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    """K_ij = exp(-||A_i - B_j||^2 / (2 sigma^2)).

    The squared distance is accumulated one component at a time, in the order
    ``((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)`` adds them, so the
    bits are those of the broadcast form without its (m, n, d) tensor.
    """
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"{A.shape[1]} vs {B.shape[1]} components")
    out = np.empty((len(A), len(B)))
    tmp = np.empty_like(out)
    np.square(np.subtract.outer(A[:, 0], B[:, 0], out=out), out=out)
    for k in range(1, A.shape[1]):
        out += np.square(np.subtract.outer(A[:, k], B[:, k], out=tmp), out=tmp)
    np.negative(out, out=out)
    out /= 2.0 * sigma * sigma
    return np.exp(out, out=out)


def _training_kernel(X: np.ndarray, sigma: float) -> np.ndarray:
    K = _kernel_matrix(X, X, sigma)
    # Symmetrize and pin the diagonal so K is exactly what the kernel defines.
    K = (K + K.T) / 2.0
    np.fill_diagonal(K, 1.0)
    return K


@dataclass
class KernelModel:
    """A fitted model. It holds only what a prediction needs, so it pickles
    small to a worker process; K is rebuilt, with the same bits, on access."""

    X: np.ndarray        # (n, 4) training inputs
    y: np.ndarray        # (n,) targets
    theta: np.ndarray    # (n,) dual weights
    lam: float
    sigma: float

    @property
    def K(self) -> np.ndarray:
        """(n, n) training kernel matrix."""
        return _training_kernel(self.X, self.sigma)


def fit(X, y, lam: float = DEFAULT_LAMBDA, sigma: float = DEFAULT_SIGMA) -> KernelModel:
    """Solve (K + lam*I) theta = y by Cholesky factorization."""
    _check_sigma(sigma)
    if lam <= 0:
        raise LandscapeError(f"lambda must be > 0, got {lam}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise DimensionMismatch(f"{X.shape[0]} inputs vs {y.shape[0]} targets")
    theta = _cholesky_solve(_training_kernel(X, sigma) + lam * np.eye(len(y)), y)
    return KernelModel(X=X, y=y, theta=theta, lam=lam, sigma=sigma)


_PANEL = 64  # columns factored together before one trailing update


def _cholesky_solve(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x with A x = y for symmetric positive definite A, via A = L L^T.

    Right-looking and blocked: within a panel of _PANEL columns each column
    is scaled by its pivot's root and subtracted from the panel's later
    columns as an elementwise outer product; the panel P then updates the
    trailing block by P P^T through einsum, which (without ``optimize``)
    never calls BLAS. Only the lower triangle of the work array is read.
    """
    L = np.array(A, dtype=float)
    n = len(L)
    for p in range(0, n, _PANEL):
        q = min(p + _PANEL, n)
        for k in range(p, q):
            pivot = L[k, k]
            if not pivot > 0:
                raise SolveFailure(
                    f"(K + lambda*I) not positive definite: pivot {k} is {float(pivot)}")
            L[k, k] = d = math.sqrt(pivot)
            L[k + 1:, k] /= d
            L[k + 1:, k + 1:q] -= np.multiply.outer(L[k + 1:, k], L[k + 1:q, k])
        P = L[q:, p:q]
        L[q:, q:] -= np.einsum("ik,jk->ij", P, P)
    # L z = y by columns, then L^T x = z by rows of L.
    x = np.array(y, dtype=float)
    for k in range(n):
        x[k] /= L[k, k]
        x[k + 1:] -= x[k] * L[k + 1:, k]
    for k in range(n - 1, -1, -1):
        x[k] /= L[k, k]
        x[:k] -= x[k] * L[k, :k]
    return x


def _weighted_rows(k: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """k @ theta as einsum row sums: each row's bits depend on that row and
    theta only, not on how many rows the call has or on BLAS threads."""
    return np.einsum("ij,j->i", k, theta)


def predict(model: KernelModel, x) -> float:
    """Kernel-weighted sum over training points at a single query."""
    k = _kernel_matrix(np.atleast_2d(np.asarray(x, dtype=float)), model.X, model.sigma)
    return float(_weighted_rows(k, model.theta)[0])


def predict_many(model: KernelModel, Xq: np.ndarray) -> np.ndarray:
    k = _kernel_matrix(np.asarray(Xq, dtype=float), model.X, model.sigma)
    return _weighted_rows(k, model.theta)


# ---------------------------------------------------------------------------
# Face lattices

@dataclass
class FaceLattice:
    """Triangular raster of one simplex face.

    ``face`` is the component held at zero. Cell (i, j) has X = i/(res-1),
    Y = j/(res-1), Z = 1 - X - Y; the remaining three components, in
    ascending index order, take (X, Y, Z). Cells with i + j > res-1 are
    invalid (Z < 0).
    """

    face: int
    resolution: int
    values: np.ndarray  # (res, res); NaN on invalid cells

    @property
    def valid(self) -> np.ndarray:
        return _valid_mask(self.resolution)


@cache
def _valid_mask(resolution: int) -> np.ndarray:
    """The read-only mask of cells with i + j <= resolution - 1, built once
    per resolution and shared by every lattice."""
    index = np.arange(resolution)
    mask = np.add.outer(index, index) <= resolution - 1
    mask.flags.writeable = False
    return mask


def face_axes(face: int) -> tuple[int, int, int]:
    """Component indices mapped to (X, Y, Z) for a face."""
    rest = [k for k in range(4) if k != face]
    return rest[0], rest[1], rest[2]


def cell_composition(face: int, i: int, j: int, resolution: int) -> tuple:
    ax, ay, az = face_axes(face)
    step = 1.0 / (resolution - 1)
    comp = [0.0] * 4
    comp[ax] = i * step
    comp[ay] = j * step
    comp[az] = 1.0 - comp[ax] - comp[ay]
    return tuple(comp)


# Kernel rows are built and summed _BLOCK_ROWS at a time in cache-sized
# buffers; a row's bits do not depend on the block it is in.
_BLOCK_ROWS = 32


def face_grid(model: KernelModel, face: int,
              resolution: int = DEFAULT_RESOLUTION) -> FaceLattice:
    """Predict the model over one face of the simplex."""
    if face not in (0, 1, 2, 3):
        raise LandscapeError("face must be 0..3")
    if resolution < 2:
        raise LandscapeError(f"resolution must be >= 2, got {resolution}")
    predictions = _face_predictions(model, face, resolution)
    lat = FaceLattice(face=face, resolution=resolution,
                      values=np.full((resolution, resolution), np.nan))
    lat.values[lat.valid] = predictions
    return lat


def _face_predictions(model: KernelModel, face: int, resolution: int) -> np.ndarray:
    """The model at a face's valid cells, in row-major (i, j) order.

    The bits are those of ``predict_many`` over the cell queries. Cell (i, j)
    queries component ``face`` = 0, X = c_i, Y = c_j and Z = (1 - c_i) - c_j,
    with c = linspace(0, 1, res). Of the four terms _kernel_matrix sums, in
    component order, (0 - x_face)^2 = x_face^2 is the same for every cell,
    (c_i - x_X)^2 the same along a lattice row and (c_j - x_Y)^2 a row of a
    (res, n) table, so only the Z term is built per cell. The grouping of the
    sum is kept and only operands swap; -d / s is computed as d / -s, which is
    exact. Each block of kernel rows is summed against theta as soon as it is
    built, while it is still in cache.
    """
    ax, ay, az = face_axes(face)
    X = model.X
    coords = np.linspace(0.0, 1.0, resolution)
    face_term = np.square(X[:, face])
    y_terms = np.square(np.subtract.outer(coords, X[:, ay]))
    scale = -2.0 * model.sigma * model.sigma
    # Each operand is a full block: numpy's broadcasting loops run several
    # times slower than its same-shape ones.
    d2, z_term, row_terms, x_z, face_terms = np.empty((5, _BLOCK_ROWS, len(X)))
    x_z[:], face_terms[:] = X[:, az], face_term
    predictions = np.empty(resolution * (resolution + 1) // 2)
    done = 0
    for i, x in enumerate(coords):
        z = (1.0 - x) - coords[:resolution - i]
        row = np.square(x - X[:, ax])
        if face < ay:  # faces 0, 1: ((x_face^2 + X) + Y) + Z
            row += face_term
        row_terms[:len(z)] = row
        for j in range(0, len(z), _BLOCK_ROWS):
            m = min(_BLOCK_ROWS, len(z) - j)
            out, t = d2[:m], z_term[:m]
            np.add(row_terms[:m], y_terms[j:j + m], out=out)
            if ay < face < az:  # face 2: ((X + Y) + x_face^2) + Z
                out += face_terms[:m]
            np.copyto(t, z[j:j + m, None])
            t -= x_z[:m]
            out += np.square(t, out=t)
            if face > az:  # face 3: ((X + Y) + Z) + x_face^2
                out += face_terms[:m]
            out /= scale
            np.exp(out, out=out)
            predictions[done:done + m] = _weighted_rows(out, model.theta)
            done += m
    return predictions


# ---------------------------------------------------------------------------
# Catchment / fitness islands

@dataclass
class Island:
    rank: int
    max_cell: tuple   # canonical (face, i, j)
    max_value: float
    cell_count: int


@dataclass
class IslandMap:
    labels: dict      # face -> (res, res) int array, -1 on invalid cells
    islands: list[Island]
    resolution: int


def _ascent(lattices: list[FaceLattice]):
    """Steepest-ascent step over the cells of 1-4 face lattices.

    Cells are keyed by integer composition (counts out of res-1), so a cell on
    an edge shared by several faces is one node, valued by the last lattice.
    Its canonical cell is its smallest (face, i, j), coded (face*res + i)*res
    + j. Returns the valid (ii, jj), the node of each cell per lattice, and
    per node its value, canonical code and parent, plus the nodes in rank
    order.
    """
    res = lattices[0].resolution
    if any(lat.resolution != res for lat in lattices):
        raise LandscapeError("all lattices must share one resolution")
    ii, jj = np.nonzero(lattices[0].valid)
    keys, codes, values = [], [], []
    for lat in lattices:
        counts = np.zeros((4, len(ii)), dtype=np.int64)
        counts[list(face_axes(lat.face))] = ii, jj, res - 1 - ii - jj
        keys.append((counts[0] * res + counts[1]) * res + counts[2])
        codes.append((lat.face * res + ii) * res + jj)
        values.append(lat.values[ii, jj])
    uniq, node = np.unique(np.concatenate(keys), return_inverse=True)
    n = len(uniq)
    last = np.zeros(n, dtype=np.int64)  # a shared cell takes the last lattice's value
    np.maximum.at(last, node, np.arange(len(node)))
    value = np.concatenate(values)[last]
    canon = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(canon, node, np.concatenate(codes))
    order = np.lexsort((canon, -value))
    rank = np.argsort(order)

    # Lowest rank in each cell's 3x3 window; padding and invalid cells hold n.
    node = node.reshape(len(lattices), -1)
    grid = np.full((len(lattices), res + 2, res + 2), n, dtype=np.int64)
    grid[:, ii + 1, jj + 1] = rank[node]
    best = grid[:, 1:-1, 1:-1].copy()
    for di, dj in np.ndindex(3, 3):
        np.minimum(best, grid[:, di:di + res, dj:dj + res], out=best)
    step = np.full(n, n, dtype=np.int64)
    np.minimum.at(step, node.ravel(), best[:, ii, jj].ravel())
    return ii, jj, node, value, canon, order[step], order


def _decode(code: int, res: int) -> tuple[int, int, int]:
    face, rest = divmod(int(code), res * res)
    return (face, *divmod(rest, res))


def local_maxima(lat: FaceLattice) -> list[tuple[int, int]]:
    """Cells that are fixed points of the steepest-ascent step (one
    representative per connected plateau)."""
    _, _, _, _, canon, parent, _ = _ascent([lat])
    fixed = canon[parent == np.arange(len(parent))]
    return sorted(_decode(code, lat.resolution)[1:] for code in fixed)


def catchment_map(lattices: list[FaceLattice]) -> IslandMap:
    """Label every valid cell with the island whose maximum its steepest
    ascent converges to, resolving roots by pointer jumping."""
    ii, jj, node, value, canon, parent, order = _ascent(lattices)
    res = lattices[0].resolution
    peaks = order[parent[order] == order]  # roots, in rank order
    while not np.array_equal(parent, root := parent[parent]):
        parent = root
    island_of = np.empty(len(parent), dtype=np.int64)
    island_of[peaks] = np.arange(len(peaks))
    label = island_of[parent]
    sizes = np.bincount(label, minlength=len(peaks))
    islands = [Island(rank=rank, max_cell=_decode(canon[peak], res),
                      max_value=float(value[peak]), cell_count=int(sizes[rank]))
               for rank, peak in enumerate(peaks)]
    labels = {}
    for lat, nodes in zip(lattices, node):
        grid = np.full((res, res), -1, dtype=int)
        grid[ii, jj] = label[nodes]
        labels[lat.face] = grid
    return IslandMap(labels=labels, islands=islands, resolution=res)


# ---------------------------------------------------------------------------
# Export

@cache
def _csv_prefixes(resolution: int) -> tuple[str, ...]:
    """"i,j,X,Y,Z," per valid cell in row-major order, built once per
    resolution and shared by every face."""
    ii, jj = np.nonzero(_valid_mask(resolution))
    step = 1.0 / (resolution - 1)
    coord = [f"{k * step:.10g}" for k in range(resolution)]  # X of row k, Y of column k
    return tuple(f"{i},{j},{coord[i]},{coord[j]},{1.0 - i * step - j * step:.10g},"
                 for i, j in zip(ii.tolist(), jj.tolist()))


def face_csv(lat: FaceLattice, labels: np.ndarray | None = None) -> str:
    """The landscape.csv lines of one face; `labels` is its (res, res) island
    label grid, or None for empty labels."""
    valid = lat.valid
    labels = labels[valid].tolist() if labels is not None else [""] * int(valid.sum())
    return "".join(f"{lat.face},{prefix}{value!r},{label}\n" for prefix, value, label
                   in zip(_csv_prefixes(lat.resolution), lat.values[valid].tolist(), labels))


def landscape_csv(lattices: list[FaceLattice], island_map: IslandMap | None = None,
                  map=map) -> str:
    """The header and every face's lines. `map` applies face_csv to the faces
    in order (an executor's map writes them concurrently)."""
    labels = [island_map.labels[lat.face] if island_map is not None else None
              for lat in lattices]
    return "".join(["face,i,j,X,Y,Z,fitness,island_label\n", *map(face_csv, lattices, labels)])


def island_summary_json(island_map: IslandMap) -> str:
    payload = [
        {"rank": isl.rank, "max_value": isl.max_value,
         "max_cell": {"face": isl.max_cell[0], "i": isl.max_cell[1], "j": isl.max_cell[2]},
         "cell_count": isl.cell_count}
        for isl in island_map.islands
    ]
    return json.dumps(payload, indent=2) + "\n"


def lattice_to_pgm(lat: FaceLattice) -> bytes:
    """Portable graymap of a face grid (invalid cells black)."""
    vals = np.where(lat.valid, lat.values, np.nan)
    finite = vals[np.isfinite(vals)]
    lo = finite.min() if finite.size else 0.0
    hi = finite.max() if finite.size else 1.0
    span = (hi - lo) or 1.0
    img = np.zeros_like(vals, dtype=np.uint8)
    mask = np.isfinite(vals)
    img[mask] = np.round(1 + 254 * (vals[mask] - lo) / span).astype(np.uint8)
    header = f"P5\n{lat.resolution} {lat.resolution}\n255\n".encode()
    return header + img.tobytes()
