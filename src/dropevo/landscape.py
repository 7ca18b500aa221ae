"""Gaussian-RBF kernel ridge regression over formulation space, simplex-face
grids and fitness-island catchment maps.

The model is the dual form only: dual weights solve (K + lambda*I) theta = y
with K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)); a prediction is the kernel-
weighted sum over training points. Landscape contract 3 fixes every bit:

- No step calls BLAS, whose rounding depends on its thread count. The solve
  is a blocked Cholesky factorization built from elementwise numpy and
  non-optimized ``einsum``, and a prediction is an ``einsum`` row sum, whose
  bits for one row do not depend on the other rows of the call.
- No step calls ``np.exp``, whose loop, and so whose last bits, numpy picks
  by CPU feature. ``dexp`` is fdlibm's exp built from correctly rounded
  operations only.
- A prediction factors the kernel per component: with
  t_k = dexp(-(q_k - x_k)^2 / (2 sigma^2)), the kernel row of query q is
  (t_0 t_1)(t_2 t_3). The training kernel takes dexp of the summed squared
  distance.

A prediction that is not finite, as when a row sum overflows (einsum raises
no floating-point error), is a FloatingPointError from ``predict_many`` and
``face_grids``.

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

The faces are independent, and faces 0 and 1, like faces 2 and 3, share
their factor tables: ``face_grids`` predicts one face or one such pair, and
``face_values_text`` writes a face's values as the CSV's text, so a caller may
map the two pairs over worker processes (the ``landscape`` command forks one
per usable CPU, up to 2), and the bytes do not depend on how many.
``landscape_csv`` joins the faces' text with their cell prefixes and labels.

The landscape command checks sigma, lambda and the resolution where they
enter, and the functions here trust what it passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# Landscape arithmetic contract, named in the landscape manifest: 3 is the
# BLAS-free Cholesky solve, einsum row sums and the per-component kernel
# factors of dexp (see the module docstring).
LANDSCAPE_CONTRACT = 3

DEFAULT_SIGMA = 0.15
DEFAULT_LAMBDA = 1e-3
DEFAULT_RESOLUTION = 301


# fdlibm e_exp.c: ln 2 split so that k * _LN2_HI is exact, 1 / ln 2, and the
# coefficients of its rational approximation of exp on [-ln2/2, ln2/2].
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e+00
_EXP_P = (1.66666666666666019037e-01, -2.77777777770155933842e-03,
          6.61375632143793436117e-05, -1.65339022054652515390e-06,
          4.13813679705723846039e-08)


# Rows per dexp call: its dozen passes over the array then stay in cache.
_DEXP_ROWS = 8


def dexp(x) -> np.ndarray:
    """exp(x) elementwise for an array x <= 0, with the same bits on every CPU.

    fdlibm's e_exp.c (after Tang, ACM TOMS 15(2), 1989), vectorized: x =
    k ln2 + r with |r| <= ln2 / 2, exp(r) from a degree-5 rational form, and
    2^k applied by ldexp, which rounds once into the subnormal range. Only
    correctly rounded operations run (+ - * /, rint, ldexp), whereas numpy
    picks np.exp's loop by CPU feature. Within 1 ulp of math.exp. x is
    clamped at -746 first, below exp's underflow to 0 at -745.13, so the
    reduction stays exact and no warning is raised.
    """
    x = np.maximum(x, -746.0)
    k = np.rint(np.multiply(x, _INV_LN2))
    hi = np.subtract(x, np.multiply(k, _LN2_HI))
    lo = np.multiply(k, _LN2_LO, out=x)
    r = hi - lo
    t = r * r
    c = t * _EXP_P[4]
    for p in _EXP_P[3::-1]:
        c += p
        c *= t
    np.subtract(r, c, out=c)  # c = r - t(P1 + t(P2 + ...))
    # y = 1 - ((lo - r c / (2 - c)) - hi), in place.
    r *= c
    r /= np.subtract(2.0, c, out=c)
    np.subtract(lo, r, out=r)
    r -= hi
    y = np.subtract(1.0, r, out=r)
    return np.ldexp(y, k.astype(np.int32), out=y)


def _kernel_matrix(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    """K_ij = dexp(-||A_i - B_j||^2 / (2 sigma^2)).

    The squared distance is accumulated one component at a time, in the order
    ``((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)`` adds them, so the
    bits are those of the broadcast form without its (m, n, d) tensor.
    K(X, X), the training kernel, is exactly symmetric with a unit diagonal:
    (a - b)^2 == (b - a)^2, and dexp(-0.0) == 1.0.
    """
    out = np.empty((len(A), len(B)))
    tmp = np.empty_like(out)
    np.square(np.subtract.outer(A[:, 0], B[:, 0], out=out), out=out)
    for k in range(1, A.shape[1]):
        out += np.square(np.subtract.outer(A[:, k], B[:, k], out=tmp), out=tmp)
    np.negative(out, out=out)
    out /= 2.0 * sigma * sigma
    for r in range(0, len(out), _DEXP_ROWS):
        out[r:r + _DEXP_ROWS] = dexp(out[r:r + _DEXP_ROWS])
    return out


@dataclass
class KernelModel:
    """A fitted model: its training inputs, dual weights and bandwidth. It
    holds neither the targets nor an n x n matrix, so it pickles small to a
    worker process."""

    X: np.ndarray        # (n, 4) training inputs
    theta: np.ndarray    # (n,) dual weights
    sigma: float


def fit(X, y, lam: float = DEFAULT_LAMBDA, sigma: float = DEFAULT_SIGMA) -> KernelModel:
    """Solve (K + lam*I) theta = y by Cholesky factorization; a matrix that is
    not numerically positive definite is a FloatingPointError. Callers pass
    checked values, as the landscape command does: n >= 1 rows of X with one
    target each, lam > 0, and sigma with 2 sigma^2 a normal float."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    theta = _cholesky_solve(_kernel_matrix(X, X, sigma) + lam * np.eye(len(y)), y)
    return KernelModel(X=X, theta=theta, sigma=sigma)


_PANEL = 64  # columns factored together before one trailing update


def _cholesky_solve(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x with A x = y for symmetric positive definite A, via A = L L^T.

    Right-looking and blocked: within a panel of _PANEL columns each column
    is scaled by its pivot's root and subtracted from the panel's later
    columns as an elementwise outer product; the panel P then updates the
    trailing block by P P^T through einsum, which (without ``optimize``)
    never calls BLAS. Only the lower triangle of the work array is read, so
    the update runs per block column of _PANEL columns, on the rows at and
    below it: each element gets the same einsum sum as over the whole block.
    """
    L = np.array(A, dtype=float)
    n = len(L)
    for p in range(0, n, _PANEL):
        q = min(p + _PANEL, n)
        for k in range(p, q):
            pivot = L[k, k]
            if not pivot > 0:
                raise FloatingPointError(
                    f"(K + lambda*I) not positive definite: pivot {k} is {float(pivot)}")
            L[k, k] = d = math.sqrt(pivot)
            L[k + 1:, k] /= d
            L[k + 1:, k + 1:q] -= np.multiply.outer(L[k + 1:, k], L[k + 1:q, k])
        P = L[q:, p:q]
        for c in range(q, n, _PANEL):  # block columns right of the panel
            L[c:, c:c + _PANEL] -= np.einsum("ik,jk->ij", P[c - q:], P[c - q:c - q + _PANEL])
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
    """k @ theta as einsum row sums over k's last axis: each row's bits depend
    on that row and theta only, not on how many rows the call has or on BLAS
    threads."""
    return np.einsum("...j,j->...", k, theta)


def _factor(coords: np.ndarray, x: np.ndarray, sigma: float,
            out: np.ndarray | None = None) -> np.ndarray:
    """(len(coords), n) kernel factors dexp(-(c - x_n)^2 / (2 sigma^2)) of one
    component at each query coordinate c, in `out` if given. -d / s is
    computed as d / -s, which is exact."""
    out = np.empty((len(coords), len(x))) if out is None else out
    for r in range(0, len(coords), _DEXP_ROWS):
        d = np.subtract.outer(coords[r:r + _DEXP_ROWS], x)
        np.square(d, out=d)
        d /= -2.0 * sigma * sigma
        out[r:r + _DEXP_ROWS] = dexp(d)
    return out


# Queries per predict_many pass, which bounds its (rows, n) buffers.
_PREDICT_ROWS = 1024


def predict_many(model: KernelModel, Xq) -> np.ndarray:
    """The model at each row of Xq (m, 4): theta summed against the kernel
    row (t_0 t_1)(t_2 t_3), where t_k is component k's factor."""
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))

    def factor(queries, k):
        # dexp is elementwise, so a factor is computed once per distinct
        # coordinate and gathered, with the same bits.
        coords, inverse = np.unique(queries[:, k], return_inverse=True)
        return _factor(coords, model.X[:, k], model.sigma)[inverse]

    out = np.empty(len(Xq))
    for s in range(0, len(Xq), _PREDICT_ROWS):
        queries = Xq[s:s + _PREDICT_ROWS]
        rows = factor(queries, 0)
        rows *= factor(queries, 1)
        t = factor(queries, 2)
        t *= factor(queries, 3)
        rows *= t
        out[s:s + len(queries)] = _weighted_rows(rows, model.theta)
    if not np.isfinite(out).all():
        raise FloatingPointError("a prediction is not finite")
    return out


# ---------------------------------------------------------------------------
# Face lattices

@dataclass
class FaceLattice:
    """Triangular raster of one simplex face.

    ``face`` is the component held at zero. Cell (i, j) has X = c_i, Y = c_j
    and Z = c_(res-1-i-j), with c_k = k/(res-1); the remaining three
    components, in ascending index order, take (X, Y, Z). Cells with
    i + j > res-1 are invalid (Z < 0).
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
    """The query of cell (i, j), as ``face_grid`` predicts it."""
    comp = [0.0] * 4
    for axis, k in zip(face_axes(face), (i, j, resolution - 1 - i - j)):
        comp[axis] = k / (resolution - 1)
    return tuple(comp)


# Kernel rows are built and summed _BLOCK_ROWS at a time in cache-sized
# buffers; a row's bits do not depend on the block it is in.
_BLOCK_ROWS = 32


def face_grid(model: KernelModel, face: int, resolution: int) -> FaceLattice:
    """Predict the model over one face of the simplex, with the bits of
    ``predict_many`` at each cell's ``cell_composition``."""
    return face_grids(model, (face,), resolution)[0]


def face_grids(model: KernelModel, faces: tuple[int, ...], resolution: int) -> list[FaceLattice]:
    """``face_grid`` of each face in `faces`: one face, or the pair (0, 1) or
    (2, 3), which share their factor tables and block products. Callers pass
    one of these and a resolution >= 2, which the landscape command checks.

    A cell's kernel row is (t_0 t_1)(t_2 t_3), and one of the two pairs is
    the same for every cell of a walk w over the lattice: F X along lattice
    row i on faces 0 and 1 (F is the held component's factor) and Z F along
    a Z-row on faces 2 and 3. The other pair, Y Z or X Y, is row a of a
    forward factor table times row b = res-1-w-a of a reversed one, so a
    block of a walk is one product of two table slices, and no exp runs per
    cell. Faces 0 and 1 have the same Y and Z components, and faces 2 and 3
    the same X and Y, so a pair computes each block product once and each
    face multiplies it by its own walk factor. Table B is built whole and
    table A half at a time (the cells with a < ceil(res/2), then the rest),
    which keeps the tables to 1.5 x (res, n).
    """
    res, X, theta, sigma = resolution, model.X, model.theta, model.sigma
    lower = faces[0] < 2
    axes = face_axes(faces[0])
    fwd, rev = axes[1:] if lower else axes[:2]
    walks = [face_axes(face)[0 if lower else 2] for face in faces]
    held = np.stack([_factor(np.zeros(1), X[:, face], sigma) for face in faces])
    coords = np.arange(res) / (res - 1)
    lats = [FaceLattice(face=face, resolution=res, values=np.full((res, res), np.nan))
            for face in faces]
    # A walk's cells are (w, a) on faces 0 and 1 and (a, b) on faces 2 and 3,
    # so along it the flat index steps by 1 or by res-1.
    cells, step = [lat.values.reshape(-1) for lat in lats], 1 if lower else res - 1
    table_b = _factor(coords, X[:, rev], sigma)
    half = (res + 1) // 2
    table_a = np.empty((half, len(X)))
    block = np.empty((_BLOCK_ROWS, len(X)))
    kernel = np.empty((len(faces), _BLOCK_ROWS, len(X)))
    for lo, hi in ((0, half), (half, res)):
        _factor(coords[lo:hi], X[:, fwd], sigma, out=table_a[:hi - lo])
        for w0 in range(0, res - lo, _DEXP_ROWS):  # walks with a cell a >= lo
            ws = coords[w0:min(w0 + _DEXP_ROWS, res - lo)]
            pairs = np.stack([_factor(ws, X[:, walk], sigma) for walk in walks])
            pairs *= held
            for k in range(len(ws)):
                w = w0 + k
                stop = min(hi, res - w)
                for a in range(lo, stop, _BLOCK_ROWS):
                    m = min(_BLOCK_ROWS, stop - a)
                    b = res - 1 - w - a
                    product = np.multiply(table_a[a - lo:a - lo + m], table_b[b::-1][:m],
                                          out=block[:m])
                    start = w * res + a if lower else a * res + b
                    out = np.multiply(product, pairs[:, k, None], out=kernel[:, :m])
                    for values, row in zip(cells, _weighted_rows(out, theta)):
                        values[start:start + m * step:step] = row
    for lat in lats:
        if not np.isfinite(lat.values[lat.valid]).all():
            raise FloatingPointError(f"face {lat.face}: a prediction is not finite")
    return lats


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
    """Steepest-ascent step over the cells of 1-4 face lattices of one
    resolution.

    Cells are keyed by integer composition (counts out of res-1), so a cell on
    an edge shared by several faces is one node, valued by the last lattice.
    Its canonical cell is its smallest (face, i, j), coded (face*res + i)*res
    + j. Returns the valid (ii, jj), the node of each cell per lattice, and
    per node its value, canonical code and parent, plus the nodes in rank
    order.
    """
    res = lattices[0].resolution
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


def face_values_text(lat: FaceLattice) -> str:
    """The repr of a face's valid values as a list, in row-major order: its
    fitness column, each value as ``repr`` writes it, between ", "."""
    return repr(lat.values[lat.valid].tolist())


def landscape_csv(lattices: list[FaceLattice], island_map: IslandMap,
                  texts: list[str]) -> str:
    """The header and every face's lines, "face,i,j,X,Y,Z,fitness,label".
    `texts` holds each lattice's ``face_values_text`` (the landscape command
    makes them in its workers)."""
    prefixes = _csv_prefixes(island_map.resolution)
    valid = _valid_mask(island_map.resolution)
    ends = [f",{label}\n" for label in range(len(island_map.islands))]
    faces = ["face,i,j,X,Y,Z,fitness,island_label\n"]
    for lat, text in zip(lattices, texts):
        # Four parts a line: the face, the cell's prefix, its value and its
        # label, interleaved into a list that starts as the face throughout.
        # Each face is joined on its own, so only one face's parts are held.
        parts = [f"{lat.face},"] * (4 * len(prefixes))
        parts[1::4] = prefixes
        parts[2::4] = text[1:-1].split(", ")
        parts[3::4] = map(ends.__getitem__, island_map.labels[lat.face][valid].tolist())
        faces.append("".join(parts))
    return "".join(faces)


def island_summary_json(island_map: IslandMap) -> str:
    payload = [
        {"rank": isl.rank, "max_value": isl.max_value,
         "max_cell": {"face": isl.max_cell[0], "i": isl.max_cell[1], "j": isl.max_cell[2]},
         "cell_count": isl.cell_count}
        for isl in island_map.islands
    ]
    return json.dumps(payload, indent=2) + "\n"


def lattice_to_pgm(lat: FaceLattice) -> bytes:
    """Portable graymap of a face grid (invalid cells black). face_grids
    leaves every valid value finite; scaling them by 2**-9, exact for normal
    floats, keeps 254 * (v - lo) finite."""
    vals = lat.values[lat.valid] * 2.0 ** -9
    lo = vals.min()
    span = (vals.max() - lo) or 1.0
    img = np.zeros(lat.values.shape, dtype=np.uint8)
    img[lat.valid] = np.round(1 + 254 * (vals - lo) / span).astype(np.uint8)
    header = f"P5\n{lat.resolution} {lat.resolution}\n255\n".encode()
    return header + img.tobytes()
