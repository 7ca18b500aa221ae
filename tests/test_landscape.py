"""Kernel-ridge and catchment tests with independent oracles.

The KRR oracle uses closed forms (single training point, duplicated points,
the lambda -> 0 interpolation limit) plus a direct numpy.linalg.solve
re-derivation. The catchment oracle iterates steepest ascent from every cell
to convergence, sharing no code with dropevo.landscape's region-growing.
"""

import hashlib
import math
import multiprocessing
import warnings
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropevo.landscape import (
    FaceLattice,
    IslandMap,
    KernelModel,
    LandscapeError,
    NonpositiveBandwidth,
    _cholesky_solve,
    _kernel_matrix,
    catchment_map,
    cell_composition,
    dexp,
    face_axes,
    face_grid,
    face_grids,
    face_values_text,
    fit,
    island_summary_json,
    landscape_csv,
    lattice_to_pgm,
    predict_many,
)


# ---------------------------------------------------------------- kernel


def test_rbf_kernel_values():
    K = fit([[0, 0, 0, 0], [0.3, 0, 0, 0]], [1.0, 2.0], sigma=0.15).K
    assert K[0, 0] == K[1, 1] == 1.0
    assert K[0, 1] == K[1, 0] == pytest.approx(math.exp(-0.09 / (2 * 0.15 ** 2)))
    with pytest.raises(NonpositiveBandwidth):
        fit([[0] * 4], [1.0], sigma=0.0)


def _ulps(a: float, b: float) -> int:
    return abs(np.array([a]).view(np.int64)[0] - np.array([b]).view(np.int64)[0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(xs=st.lists(st.one_of(st.floats(-750.0, 0.0), st.floats(-745.13, -708.4)),
                   min_size=1, max_size=64))
def test_dexp_within_one_ulp_of_math_exp(xs):
    # Half the draws are in the band where exp is subnormal.
    for x, got in zip(xs, dexp(np.array(xs)).tolist()):
        assert _ulps(got, math.exp(x)) <= 1


def test_dexp_exact_cases():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dexp(np.array([0.0, -0.0, -745.14, -1e299, -np.inf]))
    assert got.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]


def test_training_kernel_is_symmetric_with_a_unit_diagonal():
    # fit uses K(X, X) as it comes, neither symmetrized nor with its
    # diagonal pinned.
    rng = np.random.default_rng(5)
    for n, sigma in [(1, 0.3), (40, 0.05), (250, 0.15), (250, 3.0)]:
        for X in (rng.dirichlet(np.ones(4), size=n), rng.uniform(-5.0, 5.0, size=(n, 4))):
            K = fit(X, rng.normal(size=n), sigma=sigma).K
            assert np.array_equal(K, K.T)
            assert (np.diag(K) == 1.0).all()


def test_a_prediction_does_not_depend_on_its_batch():
    rng = np.random.default_rng(4)
    model = fit(rng.dirichlet(np.ones(4), size=30), rng.normal(size=30))
    Q = rng.dirichlet(np.ones(4), size=20)
    many = predict_many(model, Q)
    for q, want in zip(Q, many):
        assert predict_many(model, [q])[0] == want


def test_fit_single_point_closed_form():
    # One training point: theta = y / (1 + lambda), prediction at the point
    # is y / (1 + lambda).
    model = fit([[0.25, 0.25, 0.25, 0.25]], [2.0], lam=1e-3)
    assert model.theta[0] == pytest.approx(2.0 / 1.001, rel=1e-12)
    assert predict_many(model, [[0.25, 0.25, 0.25, 0.25]])[0] == pytest.approx(2.0 / 1.001)


def test_fit_duplicated_point_closed_form():
    # Two identical points with the same target y: by symmetry each theta is
    # y / (2 + lambda).
    x = [0.1, 0.2, 0.3, 0.4]
    model = fit([x, x], [3.0, 3.0], lam=0.5)
    assert model.theta == pytest.approx([3.0 / 2.5, 3.0 / 2.5])


def test_fit_interpolates_as_lambda_vanishes():
    rng = np.random.default_rng(0)
    X = rng.dirichlet(np.ones(4), size=12)
    y = rng.normal(size=12)
    model = fit(X, y, lam=1e-10, sigma=0.3)
    assert predict_many(model, X) == pytest.approx(y, abs=1e-6)


def test_fit_matches_direct_solve():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = rng.integers(2, 30)
        X = rng.dirichlet(np.ones(4), size=n)
        y = rng.normal(size=n)
        sigma = float(rng.uniform(0.05, 0.5))
        lam = float(10.0 ** rng.uniform(-6, 0))
        model = fit(X, y, lam=lam, sigma=sigma)
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        K = np.exp(-d2 / (2 * sigma ** 2))
        theta = np.linalg.solve(K + lam * np.eye(n), y)
        assert model.theta == pytest.approx(theta, abs=1e-8)
        q = rng.dirichlet(np.ones(4))
        k = np.exp(-((q - X) ** 2).sum(axis=1) / (2 * sigma ** 2))
        assert predict_many(model, [q])[0] == pytest.approx(float(k @ theta), abs=1e-8)


def test_fit_validation():
    with pytest.raises(LandscapeError, match=r"^1 inputs vs 2 targets$"):
        fit([[0.25] * 4], [1.0, 2.0])
    with pytest.raises(NonpositiveBandwidth):
        fit([[0.25] * 4], [1.0], sigma=-1.0)
    with pytest.raises(Exception):
        fit([[0.25] * 4], [1.0], lam=0.0)


@pytest.mark.parametrize("sigma", [1e-300, 1e-160, 0.0, -1.0, math.nan])
def test_fit_rejects_sigma_whose_bandwidth_underflows(sigma):
    # 2 sigma^2 is 0 at 1e-300 and subnormal at 1e-160.
    X = [[0.25] * 4, [0.5, 0.5, 0.0, 0.0]]
    with pytest.raises(NonpositiveBandwidth):
        fit(X, [1.0, 2.0], sigma=sigma)


def test_a_prediction_that_overflows_raises():
    # The row sum 1.79e308 + 1.79e308 overflows to inf, and einsum raises no
    # floating-point error of its own.
    q = [0.0, 0.5, 0.5, 0.0]  # on face 0, at cell (2, 2) of a res-5 lattice
    model = KernelModel(X=np.array([q, q]), theta=np.array([1.79e308] * 2),
                        lam=1e-3, sigma=0.15)
    with pytest.raises(FloatingPointError, match="^a prediction is not finite$"):
        predict_many(model, [[0.25] * 4, q])
    with pytest.raises(FloatingPointError, match="^face 0: a prediction is not finite$"):
        face_grid(model, 0, resolution=5)
    assert np.isfinite(predict_many(model, [[0.25] * 4])).all()


def test_fit_accepts_a_tiny_normal_bandwidth():
    # 2 sigma^2 = 2e-300 is normal: distinct points get kernel 0, no inf.
    model = fit([[0.25] * 4, [0.5, 0.5, 0.0, 0.0]], [1.0, 2.0], lam=1.0, sigma=1e-150)
    assert np.array_equal(model.K, np.eye(2))
    assert model.theta == pytest.approx([0.5, 1.0])


def test_fit_solve_failure_is_reported():
    # lambda small enough to underflow the jitter away on duplicated rows.
    X = np.tile([0.25, 0.25, 0.25, 0.25], (3, 1))
    with pytest.raises(FloatingPointError, match=r"^\(K \+ lambda\*I\) not positive "
                                                 r"definite: pivot 1 is 0\.0$"):
        fit(X, [1.0, 2.0, 3.0], lam=1e-18)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 675])
def test_cholesky_solve_matches_numpy_solve(n):
    # Sizes straddle the 64-column panel edges.
    rng = np.random.default_rng(n)
    M = rng.normal(size=(n, n))
    A = M @ M.T / n + 0.1 * np.eye(n)
    y = rng.normal(size=n)
    x = _cholesky_solve(A, y)
    want = np.linalg.solve(A, y)
    assert np.linalg.norm(A @ x - y) <= 1e-10 * np.linalg.norm(y)
    assert x == pytest.approx(want, rel=1e-8, abs=1e-10)


# theta of _cholesky_solve on K + 1e-3 I for n uniform points in [0, 1)^4
# (sigma 0.15, both drawn from default_rng(n)), taken before the trailing
# update was restricted to the lower triangle. Sizes 65, 129 and 700 reach
# that update with one, two and ten block columns.
CHOLESKY_THETA_SHA256 = {
    63: "1f0ee4f6f9a2c5e9e22940e9caacbf5ee01e5272b653361fcd543402c7793635",
    64: "f5bcc63fdae07a8c1aab0ee556887b3c2f485d62e518197139d01fea754f6993",
    65: "fcc4a9a2cda12df93bbc2bb15c4c09eea5f949d3ae453aa67c9fd73fc9b91c18",
    129: "86b3cc9e3dee74ce847d9ff528299c96cb7c670649687158e479718de6a54ec5",
    700: "57ae118857f37a9b939a325d4aef5bfdb17a71ae77b89a7500a5c086e42b5df5",
}


@pytest.mark.parametrize("n", sorted(CHOLESKY_THETA_SHA256))
def test_cholesky_solve_bits_are_pinned(n):
    rng = np.random.default_rng(n)
    X = rng.random((n, 4))
    y = rng.random(n)
    theta = _cholesky_solve(_kernel_matrix(X, X, 0.15) + 1e-3 * np.eye(n), y)
    assert hashlib.sha256(theta.tobytes()).hexdigest() == CHOLESKY_THETA_SHA256[n]


def test_cholesky_solve_rejects_a_singular_matrix():
    v = np.arange(1.0, 5.0)
    with pytest.raises(FloatingPointError, match=r"^\(K \+ lambda\*I\) not positive "
                                                 r"definite: pivot 1 is 0\.0$"):
        _cholesky_solve(np.outer(v, v), np.ones(4))
    with pytest.raises(FloatingPointError, match=r"^\(K \+ lambda\*I\) not positive "
                                                 r"definite: pivot 0 is nan$"):
        _cholesky_solve(np.full((2, 2), np.nan), np.ones(2))


# ---------------------------------------------------------------- lattices


def test_face_axes():
    assert face_axes(0) == (1, 2, 3)
    assert face_axes(3) == (0, 1, 2)


def test_cell_composition():
    comp = cell_composition(0, 3, 4, 11)
    assert comp == (0.0, 3 / 10, 4 / 10, 3 / 10)
    assert cell_composition(2, 0, 0, 301) == pytest.approx((0, 0, 0, 1))


def test_face_grid_valid_cell_count():
    model = fit([[0.25] * 4], [1.0])
    lat = face_grid(model, 0, resolution=301)
    assert int(lat.valid.sum()) == 301 * 302 // 2  # 45451 triangular cells
    assert np.isfinite(lat.values[lat.valid]).all()
    assert np.isnan(lat.values[~lat.valid]).all()


def test_face_grid_matches_pointwise_prediction():
    rng = np.random.default_rng(2)
    X = rng.dirichlet(np.ones(4), size=8)
    model = fit(X, rng.normal(size=8))
    lat = face_grid(model, 2, resolution=21)
    for i, j in [(0, 0), (5, 7), (20, 0), (0, 20), (10, 10)]:
        comp = cell_composition(2, i, j, 21)
        assert lat.values[i, j] == predict_many(model, [comp])[0]


# ------------------------------------------------------------- catchment


def lattice_from_fn(face, res, fn):
    values = np.full((res, res), np.nan)
    for i in range(res):
        for j in range(res - i):
            values[i, j] = fn(*cell_composition(face, i, j, res))
    return FaceLattice(face=face, resolution=res, values=values)


class OracleGraph:
    """Iterated steepest-ascent labelling, composition-keyed across faces."""

    def __init__(self, lattices):
        self.res = lattices[0].resolution
        self.value = {}
        self.reps = {}
        for lat in lattices:
            ax, ay, az = face_axes(lat.face)
            for i in range(self.res):
                for j in range(self.res - i):
                    counts = [0] * 4
                    counts[ax], counts[ay] = i, j
                    counts[az] = self.res - 1 - i - j
                    key = tuple(counts)
                    self.value[key] = float(lat.values[i, j])
                    self.reps.setdefault(key, []).append((lat.face, i, j))
        for v in self.reps.values():
            v.sort()
        self.faces = {lat.face for lat in lattices}

    def step(self, key):
        cands = {key}
        for face, i, j in self.reps[key]:
            ax, ay, az = face_axes(face)
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if 0 <= ni and 0 <= nj and ni + nj <= self.res - 1:
                        counts = [0] * 4
                        counts[ax], counts[ay] = ni, nj
                        counts[az] = self.res - 1 - ni - nj
                        nk = tuple(counts)
                        if nk in self.value:
                            cands.add(nk)
        return max(cands, key=lambda k: (self.value[k], [-c for c in self.reps[k][0]]))

    def basin_root(self, key):
        seen = {key}
        while True:
            nxt = self.step(key)
            if nxt == key:
                return key
            assert nxt not in seen, "steepest ascent cycled"
            seen.add(nxt)
            key = nxt


def oracle_labels(lattices):
    """{(face, i, j): canonical max cell} for every valid cell."""
    g = OracleGraph(lattices)
    out = {}
    for key, reps in g.reps.items():
        root = g.basin_root(key)
        for cell in reps:
            out[cell] = g.reps[root][0]
    return out


def island_labels_to_roots(lattices, imap: IslandMap):
    roots = {isl.rank: isl.max_cell for isl in imap.islands}
    out = {}
    for lat in lattices:
        grid = imap.labels[lat.face]
        for i in range(imap.resolution):
            for j in range(imap.resolution - i):
                out[(lat.face, i, j)] = roots[grid[i, j]]
    return out


def island_peaks(lat: FaceLattice) -> list[tuple[int, int]]:
    """The (i, j) of each island's maximum on one face: the fixed points of
    the steepest-ascent step, one per connected plateau."""
    return sorted(isl.max_cell[1:] for isl in catchment_map([lat]).islands)


def test_local_maxima_single_peak():
    lat = lattice_from_fn(0, 31, lambda a, b, c, d: -((b - 0.3) ** 2 + (c - 0.3) ** 2))
    assert island_peaks(lat) == [(9, 9)]


def test_local_maxima_plateau_single_representative():
    lat = lattice_from_fn(0, 15, lambda *c: 1.0)
    assert len(island_peaks(lat)) == 1


def test_catchment_two_peaks():
    def fn(a, b, c, d):
        # Face 1 axes: X = component 0, Y = component 2.
        return max(math.exp(-((a - 0.7) ** 2 + (c - 0.1) ** 2) / 0.02),
                   0.8 * math.exp(-((a - 0.1) ** 2 + (c - 0.7) ** 2) / 0.02))

    lat = lattice_from_fn(1, 41, fn)
    imap = catchment_map([lat])
    assert len(imap.islands) == 2
    # Ranks sorted by max value descending.
    assert imap.islands[0].max_value > imap.islands[1].max_value
    assert imap.islands[0].max_cell[1:] == (28, 4)  # 0.7, 0.1 on a 41 grid
    total = sum(isl.cell_count for isl in imap.islands)
    assert total == 41 * 42 // 2
    assert (imap.labels[1] >= 0).sum() == total


def test_catchment_matches_oracle_random_fields():
    rng = np.random.default_rng(3)
    for trial in range(6):
        res = 15
        lat = FaceLattice(face=0, resolution=res,
                          values=np.full((res, res), np.nan))
        for i in range(res):
            for j in range(res - i):
                lat.values[i, j] = float(rng.normal())
        imap = catchment_map([lat])
        assert island_labels_to_roots([lat], imap) == oracle_labels([lat])


def test_catchment_matches_oracle_smooth_field():
    rng = np.random.default_rng(4)
    X = rng.dirichlet(np.ones(4), size=10)
    model = fit(X, rng.normal(size=10), sigma=0.2)
    lats = [face_grid(model, f, resolution=21) for f in range(4)]
    imap = catchment_map(lats)
    assert island_labels_to_roots(lats, imap) == oracle_labels(lats)


def test_catchment_cross_face_single_island():
    # A bump centred on the edge shared by faces 0 and 1 (components 0 and 1
    # both zero): both faces must drain into one island.
    def fn(a, b, c, d):
        return math.exp(-((c - 0.5) ** 2 + (d - 0.5) ** 2 + a ** 2 + b ** 2) / 0.1)

    lats = [lattice_from_fn(0, 21, fn), lattice_from_fn(1, 21, fn)]
    imap = catchment_map(lats)
    assert len(imap.islands) == 1
    assert imap.islands[0].cell_count == 2 * (21 * 22 // 2) - 21
    assert island_labels_to_roots(lats, imap) == oracle_labels(lats)


def test_catchment_shared_edge_cells_counted_once():
    lats = [lattice_from_fn(f, 11, lambda *c: 1.0) for f in range(4)]
    imap = catchment_map(lats)
    # Unique cells = integer compositions of 10 into 4 parts with at least
    # one zero part: C(13,3) - C(9,3) = 286 - 84 = 202.
    assert sum(isl.cell_count for isl in imap.islands) == 202


# ---------------------------------------------------------------- export


def _toy_lattices():
    rng = np.random.default_rng(5)
    X = rng.dirichlet(np.ones(4), size=6)
    model = fit(X, rng.normal(size=6))
    return [face_grid(model, f, resolution=11) for f in range(4)]


def _csv_by_line(lattices, island_map):
    """landscape.csv as one formatted line per cell, the writer's reference."""
    res = island_map.resolution
    step = 1.0 / (res - 1)
    lines = ["face,i,j,X,Y,Z,fitness,island_label\n"]
    for lat in lattices:
        for i, j in zip(*np.nonzero(lat.valid)):
            lines.append(f"{lat.face},{i},{j},{i * step:.10g},{j * step:.10g},"
                         f"{1.0 - i * step - j * step:.10g},{float(lat.values[i, j])!r},"
                         f"{island_map.labels[lat.face][i, j]}\n")
    return "".join(lines)


def test_landscape_csv_shape():
    lats = _toy_lattices()
    imap = catchment_map(lats)
    text = landscape_csv(lats, imap)
    assert text == _csv_by_line(lats, imap)
    lines = text.splitlines()
    assert lines[0] == "face,i,j,X,Y,Z,fitness,island_label"
    assert len(lines) == 1 + 4 * (11 * 12 // 2)
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "0"]
    assert int(first[7]) >= 0


def test_island_summary_json_round_trip():
    import json

    imap = catchment_map(_toy_lattices())
    payload = json.loads(island_summary_json(imap))
    assert [p["rank"] for p in payload] == list(range(len(payload)))
    assert all(set(p) == {"rank", "max_value", "max_cell", "cell_count"}
               for p in payload)


def test_lattice_to_pgm():
    lat = _toy_lattices()[0]
    data = lattice_to_pgm(lat)
    assert data.startswith(b"P5\n11 11\n255\n")
    assert len(data) == len(b"P5\n11 11\n255\n") + 121


def test_faces_and_csv_are_the_same_over_a_forked_pool():
    # The landscape command maps the two face pairs, and their CSV value
    # text, over forked workers; at resolution 301 the bits match the serial
    # faces, and the CSV joined from the workers' text matches one formatted
    # line per cell.
    rng = np.random.default_rng(14)
    model = fit(rng.dirichlet(np.ones(4), size=40), rng.normal(size=40))
    lats = [face_grid(model, f, resolution=301) for f in range(4)]
    imap = catchment_map(lats)
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        pooled = [lat for pair in pool.map(face_grids, [model] * 2, [(0, 1), (2, 3)], [301] * 2)
                  for lat in pair]
        texts = list(pool.map(face_values_text, pooled))
    assert [lat.face for lat in pooled] == [0, 1, 2, 3]
    for got, want in zip(pooled, lats):
        assert np.array_equal(got.values, want.values, equal_nan=True)
    text = landscape_csv(lats, imap, texts)
    assert text == landscape_csv(lats, imap) == _csv_by_line(lats, imap)


# ------------------------------------------------- array-native equivalence


def _face_queries(face, res):
    """Valid cells of a face and their contract-3 query rows: X = c_i,
    Y = c_j and Z = c_(res-1-i-j), with c = arange(res) / (res-1)."""
    ax, ay, az = face_axes(face)
    ii, jj = np.nonzero(np.add.outer(np.arange(res), np.arange(res)) <= res - 1)
    coords = np.arange(res) / (res - 1)
    Q = np.zeros((len(ii), 4))
    Q[:, ax], Q[:, ay], Q[:, az] = coords[ii], coords[jj], coords[res - 1 - ii - jj]
    return ii, jj, Q


def test_face_grid_bit_identical_single_chunk():
    rng = np.random.default_rng(8)
    X = rng.dirichlet(np.ones(4), size=200)
    model = fit(X, rng.normal(size=200))
    for face in range(4):
        ii, jj, Q = _face_queries(face, 61)
        got = face_grid(model, face, resolution=61).values[ii, jj]
        assert np.array_equal(got, predict_many(model, Q))
        # The per-component factor tensor, multiplied in pairs, gives the
        # same bits.
        T = dexp(-(Q[:, None, :] - X[None, :, :]) ** 2 / (2.0 * model.sigma * model.sigma))
        K = (T[..., 0] * T[..., 1]) * (T[..., 2] * T[..., 3])
        assert np.array_equal(got, np.einsum("ij,j->i", K, model.theta))


def test_face_grid_bit_identical_multi_chunk():
    rng = np.random.default_rng(9)
    X = rng.dirichlet(np.ones(4), size=675)
    model = fit(X, rng.normal(size=675))
    ii, jj, Q = _face_queries(1, 301)
    assert len(Q) > 8192
    want = np.concatenate([predict_many(model, Q[s:s + 8192])
                           for s in range(0, len(Q), 8192)])
    assert np.array_equal(face_grid(model, 1, resolution=301).values[ii, jj], want)


def _random_model(seed, n=675):
    rng = np.random.default_rng(seed)
    X = rng.dirichlet(np.ones(4), size=n)
    return fit(X, rng.normal(size=n))


@pytest.mark.parametrize("res", [2, 3, 129, 301])
def test_face_grid_bit_identical_all_faces(res):
    # Res 129 has 8,385 cells, so its second 8192-row chunk starts partway
    # through a lattice row.
    model = _random_model(13)
    lattices = []
    for face in range(4):
        ii, jj, Q = _face_queries(face, res)
        want = np.concatenate([predict_many(model, Q[s:s + 8192])
                               for s in range(0, len(Q), 8192)])
        lat = face_grid(model, face, resolution=res)
        assert np.array_equal(lat.values[ii, jj], want)
        assert np.isnan(lat.values[~lat.valid]).all()
        lattices.append(lat)
    # A pair shares its factor tables and block products, with each face's
    # bits unchanged.
    for pair in ((0, 1), (2, 3)):
        for lat in face_grids(model, pair, resolution=res):
            assert np.array_equal(lat.values, lattices[lat.face].values, equal_nan=True)


def test_face_grid_peak_memory():
    # Kernel rows are summed block by block, so no (cells, n) kernel matrix
    # is built. The 3.8 MiB peak is one whole (res, n) factor table (1.55
    # MiB), half of another (0.78 MiB), the (res, res) lattice (0.69 MiB),
    # two 32-row blocks (the table product and the kernel rows) and the
    # 8-row dexp buffers.
    model = _random_model(14)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        face_grid(model, 1, resolution=301)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_face_pair_peak_memory():
    # A pair adds its second (res, res) lattice, a second 32-row block and
    # its walk factors to one face's tables: 4.7 MiB at res 301.
    model = _random_model(14)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        face_grids(model, (2, 3), resolution=301)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


@pytest.mark.parametrize("res", [2, 3, 301])
def test_valid_mask_is_one_read_only_array_per_resolution(res):
    a = FaceLattice(face=0, resolution=res, values=np.zeros((res, res)))
    b = FaceLattice(face=3, resolution=res, values=np.ones((res, res)))
    i, j = np.indices((res, res))
    assert np.array_equal(a.valid, i + j <= res - 1)
    assert a.valid is b.valid and a.valid.dtype == bool
    with pytest.raises(ValueError):
        a.valid[0, 0] = False


def test_face_grid_rejects_resolution_below_two():
    model = fit([[0.25] * 4], [1.0])
    for res in (1, 0, -5):
        with pytest.raises(LandscapeError):
            face_grid(model, 0, resolution=res)


@pytest.mark.parametrize("faces", [(), (4,), (1, 2), (0, 2), (1, 0), (0, 1, 2)])
def test_face_grids_rejects_other_face_sets(faces):
    model = fit([[0.25] * 4], [1.0])
    with pytest.raises(LandscapeError,
                       match=r"^faces must be one face, \(0, 1\) or \(2, 3\), got "):
        face_grids(model, faces, resolution=5)


def _quantized_lattice(face, res, rng, levels=4):
    values = np.full((res, res), np.nan)
    for i in range(res):
        values[i, :res - i] = rng.integers(0, levels, size=res - i)
    return FaceLattice(face=face, resolution=res, values=values)


def test_catchment_matches_oracle_quantized_four_faces():
    # Few distinct values: many exact ties and plateaus, and the four faces
    # disagree on their shared edges, so the tie rule and the last-lattice
    # rule for shared cells are both exercised.
    rng = np.random.default_rng(10)
    for res in (21, 24, 27, 31):
        lats = [_quantized_lattice(f, res, rng) for f in range(4)]
        imap = catchment_map(lats)
        assert island_labels_to_roots(lats, imap) == oracle_labels(lats)
        g = OracleGraph(lats)
        sizes = {}
        for key in g.reps:
            root = g.reps[g.basin_root(key)][0]
            sizes[root] = sizes.get(root, 0) + 1
        assert {isl.max_cell: isl.cell_count for isl in imap.islands} == sizes
        order = [(-isl.max_value, isl.max_cell) for isl in imap.islands]
        assert order == sorted(order)
        for lat in lats:
            assert (imap.labels[lat.face][~lat.valid] == -1).all()


def test_local_maxima_match_oracle_fixed_points_with_ties():
    rng = np.random.default_rng(12)
    for face, res in ((0, 25), (3, 30)):
        lat = _quantized_lattice(face, res, rng, levels=3)
        g = OracleGraph([lat])
        fixed = sorted(g.reps[key][0][1:] for key in g.reps if g.step(key) == key)
        assert island_peaks(lat) == fixed
