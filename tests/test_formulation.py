import numpy as np
import pytest
from hypothesis import given, strategies as st

from dropevo.formulation import (
    Formulation,
    FormulationError,
    _oils,
    normalize,
    oil_lookup,
    well_volumes,
)


def test_normalize_symmetry():
    assert normalize([1, 1, 1, 1]).proportions == (0.25, 0.25, 0.25, 0.25)


def test_normalize_single_component():
    assert normalize([0, 0, 0, 2]).proportions == (0, 0, 0, 1)


def test_normalize_already_normalized():
    assert normalize([0.3, 0.1, 0.4, 0.2]).proportions == (0.3, 0.1, 0.4, 0.2)


def test_normalize_errors():
    with pytest.raises(FormulationError, match=r"^all components are zero$"):
        normalize([0, 0, 0, 0])
    with pytest.raises(FormulationError,
                       match=r"^negative component in \[1\.0, -0\.1, 0\.0, 0\.0\]$"):
        normalize([1, -0.1, 0, 0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_components_rejected(bad):
    with pytest.raises(FormulationError, match="non-finite"):
        normalize([bad, 1, 1, 1])
    with pytest.raises(FormulationError, match=r"\[0, 1\]"):
        Formulation((bad, 0.0, 0.0, 1.0))


def test_normalize_a_sum_that_overflows():
    # The total of these finite components is inf; dividing by it gave 0s.
    f = normalize([1e308, 1e308, 1, 1])
    assert f.proportions == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-300)


positive_raws = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=4, max_size=4
).filter(lambda r: sum(r) > 1e-9)


@given(positive_raws)
def test_normalize_idempotent_exactly(raw):
    once = normalize(raw).proportions
    twice = normalize(once).proportions
    assert once == twice


@given(positive_raws, st.floats(min_value=1e-3, max_value=1e3))
def test_normalize_scale_invariant(raw, k):
    a = np.array(normalize(raw).proportions)
    b = np.array(normalize([k * v for v in raw]).proportions)
    assert np.allclose(a, b, atol=1e-12)


def test_well_volumes_uniform():
    assert np.allclose(well_volumes(normalize([1, 1, 1, 1])), [90, 90, 90, 90])


def test_well_volumes_single():
    assert np.allclose(well_volumes(Formulation((1, 0, 0, 0))), [360, 0, 0, 0])


def test_well_volumes_exact_multiplication():
    vols = well_volumes(Formulation((0.5, 0.25, 0.125, 0.125)))
    assert np.allclose(vols, [180, 90, 45, 45])


@given(positive_raws)
def test_well_volumes_conserve_total(raw):
    assert abs(np.sum(well_volumes(normalize(raw))) - 360.0) < 1e-9


def numpy_normalize(raw) -> tuple:
    """normalize's arithmetic written with numpy arrays: the reference that
    the pure-Python normalize must match bit for bit."""
    r = np.asarray(raw, dtype=float)
    total = r.sum()
    if abs(total - 1.0) <= 16 * np.finfo(float).eps:
        return tuple(r.tolist())
    return tuple((r / total).tolist())


# Raw loci anywhere, and raw loci already on the simplex to within rounding
# (normalize passes those through unchanged).
any_raws = st.lists(st.floats(min_value=0, max_value=1e300), min_size=4,
                    max_size=4).filter(lambda r: 0 < sum(r) < 1e300)
near_simplex_raws = positive_raws.map(lambda r: [v / sum(r) for v in r])


@given(st.one_of(any_raws, near_simplex_raws))
def test_normalize_matches_numpy_bit_for_bit(raw):
    got = normalize(raw).proportions
    assert [v.hex() for v in got] == [v.hex() for v in numpy_normalize(raw)]


def test_oil_table_rows():
    assert [oil.name for oil in _oils()] == ["1-octanol", "1-pentanol", "DEP",
                                             "octanoic acid", "dodecane"]
    octanol = oil_lookup("1-octanol")
    assert (octanol.density, octanol.solubility, octanol.surface_tension,
            octanol.viscosity) == (0.824, 0.46, 27.1, 7.288)
    dodecane = oil_lookup("dodecane")
    assert dodecane.density == 0.78
    assert dodecane.solubility is None
    assert dodecane.effective_solubility == 0.0
    assert dodecane.viscosity == 1.383
    dep = oil_lookup("DEP")
    assert (dep.density, dep.surface_tension, dep.viscosity) == (1.12, 19.6, 10.625)


def test_formulation_invariants():
    with pytest.raises(Exception):
        Formulation((0.5, 0.5, 0.5, -0.5))
    with pytest.raises(Exception):
        Formulation((0.3, 0.3, 0.3, 0.3))
