"""Tests for the thermodynamic formalism: pressure, the variational
identity, equilibrium states, Lyapunov exponents and the atom cache."""

import dataclasses
import math

import numpy as np
import pytest

from horseshoe import map_core as mc
from horseshoe import thermo
from horseshoe.map_core import REF_EX, REF_STRICT


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_zero_potential_pressure_is_log3(m):
    cyl = thermo.pull_back(REF_STRICT, thermo.named_potential("zero"), m)
    assert thermo.pressure(cyl) == pytest.approx(math.log(3.0), abs=1e-12)


@pytest.mark.parametrize("name", ["zero", "x", "cos"])
def test_variational_identity(name):
    cyl = thermo.pull_back(REF_STRICT, thermo.named_potential(name), 4)
    meas = thermo.gibbs_measure(cyl)
    assert abs(meas.pressure - meas.entropy - meas.integral) < 1e-9


def test_equilibrium_state_keeps_mass():
    eq = thermo.equilibrium_state(REF_STRICT, thermo.named_potential("x"), 5)
    assert eq.mass_defect < 1e-9
    assert all(v >= 0.0 for v in eq.atom_masses.values())


def _affine_itinerary(rng, length):
    out = [int(rng.integers(0, 3))]
    while len(out) < length:
        s = int(rng.integers(0, 3))
        if not (out[-1] == 1 and s == 0):
            out.append(s)
    return tuple(out)


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT])
def test_lyapunov_of_affine_itinerary(params):
    rng = np.random.default_rng(5)
    seq = _affine_itinerary(rng, 8 + 31)
    past, future = seq[:8], seq[8:]
    start = thermo.shift_orbit_point(params, past, future)
    rates = thermo.lyapunov(params, start, len(future) - 1, symbols=future)
    assert rates["chi_u"] == pytest.approx(math.log(params.sigma), abs=1e-9)
    assert rates["chi_s"] == pytest.approx(math.log(params.lam), abs=1e-9)


def test_shift_orbit_point_rejects_top_to_bottom():
    with pytest.raises(ValueError):
        thermo.shift_orbit_point(REF_EX, (0, 1), (0, 2))
    with pytest.raises(ValueError):
        thermo.shift_orbit_point(REF_EX, (0,), (3,))


def test_lyapunov_reports_escaping_orbits():
    # (0.5, 0.25) lies in the gap R2 and has no image
    with pytest.raises(mc.OrbitEscapes) as err:
        thermo.lyapunov(REF_EX, (0.5, 0.25), 5)
    assert err.value.direction == "forward" and err.value.step == 1
    # (0.3, 0.5) maps forward but lies in no image band: no preimage
    with pytest.raises(mc.OrbitEscapes) as err:
        thermo.lyapunov(REF_EX, (0.3, 0.5), 1)
    assert err.value.direction == "backward" and err.value.step == 1


def test_atom_cache_is_bounded():
    thermo._atom_level.cache_clear()
    zero = thermo.named_potential("zero")
    sweep = [dataclasses.replace(REF_STRICT, t=0.6 + 0.001 * i)
             for i in range(9)]
    for params in sweep:
        thermo.pull_back(params, zero, 1, resolution=6)
    info = thermo._atom_level.cache_info()
    assert info.misses == 9 and info.currsize <= 8
    thermo.pull_back(sweep[-1], zero, 1, resolution=6)
    assert thermo._atom_level.cache_info().hits == info.hits + 1
