"""Tests for the thermodynamic formalism: pressure, the variational
identity, equilibrium states, Lyapunov exponents and the atom cache."""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horseshoe import coding
from horseshoe import map_core as mc
from horseshoe import sampling as sp
from horseshoe import thermo
from horseshoe.map_core import REF_EX, REF_STRICT
from test_branch_table import valid_params


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_zero_potential_pressure_is_log3(m):
    cyl = thermo.pull_back(REF_STRICT, thermo.named_potential("zero"), m)
    assert thermo.pressure(cyl) == pytest.approx(math.log(3.0), abs=1e-12)


def _brute_gibbs_ratio(cyl, k):
    """Largest factor, either way, between the mass of a k-word and
    exp(-kP + S_k phi) over every continuation of the word by m - 1
    symbols, by enumerating all of them."""
    m = cyl.m
    model = thermo._solve(cyl)
    length = k + m - 1
    codes = np.arange(3 ** length)
    birkhoff = np.zeros(3 ** length)
    for i in range(k):
        birkhoff += cyl.values[(codes // 3 ** (length - i - m)) % 3 ** m]
    mass = thermo._chain_masses(model, k)[codes // 3 ** (m - 1)]
    logs = np.log(mass) + k * math.log(model.eigenvalue) - birkhoff
    return math.exp(np.max(np.abs(logs)))


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT])
def test_gibbs_constant_bounds_masses_uniformly(params):
    for m in range(1, 7):
        cyl = thermo.pull_back(params, thermo.named_potential("x"), m)
        c = thermo.gibbs_measure(cyl).gibbs_C
        assert 1.0 <= c <= 10.0
        assert _brute_gibbs_ratio(cyl, m) == pytest.approx(c, rel=1e-9)
        for k in (m + 1, m + 2):
            assert _brute_gibbs_ratio(cyl, k) <= 1.1 * c


def test_power_iteration_cap_raises_typed_error(monkeypatch):
    # tol = 0 asks for an exact fixed point, which 5 steps of a
    # non-trivial positive matrix do not reach
    monkeypatch.setattr(thermo, "_TOL", 0.0)
    monkeypatch.setattr(thermo, "_MAX_ITER", 5)
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    with pytest.raises(mc.IterationCap) as err:
        thermo._power_iteration(lambda v: a @ v, 2)
    assert err.value.what == "power iteration" and err.value.step == 5


def _scalar_spot_pairs():
    """The spot check's pairs as drawn one scalar at a time."""
    rng = np.random.default_rng(thermo._SPOT_SEED)
    return [((rng.uniform(), rng.uniform()), (rng.uniform(), rng.uniform()))
            for _ in range(thermo._SPOT_PAIRS)]


def test_spot_check_draws_the_scalar_pairs():
    seen = []
    thermo.Potential(lambda p: seen.append(p) or 0.0, holder_C=0.0,
                     name="seen").spot_check()
    pairs = _scalar_spot_pairs()
    assert seen == [pt for pair in pairs for pt in pair]
    assert all(type(c) is float for pt in seen for c in pt)
    # the first pair already breaks a Lipschitz bound of 0 for phi = x
    p, q = pairs[0]
    gap = abs(p[0] - q[0])
    with pytest.raises(thermo.PotentialError) as err:
        thermo.Potential(lambda p: p[0], holder_C=0.0).spot_check()
    assert str(err.value) == (f"|phi{p} - phi{q}| = {gap:.3g} exceeds "
                              f"C*d^theta = {0.0:.3g}")


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


def test_lyapunov_refuses_an_empty_horizon():
    # N = 0 used to divide by zero on both paths
    with pytest.raises(ValueError, match="N=0"):
        thermo.lyapunov(REF_EX, (0.0, 0.0), 0)
    with pytest.raises(ValueError, match="N=0"):
        thermo.lyapunov(REF_EX, (0.5, 0.5), 0, symbols=(2, 2))


@pytest.mark.parametrize("n_back", [0, -2])
def test_lyapunov_refuses_an_empty_stable_horizon_on_the_orbit(n_back):
    # N_back < 1 used to give chi_s = -0.0, as if it had been measured
    with pytest.raises(ValueError, match=f"N_back={n_back}"):
        thermo.lyapunov(REF_EX, (0.0, 0.0), 3, N_back=n_back)
    assert thermo.lyapunov(REF_EX, (0.0, 0.0), 3) \
        == thermo.lyapunov(REF_EX, (0.0, 0.0), 3, N_back=3)


@pytest.mark.parametrize("n_back", [0, -2])
def test_lyapunov_refuses_an_empty_stable_horizon_on_the_symbols(n_back):
    symbols = (2, 0, 2, 2)
    with pytest.raises(ValueError, match=f"N_back={n_back}"):
        thermo.lyapunov(REF_EX, (0.5, 0.5), 3, symbols=symbols,
                        N_back=n_back)
    assert thermo.lyapunov(REF_EX, (0.5, 0.5), 3, symbols=symbols) \
        == thermo.lyapunov(REF_EX, (0.5, 0.5), 3, symbols=symbols, N_back=3)


def test_pull_back_refuses_an_empty_memory():
    # m = 0 used to give pressure 0.0 and a Gibbs measure numpy cannot
    # reshape
    with pytest.raises(ValueError, match="m=0"):
        thermo.pull_back(REF_EX, thermo.named_potential("zero"), 0)


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT])
def test_affine_lyapunov_gives_the_branch_rates(params):
    # the benchmark's Lyapunov inputs: every affine branch multiplies y by
    # sigma and x by lam (up to sign), so chi_u = log sigma and chi_s =
    # log lam at every length, also where sigma^199 is far past the float
    # range (1e995 on REF_STRICT)
    rng = np.random.default_rng(17)
    for length in (2, 40, 200):
        symbols = _affine_itinerary(rng, length)
        start = thermo.shift_orbit_point(params, (), symbols)
        rates = thermo.lyapunov(params, start, length - 1, symbols=symbols)
        assert abs(rates["chi_u"] - math.log(params.sigma)) <= 1e-12
        assert abs(rates["chi_s"] - math.log(params.lam)) <= 1e-12


def _exact_log_growth(mats, v) -> float:
    """ln|D_n ... D_1 v| for the float matrices ``mats`` = D_1, ..., D_n,
    in exact rationals up to the last logarithm."""
    x, y = map(Fraction, v)
    for (d00, d01), (d10, d11) in mats:
        x, y = (Fraction(d00) * x + Fraction(d01) * y,
                Fraction(d10) * x + Fraction(d11) * y)
    return 0.5 * math.log(x * x + y * y)


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT])
def test_orbit_lyapunov_is_the_exact_growth(params):
    # on the orbit path, N chi_u and -N_back chi_s are the ln growths of
    # the exact products of the walks' derivatives, to rounding
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(20):
        m = sp.sample_returning_point(params, rng).M
        fwd = [m, *mc.iterates(params, m, 30)]
        back = [m, *mc.iterates(params, m, 30, False)]
        n, n_back = len(fwd) - 1, len(back) - 1
        rates = thermo.lyapunov(params, m, n, N_back=n_back)
        want_u = _exact_log_growth(
            [mc._derivative_at(params, z, "derivative") for z in fwd[:-1]],
            (0.0, 1.0))
        want_s = _exact_log_growth(
            [mc._derivative_at(params, z, "derivative_inverse")
             for z in back[1:]], (1.0, 0.0))
        assert abs(rates["chi_u"] * n - want_u) <= 1e-13 * max(1.0, want_u)
        assert abs(rates["chi_s"] * n_back + want_s) \
            <= 1e-13 * max(1.0, want_s)
        checked += 1
    assert checked == 20


def test_ref_ex_reassigns_the_empty_words():
    # level 2 of REF_EX lacks 11.011 and 11.012; each borrows the nearest
    # word, one flip away and lexicographically least
    x = thermo.named_potential("x")
    assert thermo.pull_back(REF_EX, x, 5).flagged == ("11.011", "11.012")
    eq = thermo.equilibrium_state(REF_EX, x, 5)
    assert eq.reassigned == (("11.011", "01.011"), ("11.012", "01.012"))
    assert eq.mass_defect < 1e-9


def test_nearest_nonempty_prefers_fewer_flips_then_lexicographic():
    W = coding.Word.from_string
    level = {W("2.22"): None, W("1.00"): None, W("0.10"): None, W(".0"): None}
    assert thermo._nearest_nonempty(level, W("1.10")) == W("0.10")
    assert thermo._nearest_nonempty(level, W("2.20")) == W("2.22")
    with pytest.raises(coding.EmptyAtom):
        thermo._nearest_nonempty(level, W("00.000"))


def test_atom_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(coding, "default_resolution", lambda p: 6)
    coding._cached_atoms.cache_clear()
    zero = thermo.named_potential("zero")
    sweep = [dataclasses.replace(REF_STRICT, t=0.6 + 0.001 * i)
             for i in range(9)]
    for params in sweep:
        thermo.pull_back(params, zero, 1)
    info = coding._cached_atoms.cache_info()
    assert info.misses == 9 and info.currsize <= 8
    thermo.pull_back(sweep[-1], zero, 1)
    assert coding._cached_atoms.cache_info().hits == info.hits + 1


@pytest.mark.parametrize("params, m", [(REF_EX, 3), (REF_STRICT, 5)],
                         ids=["ex", "strict"])
def test_warm_pull_back_reuses_representatives(monkeypatch, params, m):
    calls = []
    real = coding._representative

    def counting(p, a):
        calls.append(a.word)
        return real(p, a)

    monkeypatch.setattr(coding, "_representative", counting)
    monkeypatch.setattr(coding, "default_resolution", lambda p: 10)
    phi = thermo.named_potential("x")
    coding._cached_atoms.cache_clear()
    cold = thermo.pull_back(params, phi, m)
    built = len(calls)
    assert built > 0 and len(set(calls)) == built
    calls.clear()
    warm = thermo.pull_back(params, phi, m)
    assert calls == []
    assert warm.values.tolist() == cold.values.tolist()
    assert warm.flagged == cold.flagged
    # the points live on the cached atoms and go with them
    coding._cached_atoms.cache_clear()
    again = thermo.pull_back(params, phi, m)
    assert len(calls) == built
    assert again.values.tolist() == cold.values.tolist()


# Last in the file: its parameter draws fill the 8-level atom cache,
# which would push out the REF_EX levels the tests above share.
@pytest.mark.parametrize("name", ["zero", "x", "cos"])
@given(params=valid_params(), m=st.integers(1, 3), resolution=st.just(7))
@example(params=REF_STRICT, m=4,
         resolution=coding.default_resolution(REF_STRICT))
@settings(max_examples=8, deadline=None)
def test_variational_identity(name, params, m, resolution):
    with mock.patch.object(coding, "default_resolution",
                           return_value=resolution):
        cyl = thermo.pull_back(params, thermo.named_potential(name), m)
    meas = thermo.gibbs_measure(cyl)
    assert abs(meas.pressure - meas.entropy - meas.integral) < 1e-9
