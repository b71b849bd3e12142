"""Thermodynamic formalism on the symbol space.

Holder potentials on the square are pulled back along the coding map
to finite-memory potentials on the full 3-shift; pressure, Gibbs and
equilibrium measures come from the weighted transfer operator on
(m-1)-word states, and the equilibrium state is pushed forward to the
partition atoms.  Lyapunov exponents of orbits close the loop between
the symbolic and the planar picture.

Everything at memory m lives on plain arrays indexed by base-3 word
codes (most significant digit first), so the operator applications are
tensor contractions rather than sparse matrices.

Numerical settings are module constants: ``_TOL``, ``_MAX_ITER``,
``_SPOT_PAIRS`` and ``_SPOT_SEED``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import coding
from . import map_core as mc
# ``apply`` is unused: perfbench/smoke.py checks its tracer rebinds it here
from .map_core import (MapParams, OrbitEscapes, apply, jacobian,
                       jacobian_inverse)

#: The affine branches by the coding symbol of their image band.
_AFFINE = {br.symbols[0]: br for br in mc.BRANCHES if not br.parabolic}

_TOL = 1e-12            # power iteration: relative eigenvalue and vector change
_MAX_ITER = 100_000     # power iteration step cap
_SPOT_PAIRS = 200       # random pairs of a potential's Holder spot check
_SPOT_SEED = 0


class PotentialError(mc.HorseshoeError, ValueError):
    """Declared Holder data contradicted by sampled values."""


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

@dataclass
class Potential:
    """Real function on the square with declared Holder data:
    |phi(p) - phi(q)| <= holder_C * |p - q| ** holder_theta."""

    evaluator: object
    holder_C: float
    holder_theta: float = 1.0
    name: str = ""

    def __call__(self, p) -> float:
        return float(self.evaluator(p))

    def spot_check(self) -> None:
        """Sample random pairs and reject if the declared bound fails."""
        rng = np.random.default_rng(_SPOT_SEED)
        for _ in range(_SPOT_PAIRS):
            p = (rng.uniform(), rng.uniform())
            q = (rng.uniform(), rng.uniform())
            gap = abs(self(p) - self(q))
            dist = math.hypot(p[0] - q[0], p[1] - q[1])
            bound = self.holder_C * dist ** self.holder_theta
            if gap > bound + 1e-12:
                raise PotentialError(
                    f"|phi{p} - phi{q}| = {gap:.3g} exceeds "
                    f"C*d^theta = {bound:.3g}")


def named_potential(name: str) -> Potential:
    """The three stock potentials used in the verification runs."""
    if name == "zero":
        return Potential(lambda p: 0.0, holder_C=0.0, name="zero")
    if name == "x":
        return Potential(lambda p: p[0], holder_C=1.0, name="x")
    if name == "cos":
        return Potential(lambda p: 0.3 * math.cos(2.0 * math.pi * p[0]),
                         holder_C=0.3 * 2.0 * math.pi, name="cos")
    raise ValueError(f"unknown potential {name!r}")


# ---------------------------------------------------------------------------
# Word bookkeeping (one-sided m-words as base-3 codes)
# ---------------------------------------------------------------------------

def _word_of_code(code: int, m: int) -> tuple:
    out = []
    for _ in range(m):
        out.append(code % 3)
        code //= 3
    return tuple(reversed(out))


def _code_of_word(symbols) -> int:
    code = 0
    for s in symbols:
        code = 3 * code + int(s)
    return code


def _centered(symbols) -> coding.Word:
    """Centered word for a one-sided m-word: odd lengths are already
    centered, even lengths get one fixed-point symbol 0 on the left."""
    if len(symbols) % 2 == 1:
        return coding.Word(tuple(symbols), len(symbols) // 2)
    return coding.Word((0,) + tuple(symbols), len(symbols) // 2)


# ---------------------------------------------------------------------------
# Pull-back
# ---------------------------------------------------------------------------

@dataclass
class CylinderPotential:
    """Potential evaluated on all 3^m one-sided m-words."""

    m: int
    values: np.ndarray
    variation_bound: float
    flagged: tuple = ()
    potential: Potential | None = None

    def value(self, symbols) -> float:
        return float(self.values[_code_of_word(symbols)])


def _nearest_nonempty(level: dict, word: coding.Word) -> coding.Word:
    """Closest word (by symbol flips, then lexicographic) with points."""
    for flips in range(1, word.n * 2 + 2):
        hits = []
        for other in level:
            if other.n != word.n:
                continue
            d = sum(a != b for a, b in zip(other.symbols, word.symbols))
            if d == flips:
                hits.append(other)
        if hits:
            return min(hits, key=lambda w: w.symbols)
    raise coding.EmptyAtom(word.to_string())


def pull_back(params: MapParams, phi: Potential, m: int,
              resolution: int | None = None) -> CylinderPotential:
    """Evaluate ``phi`` at the coding representatives of all m-words.

    The m-word is padded to a centered word (0 is the canonical filler:
    ...000... codes the fixed point at the origin); words whose cover is
    empty borrow the nearest nonempty neighbour and are flagged."""
    phi.spot_check()
    centered_n = _centered((0,) * m).n
    level = coding.atoms(params, centered_n, resolution)
    values = np.empty(3 ** m)
    variation = 0.0
    flagged = []
    for code in range(3 ** m):
        word = _centered(_word_of_code(code, m))
        a = level.get(word)
        if a is None or a.empty:
            flagged.append(word.to_string())
            a = level[_nearest_nonempty(level, word)]
        rep = coding._representative(params, a)
        values[code] = phi(rep)
        variation = max(variation,
                        phi.holder_C * a.diameter_ub ** phi.holder_theta)
    return CylinderPotential(m=m, values=values, variation_bound=variation,
                             flagged=tuple(flagged), potential=phi)


# ---------------------------------------------------------------------------
# Transfer operator, pressure, Gibbs measure
# ---------------------------------------------------------------------------

def _apply_transfer(W: np.ndarray, v: np.ndarray, m: int,
                    transpose: bool) -> np.ndarray:
    """Push a state vector forward: sum over the oldest symbol (with
    ``transpose``, the transpose action: sum over the appended one)."""
    if m == 1:
        return np.array([float(np.sum(W)) * v[0]])
    V = v.reshape((3,) * (m - 1))
    if transpose:
        return (W * V[None, ...]).sum(axis=-1).reshape(-1)
    return (W * V[..., None]).sum(axis=0).reshape(-1)


def _power_iteration(step, size: int):
    v = np.ones(size) / size
    v /= v.sum()
    lam = 0.0
    for _ in range(_MAX_ITER):
        w = step(v)
        new = float(w.sum())
        w /= new
        if abs(new - lam) <= _TOL * abs(new) and np.max(np.abs(w - v)) <= _TOL:
            return new, w
        lam, v = new, w
    raise mc.IterationCap("power iteration", _MAX_ITER)


def _leading(W: np.ndarray, m: int, transpose: bool):
    """(leading eigenvalue, normalized eigenvector) of the transfer
    operator of the weights ``W`` (of its transpose with ``transpose``)."""
    return _power_iteration(lambda v: _apply_transfer(W, v, m, transpose),
                            max(1, 3 ** (m - 1)))


def _weights(cyl: CylinderPotential) -> np.ndarray:
    return np.exp(cyl.values).reshape((3,) * cyl.m)


@dataclass
class _GibbsModel:
    m: int
    W: np.ndarray            # exp(values), tensor shape (3,)*m
    eigenvalue: float
    right: np.ndarray        # over (m-1)-word states
    left: np.ndarray

    @property
    def states(self) -> int:
        return max(1, 3 ** (self.m - 1))

    def transition(self) -> np.ndarray:
        """Row-stochastic (states x 3): probability of appending s."""
        S = self.states
        # word i*3 + s moves the chain from state i to its last m-1 symbols
        j = np.arange(3 * S).reshape(S, 3) % S
        return self.W.reshape(S, 3) * self.left[j] \
            / (self.eigenvalue * self.left[:, None])

    def stationary(self) -> np.ndarray:
        pi = self.left * self.right
        return pi / pi.sum()


def _solve(cyl: CylinderPotential) -> _GibbsModel:
    W = _weights(cyl)
    lam, right = _leading(W, cyl.m, False)
    _, left = _leading(W, cyl.m, True)
    return _GibbsModel(m=cyl.m, W=W, eigenvalue=lam, right=right, left=left)


def pressure(cyl: CylinderPotential) -> float:
    """Log of the transfer operator's leading eigenvalue (simple by
    Perron-Frobenius: the de Bruijn operator is positive)."""
    return math.log(_leading(_weights(cyl), cyl.m, False)[0])


def _chain_masses(model: _GibbsModel, k: int) -> np.ndarray:
    """Masses of all k-words of the stationary Markov chain, k >= m-1."""
    m, S = model.m, model.states
    P = model.transition()
    pi = model.stationary()
    if k == m - 1:
        return pi.copy()
    prev = _chain_masses(model, k - 1)
    return (prev[:, None] * P[np.arange(len(prev)) % S]).reshape(-1)


@dataclass
class CylinderMeasure:
    """Gibbs measure restricted to m-cylinders (with the (m+1)-level
    masses kept for the entropy difference)."""

    m: int
    masses: np.ndarray
    masses_next: np.ndarray
    pressure: float
    entropy: float
    integral: float
    variation_bound: float
    gibbs_C: float

    def mass(self, symbols) -> float:
        return float(self.masses[_code_of_word(symbols)])

    def to_csv(self) -> str:
        lines = ["word,mass"]
        for code in range(3 ** self.m):
            w = "".join(str(s) for s in _word_of_code(code, self.m))
            lines.append(f"{w},{float(self.masses[code])!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "m": self.m,
            "pressure": self.pressure,
            "entropy": self.entropy,
            "integral": self.integral,
            "variation_bound": self.variation_bound,
            "gibbs_C": self.gibbs_C,
        }, ensure_ascii=False)


def _entropy_of(masses: np.ndarray) -> float:
    mz = masses[masses > 0.0]
    return float(-np.sum(mz * np.log(mz)))


def _gibbs_constant(model: _GibbsModel, masses: np.ndarray) -> float:
    """Gibbs constant at word length m: the largest factor, either way,
    between the mass of an m-word w and exp(-mP + S_m phi(x)) over all x
    in [w].  Of the m windows of S_m phi, the m - 1 that run past w are
    bounded over every continuation by a max-plus (min-plus) pass over
    the (m-1)-symbol states."""
    m, S = model.m, model.states
    phi = np.log(model.W).reshape(S, 3)
    nxt = np.arange(3 * S).reshape(S, 3) % S
    hi = lo = np.zeros(S)
    for _ in range(m - 1):
        hi = np.max(phi + hi[nxt], axis=1)
        lo = np.min(phi + lo[nxt], axis=1)
    tail = nxt.reshape(-1)          # state of each m-word's last m-1 symbols
    base = np.log(masses) + m * math.log(model.eigenvalue) - phi.reshape(-1)
    worst = np.maximum(np.abs(base - lo[tail]), np.abs(base - hi[tail]))
    return float(math.exp(np.max(worst)))


def gibbs_measure(cyl: CylinderPotential) -> CylinderMeasure:
    """Invariant Gibbs measure of the finite-memory potential."""
    model = _solve(cyl)
    m = model.m
    masses = {k: _chain_masses(model, k) for k in (m, m + 1)}
    integral = float(np.dot(masses[m], cyl.values))
    h = _entropy_of(masses[m + 1]) - _entropy_of(masses[m])
    return CylinderMeasure(
        m=m, masses=masses[m], masses_next=masses[m + 1],
        pressure=math.log(model.eigenvalue), entropy=h, integral=integral,
        variation_bound=cyl.variation_bound,
        gibbs_C=_gibbs_constant(model, masses[m]))


# ---------------------------------------------------------------------------
# Equilibrium state on atoms
# ---------------------------------------------------------------------------

def _tangency_pairs(params: MapParams, n: int):
    """Word pairs double-coding the tangency orbit at depth n."""
    pairs = set()
    q = (params.q, 0.0)
    fwd = list(mc.iterates(params, q, n))
    for pt in list(mc.iterates(params, q, n, False))[::-1] + [q] + fwd:
        try:
            w = coding.itinerary(params, pt, n)
        except (coding.NotInBands, coding.Escaped):
            continue
        for pos in w.ambiguous:
            variant = list(w.symbols)
            variant[pos] = 2
            pairs.add((coding.Word(w.symbols, w.center),
                       coding.Word(tuple(variant), w.center)))
    return sorted(pairs, key=lambda p: p[0].symbols)


@dataclass
class EquilibriumState:
    measure: CylinderMeasure
    n: int
    atom_masses: dict
    merged_pairs: tuple
    reassigned: tuple
    mass_defect: float


def equilibrium_state(params: MapParams, phi: Potential, m: int,
                      resolution: int | None = None) -> EquilibriumState:
    """Gibbs measure of the pulled-back potential, pushed forward to the
    level-n atoms (n = (m-1)//2) by marginalizing cylinder masses.

    Masses of the 2n tangency-double-coded words are merged into the
    canonical (lower-symbol) word; cylinders whose atoms are empty are
    reassigned to the nearest nonempty word and reported."""
    cyl = pull_back(params, phi, m, resolution)
    measure = gibbs_measure(cyl)
    n = (m - 1) // 2
    level = coding.atoms(params, n, resolution)
    atom_masses: dict = {}
    reassigned = []
    for code in range(3 ** m):
        symbols = _word_of_code(code, m)
        word = coding.Word(symbols[:2 * n + 1], n)
        if word not in level:
            target = _nearest_nonempty(level, word)
            reassigned.append((word.to_string(), target.to_string()))
            word = target
        atom_masses[word] = atom_masses.get(word, 0.0) \
            + float(measure.masses[code])
    merged = []
    for canon, variant in _tangency_pairs(params, n):
        if variant in atom_masses and canon in atom_masses:
            moved = atom_masses.pop(variant)
            atom_masses[canon] += moved
            merged.append((canon.to_string(), variant.to_string(), moved))
    defect = abs(sum(atom_masses.values()) - 1.0)
    return EquilibriumState(measure=measure, n=n, atom_masses=atom_masses,
                            merged_pairs=tuple(merged),
                            reassigned=tuple(sorted(set(reassigned))),
                            mass_defect=defect)


# ---------------------------------------------------------------------------
# Lyapunov exponents
# ---------------------------------------------------------------------------

def shift_orbit_point(params: MapParams, past, future):
    """Point realizing a strip itinerary avoiding the parabolic strip.

    ``past`` and ``future`` are sequences over the affine strips
    {0: bottom, 2: middle, 1: top} (the band the image lands in); the
    abscissa comes from composing the contracting branch maps along the
    past, the ordinate from the backward-contracting maps along the
    future, so long itineraries are computed stably.

    The pair (1, 0) is rejected: the top strip's image only reaches
    down to y = 1/3, below which the bottom strip's preimage lies, so
    that transition is carried by the parabolic strip alone."""
    _check_itinerary(tuple(past) + tuple(future))
    x = 0.5
    for s in past:   # affine abscissae do not depend on the ordinate
        x = _AFFINE[s].forward(params, x, 0.5)[0]
    y = 0.5          # nor inverse ordinates on the abscissa
    for s in reversed(future):
        y = _AFFINE[s].inverse(params, 0.5, y)[1]
    return (x, y)


def _check_itinerary(seq) -> None:
    for a, b in zip(seq, seq[1:]):
        if a == 1 and b == 0:
            raise ValueError("1 -> 0 is not realizable in the affine strips")
    for s in seq:
        if s not in _AFFINE:
            raise ValueError(f"affine strip symbol expected, got {s}")


def lyapunov(params: MapParams, M, N: int, symbols=None,
             N_back: int | None = None) -> dict:
    """Cocycle growth rates along the orbit of ``M``.

    chi_u averages log-growth of a renormalized unstable vector over N
    forward steps, chi_s the (negated) backward growth of a stable
    vector.  With ``symbols`` (an affine strip itinerary of length >= N
    + 1 starting at time 0, as accepted by :func:`shift_orbit_point`)
    the derivatives are read from the symbols alone and no float orbit
    is walked, so long orbits stay on the invariant set.  ``N_back``
    shortens the stable horizon when the seed has a shallower backward
    chain than forward (the default is N).
    """
    p = params
    if N_back is None:
        N_back = N
    M = tuple(map(float, M))
    if symbols is None:
        pts = [M, *mc.iterates(p, M, N)]
        if len(pts) <= N:
            raise OrbitEscapes("forward", len(pts))
        jacs = [jacobian(p, pts[k]) for k in range(N)]
    else:
        if len(symbols) < N + 1:
            raise ValueError("itinerary shorter than the horizon")
        _check_itinerary(symbols)
        # affine branches have constant derivatives, so the symbol alone
        # decides (and edge-of-strip classification ties do not bite)
        const = {s: np.array(br.derivative(p, 0.5, 0.5))
                 for s, br in _AFFINE.items()}
        jacs = [const[symbols[k]] for k in range(N)]
    chi_u = _log_growth(jacs, (0.0, 1.0)) / N
    if symbols is None:
        back = [M, *mc.iterates(p, M, N_back, False)]
        if len(back) <= N_back:
            raise OrbitEscapes("backward", len(back))
        inverses = [jacobian_inverse(p, back[k + 1]) for k in range(N_back)]
    else:
        N_back = min(N_back, N)
        inverses = [np.linalg.inv(jacs[k]) for k in range(N_back)]
    chi_s = _log_growth(inverses, (1.0, 0.0))
    return {"chi_u": chi_u, "chi_s": -chi_s / max(1, N_back)}


def _log_growth(mats, v) -> float:
    """Summed ln growth of ``v`` through the matrices in turn,
    renormalized each step."""
    v = np.array(v)
    total = 0.0
    for a in mats:
        v = a @ v
        norm = float(np.hypot(*v))
        total += math.log(norm)
        v /= norm
    return total
