"""Fourier-side objects: exponential sums, telescoping products, small values.

The transform of the depth-n multiplicity profile factors as a box-kernel
times the product prod_{k=1..n} phi(L^-k x) of one normalized exponential
sum phi at geometric scales.  phi is built once, as an `ExpPoly`, by one of
two constructors, and every function that evaluates it takes that `ExpPoly`
and reads L as the number of its frequencies:

* angle form, `phi_theta_poly(system, theta)`: phi_theta(x) =
  (1/L) sum_l exp(-i f_l x) with frequencies f_l = L * proj_theta(center_l),
  the level-1 centers rescaled to the unit region;
* slope form, `t_form(system).poly(t)`: phi_t(x) =
  (1/L)(1 + e^{ix} + e^{itx} + sum e^{i(a_l+b_l t)x}), available once the
  system is put in normalized coordinates where three rescaled centers sit
  at (0,0), (1,0), (0,1).  `t_form` computes the normalized data (a `TForm`,
  which the sweeps over slopes take).

Both constructors reject a system whose ratio is not 1/L: the frequencies
and the scales L^-k below assume it.

The product over scales splits into blocks: with 1 <= k <= n, the low block
P2 takes k = n-m..n, the rest is P1 = Psharp * Pflat with the medium block
Pflat on k = n-m-ell..n-m-1 and the high block Psharp on k = 1..n-m-ell-1.
(The scale k = n-m is assigned to the low block; the three blocks multiply
back exactly to the full product.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import shadow
from .errors import FavlabError, SpecInvalid
from .ifs import SimilaritySystem
from .shadow import IntervalUnion, interval_union


@dataclass(frozen=True)
class ExpPoly:
    """Normalized exponential sum: normalization * sum_j coeff_j e^{lambda_j z}."""

    lambdas: tuple[complex, ...]
    coefficients: tuple[complex, ...]
    normalization: float = 1.0

    def __post_init__(self):
        if len(self.lambdas) != len(self.coefficients):
            raise FavlabError("frequency/coefficient length mismatch")

    def __call__(self, z, acc=None):
        """The sum at z.  With acc, a partial sum at z of terms that come
        before these, the terms are added to a copy of acc in place of zero.

        A zero frequency adds its coefficient: e^{0 z} = 1 for finite z.
        """
        z = np.asarray(z)
        acc = np.zeros(z.shape, dtype=complex) if acc is None else acc.copy()
        for lam, c in zip(self.lambdas, self.coefficients):
            if lam == 0:
                acc += c
            else:
                acc += c * np.exp(lam * z)
        return self.normalization * acc


def phi_frequencies(system: SimilaritySystem, theta: float) -> np.ndarray:
    """Frequencies of the angle form: L * Re(center_l e^{-i theta})."""
    return system.branching * (system.centers() * np.exp(-1j * theta)).real


def _require_ratio_one_over_branching(system: SimilaritySystem) -> None:
    L = system.branching
    if not math.isclose(system.ratio * L, 1.0, rel_tol=1e-12):
        raise FavlabError(f"the transform needs ratio 1/L = 1/{L}, got ratio {system.ratio}")


def phi_theta_poly(system: SimilaritySystem, theta: float) -> ExpPoly:
    """Angle-form phi of a system at angle theta."""
    _require_ratio_one_over_branching(system)
    freqs = phi_frequencies(system, theta)
    return ExpPoly(
        lambdas=tuple(-1j * f for f in freqs),
        coefficients=(1.0 + 0.0j,) * system.branching,
        normalization=1.0 / system.branching,
    )


# The slope-free terms 1 + e^{ix} that every slope form starts with, without
# the 1/L normalization.
SLOPE_FREE = ExpPoly(lambdas=(0.0j, 1j), coefficients=(1.0 + 0.0j,) * 2)


@dataclass(frozen=True)
class TForm:
    """Slope-form data: branching L and the (a_l, b_l) rows for l >= 4."""

    branching: int
    extra: tuple[tuple[float, float], ...] = ()

    def poly(self, t: float) -> ExpPoly:
        rest = self.slope_terms(t)
        return ExpPoly(
            lambdas=SLOPE_FREE.lambdas + rest.lambdas,
            coefficients=SLOPE_FREE.coefficients + rest.coefficients,
            normalization=rest.normalization,
        )

    def slope_terms(self, t: float) -> ExpPoly:
        """The terms of poly(t) after SLOPE_FREE, with its 1/L: for every z,
        slope_terms(t)(z, SLOPE_FREE(z)) is bit-equal to poly(t)(z), so a
        sweep over slopes evaluates SLOPE_FREE once per point."""
        lams = [1j * t] + [1j * (a + b * t) for a, b in self.extra]
        return ExpPoly(
            lambdas=tuple(lams),
            coefficients=(1.0 + 0.0j,) * (self.branching - 2),
            normalization=1.0 / self.branching,
        )


def t_form(system: SimilaritySystem) -> TForm:
    """Normalized slope-form of a system.

    The rescaled centers u_l = L*center_l are shifted by u_0 and expressed in
    the basis (u_1-u_0, u_2-u_0); the first three rows become (0,0), (1,0),
    (0,1) and the rest give the extra (a, b) pairs.
    """
    _require_ratio_one_over_branching(system)
    if system.branching < 3:
        raise FavlabError(
            f"the slope form anchors on maps (0, 1, 2); the system has {system.branching}"
        )
    u = system.branching * system.centers()
    v2 = u[1] - u[0]
    v3 = u[2] - u[0]
    basis = np.array([[v2.real, v3.real], [v2.imag, v3.imag]])
    if abs(np.linalg.det(basis)) < 1e-12:
        raise FavlabError("anchor centers are collinear; pick another triple")
    extra = []
    for l in range(3, system.branching):
        w = u[l] - u[0]
        ab = np.linalg.solve(basis, np.array([w.real, w.imag]))
        extra.append((float(ab[0]), float(ab[1])))
    return TForm(branching=system.branching, extra=tuple(extra))


def _scale_product(phi: ExpPoly, ks: range, x) -> np.ndarray:
    """prod_{k in ks} phi(L^-k x), L the number of frequencies of phi."""
    r = 1.0 / len(phi.lambdas)
    x = np.asarray(x, dtype=float)
    acc = np.ones(x.shape, dtype=complex)
    for k in ks:
        acc *= phi(r**k * x)
    return acc


def nu_hat_eval(phi: ExpPoly, depth: int, x) -> np.ndarray:
    """prod_{k=1..depth} phi(L^-k x): the transform of the depth-n measure."""
    return _scale_product(phi, range(1, depth + 1), x)


@dataclass(frozen=True)
class ProductSpec:
    """Block sizes for the product split: total depth n, low size m, medium ell."""

    n: int
    m: int
    ell: int

    def __post_init__(self):
        if self.n < 1 or self.m < 0 or self.ell < 0:
            raise SpecInvalid("need n >= 1, m >= 0, ell >= 0")
        if self.m + self.ell >= self.n:
            raise SpecInvalid(f"need m + ell < n, got {self.m}+{self.ell} >= {self.n}")


def split_products(spec: ProductSpec, phi: ExpPoly, x) -> tuple[np.ndarray, ...]:
    """Evaluate (P1, P2, Psharp, Pflat, full) at x; P1 = Psharp*Pflat, P1*P2 = full.

    The full product prod_{k=1..n} phi(L^-k x) is bit-equal to nu_hat_eval
    at depth n: each factor phi(L^-k x) is evaluated once and multiplied into
    its block's running product and into the full one, in the order of k.
    """
    r = 1.0 / len(phi.lambdas)
    n, m, ell = spec.n, spec.m, spec.ell
    x = np.asarray(x, dtype=float)
    p_sharp, p_flat, p2, whole = (np.ones(x.shape, dtype=complex) for _ in range(4))
    for k in range(1, n + 1):
        factor = phi(r**k * x)
        block = p_sharp if k < n - m - ell else p_flat if k < n - m else p2
        block *= factor
        whole *= factor
    return p_sharp * p_flat, p2, p_sharp, p_flat, whole


def check_scale(branching: int, power: int) -> None:
    """Refuse a scale L^power beyond the float range before any power is taken."""
    # The largest float is just below 2^1024.
    if power * math.log2(branching) >= 1024:
        raise SpecInvalid(f"scale {branching}^{power} exceeds the float range")


def low_block_interval(phi: ExpPoly, spec: ProductSpec) -> tuple[float, float]:
    """The sample block I = [L^(n-m), L^n] of the low block P2."""
    check_scale(len(phi.lambdas), spec.n)
    L = float(len(phi.lambdas))
    return L ** (spec.n - spec.m), L**spec.n


def ssv_cover(xs: np.ndarray, p2: np.ndarray, threshold: float) -> IntervalUnion:
    """Cover of |P2| <= threshold from P2 sampled on the uniform grid xs,
    each small sample padded by one grid step."""
    step = xs[1] - xs[0]
    small = xs[np.abs(p2) <= threshold]
    return interval_union(np.column_stack((small - step, small + step)))


def ssv_scan(
    phi: ExpPoly, spec: ProductSpec, threshold: float, grid_size: int
) -> IntervalUnion:
    """Scan |P2| <= threshold on a uniform grid over I, padded one grid step."""
    if grid_size < 1000:
        raise FavlabError("grid_size must be at least 1000")
    xs = np.linspace(*low_block_interval(phi, spec), grid_size)
    return ssv_cover(xs, _scale_product(phi, range(spec.n - spec.m, spec.n + 1), xs), threshold)


def simpson(f, hi: float, grid: int) -> float:
    """Composite Simpson integral of f over [0, hi] on `grid` uniform points.

    f maps the sample array to the integrand's values; an even `grid` is
    bumped by one, since the rule needs an odd number of points.
    """
    xs = np.linspace(0.0, hi, grid if grid % 2 == 1 else grid + 1)
    y = f(xs)
    step = xs[1] - xs[0]
    return step / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum())


def parseval_check(
    system: SimilaritySystem,
    theta: float,
    depth: int,
    radius: float,
    grid: int,
) -> float:
    """Relative gap between the transform-side and space-side L2 masses.

    Transform side: (1/pi) * Simpson integral over [0, radius] of
    |2 h L^n sinc(h x / pi) * prod phi|^2, h the single-shadow half-length.
    Space side: exact L2 norm of the multiplicity profile.
    """
    L = system.branching
    if radius < float(L) ** (depth + 2):
        raise FavlabError("radius must cover [L^(n+2)] for a meaningful tail")
    h = shadow.shadow_half_length(system, depth, theta)
    phi = phi_theta_poly(system, theta)

    def integrand(xs: np.ndarray) -> np.ndarray:
        box = 2.0 * h * np.sinc(h * xs / np.pi)
        return np.abs((L**depth) * box * nu_hat_eval(phi, depth, xs)) ** 2

    fourier_side = simpson(integrand, radius, grid) / np.pi
    space_side = shadow.l2_norm_sq(shadow.multiplicity(system, depth, theta))
    return float(abs(fourier_side - space_side) / space_side)


def key_obs_gap(x, y, a: float):
    """Pointwise gap |1+e^{ix}+e^{iy}|^2 - a(|4cos^2 x - 1|^2 + |4cos^2 y - 1|^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lhs = np.abs(1.0 + np.exp(1j * x) + np.exp(1j * y)) ** 2
    px = 4.0 * np.cos(x) ** 2 - 1.0
    py = 4.0 * np.cos(y) ** 2 - 1.0
    return lhs - a * (px**2 + py**2)


def key_obs_check(a: float, grid: int) -> float:
    """Minimum gap over a (grid x grid) lattice on [0, 2pi]^2.

    An even grid count is bumped so that the lattice contains (0, pi), where
    the gap vanishes for a = 1/18.
    """
    if a <= 0:
        raise FavlabError("a must be positive")
    side = grid if grid % 2 == 1 else grid + 1
    xs = np.linspace(0.0, 2.0 * np.pi, side)
    best = math.inf
    for x0 in xs:
        gaps = key_obs_gap(x0, xs, a)
        best = min(best, float(gaps.min()))
    return best


def _sin_triple(x: np.ndarray) -> np.ndarray:
    """sin(3x) with the argument tripled in double-double arithmetic.

    3x is split exactly into hi + lo (2x is exact, and the residual of the
    final add is recovered), then sin(hi + lo) ~ sin hi + lo cos hi.  This
    keeps full relative accuracy even where sin(3x) nearly vanishes.
    """
    a = 2.0 * x
    s = a + x
    lo = x - (s - a)
    return np.sin(s) + lo * np.cos(s)


def sine_identity_check(grid: int) -> float:
    """Max over a grid on [0, 2pi] of |sin 3x / sin x - (4cos^2 x - 1)|.

    Points with |sin x| below 1e-8 are skipped (the polynomial side is the
    defined value there).
    """
    xs = np.linspace(0.0, 2.0 * np.pi, grid)
    sx = np.sin(xs)
    keep = np.abs(sx) >= 1e-8
    ratio = _sin_triple(xs[keep]) / sx[keep]
    poly = 4.0 * np.cos(xs[keep]) ** 2 - 1.0
    return float(np.max(np.abs(ratio - poly)))


def lattice_phi(tform: TForm, y1, y2):
    """The 2pi-scaled two-variable sum whose unimodular locus is Z^2."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    acc = 1.0 + np.exp(2j * np.pi * y1) + np.exp(2j * np.pi * y2)
    for a, b in tform.extra:
        acc = acc + np.exp(2j * np.pi * (a * y1 + b * y2))
    return acc / tform.branching


def dist_bound_fit(tform: TForm, grid: int) -> float:
    """Largest b with |Phi(y)| <= 1 - b*dist(y, Z^2) on the sampled domain.

    Near the lattice the left side is tangent to 1 only to second order, so
    the ratio (1-|Phi|)/dist degenerates there; points with dist below 0.05
    are left out to make the fit refinement-stable.
    """
    ys = np.linspace(0.0, 1.0, grid, endpoint=False)
    d1 = np.minimum(ys, 1.0 - ys)
    best = math.inf
    for i, y1 in enumerate(ys):
        dist = np.hypot(d1[i], d1)
        keep = dist >= 0.05
        if not np.any(keep):
            continue
        vals = np.abs(lattice_phi(tform, y1, ys[keep]))
        ratio = (1.0 - vals) / dist[keep]
        best = min(best, float(ratio.min()))
    return best


@dataclass(frozen=True)
class ErgodicSample:
    """Orbit statistics of a_k = 2(1 + cos(4^k lam))."""

    values: np.ndarray
    running_average: np.ndarray
    classification: str


def _rational_angle(lam: float):
    mu = (lam / (2.0 * np.pi)) % 1.0
    frac = Fraction(mu).limit_denominator(10**4)
    if abs(mu - float(frac)) <= 1e-9:
        return frac
    return None


def ergodic_sample(lam: float, count: int) -> ErgodicSample:
    """Sample a_k = 2(1 + cos(4^k lam)) for k = 1..count and classify the orbit.

    When lam/(2pi) is (numerically) a small-denominator rational p/q, the
    orbit 4^k p/q mod 1 is evaluated in exact modular arithmetic: it lands on
    0 forever when the odd part of q is 1 ("terminates", value 4), otherwise
    it cycles ("periodic").  Anything else is iterated in floating point and
    reported as "equidistributed"; the iteration x -> 4x mod 2pi is chaotic,
    but its sampling statistics are what the classification is about.
    """
    if count < 1:
        raise FavlabError("count must be at least 1")
    frac = _rational_angle(lam)
    if frac is not None:
        p, q = frac.numerator, frac.denominator
        residues = np.empty(count, dtype=np.int64)
        r = p % q
        for k in range(count):
            r = (4 * r) % q
            residues[k] = r
        odd = q
        while odd % 2 == 0:
            odd //= 2
        kind = "terminates" if odd == 1 else "periodic"
        angles = 2.0 * np.pi * residues / q
    else:
        kind = "equidistributed"
        angles = np.empty(count)
        x = float(lam % (2.0 * np.pi))
        for k in range(count):
            x = (4.0 * x) % (2.0 * np.pi)
            angles[k] = x
    values = 2.0 * (1.0 + np.cos(angles))
    running = np.cumsum(values) / np.arange(1, count + 1)
    return ErgodicSample(values=values, running_average=running, classification=kind)
