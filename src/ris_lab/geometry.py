"""Channel geometry and statistics.

Builds every deterministic second-order object of the link model
(BS/RIS spatial correlation, LoS bridge matrix, path losses, aggregate
covariances seen at the BS) and draws random channel realizations that
are consistent with those statistics. ``ChannelStatistics`` stores R_B,
the bridge and the two (M, M) cascade congruences through the bridge;
each aggregate covariance is derived from those, the phase-error law and
its link's two gains when read. The (N, N) R_I is a set-up transient,
built whole only to form the congruences; the draw's factor reads it one
grid row of elements at a time. The draw comes in two steps:
the correlated Gaussian links (``sample_realizations``), which do not
depend on the RIS phase-error law, and the aggregate channels for given
phase errors (``aggregate_channels``). The Monte Carlo oracle takes both
steps one slab of blocks at a time (``SLAB_BLOCKS``); within a call, each
correlation product and each bridge product is one BLAS GEMM over all of
its blocks, with the block axis folded into the GEMM rows wherever the
array layout makes the fold free. The R_B and R_I templates are real and
mirror-symmetric, so each splits into at most four sectors of about a
quarter of its size (``MirrorFactor``), an input of the draw that
``template_factors`` builds by folding each template row by row into its
sector blocks: the sampler draws the real and the imaginary part of each
link's white coefficients in sector order, colors each sector
of both with one real GEMM (dgemm) against the sector's root and writes
the inverse butterfly into the link; only the bridge products are complex.
The RIS phases Phi fold into the phase-error rotation, so the bridge
product is by H1 itself.

The templates nest: a RIS grid that fits in a larger one at the same
wavelength and spacings has the larger R_I's principal sub-block at its
elements (``nested_elements``) as its R_I, since R_I is a function of the
element positions and those inputs; and the leading M x M block of an
exponential R_B is R_B of M antennas. So the entries of a draw at the larger
arrays that sit at the smaller arrays' elements have the smaller arrays'
exact law.

Conventions:
  * sinc is the normalized one, sinc(x) = sin(pi x)/(pi x), so
    half-wavelength RIS spacing decorrelates same-row neighbours.
  * RIS elements are indexed row-major over N_H columns; element x sits
    at [0, mod(x-1, N_H) d_H, floor((x-1)/N_H) d_V].
  * Large-scale gains are absorbed into the correlation matrices:
    the BS-side covariance of user k's direct link is beta_2[k] * R_B.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .linalg import SQRT_CLIP_TOL, herm_sqrt, hermitize


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemDimensions:
    """Array sizes only: antenna, element and user counts and the RIS grid.

    The pilot length, a setting of the training phase, is ``PilotConfig.tau_u``.
    """

    m: int            # BS antennas
    n: int            # RIS elements
    k: int            # legitimate users
    m_e: int          # eavesdropper antennas
    n_h: int          # RIS elements per row; N / n_h rows

    def __post_init__(self):
        for name in ("m", "n", "k", "m_e", "n_h"):
            count = getattr(self, name)
            if count < 1:
                raise InvalidParameterError(f"{name} must be positive, got {count}")
            if count > np.iinfo(np.intp).max:   # numpy cannot index that many
                raise InvalidParameterError(f"{name} = {count} exceeds the largest array size")
        if self.n % self.n_h != 0:
            raise InvalidParameterError(
                f"RIS rows of {self.n_h} elements do not tile {self.n} elements")
        if self.m <= self.k:
            raise InvalidParameterError(
                f"need more BS antennas than users for null-space AN (M={self.m}, K={self.k})")

    @classmethod
    def square_ris(cls, m: int, n: int, k: int, m_e: int):
        """Dimensions with the most square RIS grid that factors n."""
        cls(m=m, n=n, k=k, m_e=m_e, n_h=1)     # checks the counts before the search
        n_h = math.isqrt(n)
        while n_h > 1 and n % n_h != 0:
            n_h -= 1
        return cls(m=m, n=n, k=k, m_e=m_e, n_h=n_h)


@dataclass(frozen=True)
class PhaseNoiseModel:
    """Per-element RIS phase-error law, summarized by its circular mean.

    kind is one of 'von_mises', 'uniform', 'none'. sigma_p2 is the phase
    noise power in rad^2; the von Mises concentration is 1/sigma_p2 and
    the uniform half-width is sqrt(3 sigma_p2).
    """

    kind: str = "none"
    sigma_p2: float = 0.0

    def __post_init__(self):
        if self.kind not in ("von_mises", "uniform", "none"):
            raise InvalidParameterError(f"unknown phase noise kind {self.kind!r}")
        if self.sigma_p2 < 0:
            raise InvalidParameterError("sigma_p2 must be non-negative")

    @property
    def nu_p(self) -> float:
        return np.inf if self.sigma_p2 == 0 else 1.0 / self.sigma_p2

    @property
    def iota_p(self) -> float:
        return float(np.sqrt(3.0 * self.sigma_p2))

    @property
    def is_ideal(self) -> bool:
        """Whether the law draws no phase errors: kind 'none' or zero power."""
        return self.kind == "none" or self.sigma_p2 == 0.0

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Exact phase-error angles (von Mises via rejection sampling)."""
        if self.is_ideal:
            return np.zeros(size)
        if self.kind == "uniform":
            return rng.uniform(-self.iota_p, self.iota_p, size)
        return rng.vonmises(0.0, self.nu_p, size)


def _bessel_ratio(nu: float) -> float:
    """I1(nu)/I0(nu) for nu > 0, to a few ulps, without overflow at any nu.

    Below 30 the ratio of the two power series; from 30 on the ratio of
    Hankel's asymptotic series, cut once its terms fall below 1e-17, long
    before that divergent series would start to grow.
    """
    if nu < 30.0:
        # I_n(nu) = sum_k (nu/2)^(2k+n) / (k! (k+n)!)
        q = 0.25 * nu * nu
        term = s0 = s1 = 1.0
        k = 0
        while term > 1e-17 * s0:
            k += 1
            term *= q / (k * k)
            s0 += term
            s1 += term / (k + 1)
        return 0.5 * nu * s1 / s0
    # I_n(nu) ~ e^nu / sqrt(2 pi nu) * sum_k prod_{j<=k} ((2j-1)^2 - 4n^2) / (8 j nu)
    r = 0.125 / nu
    t0 = t1 = s0 = s1 = 1.0
    k = 0
    while t0 > 1e-17:
        k += 1
        c = (2 * k - 1) ** 2
        t0 *= c * r / k
        t1 *= (c - 4) * r / k
        s0 += t0
        s1 += t1
    return s1 / s0


def phase_deviation_factor(model: PhaseNoiseModel) -> float:
    """Circular mean E{exp(j theta)} of the phase-error law, at most 1.

    Von Mises gives the Bessel ratio I1(nu)/I0(nu), in [0, 1), computed so
    that it stays finite for concentrations far beyond 1e4. The uniform law
    gives sin(iota_p)/iota_p, which turns negative once sigma_p2 > pi^2/3 ~ 3.29
    (-0.0915 at sigma_p2 = 4). Only its square enters the covariances.
    """
    if model.is_ideal:
        return 1.0
    if model.kind == "uniform":
        iota = model.iota_p
        return float(np.sinc(iota / np.pi))
    return _bessel_ratio(model.nu_p)


@dataclass(frozen=True)
class CorrelationSpec:
    """Carrier wavelength and RIS element spacings."""

    wavelength: float = 0.1      # carrier wavelength [m]
    d_h: float | None = None     # RIS horizontal spacing [m]; default wavelength/2
    d_v: float | None = None     # RIS vertical spacing [m]; default wavelength/2

    def __post_init__(self):
        if self.wavelength <= 0:
            raise InvalidParameterError("wavelength must be positive")

    @property
    def spacing_h(self) -> float:
        return self.wavelength / 2 if self.d_h is None else self.d_h

    @property
    def spacing_v(self) -> float:
        return self.wavelength / 2 if self.d_v is None else self.d_v


@dataclass(frozen=True)
class LargeScaleFading:
    """Path-loss coefficients of every link."""

    beta_1: float                       # BS-RIS
    beta_i: tuple                       # RIS-user, length K
    beta_2: tuple                       # BS-user, length K
    beta_3: float                       # BS-Eve
    beta_ie: float                      # RIS-Eve

    def __post_init__(self):
        for name in ("beta_1", "beta_3", "beta_ie"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be positive")
        if any(b <= 0 for b in self.beta_i) or any(b <= 0 for b in self.beta_2):
            raise InvalidParameterError("per-user path losses must be positive")


# --------------------------------------------------------------------------
# deterministic builders
# --------------------------------------------------------------------------

def path_loss(distance: float, exponent: float, j0: float = 0.01, j1: float = 1.0) -> float:
    """Power-law gain j0 * (d/j1)^-exponent."""
    if distance <= 0:
        raise InvalidParameterError("distance must be positive")
    return float(j0 * (distance / j1) ** (-exponent))


def build_bs_correlation(m: int, l: float) -> np.ndarray:
    """Exponential BS correlation, [R_B]_ij = l^|i-j| (unit trace density)."""
    if not 0.0 <= l < 1.0:
        raise InvalidParameterError("correlation index must lie in [0, 1)")
    idx = np.arange(m)
    return l ** np.abs(idx[:, None] - idx[None, :]).astype(float)


def nested_elements(small: SystemDimensions, large: SystemDimensions) -> np.ndarray | None:
    """Indices of the elements of ``small``'s RIS grid in ``large``'s; None if it does not fit.

    Both grids are row-major from the same corner, so element x of the small
    grid, at row x // n_h and column x % n_h, is element
    (x // n_h) * n_h' + x % n_h of the large one. The small grid fits when
    neither its row length n_h nor its row count N / n_h exceeds the large one's.
    """
    if small.n_h > large.n_h or small.n // small.n_h > large.n // large.n_h:
        return None
    x = np.arange(small.n)
    return (x // small.n_h) * large.n_h + x % small.n_h


def ris_element_positions(dims: SystemDimensions, spec: CorrelationSpec) -> np.ndarray:
    """(N, 3) element coordinates on the RIS panel, row-major over n_h."""
    x = np.arange(dims.n)
    pos = np.zeros((dims.n, 3))
    pos[:, 1] = (x % dims.n_h) * spec.spacing_h
    pos[:, 2] = (x // dims.n_h) * spec.spacing_v
    return pos


def build_ris_correlation(dims: SystemDimensions, spec: CorrelationSpec,
                          rows: slice = slice(None)) -> np.ndarray:
    """Isotropic-scattering RIS correlation, sinc(2 ||c_x - c_y|| / wavelength).

    It depends on the RIS grid and spacings alone (n, n_h, spec), so
    statistics keep those inputs in its place, with the products they read
    (``build_channel_statistics``). ``rows`` selects the elements x of the
    rows returned, all N of them by default; the sampler's factor reads R_I
    one grid row of elements at a time (``template_factors``). The array is
    returned read-only: its readers only form products of it.

    Works in place on (rows, N) float arrays, at most about two of them at
    once. The panel's x coordinate is 0, so the squared distance is the
    horizontal plus the vertical term exactly, and the sinc repeats
    ``np.sinc``'s steps in place: the values equal
    ``np.sinc(2 sqrt(sum((c_x - c_y)^2)) / wavelength)`` bit for bit, for
    any ``rows``.
    """
    if spec.spacing_h <= 0 or spec.spacing_v <= 0:
        raise InvalidParameterError("RIS spacings must be positive")
    pos = ris_element_positions(dims, spec)
    r = np.subtract.outer(pos[rows, 1], pos[:, 1])
    np.multiply(r, r, out=r)
    dv = np.subtract.outer(pos[rows, 2], pos[:, 2])
    np.multiply(dv, dv, out=dv)
    r += dv
    del dv
    np.sqrt(r, out=r)
    # each step rounds as the tensor formula's does: times 2, then over wavelength
    r *= 2.0
    r /= spec.wavelength
    r *= np.pi
    r[r == 0] = np.finfo(r.dtype).eps
    out = np.sin(r)
    out /= r
    out.flags.writeable = False
    return out


def build_los_channel(dims: SystemDimensions, spec: CorrelationSpec,
                      beta_1: float, rng: np.random.Generator) -> np.ndarray:
    """Deterministic LoS BS-RIS bridge with random per-element bearings.

    Every entry has modulus sqrt(beta_1). One arrival bearing pair
    (elevation U[0, pi], azimuth U[0, 2 pi]) is drawn per RIS element and
    one departure pair per BS antenna; the departure laws are the
    reflected ones (pi - elevation, pi + azimuth), which leave the
    distributions unchanged. The spacings are fixed: wavelength/2 between BS
    antennas, wavelength/4 between RIS elements (``d_h``/``d_v`` do not
    enter). Independent per-row draws make the row gram concentrate on
    beta_1 N I, the property the large-RIS limits build on; angles are
    frozen per rng, so the matrix is deterministic for a given seed.
    """
    theta1 = rng.uniform(0.0, np.pi, dims.n)
    phi1 = rng.uniform(0.0, 2.0 * np.pi, dims.n)
    theta2 = np.pi - rng.uniform(0.0, np.pi, dims.m)
    phi2 = np.pi + rng.uniform(0.0, 2.0 * np.pi, dims.m)
    u = np.sin(theta1) * np.sin(phi1)           # per element
    v = np.sin(theta2) * np.sin(phi2)           # per antenna
    a = np.arange(dims.m)[:, None]
    b = np.arange(dims.n)[None, :]
    phase = (2.0 * np.pi / spec.wavelength) * (
        a * (spec.wavelength / 2) * u[None, :] + b * (spec.wavelength / 4) * v[:, None])
    return np.sqrt(beta_1) * np.exp(1j * phase)


# --------------------------------------------------------------------------
# mirror-sector factors of the templates
# --------------------------------------------------------------------------

def _unfold(sym: np.ndarray, anti: np.ndarray, axis: int) -> np.ndarray:
    """Inverse butterfly along ``axis``: the n = len(sym) + len(anti) entries there.

    ``sym`` holds the even coordinates, ceil(n/2) of them, and ``anti`` the
    odd ones, floor(n/2): out[i] = sym[i] + anti[i], its mirror out[n-1-i]
    = sym[i] - anti[i], and a centre out[n//2] = sym[n//2]. Without odd
    coordinates that is ``sym`` itself. The sqrt(1/2) weights live in the
    factor's roots.
    """
    h = anti.shape[axis]
    if h == 0:
        return sym
    shape = list(sym.shape)
    shape[axis] += h
    out = np.empty(shape)
    lead = (slice(None),) * axis
    np.add(sym[lead + (slice(h),)], anti, out=out[lead + (slice(h),)])
    np.subtract(sym[lead + (slice(h),)], anti, out=out[lead + (slice(-1, -h - 1, -1),)])
    if shape[axis] > 2 * h:
        out[lead + (h,)] = sym[lead + (h,)]
    return out


@dataclass(frozen=True)
class MirrorFactor:
    """A real template R on a grid, factored in its mirror-symmetry sectors.

    R must commute with the reversals of the grid's rows and of its
    columns, as a sinc of element distance on a uniform grid and an
    exponential Toeplitz R_B (a one-row grid) do. Then the Kronecker product
    Q of the two axes' orthonormal even/odd bases (pairs (e_i +- e_{n-1-i})
    / sqrt(2) and a centre e_{n//2} per axis) block-diagonalises R into at
    most four sectors, (even, even), (even, odd), (odd, even), (odd, odd)
    in (row, column) parity, of about N/4 coordinates each (Cantoni &
    Butler, Linear Algebra Appl. 13, 1976). F = Q diag(S_j), with S_j the
    square root of sector block j, is a factor of R: F F^T = R.

    ``roots`` holds each S_j with Q's weights, sqrt(1/2) per paired axis,
    folded into its columns, so ``color`` applies Q as a bare butterfly of
    sums and differences. No dense Q and no (N, N) array exist: R is read
    one grid row at a time and folded into the sector blocks by index
    arithmetic, and each block's root is one ``herm_sqrt``.
    """

    grid: tuple                  # (rows, columns) of the grid R lives on
    roots: tuple                 # per sector, its (n_j, n_j) root, weights folded in

    @staticmethod
    def sectors(grid: tuple) -> list:
        """(a_v, a_h) grid shape of each of the four sectors; a sector may be empty."""
        n_v, n_h = grid
        return [(a_v, a_h) for a_v in (n_v - n_v // 2, n_v // 2)
                for a_h in (n_h - n_h // 2, n_h // 2)]

    @classmethod
    def of(cls, rows, grid: tuple) -> MirrorFactor:
        """The factor of template R on ``grid``; raises if R is not mirror-symmetric.

        ``rows(i)`` returns R's (n_h, N) rows at the elements of grid row i,
        for a grid of (n_v, n_h). Each grid row is read once: row i and its
        mirror row n_v - 1 - i together, for i up to the centre, so at most
        two are alive at once. Both are checked against their column
        reversal and against each other, allowing a mirror asymmetry up to
        ``SQRT_CLIP_TOL`` times R's largest diagonal entry, below what the
        root resolves. Row i alone is folded into the sector blocks: each
        block row adds (sign +1) or subtracts (sign -1) R's column at the
        mirrored grid row, then at the mirrored grid column, so a centre row
        or column, its own mirror, counts twice. Each sector root clamps
        against its own block's largest eigenvalue, at most R's, so it
        clamps no more than a root of the whole R would.
        """
        n_v, n_h = grid
        sectors = list(zip(cls.sectors(grid), [(1, 1), (1, -1), (-1, 1), (-1, -1)]))
        blocks = [np.empty((a_v * a_h, a_v * a_h)) for (a_v, a_h), _ in sectors]
        asym = diag = 0.0
        for i in range(n_v - n_v // 2):
            # axes (column, grid row, grid column) of R's rows at grid row i
            pair = [rows(i).reshape(n_h, n_v, n_h)]
            if n_v - 1 - i != i:
                pair.append(rows(n_v - 1 - i).reshape(n_h, n_v, n_h))
            x = pair[0]
            asym = max(asym, np.max(np.abs(x - pair[-1][:, ::-1]), initial=0.0),
                       *(np.max(np.abs(y - y[::-1, :, ::-1]), initial=0.0) for y in pair))
            diag = max(diag, *(np.max(np.abs(np.diagonal(y[:, row])))
                               for y, row in zip(pair, (i, n_v - 1 - i))))
            for ((a_v, a_h), signs), block in zip(sectors, blocks):
                if i < a_v and block.size:
                    y = x[:a_h]
                    y = y[:, :a_v] + signs[0] * y[:, ::-1][:, :a_v]
                    y = y[..., :a_h] + signs[1] * y[..., ::-1][..., :a_h]
                    block[i * a_h:(i + 1) * a_h] = y.reshape(a_h, a_v * a_h)
        if asym > SQRT_CLIP_TOL * diag:
            raise InvalidParameterError(
                f"a template on a {n_v} x {n_h} grid does not commute "
                "with the reversal of its rows and of its columns")
        roots = []
        for (size, _), block in zip(sectors, blocks):
            if not block.size:
                roots.append(block)
                continue
            # sqrt(1/2) per centre coordinate, which the fold counted twice
            s = np.kron(*(np.where(np.arange(a) == n - a, np.sqrt(0.5), 1.0)
                          for a, n in zip(size, grid)))
            block *= s[:, None]
            block *= s[None, :]
            # Q's weights are 1/(2 s): sqrt(1/2) per paired axis
            roots.append(herm_sqrt(block) * (0.5 / s)[None, :])
        return cls(grid=tuple(grid), roots=tuple(roots))

    def color(self, g: np.ndarray) -> np.ndarray:
        """g F^T: rows of white sector coefficients g (..., N) colored into the grid's entries.

        The coefficients are in sector order, each sector's row-major on its
        grid. Each sector is one real GEMM over all rows; the butterfly then
        unfolds the row parities and then the column parities.
        """
        rows = g.reshape(-1, g.shape[-1])
        y, start = [], 0
        for (a_v, a_h), root in zip(self.sectors(self.grid), self.roots):
            stop = start + a_v * a_h
            y.append((rows[:, start:stop] @ root).reshape(len(rows), a_v, a_h))
            start = stop
        even, odd = (_unfold(y[j], y[j + 2], 1) for j in (0, 1))    # per column parity
        return _unfold(even, odd, 2).reshape(g.shape)


# --------------------------------------------------------------------------
# assembled statistics
# --------------------------------------------------------------------------

@dataclass
class ChannelStatistics:
    """Everything deterministic the estimator and rate formulas need.

    Built by ``build_channel_statistics``. The (N, N) RIS template R_I is
    not kept: it lives only while the cascade congruences ``cascade`` =
    (B R_I B^H, B B^H), B = H1 Phi, are formed, from which ``blend`` is
    formed for the point's own phase-error law. R_I is a function of the
    RIS grid (``dims``) and of ``ris_spec``, so those inputs stand for it
    wherever templates are compared (``montecarlo._nests``), and the
    sampler's factor reads R_I from them one grid row of elements at a time
    (``template_factors``). The statistics store no per-user array:
    ``r_k`` and ``q_e`` are derived from ``r_b``, ``blend`` and the fading
    gains on each read, so a reader binds them once. The covariances see
    the phase-error law only through its circular mean
    ``phase_deviation_factor(phase_model)``; the sampler draws from it.
    The sampler's sector factors are no part of them (``template_factors``).
    """

    dims: SystemDimensions
    fading: LargeScaleFading
    phase_model: PhaseNoiseModel         # RIS phase-error law; its only home
    phi: np.ndarray                      # (N,) unit-modulus RIS phases
    h1: np.ndarray                       # (M, N) LoS bridge
    r_b: np.ndarray | None               # (M, M) unit-diagonal BS template; None = identity
    ris_spec: CorrelationSpec | None     # wavelength and spacings of R_I; None = identity R_I
    cascade: tuple                       # (B R_I B^H, B B^H), each (M, M)

    @property
    def blend(self) -> np.ndarray:
        """(M, M) RIS-path covariance at unit RIS-side gain, for the point's phase-error law."""
        rho = phase_deviation_factor(self.phase_model)
        cascade_corr, cascade_iden = self.cascade
        return rho ** 2 * cascade_corr + (1.0 - rho ** 2) * cascade_iden

    def _covariance(self, direct: float, ris: float, blend: np.ndarray) -> np.ndarray:
        """direct R_B + ris ``blend``: one aggregate link's BS-side covariance."""
        base_b = np.eye(self.dims.m) if self.r_b is None else self.r_b
        return hermitize(direct * base_b + ris * blend)

    @property
    def r_k(self) -> list:
        """K aggregate user covariances beta_2k R_B + beta_ik ``blend``, each (M, M)."""
        blend = self.blend
        return [self._covariance(b2, bi, blend)
                for b2, bi in zip(self.fading.beta_2, self.fading.beta_i)]

    @property
    def q_e(self) -> np.ndarray:
        """(M, M) aggregate eavesdropper covariance beta_3 R_B + beta_IE ``blend``."""
        return self._covariance(self.fading.beta_3, self.fading.beta_ie, self.blend)


def build_channel_statistics(dims: SystemDimensions, fading: LargeScaleFading,
                             phase_model: PhaseNoiseModel, h1: np.ndarray,
                             phi: np.ndarray | float = np.pi / 4,
                             r_b: np.ndarray | None = None,
                             ris_spec: CorrelationSpec | None = None, *,
                             r_i: np.ndarray | None = None,
                             cascade: tuple | None = None) -> ChannelStatistics:
    """Assemble the statistics whose ``r_k`` and ``q_e`` give every link's covariance.

    ``phi`` may be a scalar phase (applied to every element) or an (N,)
    vector of phases. ``r_b`` is the unit-diagonal BS template and
    ``ris_spec`` the wavelength and spacings of the RIS template R_I
    (``build_ris_correlation``); pass None for spatially uncorrelated
    arrays. R_I is formed here only for a missing cascade pair: a caller
    that holds the pair for the same inputs, ``h1`` and ``phi`` passes it
    (``cascade``), or R_I itself (``r_i``) to form it.
    """
    if np.isscalar(phi):
        phi_vec = np.full(dims.n, np.exp(1j * float(phi)))
    else:
        phi_vec = np.exp(1j * np.asarray(phi, dtype=float))
    if len(fading.beta_i) != dims.k or len(fading.beta_2) != dims.k:
        raise InvalidParameterError("per-user gain lists must have length K")
    if h1.shape != (dims.m, dims.n):
        raise InvalidParameterError(f"H1 has shape {h1.shape}, expected {(dims.m, dims.n)}")

    if cascade is None:
        if ris_spec is not None and r_i is None:
            r_i = build_ris_correlation(dims, ris_spec)
        # beta_1 already lives in h1; the cascade only lacks the RIS-side gain
        b = h1 * phi_vec[None, :]
        cascade_iden = hermitize(b @ b.conj().T)
        cascade = (cascade_iden if r_i is None else hermitize(b @ r_i @ b.conj().T),
                   cascade_iden)
    return ChannelStatistics(
        dims=dims, fading=fading, phase_model=phase_model, phi=phi_vec, h1=h1,
        r_b=r_b, ris_spec=ris_spec, cascade=cascade)


def template_factors(stats: ChannelStatistics) -> tuple:
    """Sector factors (R_I's, R_B's) that ``sample_realizations`` colors with; None = identity.

    R_B is a one-row grid of M antennas, factored first, so a skewed R_B
    is refused before R_I is read. R_I is rebuilt from ``ris_spec`` one
    grid row of elements at a time, as the factor reads it, so no (N, N)
    R_I is formed here.
    """
    dims = stats.dims
    m, n_h = dims.m, dims.n_h
    f_b = None if stats.r_b is None else MirrorFactor.of(
        lambda i: stats.r_b[i * m:(i + 1) * m], (1, m))
    f_i = None if stats.ris_spec is None else MirrorFactor.of(
        lambda i: build_ris_correlation(dims, stats.ris_spec, slice(i * n_h, (i + 1) * n_h)),
        (dims.n // n_h, n_h))
    return f_i, f_b


# --------------------------------------------------------------------------
# random realizations
# --------------------------------------------------------------------------

def _rows_times(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x @ a.T for a stack of row vectors x (..., n), as a single GEMM.

    The leading axes fold into the GEMM's row dimension; the reshape is
    free when x is contiguous and a copy otherwise.
    """
    return (x.reshape(-1, x.shape[-1]) @ a.T).reshape(*x.shape[:-1], a.shape[0])


def _link(g: np.ndarray, factor: MirrorFactor | None, gain) -> np.ndarray:
    """sqrt(gain/2) (g_re + j g_im) F^T, the complex link of two real white parts.

    ``g`` holds both real parts as one (2, ...) array, the real part first,
    then the imaginary one. Both are colored by the template's sector
    factor ``factor`` (None = white) and written, scaled, into the halves
    of the link; no complex temporary is made.
    """
    if factor is not None:
        g = factor.color(g)
    h = np.empty(g.shape[1:], dtype=complex)
    scale = np.sqrt(gain / 2)
    np.multiply(g[0], scale, out=h.real)
    np.multiply(g[1], scale, out=h.imag)
    return h


def sample_realizations(stats: ChannelStatistics, rng: np.random.Generator,
                        n_draws: int, *, eve: bool, factors: tuple) -> dict:
    """Stacked small-scale fading draws; axis 0 is the block index.

    Returns a dict with the scaled user links h_i (B, K, N) and h_b (B, K, M)
    and, with ``eve``, the eavesdropper's links h_ie (B, N, M_E) and
    h_be (B, M, M_E). The Gaussians g_i (B, K, N), g_b (B, K, M) and then,
    with ``eve``, g_ie (B, M_E, N) and g_be (B, M_E, M) are drawn from
    ``rng`` in that order, each as two real arrays: all real parts, then
    all imaginary parts. The secrecy and Wishart
    oracles draw Eve's links; the NMSE oracle reads only the users' and does
    not. Nothing here depends on the phase-error law, so one draw serves
    every law with the same dims, fading and correlations, and, through its
    sub-grids and leading antennas, every smaller nested array;
    ``aggregate_channels`` applies the phase errors.

    ``factors`` is ``template_factors(stats)``, built once for all draws at
    ``stats``. A correlated link's white numbers are its coefficients in the
    mirror sectors of its template (``MirrorFactor``), in sector order along
    the last axis; an uncorrelated link's are its entries. Each sector's
    correlation product is one real GEMM over both parts of all ``n_draws``
    blocks at once, and the inverse butterfly writes the sectors into the
    link, which the link gain then scales. Each part is drawn over all
    blocks, so a draw of B blocks is not the concatenation of draws of
    fewer. The Monte Carlo oracle draws a chunk one slab of ``SLAB_BLOCKS``
    blocks at a time, so it holds no chunk-size link at the RIS size N. The
    eavesdropper arrays are drawn and built antenna-major, (B, M_E, .), so
    that block and antenna axes fold into the GEMM rows; they are returned
    as transposed views of that layout.
    """
    dims, fading = stats.dims, stats.fading
    f_i, f_b = factors
    draws = {
        "h_i": _link(rng.standard_normal((2, n_draws, dims.k, dims.n)), f_i,
                     np.asarray(fading.beta_i)[None, :, None]),      # rows ~ CN(0, beta_i R_I)
        "h_b": _link(rng.standard_normal((2, n_draws, dims.k, dims.m)), f_b,
                     np.asarray(fading.beta_2)[None, :, None]),
    }
    if eve:
        h_ie = _link(rng.standard_normal((2, n_draws, dims.m_e, dims.n)), f_i,
                     fading.beta_ie)                                  # (B, M_E, N)
        h_be = _link(rng.standard_normal((2, n_draws, dims.m_e, dims.m)), f_b,
                     fading.beta_3)                                   # (B, M_E, M)
        draws.update(h_ie=np.swapaxes(h_ie, 1, 2), h_be=np.swapaxes(h_be, 1, 2))
    return draws


# Blocks per slab of a Monte Carlo chunk: ``montecarlo._chunk_terms`` draws
# the links of a chunk of B blocks (``sample_realizations``) and builds its
# channels from them (``aggregate_channels``) one slab at a time, in
# ceil(B / SLAB_BLOCKS) slabs whose sizes differ by at most one, so no slab is
# a single block unless B is (a one-row product takes another BLAS path). So
# the chunk's links never exist at the RIS size N, only one slab's. Against
# 25, 10 lowered the N = 400 bench workload's peak RSS from 57.6-58.7 MB to
# 55.2-55.3 MB (three alternating runs each, BENCH_slab_draw.json).
SLAB_BLOCKS = 10


def slabs(b: int) -> list[slice]:
    """ceil(b / SLAB_BLOCKS) near-equal slices that cover the block axis of length b."""
    n = -(-b // SLAB_BLOCKS)
    return [slice(b * i // n, b * (i + 1) // n) for i in range(n)]


def aggregate_channels(stats: ChannelStatistics, draws: dict, theta: np.ndarray | None,
                       *, elements: np.ndarray | None = None, out: list | None = None
                       ) -> tuple[np.ndarray, np.ndarray | None]:
    """Aggregate channels (h, h_e) of ``stats`` from ``sample_realizations`` draws.

    The draws may be at larger nested arrays: ``elements`` indexes the RIS
    elements of ``stats`` in the draw's grid (``nested_elements``; None means
    the whole grid), and the direct links are read at their leading M
    antennas. ``theta`` (B, N) holds one phase-error vector per block at the
    draw's grid, shared by the users and the eavesdropper of that block;
    None means no phase errors, and exp(j theta) is skipped. Returns
    h (B, K, M) and h_e (B, M, M_E): the direct links plus the RIS path
    through the rotation exp(j theta) Phi and the bridge H1. h_e is None when
    the draw holds no eavesdropper links.

    ``out``, if given, holds the arrays the channels are written into:
    h (B, K, M) and, with Eve's links, h_e antenna-major (B, M_E, M), the
    layout in which block and antenna fold into the bridge GEMM's rows; h_e
    is returned as its transposed view. ``montecarlo._chunk_terms`` passes
    one slab's rows of its chunk-size arrays (``slabs``). The RIS path is
    one GEMM over the given blocks, and the draw is never written. A complex
    GEMM row does not depend on how many rows share the call, so channels
    built slab by slab equal those of one GEMM over all blocks, bit for bit.
    """
    m = stats.dims.m

    def take(x):
        return x if elements is None else x[..., elements]

    # (RIS-side rows, direct links) per link; Eve's antenna-major (B, M_E, .),
    # the sampler's layout, so that block and antenna fold into the GEMM rows
    links = [(draws["h_i"], draws["h_b"][:, :, :m])]
    if "h_ie" in draws:
        links.append((np.swapaxes(draws["h_ie"], 1, 2), np.swapaxes(draws["h_be"], 1, 2)[:, :, :m]))
    if out is None:
        out = [np.empty(x.shape[:2] + (m,), dtype=complex) for x, _ in links]
    if theta is None:
        rot = stats.phi
    else:
        rot = np.exp(1j * take(theta))
        rot *= stats.phi
        rot = rot[:, None, :]
    for (x, direct), o in zip(links, out, strict=True):
        o[...] = _rows_times(np.multiply(rot, take(x)), stats.h1)
        o += direct
    h, *h_e = out
    return h, (np.swapaxes(h_e[0], 1, 2) if h_e else None)
