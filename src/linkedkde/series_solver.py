"""Generalized-eigenfunction series solution of the linked-boundary diffusion.

For initial data with cosine/sine transforms c0, s0, s1 the solution is

    f(x, t) = c0(0) l(x)
              + 2 sum_{n>=1} exp(-k_n^2 t / 2) *
                { c0(k_n) cos(k_n x) l(x) + b_n sin(k_n x) },
    b_n = (1+q) s0(k_n) - 2q [s1(k_n) + k_n t c0(k_n)],

with ``k_n = 2 pi n``, ``q = (1-r)/(1+r)`` in [-1, 1] and the stationary
profile ``l(x) = (1-q)(1-x) + (1+q) x = 2 (r + (1-r) x)/(1+r)``. The
``k_n t`` term is the non-separable contribution of the generalized
eigenfunctions; it vanishes identically at r = 1 (q = 0). Written in q,
every coefficient stays bounded however large r is.

This module is the spectral core behind ``estimate_density``, LSCV and the
baselines, and the oracle for the binned finite-difference solver; the
kernel form ``eval_linked_kernel`` is its independent check. A sample's
transforms take one route at every sample count, the cell moments of a
Taylor expansion (:func:`_taylor_transforms`). A sample is fitted once
(``_SpectralFit``): its transforms, at one tolerance, give the series at
every time from the one N sized for the smallest, and the LSCV scores of
all candidate times in one batch. Every series, the linked one and both
baselines', is evaluated by one function, :func:`_synthesis`, which
states the rule between one inverse FFT and the Taylor cells of the
transforms (:func:`_cell_synthesis`). The estimator means take the same
series from transforms of a pdf, on the same Taylor cells: the nodes of a
composite Gauss-Legendre rule, weighted by the pdf, stand in for the
samples (:func:`_pdf_transforms`).

The module runs on numpy alone: every FFT is ``numpy.fft``'s, and the
quadrature nodes are ``numpy.polynomial.legendre.leggauss``'s. No
transform takes a BLAS product, so the transforms do not depend on the
BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .types import (
    TOL,
    EvaluationGrid,
    SampleSet,
    TruncationError,
    _check_unit_interval,
    _q_weights,
    validate_ratio,
    validate_time,
)

# Loose provable envelope on the bracketed coefficients for probability data;
# conservative near r = 0 where |1 - r| is largest.
COEFFICIENT_ENVELOPE = 8.0

# The series' mode cap, reached at t = 1.0e-10: the largest power of two at which
# the tracemalloc peak at n = 1e5 stays within 128 MiB, 88 MiB for the sweep's
# call of X / 2 at twice the modes (172 MiB at 2^18), 44 MiB for an estimate.
MAX_MODES = 2**17

# Elements per block temporary.
_ELEMENT_BUDGET = 2**20
# Samples per block of the Taylor route's moment passes.
_TAYLOR_BLOCK = 2**16
# Bound on the first Taylor term dropped, relative to the transforms' scale of one.
_TAYLOR_TAIL = 1e-17
# The Taylor plan's costs, in sample passes (a bincount pass over n samples
# costs n): of G log2 G FFT work, and of one moment row whatever n and G are.
# Fitted by least squares in relative error to 174 cold calls (each after a
# 40 MB numpy sweep; one BLAS thread, one CPU of a shared 2-core Xeon VM):
# n from 1e3 to 1e6, N from 14 to 9324, each of the six G of _taylor_plan.
# The fitted cost is 2.2 ns per sample pass, with a median error of 12%.
_TAYLOR_FFT_COST = 0.97
_TAYLOR_ROW_COST = 7900.0
# The estimator means' composite Gauss-Legendre rule (see _panel_rule): nodes per
# panel, radians of the top mode across one equal panel, and halvings of each end panel.
_PANEL_ORDER = 32
_PANEL_PHASE = 16.0
_PANEL_HALVINGS = 48


def _fast_len(n: int) -> int:
    """The least 2-3-5-smooth integer at or above n: a fast real FFT length."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f235 = f35
            while f235 < n:
                f235 *= 2
            best = min(best, f235)
            f35 *= 3
        f5 *= 5
    return best


def _block_size(n_modes: int) -> int:
    """Samples or points per block, so an (N+1) x block temporary stays in budget.

    A caller whose temporaries add up to R real rows per sample passes R - 1.
    """
    return max(1, _ELEMENT_BUDGET // (n_modes + 1))


@dataclass(frozen=True, eq=False)
class EmpiricalTransforms:
    """Mode-indexed transforms of the initial data at k_n = 2 pi n, n = 0..N.

    ``c0``, ``s0`` and ``s1`` are the means of cos(k_n X), sin(k_n X) and
    X sin(k_n X); they fix the series solution at every time. ``c1``, the
    mean of X cos(k_n X), is carried only by empirical transforms: with
    ``c0`` and ``s0`` it gives the sample means of the estimate and of the
    diagonal kernel in closed form, which least-squares cross-validation
    needs. Transforms of a pdf have ``n_samples`` 0, and closed-form ones
    leave ``c1`` None. Entry n belongs to k_n = 2 pi n, so the length fixes N.
    Transforms of several samples of one size (:func:`_taylor_transforms`)
    hold one row per sample along a leading replicate axis.
    """

    c0: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    n_samples: int
    c1: np.ndarray | None = None

    def __post_init__(self):
        shapes = {self.c0.shape, self.s0.shape, self.s1.shape}
        if self.c1 is not None:
            shapes.add(self.c1.shape)
        if len(shapes) != 1:
            raise ValueError("transform arrays must share one shape")

    @property
    def n_modes(self) -> int:
        """Largest mode index N carried by the transforms."""
        return self.c0.shape[-1] - 1


def empirical_transforms(samples, N: int) -> EmpiricalTransforms:
    """Transforms of the empirical measure of a sample, modes 0..N.

    c0[n], s0[n], s1[n], c1[n] are sample means of cos(k_n X), sin(k_n X),
    X sin(k_n X) and X cos(k_n X); all are bounded by one in absolute value,
    c0[0] = 1 and c1[0] is the sample mean.

    They come from the cell moments of a Taylor expansion
    (:func:`_taylor_transforms`), at P + 2 ``bincount`` passes over the
    sample plus P + 1 real FFTs of length G, with G and P from
    :func:`_taylor_plan`, at every sample count and N. They are accurate
    to about 1e-14 at any N, and no sum takes a BLAS product, so they do
    not depend on the BLAS thread count.
    """
    samples = SampleSet.coerce(samples)
    if N < 0:
        raise ValueError("mode count N must be non-negative")
    return _taylor_transforms(samples.values, N)


def _taylor_order(N: int, cells: int) -> int:
    """P, the Taylor route's last term: the least P with 4 (pi N / G)^P / P! below 1e-17."""
    ratio = math.pi * N / cells
    order, term = 0, 4.0
    while term >= _TAYLOR_TAIL:  # term = 4 ratio^order / order!
        order += 1
        term *= ratio / order
    return order


# Memoised: repeated estimates and cell syntheses read the same few plans.
@lru_cache(maxsize=256)
def _taylor_plan(n: int, N: int) -> tuple[int, int]:
    """(G, P): the Taylor route's cell count and last term for n samples and modes 0..N.

    G is the power of two, from the least at or above 2 (N + 1), whose real
    FFT still holds modes 0..N and where P is largest (up to 23), to the
    least at or above 64 (N + 1) (P down to 9), that minimises the
    cold-call cost in sample passes

        n (P + 2) + beta (P + 1) G log2 G + gamma (P + 2)

    of the P + 2 ``bincount`` passes, the P + 1 real FFTs of length G and a
    fixed cost per moment row, with beta = ``_TAYLOR_FFT_COST`` and
    gamma = ``_TAYLOR_ROW_COST``; the smaller G on a tie. P is
    :func:`_taylor_order` of G. The model takes a pass to cost the same at
    any G, which it does not once a moment row outgrows the L1 cache: at
    n = 1e6, N = 73 it takes G = 8192, 1.2 times as slow as G = 4096.
    """
    least = 1 << (2 * (N + 1) - 1).bit_length()

    def cost(plan):
        cells, order = plan
        fft = _TAYLOR_FFT_COST * (order + 1) * cells * math.log2(cells)
        return n * (order + 2) + fft + _TAYLOR_ROW_COST * (order + 2)

    return min(((least << j, _taylor_order(N, least << j)) for j in range(6)), key=cost)


def _taylor_transforms(vals: np.ndarray, N: int, weights: np.ndarray | None = None) -> EmpiricalTransforms:
    """The transforms of :func:`empirical_transforms` by cell moments of a Taylor expansion.

    With G cells and the last term P from :func:`_taylor_plan`, each sample
    is split exactly as X G = g + u, g = rint(X G) and |u| <= 1/2 (G is a
    power of two), so

        exp(i k_n X) = exp(2 pi i n g / G) sum_p (2 pi i n u / G)^p / p!.

    The series stops after p = P, the least P with 4 (pi N / G)^P / P!
    below 1e-17 (:func:`_taylor_order`). The moments M_p[g] = sum u^p of
    the samples in cell g, p = 0..P+1, are ``np.bincount`` sums accumulated
    over blocks of samples; since X = (g + u) / G, the X-weighted ones are
    (g / G) M_p + M_{p+1} / G, with no further pass. Cell G folds onto
    cell 0, one real FFT of length G per moment row sums over the cells,
    and a table of the terms (-2 pi i n / G)^p / p!, built by one
    ``np.cumprod`` over p, weights the rows' spectra into one sum. Moment
    rows are taken in groups that fit half the element budget, one pass
    over the sample per group (one pass in all while G is below
    2^19 / (P + 2)), from the last group down; each group's spectra are
    weighted in place by its rows of the table, built in one buffer after
    the group's FFTs, and summed before the next group, so memory is
    O(_TAYLOR_BLOCK + G) beyond the element budget. A sample at 0 or 1 has
    u = 0, so samples there give c0 = 1 and s0 = 0 exactly. With
    ``weights`` the moments weight each point, and the transforms are the
    weighted sums, not means, with n_samples 0.

    ``vals`` may also be a 2-D array whose rows are samples of one size,
    replicates: the transforms then carry a leading replicate axis, and row
    j is bit for bit the transforms of ``vals[j]`` alone. Each replicate
    keeps the plan, row groups and sample blocks of a one-sample call. The
    replicates are taken in chunks whose moment rows fit the element
    budget together; within a chunk, replicate j's cells are offset by
    j (G + 1) in one ``bincount`` per moment row and sample block, and the
    rows of every replicate share the FFT calls. ``weights`` go with one
    sample.
    """
    samples = vals.reshape(-1, vals.shape[-1])
    replicates = len(samples)
    cells, order = _taylor_plan(vals.shape[-1], N)
    # Moment rows per pass over the sample, in half the element budget; a pass
    # takes one more row than it transforms, for its last weighted row.
    group = max(1, _block_size(2 * cells + 1) - 1)
    chunk = max(1, _ELEMENT_BUDGET // ((min(group, order + 1) + 1) * (cells + 1)))
    # Rows per FFT call: 2 real rows of G, their 2 complex spectra and 1 temporary each.
    step = _block_size(10 * cells - 1)
    centres = np.arange(cells) / cells
    total = np.zeros((2, replicates, N + 1), dtype=complex)
    for low in range(0, replicates, chunk):
        part = samples[low : low + chunk]
        width = len(part)
        # From the last group down, so the arrays held over while the next group
        # is built are the smaller group's.
        for first in reversed(range(0, order + 1, group)):
            last = min(first + group, order + 1)
            moments = _cell_moments(part, cells, first, last + 1, weights)
            moments[:, 0] += moments[:, cells]  # cell G has the phase of cell 0, and centre 1
            # row p R + j is moment p of replicate j, so row p R + j + R is its moment p + 1
            count = (last - first) * width
            spectra = np.empty((2, count, N + 1), dtype=complex)
            for start in range(0, count, step):
                stop = min(start + step, count)
                rows = np.empty((2, stop - start, cells))
                rows[0] = moments[start:stop, :cells]
                np.multiply(moments[start + width : stop + width, :cells], 1.0 / cells, out=rows[1])
                rows[1] += centres * rows[0]
                rows[1, :, 0] += moments[start:stop, cells]
                spectra[:, start:stop] = np.fft.rfft(rows)[..., : N + 1]
            # The group's rows p of the term table turn^p / p!, by one running product
            # over p; sum_g M_p[g] exp(+2 pi i n g / G) is the conjugate of FFT row p at
            # n, so turn = -2 pi i n / G.
            terms = np.empty((last - first, N + 1), dtype=complex)
            np.multiply(np.arange(N + 1), -2j * math.pi / cells, out=terms[0])
            np.divide(terms[0], np.arange(first + 1, last)[:, None], out=terms[1:])
            np.power(terms[0], first, out=terms[0])
            terms[0] /= math.factorial(first)
            np.cumprod(terms, axis=0, out=terms)
            spectra = spectra.reshape(2, last - first, width, N + 1)
            spectra *= terms[:, None]
            total[:, low : low + width] += spectra.sum(axis=1)
    n = vals.shape[-1] if weights is None else 0
    count = n or 1  # weighted sums are integrals already
    total = total.reshape((2,) + vals.shape[:-1] + (N + 1,))
    return EmpiricalTransforms(
        c0=total[0].real / count,
        s0=-total[0].imag / count,
        s1=-total[1].imag / count,
        n_samples=n,
        c1=total[1].real / count,
    )


def _cell_moments(
    samples: np.ndarray, cells: int, first: int, stop: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Rows p = first..stop-1 of the cell moments M_p[g] = sum u^p, g = 0..cells, of each row of ``samples``.

    Each sample X is in cell g = rint(X cells) at offset u = X cells - g;
    samples are taken in blocks of ``_TAYLOR_BLOCK``. With ``weights``,
    for one row of samples, the sums are of weights times u^p. Row p R + j
    of the result, R the rows of ``samples``, holds moment p of row j: its
    cells are offset by j (cells + 1) in one ``bincount`` per moment row and
    block, so each sum adds the samples of one row in the order of a
    one-row call.
    """
    replicates, n = samples.shape
    width = replicates * (cells + 1)
    moments = np.zeros((stop - first, width))
    for start in range(0, n, _TAYLOR_BLOCK):
        block = samples[:, start : start + _TAYLOR_BLOCK]
        scaled = block.ravel() * cells
        index = np.rint(scaled)
        offset = scaled - index  # exact: cells is a power of two
        index = index.astype(np.intp)
        if replicates > 1:
            index += np.repeat(np.arange(0, width, cells + 1), block.shape[1])
        power = offset**first
        if weights is not None:
            power *= weights[start : start + _TAYLOR_BLOCK]
        for row in moments:
            row += np.bincount(index, power, minlength=width)
            power *= offset
    return moments.reshape(-1, cells + 1)


def transforms_from_functions(
    c0: Callable[[np.ndarray], np.ndarray],
    s0: Callable[[np.ndarray], np.ndarray],
    s1: Callable[[np.ndarray], np.ndarray],
    N: int,
) -> EmpiricalTransforms:
    """Transforms supplied in closed form for analytic initial data.

    Each callable receives the mode frequencies k_n = 2 pi n (an array,
    including k_0 = 0) and returns the corresponding transform values; no
    numeric quadrature of the initial data is performed.
    """
    if N < 0:
        raise ValueError("mode count N must be non-negative")
    k = 2.0 * math.pi * np.arange(N + 1)
    return EmpiricalTransforms(
        c0=np.asarray(c0(k), dtype=float),
        s0=np.asarray(s0(k), dtype=float),
        s1=np.asarray(s1(k), dtype=float),
        n_samples=0,
    )


def _pdf_transforms(pdf: Callable[[np.ndarray], np.ndarray], N: int, scale: float = 1.0) -> EmpiricalTransforms:
    """Transforms of Y = scale X, X with density ``pdf`` on [0, 1], modes 0..N.

    A composite Gauss-Legendre rule of ``_PANEL_ORDER`` nodes per panel
    (:func:`_panel_rule`) gives nodes x_j and weights w_j; the nodes
    y_j = scale x_j, weighted by w_j pdf(x_j), go through the cell moments
    of :func:`_taylor_transforms`, so the sums are integrals, not means, and
    ``n_samples`` is 0. The pdf is evaluated at the nodes only.
    """
    x, w = _panel_rule(scale * N)
    return _taylor_transforms(scale * x, N, w * np.asarray(pdf(x), dtype=float))


@lru_cache(maxsize=1)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order ``_PANEL_ORDER`` on [0, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for part in rule:
        part.flags.writeable = False
    return rule


def _panel_rule(turns: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] for integrands up to ``turns`` oscillations.

    About pi turns / 8 equal panels keep the top frequency 2 pi turns at
    ``_PANEL_PHASE`` = 16 radians a panel, which 32 nodes resolve to
    round-off, and the two end panels are halved ``_PANEL_HALVINGS`` = 48
    times toward their ends, so an algebraic end term such as x^(1/2)
    (``beta_mixture:a=1.5``) converges geometrically too, with at most
    (h 2^-48)^(1 + beta) left in the last panel, h the panel width. Near 1
    the halvings run into the spacing of doubles: edges that round together
    are taken once, and nodes that round to 1 are moved to the double below
    it, keeping their weights (the kernels magnify a mass lost at an end by
    1 / sqrt(t)), so the nodes lie in (0, 1).
    """
    panels = max(1, math.ceil(2.0 * math.pi * turns / _PANEL_PHASE))
    width = 1.0 / panels
    graded = width * 0.5 ** np.arange(1, _PANEL_HALVINGS + 1)
    edges = np.unique(np.concatenate(([0.0, 1.0], graded, width * np.arange(1, panels), 1.0 - graded)))
    nodes, weights = _legendre_rule()
    lengths = np.diff(edges)[:, None]
    x = np.minimum((edges[:-1, None] + lengths * nodes).ravel(), np.nextafter(1.0, 0.0))
    return x, (lengths * weights).ravel()


def _even_modes(scaled: EmpiricalTransforms, N: int, stride: int) -> EmpiricalTransforms:
    """Transforms of a sample X at modes 0..N from those of X / S at S N modes or more, S = ``stride``.

    k_m X = k_{S m} X / S, so c0 and s0 of X are entries S m of those of
    X / S, and s1 and c1, means of X sin and X cos, S times them (an exact
    scaling when S is a power of two). The sweep's one call of X / P holds
    the linked series' modes at stride P alongside the cosine baseline's,
    the modes of X / 2, at stride P / 2.
    """
    every = slice(0, stride * N + 1, stride)
    return EmpiricalTransforms(
        c0=scaled.c0[..., every],
        s0=scaled.s0[..., every],
        s1=stride * scaled.s1[..., every],
        n_samples=scaled.n_samples,
        c1=stride * scaled.c1[..., every],
    )


def truncation_bound(t: float) -> int:
    """Smallest N with (1 + k_N t) exp(-k_N^2 t / 2) * envelope < TOL = 1e-14.

    Monotone non-increasing in t; grows like 1/sqrt(t) as t shrinks.
    Raises TruncationError when no N up to the series' mode cap
    (``MAX_MODES``) will do, for t below about 1.0e-10.

    O(1): since 1 + k t >= 1, the bound needs k_N above
    k = sqrt(2 ln(envelope / TOL) / t), so no N below k / (2 pi) will do,
    and the envelope falls strictly with N (k_N >= 1), so a step or two up
    from there finds the smallest.
    """
    t = validate_time(t)
    k = math.sqrt(2.0 * math.log(COEFFICIENT_ENVELOPE / TOL) / t)
    n = max(1, math.floor(min(k / (2.0 * math.pi), MAX_MODES + 1)))
    while n <= MAX_MODES and not _tail_envelope(n, t) < TOL:
        n += 1
    if n <= MAX_MODES:
        return n
    raise TruncationError(
        f"series envelope above tol={TOL} after {MAX_MODES} modes (t={t})"
    )


def _tail_envelope(n: int, t: float) -> float:
    """The envelope at mode n; 0 where exp(-k_n^2 t / 2) underflows, and k_n t may not."""
    k = 2.0 * math.pi * n
    decay = math.exp(-0.5 * k * k * t)
    return (1.0 + k * t) * decay * COEFFICIENT_ENVELOPE if decay else 0.0


def _synthesize(coef: np.ndarray, length: int) -> np.ndarray:
    """``Re sum_k coef[k] exp(2 pi i k j / length)`` for j = 0..length-1, len(coef) <= length.

    One inverse FFT of length ``length``, O(length log length); the FFT
    zero-pads the coefficients itself.
    """
    return np.fft.ifft(coef, n=length, norm="forward").real.copy()


# Longest period of the FFT route of _synthesis, in interval lengths; the
# Gaussian baseline reaches it at t near 3.
_MAX_PERIOD = 16


def _fft_route(width: int, period: int, divisions: int | None) -> bool:
    """Whether :func:`_synthesis` takes its inverse FFT for rows of ``width`` coefficients, modes 0..K = width - 1."""
    return divisions is not None and width <= period * divisions and period <= _MAX_PERIOD


def _synthesis(coef: np.ndarray, period: int, points: np.ndarray, divisions: int | None = None, mirror: bool = False):
    """``g(x) = Re sum_k coef[k] exp(2 pi i k x / P)`` at the points x: the one evaluation of every series.

    ``coef`` is one row of coefficients, or a 2-D array of rows, each
    evaluated alike: the values have the rows' leading axis. The rule,
    for the linked series (P = 1) and both baselines alike
    (:func:`_fft_route`): on the uniform grid j / M (``divisions`` = M),
    when the FFT length P M holds every mode (K + 1 <= P M, K the top mode
    of the rows) and P is at most ``_MAX_PERIOD``, g is one inverse FFT of
    length P M (:func:`_synthesize`) over all the rows, at O(P M log(P M))
    a row, whose node j is the point j / M; anywhere else x / P is summed
    on the Taylor cells (:func:`_cell_synthesis`) row by row, at
    O(K log K + points) a row. More modes than FFT nodes mean a kernel
    steeper than the grid, and a fold of the modes into one FFT would be
    exact at the rationals j / M, not at the doubles the grid holds: at
    t = 1e-8 a fold was 3.7e-13 of the linked estimate's maximum off, and
    3.5e-13 of the Gaussian's peak, where the cells met the Gaussian's
    direct sum to 5e-15. Zero coefficients above a row's top mode change no
    FFT node, so rows of different lengths may be zero-padded to one on the
    FFT route, but not on the cells, whose plan reads K. With ``mirror``
    the pair g(x), g(-x) is returned, as the linked series needs; on the
    FFT route g(-j / M) is the row read backwards, with no index array or
    gathered copy.
    """
    if _fft_route(coef.shape[-1], period, divisions):
        row = _synthesize(coef, period * divisions)
        row = np.concatenate((row, row[..., :1]), axis=-1)  # node P M repeats node 0
        values = row[..., : divisions + 1]
        return (values, row[..., row.shape[-1] - divisions - 1 :][..., ::-1]) if mirror else values
    x = points / period
    if mirror:
        x = np.stack((x, -x))
    if coef.ndim == 1:
        return _cell_synthesis(coef, x)
    values = np.stack([_cell_synthesis(row, x) for row in coef])
    return np.moveaxis(values, 1, 0) if mirror else values


def _cell_synthesis(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``Re sum_n coef[n] exp(2 pi i n x)`` at the real points x, on the Taylor cells.

    The adjoint of :func:`_taylor_transforms` (Anderson & Dahleh, SIAM J.
    Sci. Comput. 1996), with (G, P) from ``_taylor_plan(0, N)``: N alone,
    so a point's value does not depend on the others. With x G = g + u
    split exactly, the sum is sum_p u^p Re F_p[g], to the transforms' tail,
    where Re F_p is the real inverse FFT of coef[n] (2 pi i n / G)^p / p!.
    Rows come from p = P down, each one Horner step at every point, so
    memory is O(G) plus four values per point. Cell G folds onto cell 0 and
    -x reads the mirror cell of x, so 0, 1 and -1 give one value exactly.
    """
    N = coef.size - 1
    cells, order = _taylor_plan(0, N)
    offset = x * cells
    index = np.rint(offset)
    offset -= index  # exact: cells is a power of two
    index = index.astype(np.intp)
    index &= cells - 1
    half = coef.copy()
    half[1:] *= 0.5  # the real inverse FFT adds each mode n >= 1 to its conjugate
    ratio = (2.0 * math.pi / cells) * np.arange(N + 1)
    out = np.zeros(x.shape)
    for p in range(order, -1, -1):
        scale = ratio**p * (1j**p / math.factorial(p))
        out *= offset
        out += np.fft.irfft(half * scale, cells, norm="forward")[index]
    return out


def _profile(r: float, x: np.ndarray) -> np.ndarray:
    """The stationary profile l(x) = (1-q)(1-x) + (1+q) x."""
    _, one_minus_q, one_plus_q = _q_weights(r)
    return one_minus_q * (1.0 - x) + one_plus_q * x


def _linked_series(r: float, coef: np.ndarray, points: np.ndarray, divisions: int | None = None) -> np.ndarray:
    """The linked series at ratio r from its coefficient rows (:meth:`_SpectralFit.coefficients`) at the points.

    g(x) = Re sum_n coef_n exp(i k_n x) and g(-x) come from one
    :func:`_synthesis` of period 1, whose rule reads ``divisions`` (M of
    the uniform grid j / M, or None). The cosine sum is (g(x) + g(-x)) / 2,
    the sine sum (g(-x) - g(x)) / 2, which is exactly zero at x = 0 and 1,
    where g(x) and g(-x) are one value. The profile is read at the points
    and applies to every row.
    """
    plus, minus = _synthesis(coef, 1, points, divisions, mirror=True)
    sine = minus - plus
    plus += minus
    plus *= _profile(r, points)
    plus += sine
    plus *= 0.5
    return plus


@dataclass(frozen=True, eq=False)
class _SpectralFit:
    """The series of one sample at ratio r: transforms once, every time from them.

    Holds r, the series' N modes and ``transforms`` at modes 0..N, or
    0..2N for cross-validation, whose diagonal term reads the even modes up
    to 2N (see :meth:`diagonal_means`). A time t can be read when the tail
    envelope at N is below the fixed tolerance ``types.TOL`` = 1e-14, so a
    fit sized for the smallest time of a set serves all of them: the mode
    weights of an array of times, the series on a uniform grid or at
    explicit points, and the LSCV scores of every candidate at once. Build
    it from a sample with :meth:`from_samples`.
    """

    r: float
    n_modes: int
    transforms: EmpiricalTransforms

    @classmethod
    def from_samples(cls, samples, r: float, N: int, *, lscv: bool = False) -> _SpectralFit:
        """One transform call: modes 0..N, or 0..2N when ``lscv`` is set."""
        return cls(r, N, empirical_transforms(samples, 2 * N if lscv else N))

    def decay(self, t) -> np.ndarray:
        """exp(-k_n^2 t / 2), modes 1..N, at each time in t: shape ``t.shape + (N,)``.

        Times past 40, where every factor underflows to 0, are taken as 40,
        so that k^2 t stays finite.
        """
        k = 2.0 * math.pi * np.arange(1, self.n_modes + 1)
        return np.exp(-0.5 * k * k * np.minimum(t, 40.0)[..., None])

    def weights(self, t, decay: np.ndarray | None = None):
        """Per-mode weights of the series at each time in t, modes 1..N.

        Returns ``(w_cos, w_sin)``, each of shape ``t.shape + (N,)``:
        2 exp(-k^2 t / 2) * (c0, b) with b = (1+q) s0 - 2q (s1 + k t c0), so that

            f(x, t) = c0(0) l(x) + sum_n [w_cos_n cos(k_n x) l(x) + w_sin_n sin(k_n x)].

        ``decay`` is :meth:`decay` of t, when the caller holds it. Raises
        TruncationError when N modes are too few for the smallest time at
        ``TOL``. Times past 40, where every weight underflows to 0, are
        taken as 40, so that k^2 t and k t c0 stay finite.
        """
        t = np.asarray(t, dtype=float)
        t_min = validate_time(t.min())
        validate_time(t.max())
        N = self.n_modes
        if N < 1 or _tail_envelope(N, t_min) >= TOL:
            raise TruncationError(
                f"transforms carry N={N} modes; envelope at N is not below tol={TOL} for t={t_min} "
                f"(truncation_bound(t) gives the modes t needs, up to the cap of {MAX_MODES})"
            )
        q, _, one_plus_q = _q_weights(self.r)
        tr = self.transforms
        k = 2.0 * math.pi * np.arange(1, N + 1)
        c0 = tr.c0[..., 1 : N + 1]
        weight = 2.0 * (self.decay(t) if decay is None else decay)
        t = np.minimum(t, 40.0)[..., None]
        b = one_plus_q * tr.s0[..., 1 : N + 1] - 2.0 * q * (tr.s1[..., 1 : N + 1] + k * t * c0)
        return weight * c0, weight * b

    def coefficients(self, t: float) -> np.ndarray:
        """coef_n = w_cos_n + i w_sin_n (coef_0 = c0(0)) of g(x) = Re sum_n coef_n exp(i k_n x).

        A row for each replicate of the transforms, when they hold several.
        """
        w_cos, w_sin = self.weights(t)
        c0 = self.transforms.c0
        coef = np.empty(c0.shape[:-1] + (self.n_modes + 1,), dtype=complex)
        coef[..., 0] = c0[..., 0]
        coef[..., 1:] = w_cos + 1j * w_sin
        return coef

    def series(self, t: float, points: np.ndarray, divisions: int | None = None) -> np.ndarray:
        """The series at time t at the points of a 1-D array, from every mode the fit carries (:func:`_linked_series`)."""
        return _linked_series(self.r, self.coefficients(t), points, divisions)

    def trimmed(self, t: float) -> _SpectralFit:
        """The fit at the ``truncation_bound(t)`` modes that t needs, however many more it carries."""
        needed = min(self.n_modes, truncation_bound(t))
        return self if needed == self.n_modes else replace(self, n_modes=needed)

    def evaluate(self, t: float, grid: EvaluationGrid) -> np.ndarray:
        """The estimate at time t on the grid, by the rule of :func:`_synthesis`.

        It sums the modes of :meth:`trimmed`, so the values are the same
        from a fit sized for t as from one sized for a smaller time.
        """
        return self.trimmed(t).series(t, grid.points, grid.divisions)

    def diagonal_means(self, t: np.ndarray, decay: np.ndarray | None = None) -> np.ndarray:
        """Sample mean of the diagonal kernel K(r; X, X, t) at each time in t.

        Needs the transforms at 2N modes. K(r; x, x, t) = K1(0, t)
        + q K1(2x, t) (2x - 1) + t q K1'(2x, t), and cos(k_n 2x) = cos(k_{2n} x),
        so with w_n = exp(-k_n^2 t / 2), n = 1..N, and c0, c1, s0 read at
        index 2n the mean is

            1 + 2 sum w_n + q [2 c1(0) - 1 + 2 sum w_n (2 c1 - c0)] - 2 t q sum k_n w_n s0.

        The cost is O(N) per time; the samples are not touched. ``decay``
        is :meth:`decay` of t, when the caller holds it. Times past 40 are
        taken as 40, as in :meth:`weights`.
        """
        q = _q_weights(self.r)[0]
        tr = self.transforms
        even = slice(2, 2 * self.n_modes + 1, 2)
        k = 2.0 * math.pi * np.arange(1, self.n_modes + 1)
        w = self.decay(t) if decay is None else decay
        t = np.minimum(t, 40.0)
        reflected = 2.0 * tr.c1[0] - 1.0 + 2.0 * (w @ (2.0 * tr.c1[even] - tr.c0[even]))
        slope = -2.0 * ((k * w) @ tr.s0[even])
        return 1.0 + 2.0 * w.sum(axis=1) + q * (reflected + t * slope)

    def lscv_scores(self, t: np.ndarray) -> np.ndarray:
        """LSCV(t) = int f^2 - (2/n) sum_i f_{-i}(X_i) for each time in the 1-D array t.

        Needs the transforms at 2N modes. int f^2 is exact, with no
        integration grid. With a_n the weights of cos(k_n x) l(x)
        (a_0 = c0(0)) and b_n those of sin(k_n x) (b_0 = 0),

            int f^2 = 1/2 sum a_m a_n (u_{m+n} + u_{m-n})
                      + sum a_m b_n (v_{n+m} + v_{n-m}) + 1/2 sum b_n^2,

        u_j = int cos(k_j x) l^2 = 1 + q^2/3 at j = 0, else 2 q^2 / (pi j)^2,
        and v_j = int sin(k_j x) l = -q / (pi j), v_0 = 0. With A, B the
        real FFTs of a and b at the least 2-3-5-smooth length L >= 4N + 1
        (:func:`_fast_len`), so that no sum wraps around, Re(A) A
        transforms (a conv a + a corr a) / 2 and Re(A) B transforms
        (a conv b + a corr b) / 2. The weights of all candidates
        form a candidates x N array: one 2-D real FFT and one inverse FFT
        along its last axis, then one matrix-vector product with u and 2 v
        at signed lags, give every int f^2. The sample means of the
        estimate (from c0, c1 and s0) and of the diagonal kernel are
        matrix-vector products with the same weights. Candidates are taken
        in blocks sized by :func:`_block_size`, so memory is O(N) per
        candidate and bounded overall. Scores that are not finite are
        returned as they are.
        """
        tr, N = self.transforms, self.n_modes
        q, one_minus_q, _ = _q_weights(self.r)
        length = _fast_len(4 * N + 1)
        lag = np.arange(length, dtype=float)
        lag[length // 2 + 1 :] -= length
        lag[0] = math.inf  # v_0 = 0; u_0 is set below
        gram = np.stack([2.0 * (q / (math.pi * lag)) ** 2, -2.0 * q / (math.pi * lag)])
        gram[0, 0] = 1.0 + q * q / 3.0
        gram = gram.ravel()
        # Sample means of cos(k X) l(X), modes 0..N; entry 0 is the mean of l(X).
        mean_cos_ell = one_minus_q * tr.c0[: N + 1] + 2.0 * q * tr.c1[: N + 1]
        n = tr.n_samples

        scores = np.empty(t.size)
        # Real entries per candidate: the spectra and their inverse, 4 rows of L.
        step = _block_size(4 * length - 1)
        for start in range(0, t.size, step):
            times = t[start : start + step]
            decay = self.decay(times)  # one exp per mode and candidate, for both weights and diagonal
            w_cos, w_sin = self.weights(times, decay)
            ab = np.zeros((times.size, 2, N + 1))
            ab[:, 0, 0] = tr.c0[0]
            ab[:, 0, 1:], ab[:, 1, 1:] = w_cos, w_sin
            spectra = np.fft.rfft(ab, n=length)
            spectra *= spectra[:, :1].real.copy()  # rows Re(A) A and Re(A) B
            square = np.fft.irfft(spectra, n=length).reshape(times.size, -1) @ gram
            square += 0.5 * np.einsum("ij,ij->i", w_sin, w_sin)
            mean_f = mean_cos_ell[0] + w_cos @ mean_cos_ell[1:] + w_sin @ tr.s0[1 : N + 1]
            loo = (n * mean_f - self.diagonal_means(times, decay)) / (n - 1.0)
            scores[start : start + step] = square - 2.0 * loo
        return scores


def eval_series_solution(tr: EmpiricalTransforms, r: float, t: float, x):
    """Evaluate the series of the transforms tr at ratio r and time t at points x in [0, 1].

    Every mode tr carries is summed; from ``empirical_transforms([y], N)``
    the series is the kernel K(r; x, y, t), summed on the Taylor cells
    (:meth:`_SpectralFit.series`) in O(N + points) memory. Finite
    for every finite r. Raises ValueError for a point that is not finite
    or not in [0, 1], and TruncationError when tr carries too few modes for
    t at ``TOL`` (see :func:`truncation_bound`).
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    _check_unit_interval(x_arr, "evaluation points")
    out = _SpectralFit(validate_ratio(r), tr.n_modes, tr).series(t, x_arr)
    return float(out[0]) if scalar else out

