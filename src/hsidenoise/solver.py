"""ADMM solver for mixed-noise removal from hyperspectral cubes.

The observation is split as y = x + s + n: a clean part x constrained to a
low-rank spectral factor model (see :mod:`.factorization`), a sparse part s
that absorbs impulse noise, deadlines and stripes, and a dense Gaussian
part n.  The objective combines anisotropic 3-D total variation on x, an
l1 penalty on s, a squared Frobenius penalty on n and nuclear norms of the
abundance slices.  One auxiliary variable decouples the TV term: l holds
the difference field of x.  Three multipliers enforce y = x + s + n,
l = D(x) and x = compose(g, c), in scaled form u_i = lambda_i / beta_i
(Boyd et al. 2011, Found. Trends Mach. Learn. 3(1), section 3.1.1).  The
x step takes the TV term whole: it solves ((beta1 + beta4)*I +
beta3*D'D) x = rhs exactly, as in split Bregman (Goldstein & Osher 2009,
SIAM J. Imaging Sci. 2(2)), so no consensus copy of x is needed.  The
n step fixes u1 as a multiple of n, and l is used where the l step forms
it: the state keeps u3 and u4 (see :class:`SolverState`).

One sweep updates, in this order: abundances g, signatures c, estimate x,
l and u3, sparse part s, Gaussian part n, then u4.  D(x), y - x, y - x - s
and each constraint residual are computed once per sweep and shared by
every step that reads them.  The g and c steps both target x + u4 but read
x and u4 as they are, each taking its product with x and with u4 and
adding the two, so x + u4 is never a cube.

The state is the only thing a run keeps that spans the cube; besides it,
:func:`solve` holds only the spectrum of the x system.  Each step
reads the state and what it is handed, writes its result into the state
and allocates its own scratch on the bands it is called on; the model
compose(g, c) is composed per band block, by the x step in the sweep's
head and by the multiplier step in its tail, so it never exists as a whole
cube, and :func:`solve` drops a band block's scratch before the next block
starts.  So, past the factor update's R abundance slices and the x solve's
scratch cube, a sweep allocates nothing larger than a block, and neither
does :func:`objective_terms`, which sums the TV term of the final estimate
block by block.

The solve works in float32.  Its stop rule asks for a squared relative
change of 1e-4 by default, far above float32's unit roundoff of 6e-8, and
ADMM is run at such modest accuracy (Boyd et al. 2011, section 3.2), while
the sweep is bound by memory bandwidth: half the bytes per entry stream
about twice as fast.  The steps compute in the dtype of their inputs, so
called on float64 arrays they stay in float64.

Only two steps couple the whole cube: the factor update (g and c) and the x
solve, whose recursion along bands runs through every band.  Every other
step is elementwise or reaches one band further, and a band of the model
needs only that band's row of c, so :func:`solve` runs the rest of the
sweep block by block over the band blocks of :func:`.tensor.band_blocks`,
each spanning about 256 KiB of every cube.  The head runs between the two
coupled steps and adds the block's model term to the x system's
right-hand side.  The tail runs after the x solve: the change sums of the
stop rule; the l step, one plane of the TV field at a time, which moves u3
and writes beta3*D'(l + u3) over the old x; s, n, the block's model again
and u4; and the split's share beta1*(y - s - n + u1), which leaves the
next sweep's right-hand side complete but for its model term.  So the TV
field is read and written once per sweep, on scratch one plane of a block
in size, a block's share of every cube stays in cache from step to step,
and each other cube is read from memory about once per half sweep.
The block size moves no entry of any array; it only changes the order in
which those sums, and the objective's TV sum, add up.

Iteration stops when the squared relative change of x drops to ``eps`` or
after ``max_iter`` sweeps.  Finiteness is tested once per sweep on one
scalar that any non-finite array makes non-finite; only then are the arrays
scanned, so the error still names the first failing step and its sweep.
Size is bounded by one limit, ``_LIMIT``: :func:`working_observation`
refuses an observation whose squared norm passes it, and each sweep checks
the estimate and u4 against four times it, which keeps every float32 sum
of products the run forms finite.  The tail runs with float overflow
ignored, so a sum that passes the float32 range is inf without a warning,
and the scan or the guard names it.
Nothing here consumes randomness, so a rerun on the same inputs is
bit-identical.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .diffops import diff_axis, diff_axis_adjoint, diff_forward, solve_z_system, tv_kernel_spectrum
from .errors import NumericError, check_fields
from .factorization import (
    MvtfFactors,
    compose,
    init_factors,
    orthonormal_from_target,
    procrustes_target,
    update_g,
)
from .prox import soft_threshold
from .tensor import band_blocks, frob_norm_sq


@dataclass(frozen=True)
class SolverParams:
    """Penalty weights, factor rank and iteration controls.

    Defaults are the simulated-data preset.  The penalty weights stay fixed
    for the whole solve.
    """

    lambda_tv: float = 2e-4
    lambda_s: float = 0.02
    lambda_n: float = 0.1
    lambda_g: float = 0.1
    rank: int = 5
    beta1: float = 0.1
    beta3: float = 0.0125
    beta4: float = 0.1
    eps: float = 1e-4
    max_iter: int = 200

    def __post_init__(self):
        check_fields(self)
        # the counts are ints and the rest floats from here on
        for name, value in asdict(self).items():
            if name.startswith("lambda") and value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            if (name.startswith("beta") or name == "eps") and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if isinstance(value, int) and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    @classmethod
    def simulated(cls, **overrides):
        """Preset tuned on simulated benchmarks (rank 5)."""
        return cls(**overrides)

    @classmethod
    def real(cls, **overrides):
        """Preset for real degraded scenes (rank 2, gentler TV/l1).

        The penalty split was tuned on a 96x96x191 case-4 scene at ``eps = 1e-4``.
        """
        base = dict(lambda_tv=1e-5, lambda_s=0.013, rank=2, beta4=0.3)
        base.update(overrides)
        return cls(**base)


@dataclass
class SolverState:
    """All primal and dual variables of one run.

    ``u3`` and ``u4`` are the scaled multipliers of l = D(x) and x =
    compose(g, c).  With rho = 2*lambda_n/beta1 and tau = lambda_tv/beta3,
    every sweep (and the zero start) leaves u1 = rho*n and, for v = D(x_old)
    - u3_old, u3 = -clip(v, -tau, tau), so |u3| <= tau; l = shrink(v, tau)
    is used within the sweep's tail and never stored.
    ``x_prev`` is the second buffer of x.  Between sweeps it holds the next
    x system's right-hand side less its model term, beta1*(y - s - n + u1)
    + beta3*D'(l + u3) (beta1*y at the start); the x step adds the model
    term, the solve turns it into the new estimate, and the two buffers then
    swap, so the sweep's tail reads the previous estimate in ``x_prev`` for
    the stop rule and then builds the next right-hand side over it.
    """

    x: np.ndarray
    x_prev: np.ndarray
    s: np.ndarray
    n: np.ndarray
    u3: np.ndarray  # TV multiplier, shape (3, K, I, J)
    factors: MvtfFactors
    u4: np.ndarray

    def bands(self, block):
        """The arrays of the state on the bands of slice ``block``, as views.

        The factors keep every abundance slice and the signature rows of
        those bands, so compose(part.factors) is the model on them.
        """
        return SolverState(
            x=self.x[block],
            x_prev=self.x_prev[block],
            s=self.s[block],
            n=self.n[block],
            u3=self.u3[:, block],
            factors=MvtfFactors(g=self.factors.g, c=self.factors.c[block]),
            u4=self.u4[block],
        )


@dataclass
class SolveReport:
    """Per-sweep diagnostics and the final objective split of one run.

    ``rel_change`` holds the number the stop reads, ||x_prev - x||^2 /
    ||x||^2 per sweep: 0.0 while x stays 0, and inf for a sweep whose x
    became exactly 0 after a nonzero one (``json`` writes ``Infinity``).
    The residual traces are Frobenius norms of the constraint gaps:
    observation split, difference field, factor model.
    ``degenerate_c_steps`` counts signature updates whose target matrix was
    numerically rank-deficient (still valid, just non-unique).
    """

    iterations: int
    converged: bool
    rel_change: list
    res_observation: list
    res_tv: list
    res_factorization: list
    objective_terms: dict
    degenerate_c_steps: int
    wall_time_s: float
    params: dict

    def to_dict(self):
        return asdict(self)


def initialize_state(y, params):
    """Starting point: x = y, zero auxiliaries, spectral-subspace factors, all in y's dtype.

    ``x_prev`` holds beta1*y, the x system's right-hand side less its model
    term when s, n, u3 and u4 are zero.
    """
    return SolverState(
        x=y.copy(),
        x_prev=np.multiply(y, params.beta1),
        s=np.zeros_like(y),
        n=np.zeros_like(y),
        u3=np.zeros((3,) + y.shape, y.dtype),
        factors=init_factors(y, params.rank),
        u4=np.zeros_like(y),
    )


def update_x(state, params):
    """Add the model term beta4*(compose(g, c) - u4) to ``state.x_prev`` and return it.

    The new x solves ((beta1 + beta4)*I + beta3*D'D) x = beta1*(y - s - n
    + u1) + beta4*(model - u4) + beta3*D'(l + u3), which
    :func:`solve_z_system` does on the whole cube.  The previous sweep's
    tail leaves every term but the model's in ``state.x_prev`` (see
    :class:`SolverState`), so this band-local half of the step can run on
    a block of bands.  It allocates the block's model.
    """
    term = compose(state.factors)
    term -= state.u4
    term *= params.beta4
    state.x_prev += term
    return state.x_prev


def update_l(state, params, after=None, before=None):
    """The TV step on the state's bands, one plane of the field at a time.

    For plane c, with d = D_c(x) and v = d - u3_c, the new l is shrink(v,
    tau), u3_c becomes -clip(v, -tau, tau) and so l + u3 = v - 2*clip(v).
    ``state.x_prev`` is overwritten with beta3*D'(l + u3), the TV share of
    the next x system's right-hand side.  ``after`` is the band of x after
    the state's last band, D's halo, and ``before`` plane 2 of the new l +
    u3 on the band before its first, D''s halo; ``None`` means the cube has
    no such band.  Where D's last sample is 0 and u3's too, v, the new u3
    and l + u3 are 0, so from the zero start D' only reads D's range.

    Returns ||l - D(x)||^2 and plane 2 of l + u3 on the state's last band,
    the next block's ``before``.  Allocates two cubes of scratch on the
    state's bands.
    """
    tau = params.lambda_tv / params.beta3
    res_sq = 0.0
    v, t = np.empty_like(state.x), np.empty_like(state.x)
    for c, u3 in enumerate(state.u3):
        diff_axis(state.x, c, after=after, out=v)
        v -= u3
        np.clip(v, -tau, tau, out=t)
        # l - D(x) = shrink(v) - d = -(u3 + clip(v))
        u3 += t
        res_sq += frob_norm_sq(u3)
        np.negative(t, out=u3)
        t *= 2.0
        v -= t
        if c == 0:
            diff_axis_adjoint(v, c, out=state.x_prev)
        else:
            state.x_prev += diff_axis_adjoint(v, c, before=before, out=t)
    state.x_prev *= params.beta3
    # v holds plane 2's l + u3
    return res_sq, v[-1].copy()


def update_s(state, gap, params):
    """Shrink the split residual left for the sparse part into ``state.s``; ``gap`` is y - x."""
    # shrink y - x - n + u1 = gap + (rho - 1)*n
    raw = np.multiply(state.n, 2.0 * params.lambda_n / params.beta1 - 1.0)
    raw += gap
    return soft_threshold(raw, params.lambda_s / params.beta1, out=state.s)


def update_n(state, gap, params):
    """Ridge solve for the Gaussian part, into ``state.n``; ``gap`` is y - state.x - state.s."""
    # beta1*(y - x - s + u1) / (beta1 + 2*lambda_n) with u1 = rho*n
    n = np.multiply(state.n, 2.0 * params.lambda_n / params.beta1, out=state.n)
    n += gap
    n *= params.beta1 / (params.beta1 + 2.0 * params.lambda_n)
    return n


def update_multipliers(state, gap):
    """Dual ascent on u4, in place; the n and l steps fix u1 and u3.

    ``gap`` is y - state.x - state.s.  Returns the squared norms of the
    observation split's and the factor model's residuals (:func:`update_l`
    returns the difference field's).
    """
    model = compose(state.factors)
    cube = np.subtract(gap, state.n)
    observation = frob_norm_sq(cube)
    factor = frob_norm_sq(np.subtract(state.x, model, out=cube))
    state.u4 += cube
    return observation, factor


def objective_terms(x, s, n, factors, params):
    """Weighted objective split of a candidate solution, plus its total.

    The TV term is summed block by block over :func:`.tensor.band_blocks`,
    so its difference field is never formed for the whole cube.
    """
    tv = 0.0
    for block in band_blocks(x):
        field = diff_forward(x[block], after=x[block.stop] if block.stop < len(x) else None)
        tv += float(np.abs(field, out=field).sum())
        del field  # before the next block's field is allocated
    terms = {
        "tv": params.lambda_tv * tv,
        "sparse": params.lambda_s * float(np.sum(np.abs(s))),
        "gaussian": params.lambda_n * frob_norm_sq(n),
        "low_rank": params.lambda_g
        * float(np.linalg.norm(factors.g, "nuc", axis=(1, 2)).sum(dtype=float)),
    }
    # added left to right: builtin sum() of floats is compensated from Python 3.12
    terms["total"] = float(np.cumsum(list(terms.values()))[-1])
    return terms


def _check_finite(arr, step, sweep):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values after the {step} update in sweep {sweep}")


# step names a finiteness failure reports for x, u3, s, n and u4
_STEP_NAMES = ("estimate", "difference-field", "sparse", "gaussian", "factor multiplier")

# the working precision of a solve: the observation is cast to it once, and
# every array the solve allocates takes it (see the module docstring)
_DTYPE = np.float32

# the largest squared norm of an observation a solve takes.  Each sweep
# checks ||x||^2 + ||u4||^2 <= 4*_LIMIT, and with these two bounds no float32
# sum of products the run forms can overflow:
# - each entry of init_factors' Gram matrix is at most ||y||^2;
# - each entry of the signature target, |g_r . (x_k + u4_k)|, is at most
#   ||x + u4||^2 <= 2(||x||^2 + ||u4||^2), since SVT and an orthonormal c
#   grow no norm;
# - each block's stop-rule sum is at most the guarded whole, and
#   ||x_prev - x||^2 at most 2(||x_prev||^2 + ||x||^2).
_LIMIT = float(np.finfo(_DTYPE).max) / 64


def working_observation(y):
    """``y`` as the C-ordered float32 cube a solve reads; ``y`` itself if it is one.

    A cube that is not 3-D, holds a non-finite entry, holds a finite entry
    beyond the float32 range, or whose squared norm passes ``_LIMIT`` is a
    :class:`NumericError` that says so.
    """
    if y.ndim != 3:
        raise NumericError(f"expected a (K, I, J) observation, got {y.ndim} dimensions")
    # an entry past the dtype's range casts to inf, and a non-finite entry
    # makes the cast's squared norm non-finite, so one pass over the cast
    # passes every valid cube and the three faults are told apart after it
    with np.errstate(over="ignore", invalid="ignore"):
        cast = np.ascontiguousarray(y, dtype=_DTYPE)
        norm_sq = frob_norm_sq(cast)
    if not norm_sq <= _LIMIT:
        if not np.all(np.isfinite(y)):
            raise NumericError("observation contains non-finite values")
        limit = np.finfo(_DTYPE)
        if not np.all(np.isfinite(cast)):
            raise NumericError(
                f"observation holds values beyond the {limit.dtype} range of the solver "
                f"(magnitude above {float(limit.max):.6g})"
            )
        # in float64, where the squares of float32 values cannot overflow
        raise NumericError(
            f"observation's squared norm {frob_norm_sq(cast.astype(float)):.4g} passes the "
            f"solver's limit of {_LIMIT:.4g} (the {limit.dtype} maximum / 64)"
        )
    return cast


def solve(y, params):
    """Run the full ADMM loop on an observed cube.

    Returns (x, s, n, report): the denoised estimate, the sparse and
    Gaussian components as float32 cubes, and a :class:`SolveReport`.  The
    observation is only read, never written; one of any memory layout or
    real dtype is read as a C-ordered float32 cube, the precision every
    array of the run is kept in.  :func:`working_observation` makes that
    cube and names the observations a solve rejects; a caller that passes
    its result keeps no second copy of the observation.
    """
    # the door.  The kernels the sweep calls (D and D', the x solve, soft
    # thresholding, SVT, the mode-3 product) check none of their arguments;
    # what each needs is set up here, once, before sweep 1:
    # - working_observation makes y a C-ordered (K, I, J) float32 cube, so
    #   every cube of the state is one too, so is every block D and D' are
    #   handed, and each halo that solve, update_l and objective_terms pass
    #   is None past the cube's ends or one (I, J) band, cut from those
    #   arrays or shaped like their bands;
    # - init_factors' rank check, run by initialize_state before the spectrum
    #   is built, rejects a cube with an empty axis, so every size of the
    #   spectrum is at least 1, and the x solve is handed state.x_prev, of
    #   the shape the spectrum is built for, to solve in place;
    # - SolverParams makes every beta > 0 and every lambda >= 0: the x
    #   system's screen beta1 + beta4 > 0, beta3 >= 0, and the thresholds
    #   lambda_s/beta1 and lambda_g/beta4 are >= 0;
    # - update_s thresholds a fresh block into state.s, so out never
    #   overlaps its input;
    # - compose checks the shapes of the factors mode3_product contracts;
    # - SVT's target c'x + c'u4 is finite: sweep 1 reads the finite y and a
    #   zero u4, and every later head an x and u4 that the last sweep's scan
    #   and guard found finite and bounded (see _LIMIT).
    y = working_observation(y)

    t0 = time.perf_counter()
    state = initialize_state(y, params)
    spectrum = tv_kernel_spectrum(y.shape, params.beta1 + params.beta4, params.beta3, y.dtype)

    rel_change = []
    res_obs, res_tv, res_fac = [], [], []
    degenerate = 0
    blocks = band_blocks(y)

    for sweep in range(1, params.max_iter + 1):
        # x + u4 is the back-projected target of g and the blend c aligns to
        g = update_g(state.x, state.u4, state.factors.c, params.lambda_g, params.beta4)
        _check_finite(g, "abundance", sweep)
        c, sv = orthonormal_from_target(procrustes_target(g, state.x, state.u4))
        _check_finite(c, "signature", sweep)
        if sv[-1] <= 1e-12 * max(sv[0], np.finfo(float).tiny):
            degenerate += 1
        state.factors = MvtfFactors(g=g, c=c)

        # the head, block by block, completes the x system's right-hand side
        # in x_prev; the solve turns it into the new x, and the swap leaves
        # the old x in x_prev for the change sums
        for block in blocks:
            update_x(state.bands(block), params)
        solve_z_system(state.x_prev, spectrum)
        state.x, state.x_prev = state.x_prev, state.x

        # the tail, block by block, builds the next right-hand side in x_prev
        # once the change sums have read the old x there.  A non-finite x, s
        # or n reaches a residual sum, and so does a non-finite u3: update_l
        # sets u3 = -clip(v), finite unless v holds a NaN, which makes the
        # step's residual sum NaN too.  A finite array whose squared norm
        # overflowed passes the scan below, and only the guard after it can
        # stop the run; overflow is left to that guard, so the sums raise no
        # warning before it
        change_sq = norm_sq = u4_sq = 0.0
        res_sq = [0.0] * 3
        before = None
        with np.errstate(over="ignore"):
            for block in blocks:
                part = state.bands(block)
                # the old x is read only here, so the change overwrites it
                change_sq += frob_norm_sq(np.subtract(part.x_prev, part.x, out=part.x_prev))
                norm_sq += frob_norm_sq(part.x)
                after = state.x[block.stop] if block.stop < len(y) else None
                tv, before = update_l(part, params, after, before)
                gap = np.subtract(y[block], part.x)
                update_s(part, gap, params)
                gap -= part.s
                update_n(part, gap, params)
                observation, factor = update_multipliers(part, gap)
                res_sq = [total + value for total, value in zip(res_sq, (observation, tv, factor))]
                u4_sq += frob_norm_sq(part.u4)
                # beta1*(y - s - n + u1) with u1 = rho*n, the split's share
                term = np.multiply(part.n, 2.0 * params.lambda_n / params.beta1 - 1.0, out=gap)
                term += y[block]
                term -= part.s
                term *= params.beta1
                part.x_prev += term
                # no block's scratch outlives it into the next head and x solve
                del gap, term

        if not math.isfinite(u4_sq + sum(res_sq)):
            arrays = (state.x, state.u3, state.s, state.n, state.u4)
            for arr, step in zip(arrays, _STEP_NAMES):
                _check_finite(arr, step, sweep)
        # the bound the next sweep's sums rely on (see _LIMIT); an overflowed
        # sum is inf and fails it too, so the stop rule never reads change / inf
        if norm_sq + u4_sq > 4 * _LIMIT:
            raise NumericError(
                f"the squared norms of the estimate and the factor multiplier sum to "
                f"{norm_sq + u4_sq:.4g}, past 4x the solver's limit of {_LIMIT:.4g}, "
                f"in sweep {sweep}"
            )

        # the squared relative change the stop reads; an estimate that stays
        # 0 has not changed, and one that becomes 0 has changed without bound
        rel_change.append(change_sq / norm_sq if norm_sq > 0.0 else (math.inf if change_sq else 0.0))
        for trace, value in zip((res_obs, res_tv, res_fac), res_sq):
            trace.append(math.sqrt(value))

        if rel_change[-1] <= params.eps:
            break

    report = SolveReport(
        iterations=len(rel_change),
        converged=rel_change[-1] <= params.eps,
        rel_change=rel_change,
        res_observation=res_obs,
        res_tv=res_tv,
        res_factorization=res_fac,
        objective_terms=objective_terms(state.x, state.s, state.n, state.factors, params),
        degenerate_c_steps=degenerate,
        wall_time_s=time.perf_counter() - t0,
        params=asdict(params),
    )
    return state.x, state.s, state.n, report
