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
primal steps fix u1, l and u3: the state keeps u4 and one field v whose
shrunk and clipped parts are l and u3, and u1 is a multiple of n (see
:class:`SolverState`).

One sweep updates, in this order: abundances g, signatures c, estimate x,
field v, sparse part s, Gaussian part n, then u4.  D(x), y - x, y - x - s
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
solve, whose Hartley product along bands mixes every band.  Every other
step is elementwise or reaches one band further, and a band of the model
needs only that band's row of c, so :func:`solve` runs the rest of the
sweep block by block over the band blocks of :func:`.tensor.band_blocks`,
each spanning about 512 KiB of every cube.  The head (the block's model and
the right-hand side of the x system) runs between the two coupled steps;
the tail (the change sums of the stop rule, D(x), v, s, n, the block's
model again, u4, and the residual and finiteness sums) runs after the x
solve.  A block's share of every cube thus stays in cache from step to
step, and each cube is read from memory about once per half sweep.
The block size moves no entry of any array; it only changes the order in
which those sums, and the objective's TV sum, add up.

Iteration stops when the squared relative change of x drops to ``eps`` or
after ``max_iter`` sweeps; a change or norm sum that overflows float32 is
a :class:`NumericError`, not a stop, and so is a signature target that
overflows.  Finiteness is tested once per sweep on one scalar that any
non-finite array makes non-finite; only then are the arrays scanned, so
the error still names the first failing step and its sweep.
Nothing here consumes randomness, so a rerun on the same inputs is
bit-identical.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .diffops import diff_adjoint, diff_forward, solve_z_system, tv_kernel_spectrum
from .errors import NumericError, check_fields
from .factorization import (
    MvtfFactors,
    compose,
    init_factors,
    orthonormal_from_target,
    procrustes_target,
    update_g,
)
from .prox import nuclear_norm, soft_threshold
from .tensor import band_blocks, frob_norm_sq, l1_norm


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
    """All primal and dual variables of one run, after ``iteration`` sweeps.

    ``u4`` is the scaled multiplier of x = compose(g, c).  With rho =
    2*lambda_n/beta1 and tau = lambda_tv/beta3, every sweep (and the zero
    start) leaves u1 = rho*n and, for ``v`` = D(x) - u3, the field the l
    step shrinks, l = shrink(v, tau) and u3 = -clip(v, -tau, tau).
    ``x_prev`` is the second buffer of x: the x step writes its system's
    right-hand side there, the solve turns it into the new estimate, and
    the two buffers then swap, so the sweep's tail reads the previous
    estimate in ``x_prev`` for the stop rule and may overwrite it.
    """

    x: np.ndarray
    x_prev: np.ndarray
    s: np.ndarray
    n: np.ndarray
    v: np.ndarray  # difference field, shape (3, K, I, J)
    factors: MvtfFactors
    u4: np.ndarray
    iteration: int = 0

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
            v=self.v[:, block],
            factors=MvtfFactors(g=self.factors.g, c=self.factors.c[block]),
            u4=self.u4[block],
            iteration=self.iteration,
        )


@dataclass
class SolveReport:
    """Per-sweep diagnostics and the final objective split of one run.

    The three residual traces are Frobenius norms of the constraint gaps in
    the order: observation split, difference field, factor model.
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
    """Starting point: x = y, zero auxiliaries, spectral-subspace factors, all in y's dtype."""
    return SolverState(
        x=y.copy(),
        x_prev=np.zeros_like(y),
        s=np.zeros_like(y),
        n=np.zeros_like(y),
        v=np.zeros((3,) + y.shape, y.dtype),
        factors=init_factors(y, params.rank),
        u4=np.zeros_like(y),
    )


def _tv_pull(v, tau):
    """l + u3 = shrink(v, tau) - clip(v, -tau, tau) = v - 2*clip(v, -tau, tau)."""
    pull = np.clip(v, -tau, tau)
    pull *= -2.0
    return np.add(pull, v, out=pull)


def update_x(state, y, params, before=None):
    """Right-hand side of the x system, written to ``state.x_prev``.

    The new x solves ((beta1 + beta4)*I + beta3*D'D) x = beta1*(y - s - n
    + u1) + beta4*(model - u4) + beta3*D'(l + u3), which
    :func:`solve_z_system` does on the whole cube; this band-local half of
    the step can run on a block of bands.  ``before`` is plane 2 of v on
    the band before the state's first band, whose l + u3 is the adjoint's
    halo (see :func:`diff_adjoint`); by default the halo is the circular
    wrap of a whole cube.  The step allocates its scratch on the state's
    bands: l + u3 and the adjoint's cube, then, once l + u3 is gone, the
    block's model.
    """
    # the adjoint is formed first, and scaled as a cube rather than as a field
    tau = params.lambda_tv / params.beta3
    field = _tv_pull(state.v, tau)
    halo = None if before is None else _tv_pull(before, tau)
    rhs = diff_adjoint(field, out=state.x_prev, before=halo)
    del field  # before the model is allocated
    rhs *= params.beta3
    term = compose(state.factors)
    term -= state.u4
    term *= params.beta4
    rhs += term
    # beta1*(y - s - n + u1) with u1 = rho*n
    term = np.multiply(state.n, 2.0 * params.lambda_n / params.beta1 - 1.0, out=term)
    term += y
    term -= state.s
    term *= params.beta1
    rhs += term
    return rhs


def update_l(state, params, dx):
    """Set v = D(x) - u3 = dx + clip(v) in place; ``dx`` is diff_forward(state.x).

    Overwrites ``dx`` with l - D(x) = clip(v_old) - clip(v_new) for the new
    l = shrink(v).
    """
    tau = params.lambda_tv / params.beta3
    kept = np.clip(state.v, -tau, tau)
    np.add(dx, kept, out=state.v)
    np.clip(state.v, -tau, tau, out=dx)
    np.subtract(kept, dx, out=dx)


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


def update_multipliers(state, gap, res_tv):
    """Dual ascent on u4, in place; the n and l steps fix u1 and u3.

    ``gap`` is y - state.x - state.s, ``res_tv`` the l - D(x) that
    :func:`update_l` leaves.  Returns the squared norms of the three
    residuals: observation split, difference field, factor model.
    """
    model = compose(state.factors)
    cube = np.subtract(gap, state.n)
    observation = frob_norm_sq(cube)
    factor = frob_norm_sq(np.subtract(state.x, model, out=cube))
    state.u4 += cube
    return [observation, frob_norm_sq(res_tv), factor]


def convergence_check(change_sq, norm_sq, eps):
    """Squared relative change ||x_prev - x_new||^2 / ||x_new||^2 at most ``eps``.

    A zero new estimate counts as converged only if the change is zero too.
    """
    if norm_sq == 0.0:
        return change_sq == 0.0
    return change_sq / norm_sq <= eps


def objective_terms(x, s, n, factors, params):
    """Weighted objective split of a candidate solution, plus its total.

    The TV term is summed block by block over :func:`.tensor.band_blocks`,
    so its difference field is never formed for the whole cube.
    """
    k = x.shape[0]
    tv = 0.0
    for block in band_blocks(x):
        field = diff_forward(x[block], after=x[block.stop % k])
        tv += float(np.abs(field, out=field).sum())
        del field  # before the next block's field is allocated
    terms = {
        "tv": params.lambda_tv * tv,
        "sparse": params.lambda_s * l1_norm(s),
        "gaussian": params.lambda_n * frob_norm_sq(n),
        "low_rank": params.lambda_g
        * float(sum(nuclear_norm(factors.g[r]) for r in range(factors.g.shape[0]))),
    }
    terms["total"] = float(sum(terms.values()))
    return terms


def _check_finite(arr, step, sweep):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values after the {step} update in sweep {sweep}")


# step names a finiteness failure reports for x, v, s, n and u4
_STEP_NAMES = ("estimate", "difference-field", "sparse", "gaussian", "factor multiplier")

# the working precision of a solve: the observation is cast to it once, and
# every array the solve allocates takes it (see the module docstring)
_DTYPE = np.float32


def working_observation(y):
    """``y`` as the C-ordered float32 cube a solve reads; ``y`` itself if it is one.

    A cube that is not 3-D, holds a non-finite entry, or holds a finite
    entry beyond the float32 range is a :class:`NumericError` that says so.
    """
    if y.ndim != 3:
        raise NumericError(f"expected a (K, I, J) observation, got {y.ndim} dimensions")
    # an entry past the dtype's range casts to inf, so one finiteness scan of
    # the cast tells both faults apart from a valid cube
    with np.errstate(over="ignore"):
        cast = np.ascontiguousarray(y, dtype=_DTYPE)
    if not np.all(np.isfinite(cast)):
        if np.all(np.isfinite(y)):
            limit = np.finfo(_DTYPE)
            raise NumericError(
                f"observation holds values beyond the {limit.dtype} range of the solver "
                f"(magnitude above {float(limit.max):.6g})"
            )
        raise NumericError("observation contains non-finite values")
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
    # every array of the run follows this layout and dtype
    y = working_observation(y)

    t0 = time.perf_counter()
    state = initialize_state(y, params)
    spectrum = tv_kernel_spectrum(y.shape, params.beta1 + params.beta4, params.beta3)

    rel_change = []
    res_obs, res_tv, res_fac = [], [], []
    degenerate = 0
    converged = False
    k = y.shape[0]
    blocks = band_blocks(y)

    for sweep in range(1, params.max_iter + 1):
        # x + u4 is the back-projected target of g and the blend c aligns to
        g = update_g(state.x, state.u4, state.factors.c, params.lambda_g, params.beta4)
        _check_finite(g, "abundance", sweep)
        state.factors = MvtfFactors(g=g, c=state.factors.c)

        # g, x and u4 are finite here, so a non-finite target is an overflow
        with np.errstate(over="ignore"):
            target = procrustes_target(state.factors.g, state.x, state.u4)
        if not np.all(np.isfinite(target)):
            raise NumericError(
                f"the signature step's {target.shape[0]} x {target.shape[1]} target g(x + u4)' "
                f"overflows {target.dtype} in sweep {sweep}: the observation's values are too "
                f"large for the solver"
            )
        c, sv = orthonormal_from_target(target)
        _check_finite(c, "signature", sweep)
        if sv[-1] <= 1e-12 * max(sv[0], np.finfo(float).tiny):
            degenerate += 1
        state.factors = MvtfFactors(g=state.factors.g, c=c)

        # the head, block by block, forms the x system's right-hand side in
        # x_prev; the solve turns it into the new x, and the swap leaves the
        # old x in x_prev for the change sums
        for block in blocks:
            update_x(state.bands(block), y[block], params, before=state.v[2, block.start - 1])
        solve_z_system(state.x_prev, spectrum, out=state.x_prev)
        state.x, state.x_prev = state.x_prev, state.x

        # the tail, block by block.  A non-finite x, s or n reaches a
        # residual sum, a non-finite v or u4 its squared norm (clip maps an
        # infinite v to a finite residual); a finite array whose squared
        # norm overflowed passes the scan below and the run goes on
        change_sq = norm_sq = 0.0
        res_sq = [0.0] * 3
        health = 0.0
        for block in blocks:
            part = state.bands(block)
            # the old x is read only here, so the change overwrites it
            change_sq += frob_norm_sq(np.subtract(part.x_prev, part.x, out=part.x_prev))
            norm_sq += frob_norm_sq(part.x)
            dx = diff_forward(part.x, after=state.x[block.stop % k])
            gap = np.subtract(y[block], part.x)
            update_l(part, params, dx)
            update_s(part, gap, params)
            gap -= part.s
            update_n(part, gap, params)
            sums = update_multipliers(part, gap, dx)
            res_sq = [total + value for total, value in zip(res_sq, sums)]
            # v's block is strided, and ravel would copy it: one plane at a time
            with np.errstate(over="ignore"):
                health += sum(frob_norm_sq(u) for u in (part.u4, *part.v))
            # no block's scratch outlives it into the next head and x solve
            del dx, gap

        if not math.isfinite(health + sum(res_sq)):
            arrays = (state.x, state.v, state.s, state.n, state.u4)
            for arr, step in zip(arrays, _STEP_NAMES):
                _check_finite(arr, step, sweep)
        # x is finite here (a non-finite x reaches the observation residual),
        # so a non-finite change or norm sum is a float32 overflow, and the
        # stop rule would read change / inf as converged
        if not math.isfinite(change_sq + norm_sq):
            raise NumericError(
                f"the stop rule's squared norms of the estimate overflow float32 in sweep "
                f"{sweep}: the observation's values are too large for the solver"
            )

        state.iteration = sweep
        rel_change.append(change_sq / norm_sq if norm_sq > 0.0 else 0.0)
        for trace, value in zip((res_obs, res_tv, res_fac), res_sq):
            trace.append(math.sqrt(value))

        if convergence_check(change_sq, norm_sq, params.eps):
            converged = True
            break

    report = SolveReport(
        iterations=state.iteration,
        converged=converged,
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
