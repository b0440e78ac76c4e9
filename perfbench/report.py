"""Turning samples and spans into the benchmark's metrics, plus the
environment block every result carries.

Per-layer metric conventions (``<module>.<function>.<measure>``):

* ``self_ms`` of a function the sweep loop calls: self time per sweep, summed
  over its calls in the loop (``initialize_state`` and ``solver.solve``:
  per solve).  ``solver.solve.self_ms`` is the part of a solve no child span
  covers; the detail line's ``solve_accounting`` gives every function's
  share, and those shares sum to the traced solve time.
* ``ms`` / ``ms_per_band`` of a function outside the solve: median
  inclusive time per call.  ``cli.<command>.self_ms``: median self time per
  call.
* ``calls_per_sweep``: calls made by the sweep loop per sweep; ``calls``:
  calls per solve.  Both repeat exactly for a fixed input.
* ``gbps_computed``: compulsory bytes over median inclusive time per call.
  The bytes are *computed* from array sizes (float64 reads plus writes of
  cube-sized arrays, a difference field counting three), not measured, so
  they ignore cache misses and temporaries.
"""

import glob
import os
import platform

import numpy as np

# compulsory cube-sized float64 streams (reads + writes) of one call
KERNEL_STREAMS = {
    "diffops.solve_z_system": 3,  # m, denominator -> z
    "solver.update_x": 8,  # y, s, n, lambda1, z, lambda2, lambda4 -> x
    "solver.update_l": 7,  # z, lambda3 (3) -> l (3)
    "solver.update_s": 5,  # y, x, n, lambda1 -> s
    "solver.update_n": 5,  # y, x, s, lambda1 -> n
    "solver.update_multipliers": 20,  # 14 reads -> 6 writes
}

# functions the sweep loop calls, reported as self ms per sweep
SWEEP_SELF = (
    "solver.update_x",
    "solver.update_z",
    "solver.update_l",
    "solver.update_s",
    "solver.update_n",
    "solver.update_multipliers",
    "solver.check_finite",
    "diffops.solve_z_system",
    "diffops.diff_forward",
    "diffops.diff_adjoint",
    "factorization.update_g",
    "factorization.procrustes_target",
    "factorization.orthonormal_from_target",
    "prox.svt",
    "prox.soft_threshold",
    "tensor.mode3_product",
)


def distribution(values):
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(values)
    tail = next((p for p in (99.9, 99.0, 90.0, 50.0) if n * (1.0 - p / 100.0) >= 10), None)
    return {
        "median": float(np.median(values)) if n else None,
        "tail_percentile": tail,
        "tail_value": float(np.percentile(values, tail)) if tail is not None else None,
        "n": n,
    }


def per_layer(table, outcomes, cube_shape, traced_solve_s, untraced_solve_s):
    """Every per-layer metric of a traced run, as {name: (value, unit)}."""
    solves = table.calls("solver.solve")
    sweeps = sum(o.sweeps for o in outcomes)
    cube_mb = 8e-6 * float(np.prod(cube_shape))
    out = {
        "solver.sweeps": (sweeps / len(outcomes), "count"),
        "solver.converged_frac": (sum(o.converged for o in outcomes) / len(outcomes), "fraction"),
        "solver.solve.self_ms": (1e3 * table.self_total_s("solver.solve") / solves, "ms"),
        "solver.self_ms_per_sweep": (1e3 * table.self_total_s("solver.solve") / sweeps, "ms"),
        "solver.initialize_state.self_ms": (
            1e3 * table.self_total_s("solver.initialize_state") / solves,
            "ms",
        ),
        "factorization.init_factors.ms": (table.median_ms("factorization.init_factors"), "ms"),
        "factorization.degenerate_c_steps": (
            sum(o.degenerate_c_steps for o in outcomes) / len(outcomes),
            "count",
        ),
        "diffops.tv_kernel_spectrum.calls": (
            table.calls("diffops.tv_kernel_spectrum") / solves,
            "count",
        ),
        "prox.svt.calls": (table.calls("prox.svt") / solves, "count"),
    }
    for name in SWEEP_SELF:
        out[f"{name}.self_ms"] = (1e3 * table.sweep_self_s(name) / sweeps, "ms")
    for name in (
        "solver.check_finite",
        "diffops.diff_forward",
        "factorization.compose",
        "tensor.frob_norm",
    ):
        out[f"{name}.calls_per_sweep"] = (table.calls_in_sweeps(name) / sweeps, "count")
    for name, streams in KERNEL_STREAMS.items():
        out[f"{name}.mb_computed"] = (streams * cube_mb, "MB")
        out[f"{name}.gbps_computed"] = (
            streams * cube_mb / table.median_ms(name),
            "GB/s",
        )
    for name in ("metrics.ssim_band", "metrics.psnr_band"):
        out[f"{name}.ms_per_band"] = (table.median_ms(name), "ms")
    for name in (
        "metrics.evaluate",
        "metrics.ergas",
        "noise.apply_noise",
        "noise.add_gaussian",
        "noise.add_impulse",
        "noise.add_deadlines",
        "synthetic.smooth_lowrank_cube",
        "io.read_cube",
        "io.write_cube",
        "io.write_text",
    ):
        out[f"{name}.ms"] = (table.median_ms(name), "ms")
    out["io.read_cube.peak_alloc_ratio"] = (float(np.median(read_alloc_ratios(table))), "ratio")
    writes = [table.spans[i].nbytes for i in table.by_name["io.write_cube"]]
    out["io.write_cube.mb"] = (1e-6 * float(np.median(writes)), "MB")
    out["cli.simulate.self_ms"] = (table.median_self_ms("cli.simulate"), "ms")
    out["trace.solve_s"] = (traced_solve_s, "s")
    out["trace.overhead_s"] = (traced_solve_s - untraced_solve_s, "s")
    return out


def read_alloc_ratios(table):
    """tracemalloc peak of each ``io.read_cube`` call over the bytes it returned."""
    return [table.spans[i].alloc_peak / table.spans[i].nbytes for i in table.by_name["io.read_cube"]]


def solve_accounting(table):
    """Self time per function inside ``solver.solve``, the uncovered rest
    (``solver.solve`` itself) included; the parts sum to the traced solve time."""
    parts = table.self_by_name_under("solver.solve")
    total = table.total_s("solver.solve")
    return {
        "solve_total_s": total,
        "parts_sum_s": sum(parts.values()),
        "share": {k: v / total for k, v in sorted(parts.items(), key=lambda kv: -kv[1])},
    }


def function_table(table):
    return {
        name: {
            "calls": table.calls(name),
            "total_ms": 1e3 * table.total_s(name),
            "self_total_ms": 1e3 * table.self_total_s(name),
            "median_ms": table.median_ms(name),
            "median_self_ms": table.median_self_ms(name),
        }
        for name in sorted(table.by_name)
    }


def _blas_threads():
    # numpy's bundled OpenBLAS; None where the library or symbol differs
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu():
    model, caches = platform.processor() or None, {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key), encoding="utf-8") as handle:
                    fields[key] = handle.read().strip()
            caches[f"L{fields['level']} {fields['type']}"] = fields["size"]
    except OSError:
        pass
    return model, caches


def environment(seed):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model, caches = _cpu()
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_model": model,
        "caches_per_core": caches,
    }
