"""Command line pipeline: synthesize -> simulate -> denoise -> evaluate, plus band export.

``simulate`` and ``denoise`` echo their fully resolved configuration, so
their runs can be reproduced from their own output.  Files are read in
their own precision.  ``simulate`` writes the noisy cube in the clean
file's: a float32 scene gives a float32 observation, which ``denoise``
hands the solver as it is; a float64 one is cast to float32 and dropped
before the sweeps start.  ``denoise``'s outputs keep the solver's
precision: the estimate and the components are written as float32 files.
``evaluate`` and ``export-band`` compute in float64 from either precision,
so a float32 file scores and exports exactly as its float64 widening does.
Exit codes: 0 success, 1 usage problems, 2 file problems, 3 numeric
failures.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace

from .errors import CubeFormatError, MetricError, NumericError
from .io import read_cube, write_cube, write_pgm, write_text
from .metrics import evaluate
from .noise import NoiseSpec, apply_noise, case_spec
from .solver import SolverParams, solve, working_observation
from .synthetic import smooth_lowrank_cube


@dataclass
class RunConfig:
    """Fully resolved configuration echoed into reports and to stdout."""

    command: str
    input: str
    output: str
    preset: str | None = None
    params: dict | None = None
    noise: dict | None = None
    seed: int | None = None

    def to_json(self):
        return json.dumps(asdict(self), indent=2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(prog="hsidenoise", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synthesize", help="write a smooth low-rank ground-truth cube")
    syn.add_argument("--rows", type=int, default=32, help="spatial rows I")
    syn.add_argument("--cols", type=int, default=32, help="spatial columns J")
    syn.add_argument("--bands", type=int, default=16, help="spectral bands K")
    syn.add_argument("--rank", type=int, default=3, help="number of signatures R")
    syn.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    syn.add_argument("--output", required=True, help="cube to write (NPY)")
    syn.set_defaults(func=cmd_synthesize)

    sim = sub.add_parser("simulate", help="degrade a clean cube with a canonical noise case")
    sim.add_argument("--input", required=True, help="clean cube (NPY)")
    sim.add_argument("--output", required=True, help="noisy cube to write (NPY)")
    sim.add_argument("--case", type=int, choices=(1, 2, 3, 4), help="canonical noise case")
    sim.add_argument("--spec", help="JSON noise spec; overrides --case")
    sim.add_argument("--seed", type=int, help="RNG seed (default 0, or the spec file's)")
    sim.set_defaults(func=cmd_simulate)

    den = sub.add_parser("denoise", help="run the solver on a noisy cube")
    den.add_argument("--input", required=True, help="noisy cube (NPY)")
    den.add_argument("--output", required=True, help="denoised cube to write (NPY)")
    den.add_argument(
        "--preset",
        choices=("simulated", "real"),
        default="simulated",
        help="parameter preset to start from",
    )
    # one override per solver parameter: field lambda_tv is flag --lambda-tv
    for field in fields(SolverParams):
        den.add_argument(
            "--" + field.name.replace("_", "-"),
            dest=field.name,
            type=field.type,
            help=f"override {field.name} ({field.type.__name__})",
        )
    den.add_argument(
        "--emit-components",
        action="store_true",
        help="also write the sparse and Gaussian components next to the output",
    )
    den.add_argument("--report", help="write the solve report as JSON here")
    den.set_defaults(func=cmd_denoise)

    ev = sub.add_parser("evaluate", help="score a test cube against a reference")
    ev.add_argument("--ref", required=True, help="reference cube (NPY)")
    ev.add_argument("--test", required=True, help="cube under test (NPY)")
    ev.add_argument("--csv", help="write per-band metrics as CSV here")
    ev.add_argument("--json", help="write the metrics report as JSON here")
    ev.add_argument(
        "--peak",
        type=float,
        default=1.0,
        help="PSNR peak and SSIM dynamic range, from about 7.3e-80 to 6.6e78 (default 1.0)",
    )
    ev.set_defaults(func=cmd_evaluate)

    exp = sub.add_parser("export-band", help="export one band as an 8-bit PGM image")
    exp.add_argument("--input", required=True, help="cube (NPY)")
    exp.add_argument("--band", required=True, type=int, help="band number, 1-based")
    exp.add_argument("--output", required=True, help="PGM file to write")
    exp.add_argument(
        "--range",
        nargs=2,
        type=float,
        default=(0.0, 1.0),
        metavar=("LO", "HI"),
        help="finite values mapped linearly onto [0, 255], clamped (default 0 1)",
    )
    exp.set_defaults(func=cmd_export_band)

    return parser


def _output_stem(output):
    """``output`` without its ``.npy`` suffix; files written beside it extend this."""
    return output.removesuffix(".npy")


def cmd_synthesize(args):
    cube, _ = smooth_lowrank_cube(
        dims=(args.rows, args.cols, args.bands), r=args.rank, seed=args.seed
    )
    write_cube(cube, args.output)
    print(f"wrote {args.output}: {args.bands} bands of {args.rows}x{args.cols}, rank {args.rank}")
    return 0


def cmd_simulate(args):
    cube = read_cube(args.input)
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = NoiseSpec.from_json(handle.read())
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    elif args.case is not None:
        spec = case_spec(args.case, cube.shape[0], seed=args.seed if args.seed is not None else 0)
    else:
        raise ValueError("simulate needs --case or --spec")
    # float32 for a float32 scene, so the file holds the observation denoise solves
    noisy = apply_noise(cube, spec)
    write_cube(noisy, args.output, dtype=noisy.dtype.name)
    write_text(_output_stem(args.output) + ".json", spec.to_json() + "\n")
    config = RunConfig(
        command="simulate",
        input=args.input,
        output=args.output,
        noise=asdict(spec),
        seed=spec.seed,
    )
    print(config.to_json())
    return 0


def _resolve_params(args):
    base = SolverParams.simulated() if args.preset == "simulated" else SolverParams.real()
    overrides = {
        field.name: getattr(args, field.name)
        for field in fields(SolverParams)
        if getattr(args, field.name) is not None
    }
    params = replace(base, **overrides)
    preset = args.preset if params == base else "custom"
    return params, preset


def cmd_denoise(args):
    cube = read_cube(args.input)
    params, preset = _resolve_params(args)
    config = RunConfig(
        command="denoise",
        input=args.input,
        output=args.output,
        preset=preset,
        params=asdict(params),
    )
    print(config.to_json())
    # a float32 file's cube passes through as it is; rebinding drops a
    # float64 file's cube before the sweeps start.  The solve then reads
    # this float32 cube without a copy
    cube = working_observation(cube)
    x, s, n, report = solve(cube, params)
    # the solver's own precision: a wider file would add bytes, not information
    precision = x.dtype.name
    write_cube(x, args.output, dtype=precision)
    if args.emit_components:
        stem = _output_stem(args.output)
        write_cube(s, stem + ".sparse.npy", dtype=precision)
        write_cube(n, stem + ".gaussian.npy", dtype=precision)
    if args.report:
        document = {"config": asdict(config), "report": report.to_dict()}
        write_text(args.report, json.dumps(document, indent=2) + "\n")
    print(
        f"done: {report.iterations} sweeps, "
        f"{'converged' if report.converged else 'sweep cap reached'}, "
        f"{report.wall_time_s:.2f}s"
    )
    return 0


def cmd_evaluate(args):
    ref = read_cube(args.ref)
    test = read_cube(args.test)
    report = evaluate(ref, test, peak=args.peak)
    if args.csv:
        write_text(args.csv, report.to_csv())
    if args.json:
        write_text(args.json, report.to_json() + "\n")
    print(report.summary_line())
    return 0


def cmd_export_band(args):
    cube = read_cube(args.input)
    if not 1 <= args.band <= cube.shape[0]:
        raise ValueError(f"band {args.band} outside [1, {cube.shape[0]}]")
    lo, hi = args.range
    write_pgm(cube[args.band - 1], args.output, lo=lo, hi=hi)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CubeFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
