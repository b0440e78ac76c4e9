#!/usr/bin/env python3
"""Write a smooth low-rank ground-truth cube for benchmarks and demos."""

import argparse
import sys

from hsidenoise.io import write_cube
from hsidenoise.synthetic import smooth_lowrank_cube


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=32, help="spatial rows I")
    parser.add_argument("--cols", type=int, default=32, help="spatial columns J")
    parser.add_argument("--bands", type=int, default=16, help="spectral bands K")
    parser.add_argument("--rank", type=int, default=3, help="number of signatures R")
    parser.add_argument("--slice-rank", type=int, default=3, help="rank of each abundance slice")
    parser.add_argument("--peak", type=float, default=1.0, help="peak absolute value after scaling")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", required=True, help="cube to write (NPY)")
    args = parser.parse_args()

    try:
        cube, _ = smooth_lowrank_cube(
            dims=(args.rows, args.cols, args.bands),
            r=args.rank,
            slice_rank=args.slice_rank,
            peak=args.peak,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_cube(cube, args.output)
    print(f"wrote {args.output}: {args.bands} bands of {args.rows}x{args.cols}, rank {args.rank}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
