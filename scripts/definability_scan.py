#!/usr/bin/env python3
"""Definable-state counts versus box size.

For Dirichlet box modes (omega_m = m pi / L, m <= --modes) the number of
occupation distributions with total energy below --emax never shrinks as the
box grows. Prints the counts and optionally writes them as CSV. The states
are counted, not listed (``godel.count_vs_box``). Invalid input ends with one
``error:`` line on stderr and exit status 2, as in the ``eigenforge`` CLI.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eigenforge import cli
from eigenforge.errors import EigenforgeError
from eigenforge.godel import count_vs_box
from eigenforge.serialize import format_float


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lengths", default="0.5,1,2,4,8",
                        help="comma-separated ascending box lengths")
    parser.add_argument("--emax", type=float, default=3.0)
    parser.add_argument("--modes", type=int, default=6)
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args(argv)

    try:
        lengths = [float(v) for v in args.lengths.split(",")]
        counts = count_vs_box(lengths, args.emax, args.modes)
    except (EigenforgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_INVALID
    print(f"{'L':>10} {'count':>8}")
    for L, count in counts:
        print(f"{L:>10.4f} {count:>8d}")
    if args.out:
        lines = ["box_length,count"]
        lines += [f"{format_float(L)},{c}" for L, c in counts]
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
