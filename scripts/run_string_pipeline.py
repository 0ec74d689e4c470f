#!/usr/bin/env python3
"""End-to-end run of the string benchmark.

Writes the model of the first few modes of the unit-coefficient string on
(0, pi), solves it with ``eigenforge sigma`` (field solve, space/time balance,
action lattice), and enumerates the definable occupation states below an
energy cutoff from the stored solution. Writes the model, the solution, and
the enumeration CSV into --out-dir. --modes is read by ``cli.integer``,
--coupling and --emax by ``cli.number``, the CLI's one ASCII notation. A
value argparse refuses exits 2 with its usage; a model, coupling or cutoff
the library refuses ends with one ``error:`` line on stderr and exit status
2, and the field solve exits as ``eigenforge sigma`` does. A cutoff that the
library refuses for any spectrum is refused before a file is written, and
one that only the solved spectrum refuses before anything is printed.
"""

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eigenforge import cli, godel, serialize, sigma_model
from eigenforge.errors import DomainError
from eigenforge.polynomials import poly
from eigenforge.sturm_liouville import DIRICHLET, max_modes


def build_model(num_modes: int, coupling_g: float) -> sigma_model.SigmaModelSpec:
    space_iv = (0.0, math.pi)
    time_iv = (0.0, math.pi / 2)
    space = sigma_model.DimensionSpec(space_iv, poly([1.0], space_iv), DIRICHLET)
    time = sigma_model.DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
    p_field = sigma_model.CoeffField(
        terms=((poly([1.0], space_iv), poly([1.0], time_iv)),))
    q_field = sigma_model.CoeffField(terms=(), coupling_g=coupling_g)
    # The model refuses its first mode past the most a space factor's capped
    # eigensolve tracks, so no longer list is built.
    last = min(num_modes, max_modes(sigma_model.SL_MAX_DEGREE) + 1)
    modes = tuple(sigma_model.ModeSpec(f"m{m}", (m,)) for m in range(1, last + 1))
    return sigma_model.SigmaModelSpec((space,), time, p_field, q_field, modes=modes)


def run(args) -> int:
    # A cutoff godel refuses for any spectrum (not finite, negative, or
    # overflowing when padded), here the empty one, is refused before the
    # field solve writes a file.
    godel.enumerate_definable((), 1.0, args.emax)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "string_model.json"
    solution_path = out / "string_solution.json"
    spec = build_model(args.modes, args.coupling)
    model_path.write_text(serialize.dumps(serialize.model_to_obj(spec)))
    code = cli.main(["sigma", "--model", str(model_path), "--out", str(solution_path)])
    if code != cli.EXIT_OK:
        return code
    solution = json.loads(solution_path.read_text())
    spectrum = solution["action_spectrum"]
    omegas = [mode["omega"] for mode in solution["modes"]]
    states = godel.enumerate_definable(omegas, spectrum["h"], args.emax)

    print(f"{'mode':>6} {'omega':>18} {'indicial':>12} {'balance':>12} {'sweeps':>7}")
    for mode in solution["modes"]:
        print(f"{mode['label']:>6} {mode['omega']:>18.12f} {mode['indicial_residual']:>12.2e} "
              f"{mode['null_residual']:>12.2e} {mode['report']['iterations']:>7d}")
    print(f"\naction quantum I = {spectrum['I']:.12f} (pi/2 = {math.pi/2:.12f}), "
          f"h = {spectrum['h']:.12f}, closure: {spectrum['closure']}")
    (out / "definable_states.csv").write_text(serialize.enumeration_csv(states))
    print(f"definable states with E_t <= {args.emax}: {len(states)} "
          f"(integers {[s.godel for s in states[:8]]}{'...' if len(states) > 8 else ''})")
    print(f"artifacts in {out.resolve()}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--modes", type=cli.integer, default=3)
    parser.add_argument("--coupling", type=cli.number, default=0.0)
    parser.add_argument("--emax", type=cli.number, default=4.0)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
