#!/usr/bin/env python3
"""End-to-end run of the string benchmark.

Writes the model of the first few modes of the unit-coefficient string on
(0, pi), solves it with ``eigenforge sigma`` (field solve, space/time balance,
action lattice), and enumerates the definable occupation states below an
energy cutoff from the stored solution. Writes the model, the solution, and
the enumeration CSV into --out-dir.
"""

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eigenforge import cli, godel, serialize, sigma_model
from eigenforge.polynomials import poly
from eigenforge.sturm_liouville import DIRICHLET


def build_model(num_modes: int, coupling_g: float) -> sigma_model.SigmaModelSpec:
    space_iv = (0.0, math.pi)
    time_iv = (0.0, math.pi / 2)
    space = sigma_model.DimensionSpec(space_iv, poly([1.0], space_iv), DIRICHLET)
    time = sigma_model.DimensionSpec(time_iv, poly([1.0], time_iv), DIRICHLET)
    p_field = sigma_model.CoeffField(
        terms=((poly([1.0], space_iv), poly([1.0], time_iv)),))
    q_field = sigma_model.CoeffField(terms=(), coupling_g=coupling_g)
    modes = tuple(sigma_model.ModeSpec(f"m{m}", (m,)) for m in range(1, num_modes + 1))
    return sigma_model.SigmaModelSpec((space,), time, p_field, q_field, modes=modes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--modes", type=int, default=3)
    parser.add_argument("--coupling", type=float, default=0.0)
    parser.add_argument("--emax", type=float, default=4.0)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args(argv)

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

    print(f"{'mode':>6} {'omega':>18} {'indicial':>12} {'balance':>12} {'sweeps':>7}")
    for mode in solution["modes"]:
        print(f"{mode['label']:>6} {mode['omega']:>18.12f} {mode['indicial_residual']:>12.2e} "
              f"{mode['null_residual']:>12.2e} {mode['report']['iterations']:>7d}")
    spectrum = solution["action_spectrum"]
    print(f"\naction quantum I = {spectrum['I']:.12f} (pi/2 = {math.pi/2:.12f}), "
          f"h = {spectrum['h']:.12f}, closure: {spectrum['closure']}")

    omegas = [mode["omega"] for mode in solution["modes"]]
    states = godel.enumerate_definable(omegas, spectrum["h"], args.emax)
    (out / "definable_states.csv").write_text(serialize.enumeration_csv(states))
    print(f"definable states with E_t <= {args.emax}: {len(states)} "
          f"(integers {[s.godel for s in states[:8]]}{'...' if len(states) > 8 else ''})")
    print(f"artifacts in {out.resolve()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
