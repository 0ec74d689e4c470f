#!/usr/bin/env python3
"""End-to-end run of the string benchmark.

Solves the first few modes of the unit-coefficient string on (0, pi), checks
the space/time balance, fits the action lattice, and enumerates the definable
occupation states below an energy cutoff. Writes the model, the solution, the
spectrum, and the enumeration CSV into --out-dir.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eigenforge import action, godel, serialize, sigma_model
from eigenforge.polynomials import poly
from eigenforge.sturm_liouville import DIRICHLET, BoundaryCondition


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--modes", type=int, default=3)
    parser.add_argument("--coupling", type=float, default=0.0)
    parser.add_argument("--emax", type=float, default=4.0)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = build_model(args.modes, args.coupling)
    (out / "string_model.json").write_text(serialize.dumps(serialize.model_to_obj(spec)))

    mode_objs = []
    labels, alphas, omegas = [], [], []
    print(f"{'mode':>6} {'omega':>18} {'indicial':>12} {'balance':>12} {'sweeps':>7}")
    for mode in spec.modes:
        state, report = sigma_model.solve_state(spec, mode.label, mode.targets,
                                                tol=1e-10, max_iter=200)
        balance = sigma_model.null_postulate_residual(spec, state)
        alpha = action.action_for_state(state)
        mode_objs.append(serialize.state_to_obj(state, report, balance, alpha, mode.targets))
        labels.append(mode.label)
        alphas.append(alpha)
        omegas.append(state.omega)
        print(f"{mode.label:>6} {state.omega:>18.12f} {state.indicial_residual():>12.2e} "
              f"{balance:>12.2e} {report.iterations:>7d}")

    spectrum = action.fit_spectrum(labels, alphas)
    closed = action.closure_check(alphas, spectrum.quantum)
    solution = {"modes": mode_objs,
                "action_spectrum": serialize.spectrum_to_obj(spectrum, closed)}
    (out / "string_solution.json").write_text(serialize.dumps(solution))
    print(f"\naction quantum I = {spectrum.quantum:.12f} (pi/2 = {math.pi/2:.12f}), "
          f"h = {spectrum.h:.12f}, closure: {closed}")

    states = godel.enumerate_definable(omegas, spectrum.h, args.emax)
    (out / "definable_states.csv").write_text(serialize.enumeration_csv(states))
    print(f"definable states with E_t <= {args.emax}: {len(states)} "
          f"(integers {[s.godel for s in states[:8]]}{'...' if len(states) > 8 else ''})")
    print(f"artifacts in {out.resolve()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
