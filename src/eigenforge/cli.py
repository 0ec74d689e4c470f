"""Deterministic command-line front end.

Subcommands map onto the library one-to-one: eigen (variational eigensolve),
sigma (separable field solve plus balance residual and action spectrum),
action (lattice fit of a stored solution), encode/decode (prime-power codec),
enumerate (definable states below an energy cutoff, CSV), qstar (ratio-field
expression classification). Outputs are byte-stable across runs.

Exit codes: 0 success, 2 invalid input, 3 non-convergence or a failed
numerical step (``ConditioningError``), 4 no lattice.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import action as action_mod
from . import godel, qstar, serialize, sigma_model
from . import sturm_liouville as sl
from .errors import (
    ConditioningError,
    DomainError,
    EigenforgeError,
    NoLatticeError,
    NonConvergenceError,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NO_LATTICE = 4


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# Longest command-line value an error message echoes whole.
_ECHO_CHARS = 40


def _echo(text: str) -> str:
    """The value's repr; a longer value than ``_ECHO_CHARS`` is cut to that
    prefix and followed by its length, so a malformed list of thousands of
    entries gives one short line of stderr."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"{flag} expects comma-separated numbers, got {_echo(text)}") from exc


def _parse_occupation(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(
            f"--occupation expects comma-separated integers, got {_echo(text)}") from exc


def _cmd_eigen(args) -> int:
    prob = serialize.problem_from_obj(_load_json(args.problem))
    pairs, trace = sl.solve(prob, num_modes=args.modes, k_tol=args.tol,
                            max_degree=args.max_degree)
    _write(serialize.dumps(serialize.solution_to_obj(pairs, trace)), args.out)
    return EXIT_OK


def _cmd_sigma(args) -> int:
    spec = serialize.model_from_obj(_load_json(args.model))
    if not spec.modes:
        raise DomainError("model declares no modes to solve")
    mode_objs = []
    labels = []
    alphas = []
    for mode in spec.modes:
        state, report = sigma_model.solve_state(
            spec, mode.label, mode.targets, tol=args.tol, max_iter=args.max_iter
        )
        null_res = sigma_model.null_postulate_residual(spec, state)
        alpha = action_mod.action_for_state(state)
        mode_objs.append(serialize.state_to_obj(state, report, null_res, alpha, mode.targets))
        labels.append(mode.label)
        alphas.append(alpha)
    spectrum = action_mod.fit_spectrum(labels, alphas)
    closure = action_mod.closure_check(alphas, spectrum.quantum)
    out = {"modes": mode_objs, "action_spectrum": serialize.spectrum_to_obj(spectrum, closure)}
    _write(serialize.dumps(out), args.out)
    return EXIT_OK


def _cmd_action(args) -> int:
    labels, alphas = serialize.solution_actions_from_obj(_load_json(args.solution))
    spectrum = action_mod.fit_spectrum(labels, alphas, tol=args.lattice_tol)
    closure = action_mod.closure_check(alphas, spectrum.quantum, tol=args.lattice_tol)
    _write(serialize.dumps(serialize.spectrum_to_obj(spectrum, closure)), args.out)
    return EXIT_OK


def _cmd_encode(args) -> int:
    value = godel.encode(_parse_occupation(args.occupation))
    _write(f"{value}\n", None)
    return EXIT_OK


def _cmd_decode(args) -> int:
    # Past 4 300 digits int() refuses with its own message; any integer of
    # more digits than 2^MAX_GODEL_BITS is refused by its digit count.
    digits = args.integer.strip().lstrip("+-").replace("_", "").lstrip("0")
    if digits.isdecimal() and len(digits) > len(str(1 << godel.MAX_GODEL_BITS)):
        raise DomainError(f"--integer of {len(digits)} digits exceeds 2^MAX_GODEL_BITS "
                          f"(MAX_GODEL_BITS = {godel.MAX_GODEL_BITS})")
    try:
        value = int(args.integer)
    except ValueError as exc:
        raise DomainError(f"--integer expects an integer, got {_echo(args.integer)}") from exc
    occ = godel.decode(value)
    _write(",".join(str(n) for n in occ) + "\n", None)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    omegas = _parse_floats(args.omegas, "--omegas")
    if not omegas:
        raise DomainError("--omegas must list at least one frequency")
    h = action_mod.h_from_quantum(args.quantum_I)
    states = godel.enumerate_definable(omegas, h, args.emax)
    _write(serialize.enumeration_csv(states), args.out)
    return EXIT_OK


def _cmd_qstar(args) -> int:
    element = qstar.parse(args.expr)
    _write(f"{element}\n{qstar.describe(element)}\n", None)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenforge",
        description="Variational eigensolving, separable field states, action "
                    "lattices, and the prime-power codec.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="solve a Sturm-Liouville problem from JSON")
    p.add_argument("--problem", required=True, help="problem JSON path")
    p.add_argument("--modes", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="absolute bound on each requested eigenvalue's drop per degree step; "
                        "a drop of at most 4 ulps of the previous value also stops the solve")
    p.add_argument("--max-degree", type=int, default=40)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("sigma", help="solve all declared modes of a field model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="bound on each space factor's change per sweep (r-weighted L2 norm)")
    p.add_argument("--max-iter", type=int, default=sigma_model.MAX_SWEEPS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("action", help="fit the action lattice of a stored solution")
    p.add_argument("--solution", required=True, help="sigma solution JSON path")
    p.add_argument("--lattice-tol", type=float, default=action_mod.LATTICE_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_action)

    p = sub.add_parser("encode", help="occupation numbers -> integer")
    p.add_argument("--occupation", required=True,
                   help="comma-separated occupation numbers; empty for the vacuum")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="integer -> occupation numbers")
    p.add_argument("--integer", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("enumerate", help="list definable states below an energy cutoff")
    p.add_argument("--omegas", required=True, help="comma-separated mode frequencies")
    p.add_argument("--quantum-I", type=float, required=True, help="action quantum (h = 4I)")
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("qstar", help="classify a ratio-field expression")
    p.add_argument("--expr", required=True, help="expression over integers, W, + - * / ^ ( )")
    p.set_defaults(func=_cmd_qstar)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_LATTICE
    except (NonConvergenceError, ConditioningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (EigenforgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
