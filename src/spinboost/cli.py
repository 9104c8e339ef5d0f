"""Command-line interface.

Subcommands:
  wigner   print the Wigner rotation angle for an observer/particle speed pair
  scan     deterministic CSV sweeps: fig2 (witness surface over alpha x delta)
           and fig3 (partition m-concurrences over delta)
  witness  evaluate the GHZ-type witness on a state file
  boost    apply a boost scenario to a state file
  check    run the invariance / certificate / witness-soundness suites

Exit codes: 0 success, 1 property-check failure, 2 invalid input,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .boost import boost_mixed, boost_pure, boosted_amplitudes, boosted_spin_terms
from .constants import SPIN_DIM
from .errors import InputError, NumericError, SpinboostError
from .kinematics import BoostScenario, spin_rotations
from .linalg import projector, purity_unchecked
from .measures import (
    WITNESS_PATHS,
    WITNESS_VARIANTS,
    _amplitude_moments,
    _gme_bound,
    _path_values,
    _witness,
    ghz_witness,
    m_concurrences_pure,
)
from .states import (
    CompositeState,
    MixedState,
    _state_text,
    antisymmetric_coeffs,
    bipartition,
    compose,
    ghz_alpha,
    ghz_state,
    particle_partition,
    permutation_momentum,
    read_state,
    singletons_partition,
    spins_vs_momenta_partition,
    w_state,
    write_output,
)

FIG3_CATALOG = (
    ("spins_vs_momenta", spins_vs_momenta_partition()),
    ("particles", particle_partition()),
    ("singletons", singletons_partition(6)),
    ("spin1_vs_rest", bipartition((1,), 6)),
    ("spin2_vs_rest", bipartition((3,), 6)),
    ("spin3_vs_rest", bipartition((5,), 6)),
)
# A fig3 CSV is this head, then d.join(_FIG3_SUFFIXES) for each delta string d
_FIG3_HEAD = "# partitions: %s\ndelta,partition,m_concurrence\n" % "; ".join(
    f"{name}={spec}" for name, spec in FIG3_CATALOG)
_FIG3_SUFFIXES = ("", *(f",{name},%.12g\n" for name, _ in FIG3_CATALOG))
# check runs classcheck's <name>_suite; classcheck is imported only there
SUITES = ("condition1", "condition2", "soundness")
# Amplitudes per block of fig2 alpha rows (128 KB of complex128): a whole
# grid at once is slower than row by row, and larger blocks raise peak RSS.
FIG2_BLOCK = 2**13


def _fmt(x: float) -> str:
    """12-significant-digit decimal rendering (stable across runs)."""
    return format(float(x) + 0.0, ".12g")  # + 0.0 prints -0.0 as 0


def _momentum_coeffs(spec: str) -> np.ndarray:
    if spec == "antisymmetric":
        return antisymmetric_coeffs()
    if spec == "product":
        c = np.zeros(6, dtype=np.complex128)
        c[0] = 1.0  # the identity assignment |p_A p_B p_C>
        return c
    try:
        parts = [complex(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise InputError(f"cannot parse momentum coefficients {spec!r}") from exc
    if len(parts) != 6:
        raise InputError("custom momentum needs 6 comma-separated coefficients")
    return np.asarray(parts, dtype=np.complex128)


def cmd_wigner(args) -> int:
    delta = BoostScenario.from_speeds(args.observer_speed, args.particle_speed).delta
    print(f"delta_rad {_fmt(delta)}")
    print(f"delta_deg {_fmt(math.degrees(delta))}")
    return 0


def _sweep_rotations(grid: int) -> tuple[list[str], np.ndarray]:
    """The swept deltas as CSV fields and their rotations, (grid, 3, 2, 2)."""
    deltas = np.linspace(0.0, math.pi / 2.0, grid)
    rotations = spin_rotations(deltas)
    return [f"{d:.12g}" for d in deltas.tolist()], rotations


def _scan_fig2(args, grid: int) -> str:
    # The boosted spin terms are linear in the spin state and
    # ghz_alpha(alpha) = sin(alpha)|uuu> + cos(alpha)|ddd>, so the terms of
    # |uuu> and |ddd> are built once per scan, (grid, K, 8) each; each block
    # of alpha rows combines them and takes the witness directly.
    momentum = permutation_momentum(_momentum_coeffs(args.momentum))
    alphas = (
        [args.alpha] if args.alpha is not None else np.linspace(0.0, math.pi, grid)
    )
    deltas, rotations = _sweep_rotations(grid)
    up, down = (
        boosted_spin_terms(compose(momentum, basis), rotations).terms()
        for basis in np.eye(SPIN_DIM)[[0, 7]]
    )
    spins = np.array([ghz_alpha(alpha) for alpha in alphas])[:, :, None, None, None]
    variant = (args.variant or "symmetric").replace("-", "_")
    values = {v: np.empty((len(alphas), grid)) for v in (variant, "symmetric")}
    step = max(1, FIG2_BLOCK // up.size)
    for start in range(0, len(alphas), step):
        rows = slice(start, start + step)
        chi = spins[rows, 0] * up + spins[rows, 7] * down  # (rows, grid, K, 8)
        moments = _amplitude_moments(chi)  # one reduction for every variant
        for v, out in values.items():
            out[rows] = _witness(*moments, v)[0]
    # + 0.0 prints -0.0 as 0; gme_bound always takes the symmetric value
    wit = (values[variant] + 0.0).ravel().tolist()
    bound = _gme_bound(values["symmetric"]).ravel().tolist()
    spec = "%.12g,%.12g"
    if variant == "symmetric":  # one format per value; a bound is 0 or its value
        wit = ("%.12g," * len(wit) % tuple(wit)).split(",")[:-1]
        bound, spec = [s if b else "0" for s, b in zip(wit, bound)], "%s,%s"
    fields = [None] * (3 * len(alphas) * grid)
    fields[0::3] = [head for head in map(_fmt, alphas) for _ in deltas]
    fields[1::3], fields[2::3] = wit, bound
    row = "".join(f"%s,{d},{spec}\n" for d in deltas)  # deltas baked in
    return "alpha,delta,witness,gme_bound\n" + (row * len(alphas)) % tuple(fields)


def _scan_fig3(args, grid: int) -> str:
    momentum = permutation_momentum(_momentum_coeffs(args.momentum))
    spin = (w_state() if args.spin == "w"
            else ghz_state() if args.alpha is None else ghz_alpha(args.alpha))
    state = compose(momentum, spin)
    deltas, rotations = _sweep_rotations(grid)
    boosted = boosted_amplitudes(state, rotations)
    values = m_concurrences_pure(boosted, [spec for _, spec in FIG3_CATALOG])
    rows = "".join(d.join(_FIG3_SUFFIXES) for d in deltas)
    return _FIG3_HEAD + rows % tuple((np.stack(values, axis=1) + 0.0).ravel().tolist())


def cmd_scan(args) -> int:
    default_grid = 61 if args.figure == "fig2" else 121
    grid = args.grid if args.grid is not None else default_grid
    if grid < 2:
        raise InputError("--grid must be at least 2")
    if args.figure == "fig2" and args.spin is not None:
        raise InputError("--spin does not apply to fig2, which sweeps GHZ(alpha)")
    if args.figure == "fig3" and args.variant is not None:
        raise InputError("--variant does not apply to fig3, which has no witness")
    if args.spin == "w" and args.alpha is not None:
        raise InputError("--alpha does not apply to --spin w")
    text = (_scan_fig2 if args.figure == "fig2" else _scan_fig3)(args, grid)
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_output((args.out, text))
    return 0


def _spin_density_of(state) -> np.ndarray:
    if isinstance(state, (CompositeState, MixedState)):
        return state.spin_density()
    return state if state.ndim == 2 else projector(state)


def cmd_witness(args) -> int:
    state = read_state(args.state)
    rho = _spin_density_of(state)  # read_state checked the file: rho is valid
    matrix, pauli = (_path_values(rho, path) for path in WITNESS_PATHS)  # one read each
    main_report = matrix[args.variant.replace("-", "_")]
    path_dev = max(abs(matrix[v].value - pauli[v].value) for v in WITNESS_VARIANTS)
    print(f"value {_fmt(main_report.value)}  (variant {args.variant})")
    print(f"offdiag_term {_fmt(main_report.offdiag_term)}")
    print("population_terms", *map(_fmt, main_report.population_terms))
    for v in WITNESS_VARIANTS:
        print(f"variant {v}: {_fmt(matrix[v].value)}")
    print(f"paths_max_deviation {_fmt(path_dev)}")
    detected = _gme_bound(matrix["symmetric"].value)  # nonzero iff positive
    print(f"verdict: genuine multipartite entanglement "
          f"{'detected' if detected else 'not detected'}")
    return 0


def _scenario_from_args(args) -> BoostScenario:
    if args.delta is not None:
        if args.observer_speed is not None or args.particle_speed is not None:
            raise InputError("--delta excludes --observer-speed and --particle-speed")
        return BoostScenario.from_angle(args.delta)
    if args.observer_speed is None or args.particle_speed is None:
        raise InputError("boost needs either --delta or both --observer-speed and "
                         "--particle-speed")
    return BoostScenario.from_speeds(args.observer_speed, args.particle_speed)


def cmd_boost(args) -> int:
    state = read_state(args.state)
    scenario = _scenario_from_args(args)
    if isinstance(state, CompositeState):
        boosted = boost_pure(state, scenario)
    elif isinstance(state, MixedState):
        boosted = boost_mixed(state, scenario)
    else:
        raise InputError("boost needs a composite or mixed state file (momentum info required)")
    rho = boosted.spin_density()
    outputs = [(args.out, _state_text(boosted))]
    if args.spin_out:
        outputs.append((args.spin_out, _state_text(rho)))
    write_output(*outputs)  # both files or neither
    print(f"delta_rad {_fmt(scenario.delta)}")
    print(f"spin_purity {_fmt(purity_unchecked(rho))}")
    print(f"witness {_fmt(ghz_witness(rho, validate=False).value)}")
    return 0


def cmd_check(args) -> int:
    from . import classcheck

    if args.trials is not None and args.trials < 1:
        raise InputError("--trials must be at least 1")
    if args.seed < 0:
        raise InputError("--seed must be nonnegative")
    trials = {} if args.trials is None else {"trials": args.trials}
    ok, lines = getattr(classcheck, f"{args.suite}_suite")(seed=args.seed, **trials)
    for line in lines:
        print(line)
    print(f"{args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared, so callers must
    not modify it; each parse_args call returns a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="spinboost",
        description="Boosted three-particle spin states and their entanglement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner", help="print the Wigner rotation angle")
    p.add_argument("--observer-speed", type=float, required=True)
    p.add_argument("--particle-speed", type=float, required=True)

    p = sub.add_parser("scan", help="deterministic CSV sweeps")
    p.add_argument("figure", choices=("fig2", "fig3"))
    p.add_argument("--grid", type=int, default=None,
                   help="grid points per axis (fig2: 61, fig3: 121)")
    p.add_argument("--alpha", type=float, default=None,
                   help="fix the spin mixing angle instead of sweeping it")
    p.add_argument("--spin", choices=("ghz", "w"), help="fig3 only (default ghz)")
    p.add_argument("--momentum", default="antisymmetric",
                   help="antisymmetric | product | 6 comma-separated coefficients")
    p.add_argument("--variant", choices=("symmetric", "as-printed"),
                   help="fig2 only (default symmetric)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("witness", help="evaluate the GHZ-type witness on a state file")
    p.add_argument("state")
    p.add_argument("--variant", choices=("symmetric", "as-printed"),
                   default="symmetric")

    p = sub.add_parser("boost", help="apply a boost scenario to a state file")
    p.add_argument("state")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--observer-speed", type=float, default=None)
    p.add_argument("--particle-speed", type=float, default=None)
    p.add_argument("--out", required=True, help="boosted state file")
    p.add_argument("--spin-out", default=None,
                   help="also write the reduced spin density matrix (JSON)")

    p = sub.add_parser("check", help="run a property-check suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, not bound into the parser once per process, so
        # a cmd_* wrapped or patched after the first call is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:  # argparse's exit: 0 after --help, 2 on a usage error
        return exc.code
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (InputError, SpinboostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
