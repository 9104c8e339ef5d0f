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
import json
import math
import sys

import numpy as np

from .boost import (
    boost_mixed,
    boost_pure,
    boosted_amplitudes,
    boosted_spin_terms,
    composite_spin_ensemble,
)
from .classcheck import (
    SPIN_BIPARTITIONS,
    ClassCertificate,
    check_condition1,
    haar_state,
    sample_biseparable,
    verify_certificate,
)
from .constants import ATOL_PHYSICS, SPIN_DIM, SPIN_DIMS
from .errors import InputError, NumericError, SpinboostError
from .kinematics import (
    BoostScenario,
    default_geometry,
    rapidity,
    spin_rotations,
    wigner_angle,
)
from .linalg import projector, purity_unchecked, require_density
from .measures import ghz_witness, m_concurrence_pure, witness_from_amplitudes
from .states import (
    CompositeState,
    MixedState,
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
    write_state,
)

FIG3_CATALOG = (
    ("spins_vs_momenta", spins_vs_momenta_partition()),
    ("particles", particle_partition()),
    ("singletons", singletons_partition(6)),
    ("spin1_vs_rest", bipartition((1,), 6)),
    ("spin2_vs_rest", bipartition((3,), 6)),
    ("spin3_vs_rest", bipartition((5,), 6)),
)


def _fmt(x: float) -> str:
    """12-significant-digit decimal rendering (stable across runs)."""
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(float(x), ".12g")


def _variant_key(name: str) -> str:
    return name.replace("-", "_")


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


def _spin_vector(kind: str, alpha: float | None) -> np.ndarray:
    if kind == "ghz":
        return ghz_state() if alpha is None else ghz_alpha(alpha)
    if kind == "w":
        return w_state()
    raise InputError(f"unknown spin state {kind!r}")


def _write_lines(lines, out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def cmd_wigner(args) -> int:
    delta = wigner_angle(rapidity(args.observer_speed), rapidity(args.particle_speed))
    print(f"delta_rad {_fmt(delta)}")
    print(f"delta_deg {_fmt(math.degrees(delta))}")
    return 0


def _sweep_rotations(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The swept deltas and their per-label rotations, (grid, 3, 2, 2)."""
    deltas = np.linspace(0.0, math.pi / 2.0, grid)
    return deltas, spin_rotations(default_geometry().rotation_axes(), deltas)


def _scan_fig2(args, grid: int) -> list[str]:
    # The boosted spin terms are linear in the spin state and
    # ghz_alpha(alpha) = sin(alpha)|uuu> + cos(alpha)|ddd>, so the terms of
    # |uuu> and |ddd> are built once per scan, (grid, K, 8) each; every
    # alpha row combines them and takes the witness directly.
    momentum = permutation_momentum(_momentum_coeffs(args.momentum))
    alphas = (
        [args.alpha] if args.alpha is not None else np.linspace(0.0, math.pi, grid)
    )
    deltas, rotations = _sweep_rotations(grid)
    up, down = (
        boosted_spin_terms(compose(momentum, basis), rotations)
        for basis in np.eye(SPIN_DIM)[[0, 7]]
    )
    variant = _variant_key(args.variant)
    lines = ["alpha,delta,witness,gme_bound"]
    for alpha in alphas:
        spin = ghz_alpha(alpha)
        chi = spin[0] * up + spin[7] * down
        values = witness_from_amplitudes(chi, variant)
        bounds = (
            values
            if variant == "symmetric"
            else witness_from_amplitudes(chi, "symmetric")
        )
        head = _fmt(alpha)
        lines.extend(
            f"{head},{_fmt(delta)},{_fmt(value)},{_fmt(max(0.0, bound))}"
            for delta, value, bound in zip(deltas, values, bounds)
        )
    return lines


def _scan_fig3(args, grid: int) -> list[str]:
    momentum = permutation_momentum(_momentum_coeffs(args.momentum))
    state = compose(momentum, _spin_vector(args.spin, args.alpha))
    deltas, rotations = _sweep_rotations(grid)
    catalog = "; ".join(f"{name}={spec}" for name, spec in FIG3_CATALOG)
    boosted = boosted_amplitudes(state, rotations)
    values = [m_concurrence_pure(boosted, spec) for _, spec in FIG3_CATALOG]
    lines = [f"# partitions: {catalog}", "delta,partition,m_concurrence"]
    for i, delta in enumerate(deltas):
        lines.extend(
            f"{_fmt(delta)},{name},{_fmt(column[i])}"
            for (name, _), column in zip(FIG3_CATALOG, values)
        )
    return lines


def cmd_scan(args) -> int:
    default_grid = 61 if args.figure == "fig2" else 121
    grid = args.grid if args.grid is not None else default_grid
    if grid < 2:
        raise InputError("--grid must be at least 2")
    if args.threads < 1:  # accepted for compatibility; scans run in one thread
        raise InputError("--threads must be at least 1")
    scan = _scan_fig2 if args.figure == "fig2" else _scan_fig3
    _write_lines(scan(args, grid), args.out)
    return 0


def _spin_density_of(state) -> np.ndarray:
    if isinstance(state, (CompositeState, MixedState)):
        return state.spin_density()
    return projector(state)


def cmd_witness(args) -> int:
    state = read_state(args.state)
    rho = _spin_density_of(state)
    require_density(rho)
    reports = {
        (path, variant): ghz_witness(rho, path=path, variant=variant, validate=False)
        for path in ("matrix_elements", "pauli_settings")
        for variant in ("symmetric", "as_printed")
    }
    main_report = reports[("matrix_elements", _variant_key(args.variant))]
    path_dev = max(
        abs(
            reports[("matrix_elements", v)].value
            - reports[("pauli_settings", v)].value
        )
        for v in ("symmetric", "as_printed")
    )
    print(f"value {_fmt(main_report.value)}  (variant {args.variant})")
    print(f"offdiag_term {_fmt(main_report.offdiag_term)}")
    print(
        "population_terms "
        + " ".join(_fmt(t) for t in main_report.population_terms)
    )
    for v in ("symmetric", "as_printed"):
        print(f"variant {v}: {_fmt(reports[('matrix_elements', v)].value)}")
    print(f"paths_max_deviation {_fmt(path_dev)}")
    detected = reports[("matrix_elements", "symmetric")].value > 0.0
    print(
        "verdict: genuine multipartite entanglement "
        + ("detected" if detected else "not detected")
    )
    return 0


def _scenario_from_args(args) -> BoostScenario:
    if args.delta is not None:
        return BoostScenario.from_angle(args.delta)
    if args.observer_speed is None or args.particle_speed is None:
        raise InputError(
            "boost needs either --delta or both --observer-speed and --particle-speed"
        )
    return BoostScenario.from_speeds(
        args.observer_speed, default_geometry(args.particle_speed)
    )


def cmd_boost(args) -> int:
    state = read_state(args.state)
    scenario = _scenario_from_args(args)
    if isinstance(state, CompositeState):
        boosted = boost_pure(state, scenario)
        rho = boosted.spin_density()
        write_state(boosted, args.out)
    elif isinstance(state, MixedState):
        boosted, rho, _cert = boost_mixed(state, scenario)
        write_state(boosted, args.out)
    else:
        raise InputError(
            "boost needs a composite or mixed state file (momentum info required)"
        )
    if args.spin_out:
        doc = {
            "dims": list(SPIN_DIMS),
            "matrix": [
                [[float(x.real), float(x.imag)] for x in row] for row in rho
            ],
        }
        with open(args.spin_out, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    print(f"delta_rad {_fmt(scenario.delta)}")
    print(f"spin_purity {_fmt(purity_unchecked(rho))}")
    print(f"witness {_fmt(ghz_witness(rho, validate=False).value)}")
    return 0


def _check_condition1(trials: int, seed: int) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(seed)
    cases = [("ghz", ghz_state()), ("w", w_state())]
    cases += [(f"haar{i}", haar_state(8, rng)) for i in range(10)]
    lines = []
    ok = True
    worst = 0.0
    for i, (name, spin) in enumerate(cases):
        rep = check_condition1(spin, (2, 2, 2), trials=trials, seed=seed + 1000 * i)
        ok = ok and rep.passed
        worst = max(
            worst, rep.max_tangle_deviation, rep.max_concurrence_deviation
        )
        if not rep.passed:
            lines.append(f"FAIL {name}: seeds {rep.failing_seeds[:5]}")
    lines.append(f"local-unitary invariance over {len(cases)} states: "
                 f"max deviation {worst:.3e}")
    return ok, lines


def _check_condition2(trials: int, seed: int) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(seed)
    ok = True
    worst_rec = 0.0
    worst_inv = 0.0
    lines = []
    for i in range(trials):
        momentum = haar_state(27, rng)
        spin = haar_state(8, rng)
        delta = rng.uniform(0.0, math.pi / 2.0)
        scenario = BoostScenario.from_angle(delta)
        state = compose(momentum, spin)
        rho = boost_pure(state, scenario).spin_density()
        cert = ClassCertificate(spin, composite_spin_ensemble(state, scenario))
        rep = verify_certificate(cert, rho)
        ok = ok and rep.passed
        worst_rec = max(worst_rec, rep.reconstruction_error)
        worst_inv = max(
            worst_inv, rep.max_spectrum_deviation, rep.max_tangle_deviation
        )
        if not rep.passed:
            lines.append(f"FAIL scenario {i}: {rep}")
    lines.append(
        f"certificates over {trials} boosts: max reconstruction "
        f"{worst_rec:.3e}, max invariant deviation {worst_inv:.3e}"
    )
    return ok, lines


def _check_soundness(trials: int, seed: int) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    ok = True
    lines = []
    for i in range(trials):
        spec = SPIN_BIPARTITIONS[i % 3] if i % 4 else None
        rho = sample_biseparable(spec, int(rng.integers(1, 5)), rng)
        value = ghz_witness(rho, validate=False).value
        worst = max(worst, value)
        if not value <= ATOL_PHYSICS:
            ok = False
            lines.append(f"FAIL sample {i}: witness value {value}")
    lines.append(f"witness over {trials} biseparable samples: max value {worst:.3e}")
    return ok, lines


def cmd_check(args) -> int:
    defaults = {"condition1": 100, "condition2": 50, "soundness": 1000}
    trials = args.trials if args.trials is not None else defaults[args.suite]
    if trials < 1:
        raise InputError("--trials must be at least 1")
    if args.seed < 0:
        raise InputError("--seed must be nonnegative")
    runner = {
        "condition1": _check_condition1,
        "condition2": _check_condition2,
        "soundness": _check_soundness,
    }[args.suite]
    ok, lines = runner(trials, args.seed)
    for line in lines:
        print(line)
    print(f"{args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinboost",
        description="Boosted three-particle spin states and their entanglement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner", help="print the Wigner rotation angle")
    p.add_argument("--observer-speed", type=float, required=True)
    p.add_argument("--particle-speed", type=float, required=True)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("scan", help="deterministic CSV sweeps")
    p.add_argument("figure", choices=("fig2", "fig3"))
    p.add_argument("--grid", type=int, default=None,
                   help="grid points per axis (fig2: 61, fig3: 121)")
    p.add_argument("--alpha", type=float, default=None,
                   help="fix the spin mixing angle instead of sweeping it")
    p.add_argument("--spin", choices=("ghz", "w"), default="ghz")
    p.add_argument("--momentum", default="antisymmetric",
                   help="antisymmetric | product | 6 comma-separated coefficients")
    p.add_argument("--variant", choices=("symmetric", "as-printed"),
                   default="symmetric")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored (must be at least 1)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("witness", help="evaluate the GHZ-type witness on a state file")
    p.add_argument("state")
    p.add_argument("--variant", choices=("symmetric", "as-printed"),
                   default="symmetric")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("boost", help="apply a boost scenario to a state file")
    p.add_argument("state")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--observer-speed", type=float, default=None)
    p.add_argument("--particle-speed", type=float, default=None)
    p.add_argument("--out", required=True, help="boosted state file")
    p.add_argument("--spin-out", default=None,
                   help="also write the reduced spin density matrix (JSON)")
    p.set_defaults(func=cmd_boost)

    p = sub.add_parser("check", help="run a property-check suite")
    p.add_argument("suite", choices=("condition1", "condition2", "soundness"))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (InputError, SpinboostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
