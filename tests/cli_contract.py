"""The CLI's contract: one table of `spinboost` invocations and what each must do.

A case runs in an empty directory. Its argv is split on spaces; when argv[1]
names a file in BUILDERS, that file is made first, from fixed seeds. A case
has an exit code, and a phrase its stderr must contain; without one, stderr
stays empty. A failing case prints nothing on stdout and leaves no file but
its input. A case may pin its stdout, or equal another case's output, where
the output of a scan with --out is the file it writes. This module imports
without pytest: tests/test_cli.py runs every case through `cli.main`, and the
`process` cases also as `python -W error -m spinboost.cli`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from spinboost import (BoostScenario, antisymmetric_momentum, boost_pure, compose,
                       ghz_state, haar_state, write_state)
from spinboost.linalg import projector


@dataclass(frozen=True)
class Case:
    argv: str
    code: int = 0
    err: str = ""
    out: str | None = None  # the exact stdout
    same: str | None = None  # argv of the case whose output this one's equals
    lines: tuple = ()  # slices of that output's lines that this one's equals
    process: bool = False  # also run as a real process

    def __str__(self):
        return self.argv


def _composite():
    return compose(antisymmetric_momentum(), ghz_state())


COMPOSITE_DIMS = [3, 2, 3, 2, 3, 2]
# file name -> the state, JSON document or raw bytes it holds
BUILDERS = {
    "s.json": _composite,
    "spin.json": ghz_state,
    "v.json": lambda: haar_state(8, 5),
    "vr.json": lambda: projector(haar_state(8, 5)),
    "os.json": lambda: boost_pure(_composite(), BoostScenario.from_speeds(0.6, 0.9)),
    "b.json": lambda: {"dims": [2, 2, 2], "amps": [[True, False]] + [[0.0, 0.0]] * 7},
    "big.json": lambda: {"dims": COMPOSITE_DIMS, "amps": [[1e200, 0]] + [[0.0, 0.0]] * 215},
    "e11.json": lambda: {"dims": COMPOSITE_DIMS, "amps": [  # |psi|^2 = 1 + 1.1e-9
        [z.real, z.imag] for z in (math.sqrt(1 + 1.1e-9) * _composite().vector).tolist()]},
    "bom.json": lambda: b'\xff\xfe{"dims": [2,2,2]}',  # a UTF-16 mark, then odd bytes
    "deep.json": lambda: b"[" * 100_000 + b"]" * 100_000,
    "digits.json": lambda: b'{"dims": [2,2,2], "amps": [[1%s, 0]]}' % (b"0" * 5000),
}


def build_input(case: Case) -> None:
    """Write the case's input file, if it has one, to the working directory."""
    name = case.argv.split()[1]
    if name not in BUILDERS:
        return
    made = BUILDERS[name]()
    if isinstance(made, bytes):
        with open(name, "wb") as fh:
            fh.write(made)
    elif isinstance(made, dict):
        with open(name, "w") as fh:
            json.dump(made, fh)
    else:
        write_state(made, name)


def _stdout_and_out(argv):
    # a scan to stdout, and the same scan written by --out
    return Case(argv), Case(f"{argv} --out a.csv", same=argv)


MOMENTUM = "--momentum 0.5,0.5,0.5,0.5,0,0"
VARIANTS = ("--variant symmetric", "--variant as-printed")

CASES = (
    Case("wigner --observer-speed 0.8 --particle-speed 0.8",
         out="delta_rad 0.489957326254\ndelta_deg 28.0724869359\n", process=True),
    Case("wigner --observer-speed 1.5 --particle-speed 0.8", 2,
         "error: observer speed must lie in [0, 1), got 1.5"),
    Case("wigner --observer-speed 1.0 --particle-speed 0.5", 2,
         "error: observer speed must lie in [0, 1), got 1.0", process=True),
    Case("scan fig2 --grid 5"),
    *_stdout_and_out("scan fig2"),
    Case("scan fig2 --variant symmetric", same="scan fig2"),
    *_stdout_and_out("scan fig2 --grid 7 --variant as-printed --momentum product"),
    *_stdout_and_out(f"scan fig2 --grid 9 --alpha 1.0 {MOMENTUM}"),
    *_stdout_and_out("scan fig3 --spin w"),
    *_stdout_and_out(f"scan fig3 --grid 5 {MOMENTUM}"),
    *_stdout_and_out("scan fig3 --grid 5 --alpha 0.3"),
    Case("scan fig3 --spin ghz"),
    Case("scan fig3 --momentum product"),
    # the 2-point scan is the header and the two end deltas of the 121-point
    # one, also for the sparse product momentum, whose live columns must not
    # depend on the grid
    *(Case(f"scan fig3 {flags} --grid 2", same=f"scan fig3 {flags}",
           lines=(slice(0, 8), slice(-6, None)))
      for flags in ("--spin ghz", "--spin w", "--momentum product")),
    Case("scan fig3 --grid 3"),
    Case("scan fig3 --grid 5 --momentum product"),
    Case("scan fig2 --grid 1", 2, "error: --grid must be at least 2"),
    # argparse's exits are main's return codes: 0 for --help, and an
    # unknown option exits 2 with the usage error on stderr
    Case("scan --help", process=True),
    Case("scan fig2 --threads 2", 2, "spinboost: error: unrecognized arguments: --threads 2",
         process=True),
    Case("scan fig2 --momentum 1,2", 2, "error: custom momentum needs 6"),
    Case("scan fig2 --momentum 1,1,0,0,0,0", 2, "permutation coefficients are not normalized"),
    Case("scan fig2 --momentum a,b,c,d,e,f", 2, "error: cannot parse momentum coefficients"),
    # a flag the figure never reads is bad input, not silently ignored
    Case("scan fig2 --spin w", 2, "error: --spin does not apply to fig2"),
    Case("scan fig2 --spin ghz --grid 3", 2, "error: --spin does not apply to fig2"),
    Case("scan fig3 --variant as-printed --grid 3", 2, "error: --variant does not apply"),
    Case("scan fig3 --spin w --alpha 0.3 --grid 3", 2, "error: --alpha does not apply"),
    # a non-finite angle is bad input, not nan rows or a math-domain traceback;
    # a NaN coefficient is not dropped as a negligible weight
    *(Case(f"scan {fig} --grid 3 --alpha={alpha}", 2, "error: alpha must be finite")
      for fig in ("fig2", "fig3") for alpha in ("nan", "inf", "-inf")),
    *(Case(f"scan {fig} --grid 3 --momentum nan,0,0,0,0,1", 2,
           "error: permutation coefficients are not normalized") for fig in ("fig2", "fig3")),
    # in-process under pytest's filterwarnings = error: a RuntimeWarning fails them
    *(Case(f"check {args}") for args in (
        "condition1 --trials 2", "condition1 --trials 300", "condition2 --trials 120",
        "condition2 --trials 130", "soundness --trials 50", "soundness --trials 2500")),
    Case("boost s.json --out o.json", 2, "error: boost needs either --delta or both"),
    Case("boost s.json --observer-speed 0.8 --particle-speed 0.8 --out o.json"),
    Case("boost s.json --observer-speed 0.6 --particle-speed 0.9 --out os.json"),
    Case("boost spin.json --delta 0.3 --out o.json", 2, "(momentum info required)"),
    Case("boost s.json --delta 0.3 --out o.json --spin-out /nonexistent/r.json", 2,
         "error: cannot write /nonexistent/r.json", process=True),
    Case("boost s.json --delta 0.3 --out same.json --spin-out ./same.json", 2,
         "error: cannot write same.json and ./same.json: they name one file", process=True),
    Case("boost s.json --observer-speed 0.6 --particle-speed 1.0 --out op.json", 2,
         "error: particle speed must lie in [0, 1), got 1.0", process=True),
    Case("boost e11.json --delta 0.3 --out e11o.json --spin-out e11r.json", 2,
         "error: e11.json: composite state is not normalized", process=True),
    Case("witness os.json"),
    # a spin vector and its projector print the same witness
    *(Case(f"witness v.json {variant}") for variant in VARIANTS),
    *(Case(f"witness vr.json {v}", same=f"witness v.json {v}") for v in VARIANTS),
    Case("witness b.json", 2, "error: b.json: amps[0] is not a [re, im] pair"),
    Case("witness big.json", 2, "error: big.json: composite state is not normalized",
         process=True),
    # a file json cannot decode, as text or as a document, is bad input too
    Case("witness bom.json", 2, "error: bom.json is not valid JSON: 'utf-16-le' codec",
         process=True),
    Case("boost deep.json --delta 0.3 --out o.json", 2,
         "error: deep.json is not valid JSON: maximum recursion depth", process=True),
    Case("witness digits.json", 2, "error: digits.json is not valid JSON: Exceeds the limit"),
)
