"""The four benchmark workloads: their CLI requests, inputs and checks.

A workload is a list of requests that make up one pass.  A request is one
or more ``spinboost.cli.main(argv)`` calls, timed together, plus a check
of what they printed and wrote.  Operations are the unit ``ops_per_s``
counts: a fig2 grid cell, a fig3 (spin, delta) group of six values, a
property-check suite run, or a state-file request.

An operation fails when its request raises, exits nonzero or prints FAIL,
when a value misses the independent reference (reference.py) by more than
ATOL_PATHS, or when its output bytes differ from the first pass.  Misses
beyond CONDITIONING_TOL, broken output and changed bytes also make the
run incorrect; misses between the two tolerances are the sqrt(eps)
roundoff the witness's square roots amplify, counted but tolerated.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

ATOL_PATHS = 1e-10  # the program's agreement bound between evaluation routes
CONDITIONING_TOL = math.sqrt(np.finfo(float).eps)  # roundoff eps -> sqrt(eps)

SUITES = ("condition1", "condition2", "soundness")


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is what the benchmark measures, SMOKE is for tests."""

    fig2_grid: int = 61
    fig3_grid: int = 121
    trials: int | None = None  # None keeps each suite's default trial count
    state_files: int = 24


FULL = Size()
SMOKE = Size(fig2_grid=4, fig3_grid=4, trials=2, state_files=3)


@dataclass(frozen=True)
class Outcome:
    failed: int  # operations that failed
    gross: bool  # the output is wrong beyond roundoff, broken or changed
    fingerprint: object  # compared with the first pass's
    note: str = ""


@dataclass(frozen=True)
class Request:
    label: str
    argvs: tuple[tuple[str, ...], ...]
    ops: int
    # (stdouts, first-pass fingerprint or None) -> Outcome
    check: Callable[[list[str], object], Outcome]

    def evaluate(self, results, first) -> Outcome:
        """Check (exit code, stdout, stderr) of each of the request's calls."""
        for rc, out, err in results:
            if rc != 0 or "FAIL" in out:
                tail = err.strip()[-300:]
                return _broken(self.ops, f"{self.label}: exit {rc} {tail}")
        return self.check([out for _, out, _ in results], first)


def _deviation_outcome(dev, changed, fingerprint, what: str) -> Outcome:
    """Per-operation deviations and byte changes -> Outcome."""
    dev = np.asarray(dev, dtype=float)
    changed = np.asarray(changed, dtype=bool)
    strict = ~(dev <= ATOL_PATHS) | changed  # NaN counts as a miss
    gross = bool(np.any(~(dev <= CONDITIONING_TOL)) or np.any(changed))
    note = ""
    if strict.any():
        note = (
            f"{what}: {int(strict.sum())} of {dev.size} ops failed, max deviation "
            f"{np.nanmax(dev):.3e}, {int(changed.sum())} changed since the first pass"
        )
    return Outcome(int(strict.sum()), gross, fingerprint, note)


def _broken(ops: int, what: str) -> Outcome:
    return Outcome(ops, True, None, what)


# --- fig2_surface -------------------------------------------------------------

FIG2_HEADER = "alpha,delta,witness,gme_bound"


def check_fig2(text: str, ref, first) -> Outcome:
    """One op per grid cell: all four columns against the reference."""
    n = ref[0].size
    lines = text.splitlines()
    if len(lines) != n + 1 or lines[0] != FIG2_HEADER:
        return _broken(n, f"fig2: expected header and {n} rows")
    try:
        rows = np.array(",".join(lines[1:]).split(","), dtype=float).reshape(n, 4)
    except ValueError:
        return _broken(n, "fig2: unparsable rows")
    dev = np.max(np.abs(rows - np.stack(ref, axis=1)), axis=1)
    changed = np.zeros(n, dtype=bool) if first is None else np.array(
        [a != b for a, b in zip(lines[1:], first[1:])]
    )
    return _deviation_outcome(dev, changed, lines, "fig2")


def fig2_surface(seed: int, size: Size, workdir: Path):
    """Both momentum scans of the paper's Fig. 2 surface; inputs are fixed."""
    requests, warmup = [], []
    grid = str(size.fig2_grid)
    for momentum in ("antisymmetric", "product"):
        ref = reference.fig2_surface(momentum, size.fig2_grid)
        argv = ("scan", "fig2", "--grid", grid, "--momentum", momentum)
        requests.append(
            Request(
                f"scan fig2 {momentum}",
                (argv,),
                size.fig2_grid**2,
                lambda outs, first, ref=ref: check_fig2(outs[0], ref, first),
            )
        )
        warmup.append(("scan", "fig2", "--grid", "2", "--momentum", momentum))
    return warmup, requests


# --- fig3_sweep ---------------------------------------------------------------

FIG3_NAMES = tuple(name for name, _ in reference.FIG3_PARTITIONS)


def check_fig3(text: str, ref, first) -> Outcome:
    """One op per delta: the six m-concurrences of that row group."""
    deltas, values = ref
    g, k = values.shape
    lines = text.splitlines()
    if (
        len(lines) != 2 + g * k
        or not lines[0].startswith("# partitions:")
        or lines[1] != "delta,partition,m_concurrence"
    ):
        return _broken(g, f"fig3: expected two header lines and {g * k} rows")
    try:
        cells = [line.split(",") for line in lines[2:]]
        names = [c[1] for c in cells]
        got = np.array([[float(c[0]), float(c[2])] for c in cells])
    except (ValueError, IndexError):
        return _broken(g, "fig3: unparsable rows")
    if names != list(FIG3_NAMES) * g:
        return _broken(g, "fig3: partitions out of catalogue order")
    got = got.reshape(g, k, 2)
    dev = np.maximum(
        np.abs(got[:, :, 0] - deltas[:, None]).max(axis=1),
        np.abs(got[:, :, 1] - values).max(axis=1),
    )
    if first is None:
        changed = np.zeros(g, dtype=bool)
    else:
        diff = [a != b for a, b in zip(lines[2:], first[2:])]
        changed = np.array(diff).reshape(g, k).any(axis=1) | (lines[0] != first[0])
    return _deviation_outcome(dev, changed, lines, "fig3")


def fig3_sweep(seed: int, size: Size, workdir: Path):
    """The Fig. 3 m-concurrence sweep for GHZ and W spins; inputs are fixed."""
    requests, warmup = [], []
    grid = str(size.fig3_grid)
    for spin in ("ghz", "w"):
        ref = reference.fig3_sweep(spin, size.fig3_grid)
        argv = ("scan", "fig3", "--grid", grid, "--spin", spin)
        requests.append(
            Request(
                f"scan fig3 {spin}",
                (argv,),
                size.fig3_grid,
                lambda outs, first, ref=ref: check_fig3(outs[0], ref, first),
            )
        )
        warmup.append(("scan", "fig3", "--grid", "2", "--spin", spin))
    return warmup, requests


# --- property_checks ----------------------------------------------------------


def check_suite(text: str, suite: str, first) -> Outcome:
    """One op per suite run: it must end in PASS and repeat its bytes."""
    lines = text.splitlines()
    if not lines or lines[-1] != f"{suite}: PASS":
        return _broken(1, f"{suite}: no PASS verdict")
    if first is not None and text != first:
        return _broken(1, f"{suite}: output changed since the first pass")
    return Outcome(0, False, text)


def property_checks(seed: int, size: Size, workdir: Path):
    """The three property suites, each with a seed derived from the workload's."""
    suite_seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=len(SUITES))
    trials = () if size.trials is None else ("--trials", str(size.trials))
    requests, warmup = [], []
    for suite, suite_seed in zip(SUITES, suite_seeds):
        argv = ("check", suite, "--seed", str(int(suite_seed))) + trials
        requests.append(
            Request(
                f"check {suite}",
                (argv,),
                1,
                lambda outs, first, suite=suite: check_suite(outs[0], suite, first),
            )
        )
        warmup.append(("check", suite, "--trials", "1"))
    return warmup, requests


# --- state_files --------------------------------------------------------------

COMPOSITE_DIMS = [3, 2, 3, 2, 3, 2]


def _amps(vec) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in vec]


def _line_value(text: str, prefix: str) -> float:
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    raise ValueError(f"no line starting with {prefix!r}")


def check_state_file(outs: list[str], spin_path: Path, out_path: Path, ref, first):
    """One op per request: the written spin matrix and every printed witness
    value against the reference, and all bytes against the first pass."""
    rho_ref, w_sym, w_printed = ref
    boost_out, witness_out = outs
    try:
        spin_bytes = spin_path.read_bytes()
        out_bytes = out_path.read_bytes()
        raw = np.array(json.loads(spin_bytes)["matrix"], dtype=float)
        rho = raw[..., 0] + 1j * raw[..., 1]
        if rho.shape != (8, 8):
            raise ValueError(f"spin matrix has shape {rho.shape}")
        dev = max(
            float(np.abs(rho - rho_ref).max()),
            abs(_line_value(boost_out, "witness ") - w_sym),
            abs(_line_value(witness_out, "value ") - w_sym),
            abs(_line_value(witness_out, "variant symmetric: ") - w_sym),
            abs(_line_value(witness_out, "variant as_printed: ") - w_printed),
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _broken(1, f"state file request: {exc}")
    digest = hashlib.sha256()
    for part in (boost_out.encode(), witness_out.encode(), spin_bytes, out_bytes):
        digest.update(part)
    fingerprint = digest.hexdigest()
    changed = first is not None and fingerprint != first
    return _deviation_outcome([dev], [changed], fingerprint, "state file")


def _haar(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _member(rng, kind: str) -> np.ndarray:
    if kind == "haar":
        return _haar(rng, 216)
    return reference.compose(_haar(rng, 27), _haar(rng, 8))


def make_state_files(seed: int, count: int, workdir: Path):
    """Write `count` seeded state files: Haar composite states, product-form
    states, and mixtures of 2, 3 or 4 such members, in rotation.  The seed
    draws amplitudes, weights and angles; the mix of kinds and sizes, and so
    the work per pass, is the same for every seed.  Returns
    (path, delta, weights, vectors) per file."""
    rng = np.random.default_rng(seed)
    files = []
    for i in range(count):
        kind = ("haar", "product", "mixed")[i % 3]
        if kind == "mixed":
            k = 2 + (i // 3) % 3
            weights = rng.dirichlet(np.ones(k))
            vectors = [_member(rng, ("haar", "product")[j % 2]) for j in range(k)]
            doc = {
                "ensemble": [
                    {"weight": float(w), "amps": _amps(v)}
                    for w, v in zip(weights, vectors)
                ]
            }
        else:
            weights = np.ones(1)
            vectors = [_member(rng, kind)]
            doc = {"dims": COMPOSITE_DIMS, "amps": _amps(vectors[0])}
        delta = float(rng.uniform(0.0, math.pi / 2.0))
        path = workdir / f"state{i:03d}-{kind}.json"
        path.write_text(json.dumps(doc) + "\n")
        files.append((path, delta, weights, np.array(vectors)))
    return files


def state_files(seed: int, size: Size, workdir: Path):
    """Boost each seeded state file and evaluate the witness on the result."""
    requests = []
    for i, (path, delta, weights, vectors) in enumerate(
        make_state_files(seed, size.state_files, workdir)
    ):
        rho = reference.boosted_spin_density(weights, vectors, delta)
        ref = (
            rho,
            float(reference.witness(rho)[0]),
            float(reference.witness(rho, "as_printed")[0]),
        )
        out = workdir / f"boosted{i:03d}.json"
        spin = workdir / f"spin{i:03d}.json"
        argvs = (
            ("boost", str(path), "--delta", repr(delta), "--out", str(out),
             "--spin-out", str(spin)),
            ("witness", str(out)),
        )
        requests.append(
            Request(
                f"boost+witness {path.name}",
                argvs,
                1,
                lambda outs, first, s=spin, o=out, r=ref: check_state_file(
                    outs, s, o, r, first
                ),
            )
        )
    return list(requests[0].argvs), requests


WORKLOAD_FUNCTIONS = {
    "fig2_surface": fig2_surface,
    "fig3_sweep": fig3_sweep,
    "property_checks": property_checks,
    "state_files": state_files,
}
