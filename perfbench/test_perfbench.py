"""The benchmark's own tests: schema, exact traced counts, and that the
correctness checks can fail.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_the_spec():
    assert WORKLOADS == list(workloads.WORKLOAD_FUNCTIONS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    result = _result(proc)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "\n# raw: ops_per_s " in proc.stdout  # the unscaled timings


def test_scaling_keeps_a_slower_program_slower():
    # the same host speed scales both times alike; a slower host is removed
    assert hostspeed.scale(2.0, 0.005, 0.005) == pytest.approx(2.0)
    assert hostspeed.scale(2.0, 0.01, 0.01) == pytest.approx(1.0)
    assert hostspeed.scale(3.0, 0.005, 0.005) > hostspeed.scale(2.0, 0.005, 0.005)
    assert hostspeed.probe() > 0.0
    assert hostspeed.probe_start(ROOT, None) > 0.0


# Exact call counts at the smoke size (grid 4, 2 trials).  At the full size
# the same formulas give 22326 local_unitary calls for the antisymmetric
# fig2 scan, 1452 m_concurrence_pure calls per fig3 pass and 4200
# hermitian_eigen / partial_trace calls per property_checks pass.
SMOKE_COUNTS = {
    "fig2_surface": {
        "kinematics.local_unitary.calls": 16 * 6 + 16,
        "kinematics.default_geometry.calls_per_geometry": 16,
    },
    "fig3_sweep": {"measures.m_concurrence_pure.calls": 4 * 6 * 2},
    "property_checks": {
        "linalg.hermitian_eigen.calls": 2 * (3 + 27 * 3),
        "linalg.partial_trace.calls": 2 * (3 + 27 * 3),
    },
    "state_files": {"cli.cmd_boost.calls": 3, "cli.cmd_witness.calls": 3},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_every_per_layer_metric(workload):
    result = _result(_run(workload, 1))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("per_layer")
    for name, count in SMOKE_COUNTS[workload].items():
        assert result["metrics"][name]["value"] == count, name


def test_tracer_reaches_names_bound_by_from_import():
    import spinboost.classcheck
    import spinboost.cli
    import spinboost.measures

    original = spinboost.measures.m_concurrence_pure
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (spinboost.cli, spinboost.classcheck, spinboost.measures):
            assert module.m_concurrence_pure is not original
        with contextlib.redirect_stdout(io.StringIO()):
            spinboost.cli.main(["scan", "fig3", "--grid", "2"])
    finally:
        tracer.restore()
    assert spinboost.cli.m_concurrence_pure is original
    assert tracer.metrics()["measures.m_concurrence_pure.calls"] == 2 * 6


def test_a_directory_without_the_program_fails_without_a_result():
    bare = ROOT / ".perfbench_work" / "bare-test"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("fig2_surface", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- the checks fail on wrong output ----------------------------------------


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".12g")


def _fig2_text(ref) -> str:
    rows = ["alpha,delta,witness,gme_bound"]
    rows += [",".join(_fmt(v) for v in row) for row in zip(*ref)]
    return "\n".join(rows) + "\n"


def test_fig2_check_counts_a_perturbed_value_and_a_changed_byte():
    ref = reference.fig2_surface("product", 3)
    text = _fig2_text(ref)
    first = workloads.check_fig2(text, ref, None)
    assert (first.failed, first.gross) == (0, False)

    lines = text.splitlines()
    alpha, delta, w, g = (float(x) for x in lines[5].split(","))
    for shift, gross in ((1e-9, False), (1e-6, True)):  # against the reference
        bad = lines.copy()
        bad[5] = ",".join(_fmt(v) for v in (alpha, delta, w + shift, g))
        outcome = workloads.check_fig2("\n".join(bad), ref, None)
        assert (outcome.failed, outcome.gross) == (1, gross)

    same_value = lines.copy()
    same_value[5] = same_value[5].replace(",", ",+", 1)  # same numbers, new bytes
    outcome = workloads.check_fig2("\n".join(same_value), ref, first.fingerprint)
    assert (outcome.failed, outcome.gross) == (1, True)


def test_fig3_check_counts_a_perturbed_value_and_a_changed_byte():
    deltas, values = reference.fig3_sweep("w", 3)
    lines = ["# partitions: catalogue", "delta,partition,m_concurrence"]
    for d, row in zip(deltas, values):
        lines += [f"{_fmt(d)},{name},{_fmt(v)}"
                  for name, v in zip(workloads.FIG3_NAMES, row)]
    first = workloads.check_fig3("\n".join(lines), (deltas, values), None)
    assert (first.failed, first.gross) == (0, False)

    bad = lines.copy()
    bad[9] = bad[9].rsplit(",", 1)[0] + "," + _fmt(values[1, 1] + 1e-8)
    outcome = workloads.check_fig3("\n".join(bad), (deltas, values), first.fingerprint)
    assert outcome.failed == 1

    bad = lines.copy()
    bad[0] += " "
    outcome = workloads.check_fig3("\n".join(bad), (deltas, values), first.fingerprint)
    assert (outcome.failed, outcome.gross) == (3, True)


def test_suite_check_needs_pass_and_the_same_bytes():
    first = workloads.check_suite("summary\nsoundness: PASS\n", "soundness", None)
    assert first.failed == 0
    changed = workloads.check_suite("summary \nsoundness: PASS\n", "soundness",
                                    first.fingerprint)
    assert changed.failed == 1 and changed.gross
    assert workloads.check_suite("soundness: FAIL\n", "soundness", None).failed == 1


def test_state_file_check_reads_the_written_matrix():
    work = ROOT / ".perfbench_work" / "check-test"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rho = np.diag(np.full(8, 1 / 8)).astype(complex)
        ref = (rho, -0.75, -0.75 + 0.0)
        spin, out = work / "spin.json", work / "out.json"
        out.write_text("{}\n")

        def write(matrix):
            doc = {"dims": [2, 2, 2],
                   "matrix": [[[z.real, z.imag] for z in row] for row in matrix]}
            spin.write_text(json.dumps(doc))

        outs = ["witness -0.75\n",
                "value -0.75  (variant symmetric)\nvariant symmetric: -0.75\n"
                "variant as_printed: -0.75\n"]
        write(rho)
        first = workloads.check_state_file(outs, spin, out, ref, None)
        assert (first.failed, first.gross) == (0, False)
        bad = rho.copy()
        bad[0, 7] = 1e-7
        write(bad)
        outcome = workloads.check_state_file(outs, spin, out, ref, first.fingerprint)
        assert (outcome.failed, outcome.gross) == (1, True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_reference_spot_values():
    # unboosted GHZ: witness 1; delta = 0 leaves spins and momenta unentangled
    ghz = reference.compose(reference.permutation_momentum(
        reference.momentum_coeffs("product")), reference.ghz_alpha(math.pi / 4))
    rho = reference.spin_density(reference.boost(ghz[None], [0.0]))
    assert reference.witness(rho)[0] == pytest.approx(1.0, abs=1e-15)
    deltas, values = reference.fig3_sweep("ghz", 3)
    assert values[0, 0] < 1e-12
    tree = ast.parse((HERE / "reference.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "itertools", "math", "numpy"}
