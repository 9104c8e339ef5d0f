"""Command-line interface: schemas, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from spinboost import (
    BoostScenario,
    NumericError,
    antisymmetric_coeffs,
    antisymmetric_momentum,
    boosted_spin_density_fast,
    compose,
    ghz_alpha,
    ghz_state,
    ghz_witness,
    read_state,
    w_state,
    write_state,
)
from spinboost import cli
from spinboost.linalg import projector


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_wigner_prints_frozen_value(capsys):
    code, out, _ = run(
        ["wigner", "--observer-speed", "0.8", "--particle-speed", "0.8"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "delta_rad 0.489957326254"
    assert lines[1].startswith("delta_deg 28.07248693")


def test_wigner_rejects_bad_speed(capsys):
    code, _, err = run(
        ["wigner", "--observer-speed", "1.5", "--particle-speed", "0.8"], capsys
    )
    assert code == 2
    assert "error" in err


def test_scan_fig2_schema(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    code, _, _ = run(
        ["scan", "fig2", "--grid", "13", "--out", str(out_path)], capsys
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "alpha,delta,witness,gme_bound"
    assert len(lines) == 1 + 13 * 13
    for row in lines[1:]:
        alpha, delta, wit, bound = (float(tok) for tok in row.split(","))
        assert 0.0 <= alpha <= math.pi + 1e-12
        assert 0.0 <= delta <= math.pi / 2 + 1e-12
        assert abs(bound - max(0.0, wit)) < 1e-12


def test_scan_fig2_alpha_override(capsys):
    code, out, _ = run(["scan", "fig2", "--grid", "5", "--alpha", "0.5"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 5
    assert all(row.startswith("0.5,") for row in rows)


def test_scan_fig3_schema(tmp_path, capsys):
    out_path = tmp_path / "fig3.csv"
    code, _, _ = run(
        ["scan", "fig3", "--grid", "7", "--spin", "w", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# partitions: ")
    assert "spins_vs_momenta=1,3,5|0,2,4" in lines[0]
    assert "particles=0,1|2,3|4,5" in lines[0]
    assert lines[1] == "delta,partition,m_concurrence"
    body = lines[2:]
    assert len(body) == 7 * 6
    names = [row.split(",")[1] for row in body[:6]]
    assert names == [
        "spins_vs_momenta",
        "particles",
        "singletons",
        "spin1_vs_rest",
        "spin2_vs_rest",
        "spin3_vs_rest",
    ]
    values = [float(row.rsplit(",", 1)[1]) for row in body]
    assert all(v >= -1e-12 for v in values)


def test_scan_deterministic_and_thread_invariant(tmp_path, capsys):
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    run(["scan", "fig2", "--grid", "9", "--out", str(paths[0])], capsys)
    run(["scan", "fig2", "--grid", "9", "--out", str(paths[1])], capsys)
    run(
        ["scan", "fig2", "--grid", "9", "--threads", "4", "--out", str(paths[2])],
        capsys,
    )
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_scan_fig3_threads_match(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["scan", "fig3", "--grid", "6", "--out", str(a)], capsys)
    run(["scan", "fig3", "--grid", "6", "--threads", "3", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_scan_custom_momentum(capsys):
    s = "%.17g" % (1 / math.sqrt(2))
    code, out, _ = run(
        ["scan", "fig2", "--grid", "3", "--alpha", "0.7853981633974483",
         "--momentum", f"{s},0,0,0,0,{s}"],
        capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("variant", ["symmetric", "as-printed"])
def test_scan_fig2_matches_per_point_witness(variant, capsys):
    # Every cell of a whole fig2 CSV against the per-point route: the
    # fast density of one (alpha, delta) pair and the matrix witness.
    alphas = np.linspace(0.0, math.pi, 7)
    deltas = np.linspace(0.0, math.pi / 2.0, 7)
    custom = np.array([0.5, 0.5j, -0.5, 0.3 + 0.4j, 0.0, 0.0])
    momenta = {
        "antisymmetric": antisymmetric_coeffs(),
        "product": np.eye(6)[0],
        "0.5,0.5j,-0.5,0.3+0.4j,0,0": custom,
    }
    for spec, coeffs in momenta.items():
        code, out, _ = run(
            ["scan", "fig2", "--grid", "7", "--momentum", spec,
             "--variant", variant],
            capsys,
        )
        assert code == 0
        rows = [
            [float(tok) for tok in row.split(",")] for row in out.splitlines()[1:]
        ]
        assert len(rows) == 7 * 7
        cells = [(a, d) for a in alphas for d in deltas]
        for (alpha, delta), (a, d, wit, bound) in zip(cells, rows):
            assert abs(a - alpha) < 1e-11 and abs(d - delta) < 1e-11
            rho = boosted_spin_density_fast(
                coeffs, ghz_alpha(alpha), BoostScenario.from_angle(delta)
            )
            expected = ghz_witness(rho, variant=variant.replace("-", "_")).value
            symmetric = ghz_witness(rho, variant="symmetric").value
            assert abs(wit - expected) < 1e-12
            assert abs(bound - max(0.0, symmetric)) < 1e-12


def test_scan_fig2_cell_matches_mpmath(capsys):
    # The fig2 cell alpha = 0.8 pi, delta = 0.4 pi (antisymmetric momentum),
    # evaluated from the definitions at 30 digits.  Its populations 1, 2
    # and 4 vanish, so roundoff in them would show as ~1e-9 here.
    mp = pytest.importorskip("mpmath")
    alpha = float(np.linspace(0.0, math.pi, 61)[48])
    delta = float(np.linspace(0.0, math.pi / 2, 61)[48])
    code, out, _ = run(
        ["scan", "fig2", "--alpha", repr(alpha), "--grid", "61"], capsys
    )
    assert code == 0
    printed = float(out.splitlines()[1 + 48].split(",")[2])

    with mp.workdps(30):
        c, s = mp.cos(mp.mpf(delta) / 2), mp.sin(mp.mpf(delta) / 2)
        rot = []
        for p in range(3):  # axis z x d_p, d_p at azimuth 120 p degrees
            az = 2 * mp.pi * p / 3
            nx, ny = -mp.sin(az), mp.cos(az)
            rot.append(mp.matrix([[c, -1j * s * (nx - 1j * ny)],
                                  [-1j * s * (nx + 1j * ny), c]]))
        phi = {(0, 0, 0): mp.sin(mp.mpf(alpha)), (1, 1, 1): mp.cos(mp.mpf(alpha))}
        perms = ((0, 1, 2), (0, 2, 1), (1, 2, 0), (1, 0, 2), (2, 0, 1), (2, 1, 0))
        pops = [mp.mpf(0)] * 8
        rho07 = mp.mpc(0)
        for perm in perms:  # each term has weight 1/6
            psi = []
            for j in range(8):
                bits = ((j >> 2) & 1, (j >> 1) & 1, j & 1)
                psi.append(sum(
                    amp * rot[perm[0]][bits[0], i[0]] * rot[perm[1]][bits[1], i[1]]
                    * rot[perm[2]][bits[2], i[2]]
                    for i, amp in phi.items()
                ))
            pops = [p + abs(a) ** 2 / 6 for p, a in zip(pops, psi)]
            rho07 += psi[0] * mp.conj(psi[7]) / 6
        exact = 2 * abs(rho07) - 2 * sum(
            mp.sqrt(pops[i] * pops[j]) for i, j in ((1, 6), (2, 5), (4, 3))
        )
        assert abs(exact - mp.mpf("0.293892626146237")) < 1e-14
    assert abs(printed - float(exact)) < 1e-10


def test_scan_rejects_bad_input(capsys):
    assert run(["scan", "fig2", "--grid", "1"], capsys)[0] == 2
    assert run(["scan", "fig2", "--threads", "0"], capsys)[0] == 2
    assert run(["scan", "fig2", "--momentum", "1,2"], capsys)[0] == 2
    assert run(["scan", "fig2", "--momentum", "1,1,0,0,0,0"], capsys)[0] == 2
    assert run(["scan", "fig2", "--momentum", "a,b,c,d,e,f"], capsys)[0] == 2
    # a non-finite angle is bad input, not nan rows or a math-domain
    # traceback; a NaN coefficient is not dropped as a negligible weight
    for figure in ("fig2", "fig3"):
        for alpha in ("nan", "inf", "-inf"):
            code, out, err = run(
                ["scan", figure, "--grid", "3", f"--alpha={alpha}"], capsys
            )
            assert (code, out) == (2, "") and "alpha must be finite" in err
        code, out, err = run(
            ["scan", figure, "--grid", "3", "--momentum", "nan,0,0,0,0,1"], capsys
        )
        assert (code, out) == (2, "")
        assert "permutation coefficients are not normalized" in err


def test_witness_command_spin_file(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    write_state(ghz_state(), path)
    code, out, _ = run(["witness", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "value 1  (variant symmetric)"
    assert "entanglement detected" in out

    write_state(w_state(), path)
    code, out, _ = run(["witness", str(path)], capsys)
    assert code == 0
    assert "not detected" in out


def test_witness_command_composite_file(tmp_path, capsys):
    path = tmp_path / "comp.json"
    write_state(compose(antisymmetric_momentum(), ghz_state()), path)
    code, out, _ = run(["witness", str(path), "--variant", "as-printed"], capsys)
    assert code == 0
    assert "(variant as-printed)" in out.splitlines()[0]
    assert "paths_max_deviation" in out


def test_witness_command_validates_once(tmp_path, monkeypatch, capsys):
    # one density check (one eigensolve) covers all four witness evaluations
    from spinboost import linalg

    calls = []
    eigen = linalg.hermitian_eigen
    monkeypatch.setattr(
        linalg, "hermitian_eigen", lambda h: calls.append(1) or eigen(h)
    )
    path = tmp_path / "comp.json"
    write_state(compose(antisymmetric_momentum(), ghz_state()), path)
    assert run(["witness", str(path)], capsys)[0] == 0
    assert len(calls) == 1


def test_witness_command_rejects_non_density(tmp_path, monkeypatch, capsys):
    # state files always reduce to valid densities; force a defective one
    path = tmp_path / "ghz.json"
    write_state(ghz_state(), path)
    monkeypatch.setattr(cli, "_spin_density_of", lambda state: 2 * projector(state))
    code, _, err = run(["witness", str(path)], capsys)
    assert code == 2
    assert "not a density matrix" in err


def test_witness_command_missing_file(tmp_path, capsys):
    code, _, err = run(["witness", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "error" in err


def test_boost_command_roundtrip(tmp_path, capsys):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    spin_dst = tmp_path / "rho.json"
    state = compose(antisymmetric_momentum(), ghz_state())
    write_state(state, src)
    code, out, _ = run(
        ["boost", str(src), "--delta", "0.7", "--out", str(dst),
         "--spin-out", str(spin_dst)],
        capsys,
    )
    assert code == 0
    assert "delta_rad 0.7" in out
    boosted = read_state(dst)
    assert abs(np.linalg.norm(boosted.vector) - 1.0) < 1e-12

    doc = json.loads(spin_dst.read_text())
    assert doc["dims"] == [2, 2, 2]
    rho = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    np.testing.assert_allclose(rho, boosted.spin_density(), atol=1e-12)
    # the printed witness matches a recomputation from the written matrix
    from spinboost import ghz_witness

    printed = float(out.splitlines()[-1].split()[1])
    assert abs(printed - ghz_witness(rho, validate=False).value) < 1e-10


def test_boost_command_needs_angle_or_speeds(tmp_path, capsys):
    src = tmp_path / "in.json"
    write_state(compose(antisymmetric_momentum(), ghz_state()), src)
    code, _, err = run(
        ["boost", str(src), "--out", str(tmp_path / "o.json")], capsys
    )
    assert code == 2
    assert "delta" in err

    code, _, _ = run(
        ["boost", str(src), "--observer-speed", "0.8", "--particle-speed",
         "0.8", "--out", str(tmp_path / "o.json")],
        capsys,
    )
    assert code == 0


def test_boost_command_rejects_spin_only_file(tmp_path, capsys):
    src = tmp_path / "spin.json"
    write_state(ghz_state(), src)
    code, _, err = run(
        ["boost", str(src), "--delta", "0.3", "--out", str(tmp_path / "o.json")],
        capsys,
    )
    assert code == 2
    assert "momentum" in err


def test_check_suites_pass(capsys):
    for suite, trials in (("condition1", "3"), ("condition2", "3"),
                          ("soundness", "20")):
        code, out, _ = run(["check", suite, "--trials", trials], capsys)
        assert code == 0, out
        assert f"{suite}: PASS" in out


def test_check_seed_changes_runs(capsys):
    _, out_a, _ = run(["check", "soundness", "--trials", "5", "--seed", "1"], capsys)
    _, out_b, _ = run(["check", "soundness", "--trials", "5", "--seed", "2"], capsys)
    assert out_a != out_b  # max reported value depends on the draw


def test_check_failure_exits_one(monkeypatch, capsys):
    # a witness that flags a known biseparable state must fail the suite
    monkeypatch.setattr(
        cli, "sample_biseparable", lambda spec, n, rng: projector(ghz_state())
    )
    code, out, _ = run(["check", "soundness", "--trials", "3"], capsys)
    assert code == 1
    assert "soundness: FAIL" in out
    assert "FAIL sample" in out


def test_numeric_error_maps_to_exit_three(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericError("did not converge")

    monkeypatch.setattr(cli, "wigner_angle", boom)
    code, _, err = run(
        ["wigner", "--observer-speed", "0.5", "--particle-speed", "0.5"], capsys
    )
    assert code == 3
    assert "numeric failure" in err


def test_check_rejects_bad_trials(capsys):
    assert run(["check", "soundness", "--trials", "0"], capsys)[0] == 2


@pytest.mark.parametrize("suite", ["condition1", "condition2", "soundness"])
def test_check_rejects_negative_seed(suite, capsys):
    # exit 1 means a property failed; a seed numpy cannot use is bad input
    code, out, err = run(["check", suite, "--trials", "1", "--seed", "-5"], capsys)
    assert code == 2 and out == ""
    assert "--seed must be nonnegative" in err
