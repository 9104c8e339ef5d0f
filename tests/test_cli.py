"""Command-line interface: schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from cli_contract import CASES, build_input

from spinboost import (
    BoostScenario,
    CompositeState,
    MixedState,
    NumericError,
    antisymmetric_coeffs,
    antisymmetric_momentum,
    boosted_spin_density_fast,
    boosted_spin_terms,
    compose,
    ghz_alpha,
    ghz_state,
    ghz_witness,
    permutation_momentum,
    read_state,
    spin_rotations,
    w_state,
    write_state,
)
from spinboost import classcheck, cli, kinematics
from spinboost.measures import witness_from_amplitudes


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


CONTRACT = {case.argv: case for case in CASES}
SRC = Path(__file__).resolve().parents[1] / "src"


def _check_contract(case, inputs, code, out, err):
    # a failing case prints nothing on stdout and leaves only its input
    assert code == case.code
    assert case.err in err if case.err else err == ""
    if code:
        assert out == "" and sorted(os.listdir()) == inputs
    elif case.out is not None:
        assert out == case.out


def _run_contract(case, capsys):
    # one case in the working directory; a scan's --out file is its output
    build_input(case)
    inputs, argv = sorted(os.listdir()), case.argv.split()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    out, err = capsys.readouterr()
    _check_contract(case, inputs, code, out, err)
    if argv[0] == "scan" and "--out" in argv:
        assert out == ""
        out = Path(argv[argv.index("--out") + 1]).read_bytes().decode()
    return out


@pytest.mark.parametrize("case", CASES, ids=str)
def test_cli_contract(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = _run_contract(case, capsys)
    if case.same is not None:
        lines = _run_contract(CONTRACT[case.same], capsys).splitlines(keepends=True)
        parts = case.lines or [slice(None)]
        assert out == "".join("".join(lines[part]) for part in parts)


@pytest.mark.parametrize("case", [case for case in CASES if case.process], ids=str)
def test_cli_contract_as_process(case, tmp_path, monkeypatch):
    # the checkout's own src/ comes first, so no other installed spinboost
    # stands in for it
    monkeypatch.chdir(tmp_path)
    build_input(case)
    inputs = sorted(os.listdir())
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-W", "error", "-m", "spinboost.cli", *case.argv.split()]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    _check_contract(case, inputs, proc.returncode, proc.stdout.decode(),
                    proc.stderr.decode())


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
    for spin, momentum in (("w", "antisymmetric"), ("ghz", "product")):
        code, _, _ = run(
            ["scan", "fig3", "--grid", "7", "--spin", spin, "--momentum", momentum,
             "--out", str(out_path)],
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
    # a product momentum never entangles spins with momenta: exactly 0, not
    # the square root of roundoff
    assert [row.rsplit(",", 1)[1] for row in body[::6]] == ["0"] * 7


def test_scan_deterministic(tmp_path, capsys):
    paths = [tmp_path / f"run{i}.csv" for i in range(2)]
    run(["scan", "fig2", "--grid", "9", "--out", str(paths[0])], capsys)
    run(["scan", "fig2", "--grid", "9", "--out", str(paths[1])], capsys)
    assert paths[0].read_bytes() == paths[1].read_bytes()


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


def _fig2_row_by_row(coeffs, variant, grid, alpha=None):
    # scan fig2 rendered one alpha row at a time, from public functions: one
    # witness_from_amplitudes call per alpha and one f-string per cell
    momentum = permutation_momentum(coeffs)
    deltas = np.linspace(0.0, math.pi / 2.0, grid)
    rotations = spin_rotations(deltas)
    up, down = (boosted_spin_terms(compose(momentum, basis), rotations).terms()
                for basis in np.eye(8)[[0, 7]])
    lines = ["alpha,delta,witness,gme_bound"]
    for a in [alpha] if alpha is not None else np.linspace(0.0, math.pi, grid):
        spin = ghz_alpha(a)
        chi = spin[0] * up + spin[7] * down
        values = witness_from_amplitudes(chi, variant) + 0.0
        bounds = np.fmax(witness_from_amplitudes(chi), 0.0) + 0.0
        rows = zip(deltas.tolist(), values.tolist(), bounds.tolist())
        lines += [f"{a:.12g},{d:.12g},{v:.12g},{b:.12g}" for d, v, b in rows]
    return "\n".join(lines) + "\n"


FIG2_MOMENTA = {
    "antisymmetric": antisymmetric_coeffs(),
    "product": np.eye(6)[0],
    "0.6,0,0.48+0.64j,0,0,0": np.array([0.6, 0, 0.48 + 0.64j, 0, 0, 0]),
}


@pytest.mark.parametrize("spec", list(FIG2_MOMENTA))
@pytest.mark.parametrize("variant", ["symmetric", "as-printed"])
@pytest.mark.parametrize(
    "sweep", [["--grid", "61"], ["--grid", "2"], ["--alpha", "0.3"]]
)
def test_scan_fig2_bytes_match_row_by_row_rendering(spec, variant, sweep, capsys):
    # the alpha-row blocks and the one %-template per scan change no byte
    coeffs = FIG2_MOMENTA[spec]
    grid = int(sweep[1]) if sweep[0] == "--grid" else 61
    alpha = float(sweep[1]) if sweep[0] == "--alpha" else None
    code, out, _ = run(["scan", "fig2", "--momentum", spec, "--variant", variant]
                       + sweep, capsys)
    assert code == 0
    assert out == _fig2_row_by_row(coeffs, variant.replace("-", "_"), grid, alpha)


@pytest.mark.parametrize("variant", ["symmetric", "as-printed"])
def test_scan_fig2_bound_is_the_symmetric_string_or_zero(variant, monkeypatch, capsys):
    # gme_bound repeats the symmetric witness string where that value is > 0
    # and is 0 elsewhere, NaN and -0.0 included, whichever variant is printed
    edge = [math.nan, -0.0, 0.0, -1e-17, 5e-324, 0.1 + 1e-15, 1.0]
    real = cli.witness_from_amplitudes

    def patched(chi, variant="symmetric"):
        out = real(chi, variant)
        if variant == "symmetric":  # one block holds the whole 9x9 grid
            out.ravel()[:len(edge)] = edge
        return out

    monkeypatch.setattr(cli, "witness_from_amplitudes", patched)
    outs = [run(["scan", "fig2", "--grid", "9", "--variant", v], capsys)[1]
            for v in ("symmetric", variant)]
    symmetric, rows = ([r.split(",") for r in out.splitlines()[1:]] for out in outs)
    assert [r[2] for r in symmetric[:len(edge)]] == [
        "nan", "0", "0", "-1e-17", "4.94065645841e-324", "0.1", "1"]
    for sym, row in zip(symmetric, rows, strict=True):
        assert row[3] == (sym[2] if float(sym[2]) > 0 else "0")


def _fig2_closed_form(alpha, delta):
    """The fig2 witness in closed form: (W_symmetric, W_as_printed).

    Derivation.  In the default geometry the momenta lie in the x-y plane
    at azimuths 0, 120 and 240 degrees and the boost is along z, so label
    p rotates its spin about n_p = z x p_hat, an in-plane axis at azimuth
    theta_p = 90, 210, 330 degrees.  With c = cos(delta/2), s = sin(delta/2),
    U_p = c I - i s (n_p . sigma) has U[0,0] = U[1,1] = c,
    U[1,0] = -i s e^(i theta_p) and U[0,1] = -i s e^(-i theta_p).

    A permutation momentum state sum_k c_k |L_k> has orthogonal kets, so
    the reduced spin state is sum_k |c_k|^2 U_(L_k) |psi><psi| U_(L_k)^H
    with psi = sin(a)|000> + cos(a)|111> (index 0 is up).  Every amplitude
    of U_L psi below depends on the three angles only through their sum,
    630 degrees, i.e. e^(i sum theta) = -i, so it is the same for every
    label assignment L, and the weights |c_k|^2 sum to one: the fig2 output
    does not depend on the momentum coefficients.  The amplitudes are
      000: sin(a) c^3 - cos(a) s^3;      111: sin(a) s^3 + cos(a) c^3;
      one flipped spin:  |amp|^2 = s^2 c^2 sin^2(a + delta/2);
      two flipped spins: |amp|^2 = s^2 c^2 cos^2(a + delta/2).
    Hence, with s c = sin(delta)/2, c^3 s^3 = sin^3(delta)/8 and
    c^6 - s^6 = cos(delta) (1 - sin^2(delta)/4):
      rho07 = [sin 2a (cos^3 delta + 3 cos delta) - cos 2a sin^3 delta] / 8;
      rho11 = rho22 = rho44 = sin^2(delta) sin^2(a + delta/2) / 4;
      rho33 = rho55 = rho66 = sin^2(delta) cos^2(a + delta/2) / 4.
    The symmetric witness 2|rho07| - 2 sum sqrt(rho_ii rho_jj) over the
    pairs (1,6), (2,5), (4,3) is then
      W_sym = 2|rho07| - 3/4 sin^2(delta) |sin(2a + delta)|,
    and the as-printed pairing (1,6), (2,5), (4,4) gives
      W_as_printed = 2|rho07| - 1/2 sin^2(delta) |sin(2a + delta)|
                     - 1/2 sin^2(delta) sin^2(a + delta/2).
    """
    sd, cd = np.sin(delta), np.cos(delta)
    rho07 = (np.sin(2 * alpha) * (cd**3 + 3 * cd) - np.cos(2 * alpha) * sd**3) / 8
    paired = sd**2 * np.abs(np.sin(2 * alpha + delta))
    symmetric = 2 * np.abs(rho07) - 0.75 * paired
    as_printed = (
        2 * np.abs(rho07) - 0.5 * paired - 0.5 * sd**2 * np.sin(alpha + delta / 2) ** 2
    )
    return symmetric, as_printed


@pytest.mark.parametrize("variant", ["symmetric", "as-printed"])
def test_scan_fig2_surface_matches_closed_form(variant, capsys):
    # the whole default 61x61 surface, for momenta with 6, 1 and 6 complex
    # terms, against the frozen formula of _fig2_closed_form
    alphas = np.linspace(0.0, math.pi, 61)
    deltas = np.linspace(0.0, math.pi / 2.0, 61)
    a, d = np.meshgrid(alphas, deltas, indexing="ij")
    symmetric, as_printed = _fig2_closed_form(a, d)
    expected = symmetric if variant == "symmetric" else as_printed
    rng = np.random.default_rng(61)
    custom = rng.normal(size=6) + 1j * rng.normal(size=6)
    custom /= np.linalg.norm(custom)
    momenta = {
        "antisymmetric": antisymmetric_coeffs(),
        "product": np.eye(6)[0],
        ",".join(repr(complex(c)) for c in custom): custom,
    }
    rotations = spin_rotations(deltas)
    for spec, coeffs in momenta.items():
        code, out, _ = run(
            ["scan", "fig2", "--momentum", spec, "--variant", variant], capsys
        )
        assert code == 0
        rows = np.array(
            [[float(tok) for tok in row.split(",")] for row in out.splitlines()[1:]]
        ).reshape(61, 61, 4)
        np.testing.assert_allclose(rows[..., 0], a, rtol=0, atol=1e-11)
        np.testing.assert_allclose(rows[..., 1], d, rtol=0, atol=1e-11)
        np.testing.assert_allclose(rows[..., 2], expected, rtol=0, atol=1e-11)
        np.testing.assert_allclose(
            rows[..., 3], np.maximum(0.0, symmetric), rtol=0, atol=1e-11
        )
        # unrounded, from one state per alpha row
        momentum = permutation_momentum(coeffs)
        values = np.array(
            [
                witness_from_amplitudes(
                    boosted_spin_terms(
                        compose(momentum, ghz_alpha(alpha)), rotations
                    ).terms(),
                    variant.replace("-", "_"),
                )
                for alpha in alphas
            ]
        )
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-14)


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
    # a matrix file is checked once, on reading; the density of a state
    # file is valid by construction and not checked again.  The (16, 8, 8)
    # settings product runs once per request for either file
    from spinboost import linalg, measures

    src, dst, spin_dst = (tmp_path / n for n in ("comp.json", "o.json", "r.json"))
    write_state(compose(antisymmetric_momentum(), ghz_state()), src)
    code, _, _ = run(["boost", str(src), "--delta", "0.3", "--out", str(dst),
                      "--spin-out", str(spin_dst)], capsys)
    assert code == 0
    calls = []
    check = linalg.is_density_matrix
    monkeypatch.setattr(
        linalg, "is_density_matrix",
        lambda rho, *a: calls.append("density") or check(rho, *a),
    )

    class CountedSettings(np.ndarray):
        # rho @ settings reaches this before ndarray's own matmul
        def __rmatmul__(self, other):
            calls.append("settings")
            return np.asarray(other) @ np.asarray(self)

    monkeypatch.setattr(
        measures, "_SETTINGS", measures._SETTINGS.view(CountedSettings)
    )
    for path, expected in ((src, ["settings"]), (spin_dst, ["density", "settings"])):
        calls.clear()
        assert run(["witness", str(path)], capsys)[0] == 0
        assert sorted(calls) == expected, path.name


def _witness_oracle(rho, variant):
    # cmd_witness's output as four separate ghz_witness calls compute it
    fmt, paths = cli._fmt, ("matrix_elements", "pauli_settings")
    reports = {  # per variant, the matrix_elements then the pauli_settings report
        v: [ghz_witness(rho, path=p, variant=v, validate=False) for p in paths]
        for v in ("symmetric", "as_printed")
    }
    main = reports[variant.replace("-", "_")][0]
    dev = max(abs(matrix.value - pauli.value) for matrix, pauli in reports.values())
    return [
        f"value {fmt(main.value)}  (variant {variant})",
        f"offdiag_term {fmt(main.offdiag_term)}",
        "population_terms " + " ".join(fmt(t) for t in main.population_terms),
        f"variant symmetric: {fmt(reports['symmetric'][0].value)}",
        f"variant as_printed: {fmt(reports['as_printed'][0].value)}",
        f"paths_max_deviation {fmt(dev)}",
    ]


@pytest.mark.parametrize("variant", ["symmetric", "as-printed"])
def test_witness_command_matches_four_ghz_witness_calls(variant, tmp_path, capsys):
    # each path's entries are formed once for both variants; the printed
    # numbers equal those of one ghz_witness call per path and variant
    rng = np.random.default_rng(17)
    haar = [v / np.linalg.norm(v) for v in
            rng.normal(size=(5, 216)) + 1j * rng.normal(size=(5, 216))]
    spin = rng.normal(size=8) + 1j * rng.normal(size=8)
    states = {
        "comp": compose(antisymmetric_momentum(), ghz_state()),
        "haar": CompositeState(haar[0]),
        "mixed": MixedState(rng.dirichlet(np.ones(3)), np.array(haar[1:4])),
        "bare": spin / np.linalg.norm(spin),
    }
    files = []
    for name, state in states.items():
        files.append(tmp_path / f"{name}.json")
        write_state(state, files[-1])
        if name != "bare":  # and the --spin-out matrix of its boost
            files.append(tmp_path / f"{name}_r.json")
            code, _, _ = run(["boost", str(files[-2]), "--delta", "1.1",
                              "--out", str(tmp_path / f"{name}_b.json"),
                              "--spin-out", str(files[-1])], capsys)
            assert code == 0
    for path in files:
        rho = cli._spin_density_of(read_state(path))
        code, out, _ = run(["witness", str(path), "--variant", variant], capsys)
        assert code == 0
        assert out.splitlines()[:6] == _witness_oracle(rho, variant), path.name


def _edge_documents(trace):
    # State files whose density has the given trace: a composite, a
    # two-member mixture with scaled members or with scaled weights, and a
    # bare spin state
    def pairs(v):
        return [[z.real, z.imag] for z in np.asarray(v).tolist()]

    scale = math.sqrt(trace)
    comp = compose(antisymmetric_momentum(), ghz_state()).vector
    other = compose(permutation_momentum(np.eye(6)[0]), w_state()).vector

    def ensemble(weights, s):
        return {"ensemble": [{"weight": w, "amps": pairs(s * v)}
                             for w, v in zip(weights, (comp, other))]}

    return {
        "composite": {"dims": [3, 2, 3, 2, 3, 2], "amps": pairs(scale * comp)},
        "mixed_members": ensemble((0.6, 0.4), scale),
        "mixed_weights": ensemble((0.6 * trace, 0.4 * trace), 1.0),
        "bare": {"dims": [2, 2, 2], "amps": pairs(scale * ghz_state())},
    }


@pytest.mark.parametrize("trace", [1 - 0.9e-9, 1 + 0.9e-9, 1 - 1.1e-9, 1 + 1.1e-9])
def test_state_files_agree_at_the_unit_trace_edge(trace, tmp_path, capsys):
    # reading, the witness, boost --spin-out and the witness of both boost
    # outputs agree on every file: |psi|^2, a mixture's trace and a
    # density's trace are held to one rule, |x - 1| <= 1e-9
    from spinboost import StateFileError, composite_spin_ensemble, is_density_matrix

    accepted = abs(trace - 1.0) < 1e-9
    for name, doc in _edge_documents(trace).items():
        path, out, spin_out = (tmp_path / f"{name}{s}.json" for s in ("", "_o", "_r"))
        path.write_text(json.dumps(doc))
        boost = ["boost", str(path), "--delta", "0.3", "--out", str(out),
                 "--spin-out", str(spin_out)]
        if not accepted:
            with pytest.raises(StateFileError, match="not normalized|sum to"):
                read_state(path)
            for argv in (["witness", str(path)], boost):
                code, stdout, err = run(argv, capsys)
                assert (code, stdout) == (2, "") and str(path) in err, name
            assert not out.exists() and not spin_out.exists()
            continue
        state = read_state(path)
        assert is_density_matrix(cli._spin_density_of(state)), name
        assert run(["witness", str(path)], capsys)[0] == 0, name
        if name == "bare":  # no momenta to boost
            continue
        composite_spin_ensemble(state, BoostScenario(0.3))
        assert run(boost, capsys)[0] == 0, name
        witnessed = [run(["witness", str(p)], capsys) for p in (out, spin_out)]
        assert witnessed[0][0] == 0 and witnessed[0] == witnessed[1], name


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


@pytest.mark.parametrize("variant", ["symmetric", "as-printed"])
@pytest.mark.parametrize("mixed", [False, True])
def test_witness_reads_boost_spin_out(mixed, variant, tmp_path, capsys):
    # the --spin-out matrix round-trips exactly, so the witness of it prints
    # what the witness of the boosted state file prints
    src, dst, spin_dst = (tmp_path / n for n in ("s.json", "o.json", "r.json"))
    state = compose(antisymmetric_momentum(), ghz_state())
    if mixed:
        other = compose(permutation_momentum(np.eye(6)[0]), w_state())
        state = MixedState((0.6, 0.4), np.array([state.vector, other.vector]))
    write_state(state, src)
    code, _, _ = run(["boost", str(src), "--delta", "0.3", "--out", str(dst),
                      "--spin-out", str(spin_dst)], capsys)
    assert code == 0
    code, from_state, _ = run(["witness", str(dst), "--variant", variant], capsys)
    assert code == 0
    assert run(["witness", str(spin_dst), "--variant", variant], capsys) == (
        0, from_state, ""
    )
    # a matrix that fails the density checks is bad input
    doc = json.loads(spin_dst.read_text())
    doc["matrix"] = [[[2 * re, 2 * im] for re, im in row] for row in doc["matrix"]]
    spin_dst.write_text(json.dumps(doc))
    code, out, err = run(["witness", str(spin_dst)], capsys)
    assert (code, out) == (2, "") and "not a density matrix" in err


def test_boost_command_mixed_spin_out_matches_written_state(tmp_path, capsys):
    # a mixture's --spin-out is the reduced density of the boosted mixture
    # it writes, bit for bit, as for a pure state
    rng = np.random.default_rng(12)
    vectors = rng.normal(size=(3, 216)) + 1j * rng.normal(size=(3, 216))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    src = tmp_path / "mixed.json"
    dst = tmp_path / "out.json"
    spin_dst = tmp_path / "rho.json"
    write_state(MixedState(rng.dirichlet(np.ones(3)), vectors), src)
    code, _, _ = run(
        ["boost", str(src), "--delta", "0.9", "--out", str(dst),
         "--spin-out", str(spin_dst)],
        capsys,
    )
    assert code == 0
    doc = json.loads(spin_dst.read_text())
    rho = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    np.testing.assert_array_equal(rho, read_state(dst).spin_density())


@pytest.mark.parametrize("speeds", [
    ["--observer-speed", "0.5"],
    ["--particle-speed", "0.5"],
    ["--observer-speed", "0.5", "--particle-speed", "0.5"],
])
def test_boost_command_delta_excludes_speeds(speeds, tmp_path, capsys):
    # --delta fixes the angle, so a speed flag with it would be ignored
    src, dst = tmp_path / "in.json", tmp_path / "o.json"
    write_state(compose(antisymmetric_momentum(), ghz_state()), src)
    code, out, err = run(
        ["boost", str(src), "--delta", "0.3", *speeds, "--out", str(dst)], capsys
    )
    assert code == 2 and out == "" and "--delta" in err
    assert not dst.exists()


# (observer, particle, message): the particle speed is checked first
BAD_SPEEDS = [
    ("0.6", "1.0", "particle speed must lie in [0, 1), got 1.0"),
    ("0.6", "nan", "particle speed must lie in [0, 1), got nan"),
    ("1.5", "-0.1", "particle speed must lie in [0, 1), got -0.1"),  # both bad
    ("1.0", "0.8", "observer speed must lie in [0, 1), got 1.0"),
    ("nan", "0.8", "observer speed must lie in [0, 1), got nan"),
]


@pytest.mark.parametrize("observer, particle, message", BAD_SPEEDS)
def test_wigner_names_the_bad_speed(observer, particle, message, capsys):
    argv = ["wigner", "--observer-speed", observer, "--particle-speed", particle]
    assert run(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("observer, particle, message", BAD_SPEEDS)
def test_boost_command_rejects_bad_speeds(observer, particle, message, tmp_path,
                                          capsys):
    src, dst = tmp_path / "in.json", tmp_path / "o.json"
    write_state(compose(antisymmetric_momentum(), ghz_state()), src)
    argv = ["boost", str(src), "--observer-speed", observer,
            "--particle-speed", particle, "--out", str(dst)]
    assert run(argv, capsys) == (2, "", f"error: {message}\n")
    assert not dst.exists()


@pytest.mark.parametrize("argv, path", [
    (["boost", "{src}", "--delta", "0.3", "--out", "/nonexistent/x.json"],
     "/nonexistent/x.json"),
    (["boost", "{src}", "--delta", "0.3", "--out", "{tmp}/o.json",
      "--spin-out", "/nonexistent/y.json"], "/nonexistent/y.json"),
    (["scan", "fig3", "--grid", "3", "--out", "/nonexistent/z.csv"],
     "/nonexistent/z.csv"),
    (["scan", "fig2", "--grid", "3", "--out", "{tmp}"], "{tmp}"),  # a directory
    (["boost", "{src}", "--delta", "0.3", "--out", "{tmp}/o.json",
      "--spin-out", "{tmp}"], "{tmp}"),
])
def test_unwritable_output_path_is_bad_input(argv, path, tmp_path, capsys):
    # every file the CLI writes goes through one helper, which turns an
    # OSError into exit 2 with the path named, not a traceback, and writes
    # no file at all: no o.json beside an unwritable --spin-out, no *.tmp
    src = tmp_path / "s.json"
    write_state(compose(antisymmetric_momentum(), ghz_state()), src)
    argv = [a.format(src=src, tmp=tmp_path) for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ")
    assert path.format(tmp=tmp_path) in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def test_failed_boost_keeps_existing_out(tmp_path, capsys):
    # a boost whose --spin-out cannot be written leaves --out as it was
    src, dst = tmp_path / "s.json", tmp_path / "o.json"
    write_state(compose(antisymmetric_momentum(), ghz_state()), src)
    dst.write_bytes(b"earlier output\n")
    code, _, err = run(["boost", str(src), "--delta", "0.3", "--out", str(dst),
                        "--spin-out", "/nonexistent/y.json"], capsys)
    assert code == 2 and "/nonexistent/y.json" in err
    assert dst.read_bytes() == b"earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.json", "s.json"]


@pytest.mark.parametrize("spin_out", ["f.json", "./f.json", "{tmp}/f.json"])
def test_boost_outputs_naming_one_file_are_bad_input(spin_out, tmp_path,
                                                     monkeypatch, capsys):
    # --out and --spin-out resolving to one file would keep only the spin
    # matrix; the boost stops with exit 2 before it writes anything
    monkeypatch.chdir(tmp_path)
    write_state(compose(antisymmetric_momentum(), ghz_state()), "s.json")
    code, out, err = run(["boost", "s.json", "--delta", "0.3", "--out", "f.json",
                          "--spin-out", spin_out.format(tmp=tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and "f.json" in err
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def test_write_state_bytes_are_json_dumps(tmp_path):
    # the C encoder writes what json.dump wrote: one line of default JSON
    path = tmp_path / "s.json"
    state = compose(antisymmetric_momentum(), ghz_state())
    write_state(state, path)
    doc = {"dims": [3, 2, 3, 2, 3, 2],
           "amps": [[z.real, z.imag] for z in state.vector.tolist()]}
    assert path.read_text() == json.dumps(doc) + "\n"


def test_reused_parser_keeps_no_state(tmp_path, monkeypatch, capsys):
    # main parses with one parser per process; an option given in one call
    # must not leak into the next, and a command patched after the parser
    # was built is the one that runs
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_wigner", lambda args: 7)
    assert cli.main(["wigner", "--observer-speed", "0", "--particle-speed", "0"]) == 7
    assert run(["scan", "fig2", "--grid", "3", "--alpha", "0.3"], capsys)[0] == 0
    code, out, _ = run(["scan", "fig2", "--grid", "3"], capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 9

    path = tmp_path / "f.json"
    write_state(ghz_state(), path)
    assert run(["witness", str(path), "--variant", "as-printed"], capsys)[0] == 0
    code, out, _ = run(["witness", str(path)], capsys)
    assert code == 0 and out.splitlines()[0].endswith("(variant symmetric)")

    assert run(["check", "condition2", "--trials", "2"], capsys)[0] == 0
    code, out, _ = run(["check", "condition2"], capsys)
    assert code == 0 and "over 50 boosts" in out


def test_check_suites_pass(capsys):
    for suite, trials in (("condition1", "3"), ("condition2", "3"),
                          ("soundness", "20")):
        code, out, _ = run(["check", suite, "--trials", trials], capsys)
        assert code == 0, out
        assert f"{suite}: PASS" in out


# ROADMAP item 12: six of these lines (condition1 at seeds 123 and 991, every
# condition2 line) hold only on OpenBLAS's AVX-512 kernels and fail under
# OPENBLAS_CORETYPE=Haswell or Zen.
@pytest.mark.parametrize("args, line", [
    ("condition1", "local-unitary invariance over 12 states: max deviation 1.887e-15"),
    ("condition1 --seed 123", "local-unitary invariance over 12 states: max deviation 2.498e-15"),
    ("condition1 --seed 991", "local-unitary invariance over 12 states: max deviation 1.221e-15"),
    ("condition2", "certificates over 50 boosts: max reconstruction 1.931e-16, "
                   "max invariant deviation 9.992e-16"),
    ("condition2 --seed 123", "certificates over 50 boosts: max reconstruction 1.731e-16, "
                              "max invariant deviation 1.443e-15"),
    ("condition2 --seed 991", "certificates over 50 boosts: max reconstruction 2.655e-16, "
                              "max invariant deviation 1.110e-15"),
    # past one chunk of CONDITION2_CHUNK boosts
    ("condition2 --seed 991 --trials 130", "certificates over 130 boosts: max reconstruction "
                                           "2.655e-16, max invariant deviation 1.443e-15"),
    ("soundness", "witness over 1000 biseparable samples: max value -1.511e-02"),
    ("soundness --seed 123", "witness over 1000 biseparable samples: max value -5.044e-03"),
    ("soundness --seed 991", "witness over 1000 biseparable samples: max value -1.562e-02"),
])
def test_check_suite_output_is_pinned(args, line, capsys):
    # every byte a suite prints, at the default and other seeds
    suite, *options = args.split()
    assert run(["check", suite, *options], capsys) == (0, f"{line}\n{suite}: PASS\n", "")


def test_check_seed_changes_runs(capsys):
    _, out_a, _ = run(["check", "soundness", "--trials", "5", "--seed", "1"], capsys)
    _, out_b, _ = run(["check", "soundness", "--trials", "5", "--seed", "2"], capsys)
    assert out_a != out_b  # max reported value depends on the draw


def test_check_failure_exits_one(monkeypatch, capsys):
    # a sampler that yields a GHZ state, which the witness flags, must fail
    # the suite
    monkeypatch.setattr(
        classcheck,
        "_biseparable_terms",
        lambda cuts, weights, rng: np.tile(ghz_state(), weights.shape[:-1] + (1, 1)),
    )
    code, out, _ = run(["check", "soundness", "--trials", "3"], capsys)
    assert code == 1
    assert "soundness: FAIL" in out
    assert "FAIL sample" in out


def test_check_condition1_failure_exits_one(monkeypatch, capsys):
    # a "measure" that is not LU-invariant, the population of |000>, must
    # fail every state on every trial, named by state, seed and trial
    monkeypatch.setattr(classcheck, "_three_tangle_unchecked",
                        lambda psi: np.abs(psi[..., 0]) ** 2)
    code, out, _ = run(["check", "condition1", "--trials", "3", "--seed", "7"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL ghz (seed 7): trials (0, 1, 2)"
    assert lines[1] == "FAIL w (seed 1007): trials (0, 1, 2)"
    assert lines[11] == "FAIL haar9 (seed 11007): trials (0, 1, 2)"
    assert lines[-1] == "condition1: FAIL"


def test_numeric_error_maps_to_exit_three(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericError("did not converge")

    monkeypatch.setattr(kinematics, "wigner_angle", boom)
    code, _, err = run(
        ["wigner", "--observer-speed", "0.5", "--particle-speed", "0.5"], capsys
    )
    assert code == 3
    assert "numeric failure" in err


def test_witness_density_check_failure_exits_three(tmp_path, monkeypatch, capsys):
    # LAPACK failing inside the density check of a matrix file is a numeric
    # failure, not bad input
    path = tmp_path / "r.json"
    matrix = [[[0.125 * (i == j), 0.0] for j in range(8)] for i in range(8)]
    path.write_text(json.dumps({"dims": [2, 2, 2], "matrix": matrix}))
    assert run(["witness", str(path)], capsys)[0] == 0

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, out, err = run(["witness", str(path)], capsys)
    assert (code, out) == (3, "")
    assert "numeric failure" in err


def test_check_rejects_bad_trials(capsys):
    assert run(["check", "soundness", "--trials", "0"], capsys)[0] == 2


@pytest.mark.parametrize("suite", ["condition1", "condition2", "soundness"])
def test_check_rejects_negative_seed(suite, capsys):
    # exit 1 means a property failed; a seed numpy cannot use is bad input
    code, out, err = run(["check", suite, "--trials", "1", "--seed", "-5"], capsys)
    assert code == 2 and out == ""
    assert "--seed must be nonnegative" in err
