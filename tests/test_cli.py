import io
import json
import re
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hrg.cli import dump_report, load_report, read_config, run_command
from hrg.covariance import covariance_table
from hrg.dynamics import find_fixed_point, jacobian_at, kappa_tail_log, unstable_eigenpair
from hrg.errors import IoError
from hrg.geometry import make_params
from hrg.rg import flow_coefficients
from oracles import deep_kappa

DATA = Path(__file__).parent / "data"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_command(argv)
    return rc, out.getvalue(), err.getvalue()


def test_coeffs_csv_contains_a5_row():
    rc, out, err = run(["coeffs", "--p", "2", "--l", "1", "--eps", "0.1"])
    assert rc == 0
    assert "A5,7.0\n" in out
    assert out.startswith("quantity,value\n")


def test_coeffs_prints_s1_zero_at_large_volume():
    # Gamma integrates to zero; a plain class sum read -4.3e-8 here
    rc, out, _ = run(["coeffs", "--p", "101", "--l", "4", "--eps", "0.01"])
    assert rc == 0
    assert "\nS1,0.0\n" in out


def test_coeffs_json_format():
    rc, out, _ = run(["coeffs", "--p", "2", "--l", "1", "--eps", "0.1", "--format", "json"])
    assert rc == 0
    data = load_report(out)
    assert data["values"]["A5"] == 7.0
    assert data["values"]["S3"] == pytest.approx(21 / 32, rel=1e-14)


def test_coeffs_golden():
    rc, out, _ = run(["coeffs", "--p", "2", "--l", "1", "--eps", "0.1"])
    assert rc == 0
    assert out == (DATA / "golden_coeffs_p2l1e01.csv").read_text()


def test_linearize_values():
    rc, out, _ = run(["linearize", "--p", "2", "--l", "1", "--eps", "0.1"])
    assert rc == 0
    data = load_report(out)
    assert data["alpha_u"] == pytest.approx(2.8628, abs=1e-3)
    assert data["e_u"][1] == 1.0
    assert data["eta_phi2"] == pytest.approx(0.06514, abs=1e-4)


def test_fixed_point_and_flow():
    rc, out, _ = run(["fixed-point", "--p", "2", "--l", "1", "--eps", "0.1"])
    assert rc == 0
    data = load_report(out)
    assert data["residual"] <= 1e-12
    rc, out, _ = run(["flow", "--p", "2", "--l", "1", "--eps", "0.1", "--steps", "5"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,delta_g,mu,delta_b"
    assert len(lines) == 6


def test_flow_diverges_cleanly():
    rc, out, err = run(
        ["flow", "--p", "2", "--l", "1", "--eps", "0.1", "--g", "0.5", "--mu", "100.0", "--steps", "50"]
    )
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"] == "BlowUpError"


def test_observables_golden_and_determinism():
    rc1, out1, _ = run(["observables", "--p", "2", "--l", "1", "--eps", "0.1"])
    rc2, out2, _ = run(["observables", "--p", "2", "--l", "1", "--eps", "0.1"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1 == (DATA / "golden_observables_p2l1e01.json").read_text()
    data = load_report(out1)
    assert data["two_point_normalized"] == pytest.approx(1.0, abs=1e-10)


def test_mc_golden_reproducible():
    argv = ["mc", "--p", "2", "--l", "1", "--eps", "0.1", "--r", "-1", "--s", "0", "--samples", "2000", "--seed", "42"]
    rc1, out1, _ = run(argv)
    rc2, out2, _ = run(argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1 == (DATA / "golden_mc_small.json").read_text()


def test_sweep_eta_trend(tmp_path):
    dest = tmp_path / "sweep.csv"
    rc, out, _ = run(
        ["sweep", "--p", "2", "--l", "1", "--eps-list", "0.1,0.05,0.02", "--out", str(dest)]
    )
    assert rc == 0
    lines = dest.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:4] == ["eps", "alpha_u", "eta", "eta_over_eps"]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    etas = [float(r[3]) for r in rows]
    assert etas[0] < etas[1] < etas[2] < 2.0 / 3.0
    assert all(r[-1] == "" for r in rows)


def test_sweep_reports_row_errors():
    rc, out, _ = run(["sweep", "--p", "2", "--l", "1", "--eps-list", "0.1,1.5"])
    assert rc == 2
    lines = out.strip().split("\n")
    assert len(lines) == 3
    good, bad = lines[1].split(","), lines[2].split(",")
    assert good[-1] == ""
    assert "EpsRangeError" in bad[-1]


@pytest.mark.parametrize("flag", [["--eps", "0.3"], ["--threads", "2"]], ids=["eps", "threads"])
def test_sweep_refuses_the_options_it_does_not_read(flag):
    # sweep reads p, l, eps_list and out: an --eps beside --eps-list, or a
    # thread count, is a bad command line, not an option it ignores
    rc, out, err = run(["sweep", "--p", "2", "--l", "1"] + flag + ["--eps-list", "0.1"])
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "IoError", "message": f"unrecognized option {flag[0]}"}


@pytest.mark.parametrize("entry", ["sweep.eps = 0.3", "sweep.threads = 2"], ids=["eps", "threads"])
def test_sweep_refuses_config_keys_scoped_to_it_that_it_does_not_read(tmp_path, entry):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    rc, out, err = run(["--config", str(cfg), "sweep", "--eps-list", "0.1"])
    assert rc == 2 and out == ""
    key = entry.split(" ")[0]
    assert json.loads(err) == {"error": "IoError", "message": f"config key {key} is not an option of sweep"}


def test_config_keys_of_other_commands_and_flat_keys_are_shared(tmp_path):
    # eps and threads mean nothing to sweep, but a flat key or one scoped to
    # another command may serve the other commands that read the same file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.3\nthreads = 2\nmc.threads = 2\ncoeffs.eps_list = 0.2\n")
    rc, out, err = run(["--config", str(cfg), "sweep", "--eps-list", "0.1"])
    assert rc == 0 and err == ""
    assert out.splitlines()[1].startswith("0.1,")


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\nl = 1\neps = 0.5\n# comment\ncoeffs.eps = 0.1\n")
    rc, out, _ = run(["--config", str(cfg), "coeffs"])
    assert rc == 0
    assert "eps,0.1\n" in out  # dotted section beats the flat key
    rc, out, _ = run(["--config", str(cfg), "coeffs", "--eps", "0.9"])
    assert "eps,0.9\n" in out  # command line beats the config


def test_config_sets_format_and_out(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    rc, out, _ = run(["--config", str(cfg), "coeffs"])
    assert rc == 0
    assert load_report(out)["values"]["A5"] == 7.0
    dest = tmp_path / "coeffs.csv"
    cfg.write_text(f"coeffs.out = {dest}\n")
    rc, out, _ = run(["--config", str(cfg), "coeffs"])
    assert rc == 0 and out == ""
    assert "A5,7.0\n" in dest.read_text()


# argv, then the exit code and the start of stdout on success; every exit 2
# here is a bad command line
GRAMMAR = [
    (["coeffs", "--p"], 2, None),
    (["coeffs", "--p=3"], 0, "quantity,value\np,3\n"),
    (["coeffs", "--e", "0.1"], 0, "quantity,value\n"),
    (["mc", "--samp", "1000", "--r", "-1", "--s", "0"], 0, "{"),
    (["critical-mass", "--g-", "1.05"], 0, "{"),
    (["coeffs", "--p", "3", "--p", "2"], 0, "quantity,value\np,2\n"),
    (["--config"], 2, None),
    ([], 2, None),
    (["coeffs", "extra"], 2, None),
    (["coeffs", "--", "--p", "2"], 2, None),
    (["coeffs", "--config", "x"], 2, None),
    (["bogus"], 2, None),
    (["coeffs", "--format", "xml"], 2, None),
    (["mc", "--method", "foo"], 2, None),
    (["--help"], 0, "usage: hrg"),
    (["coeffs", "--help"], 0, "usage: hrg"),
    (["coeffs", "-h"], 0, "usage: hrg"),
    (["flow", "--mu", "-1e-5", "--steps", "1"], 0, "step,delta_g,mu,delta_b\n0,0.0,-1e-05,"),
    (["flow", "--mu=-1e-5", "--steps", "1"], 0, "step,delta_g,mu,delta_b\n0,0.0,-1e-05,"),
    (["flow", "--mu", "-.5E+0", "--steps", "1"], 0, "step,delta_g,mu,delta_b\n0,0.0,-0.5,"),
    (["fixed-point", "--format", "csv"], 2, None),
    (["observables", "--format=json"], 2, None),
]


@pytest.mark.parametrize("argv, code, head", GRAMMAR)
def test_command_line_grammar(argv, code, head):
    rc, out, err = run(argv)
    assert rc == code
    if code == 2:
        assert out == "" and json.loads(err)["error"] == "IoError"
    else:
        assert out.startswith(head) and err == ""


def test_bad_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals\n")
    rc, out, err = run(["--config", str(cfg), "coeffs"])
    assert rc == 2


def test_domain_error_is_machine_readable():
    rc, out, err = run(["coeffs", "--p", "4", "--l", "1", "--eps", "0.1"])
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"] == "NonPrimeError"
    assert "message" in payload


def test_unknown_command_exits_2():
    rc, out, err = run(["frobnicate"])
    assert rc == 2


def test_report_schema_round_trip():
    text = dump_report({"command": "x", "value": 1.5})
    data = load_report(text)
    assert data["value"] == 1.5
    with pytest.raises(IoError):
        load_report(text.replace('"schema_version": "2"', '"schema_version": "99"'))


def _dump_through_17_digits(payload):
    # the serializer as it was: every float printed to 17 significant digits
    # and parsed back before json writes its repr
    def walk(obj):
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(v) for v in obj]
        if isinstance(obj, (float, np.floating)):
            return float(f"{float(obj):.17g}")
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.ndarray):
            return walk(obj.tolist())
        return obj

    return json.dumps(walk({"schema_version": "2", **payload}), indent=2, sort_keys=True) + "\n"


DUMP_PAYLOADS = [
    {"a": np.float64(0.1) + np.float64(0.2), "b": 0.1 + 0.2, "c": -0.0, "d": np.float64(-0.0)},
    {"tiny": 5e-324, "np_tiny": np.float64(5e-324), "huge": np.finfo(float).max, "third": 1.0 / 3.0},
    {"f32": np.float32(0.1), "f32s": [np.float32(1e-45), np.float32(3.4e38), np.float32(-2.5)]},
    {"i64": np.int64(-7), "nested": {"row": (np.int64(3), np.float64(2.0) ** -1074, "text", None, True)}},
    {"arr": np.array([0.1, -0.0, 5e-324, 1e308]), "arr32": np.linspace(0, 1, 7, dtype=np.float32)},
    {"int_arr": np.arange(4, dtype=np.int64), "grid": np.array([[0.1 + 0.2, 2.0 / 3.0], [1e-310, -1e-5]])},
]


@pytest.mark.parametrize("payload", DUMP_PAYLOADS)
def test_dump_report_matches_17_digit_round_trip(payload):
    # a double printed to 17 significant digits parses back to itself, so
    # dropping that round trip leaves every byte of the output unchanged
    assert dump_report(payload) == _dump_through_17_digits(payload)


@settings(max_examples=200)
@given(st.lists(st.floats(allow_nan=False) | st.floats(width=32, allow_nan=False).map(np.float32), max_size=8))
def test_dump_report_matches_17_digit_round_trip_on_drawn_floats(xs):
    payload = {"xs": xs, "arr": np.array(xs, dtype=float)}
    assert dump_report(payload) == _dump_through_17_digits(payload)


def _dump_through_json(payload):
    # the serializer as it was: numpy values turned into Python ones, then
    # the stdlib's encoder
    def walk(obj):
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(v) for v in obj]
        if isinstance(obj, (float, np.floating)):
            return float(obj)
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, np.ndarray):
            return walk(obj.tolist())
        return obj

    body = {"schema_version": "2"}
    body.update(payload)
    return json.dumps(walk(body), indent=2, sort_keys=True) + "\n"


# keys and strings with quotes, backslashes, control and non-ASCII characters
JSON_TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀\u2028') | st.characters(), max_size=6)
JSON_LEAVES = st.one_of(
    st.floats(),  # NaN, infinities, -0.0 and subnormals included
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.none(),
    JSON_TEXT,
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=120)
@given(st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=5))
def test_dump_report_matches_the_stdlib_encoder_on_drawn_payloads(payload):
    assert dump_report(payload) == _dump_through_json(payload)


# texts of each option: (in its domain, cast but refused by the command,
# failing the cast or the choices check); is_prime is trial division, so p
# stays small
FUZZ_P = (["2", "3", "5", "7", "03", "+3"], ["0", "1", "-2", "4"], ["1e1", "2.0", "nan", "abc", ""])
FUZZ_L = (["1", "2", "3"], ["0", "-1"], ["1.5", "nan", ""])
FUZZ_EPS = (["0.1", "1e-3", ".5", "1.", "1"], ["-0.5", "0", "2E+1", "nan", "inf", "-inf"], ["abc", "", "1,5"])
FUZZ_COUPLING = (["0", "0.01", "-.5E-2", "1e-3"], ["1e308", "-inf", "nan"], ["abc", ""])
FUZZ_OPTIONS = {
    "coeffs": {"p": FUZZ_P, "l": FUZZ_L, "eps": FUZZ_EPS, "format": (["csv", "json"], [], ["xml", "CSV", ""])},
    "fixed-point": {"p": FUZZ_P, "l": FUZZ_L, "eps": FUZZ_EPS},
    "linearize": {"p": FUZZ_P, "l": FUZZ_L, "eps": FUZZ_EPS},
    "flow": {"p": FUZZ_P, "l": FUZZ_L, "eps": FUZZ_EPS, "g": FUZZ_COUPLING, "mu": FUZZ_COUPLING,
             "steps": (["0", "1", "5", "30"], [], ["-3", "1e1", "2.5", "nan", ""])},
    "critical-mass": {"p": FUZZ_P, "l": FUZZ_L, "eps": FUZZ_EPS, "g": FUZZ_COUPLING,
                      "g-rel": (["1", "0.95", "1.05", "1.4", "6e-1"], ["0", "2", "-1", "nan", "inf"], ["abc", ""])},
}
FUZZ_UNKNOWN = ["bogus", "threads", "eps-list", "samples", "format", "config", "z"]


@st.composite
def _cli_argv(draw):
    """A cheap command with up to five options, most of them known and in
    their domain: named in full or by a prefix (unique or not), as
    `--opt VALUE` or `--opt=VALUE`, any of them repeated."""
    name = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    options = FUZZ_OPTIONS[name]
    argv = [name]
    for _ in range(draw(st.integers(0, 5))):
        known = draw(st.integers(0, 7)) > 0
        key = draw(st.sampled_from(sorted(options) if known else FUZZ_UNKNOWN))
        valid, refused, malformed = options.get(key, FUZZ_EPS)
        value = draw(st.sampled_from(draw(st.sampled_from((valid, valid, valid, valid, refused or malformed, malformed)))))
        flag = "--" + (key if draw(st.booleans()) else key[: draw(st.integers(1, len(key)))])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=400)
@given(_cli_argv())
def test_cli_exits_0_or_2_with_json_on_drawn_command_lines(argv):
    rc, _, err = run(argv)
    assert rc in (0, 2), err
    if rc == 2:
        assert isinstance(json.loads(err), dict)


def test_read_config_missing_file():
    with pytest.raises(IoError):
        read_config("/nonexistent/path.cfg")


def test_out_writes_file(tmp_path):
    dest = tmp_path / "coeffs.csv"
    rc, out, _ = run(["coeffs", "--p", "2", "--l", "1", "--eps", "0.1", "--out", str(dest)])
    assert rc == 0
    assert out == ""
    assert "A5,7.0\n" in dest.read_text()


def test_koenigs_command():
    # at (11,3,0.1) the double iteration's rounding grew to 5.4e-10 when it
    # gave the value; the closed form leaves 7.1e-15
    for p, l, eps in (("2", "1", "0.1"), ("11", "3", "0.1")):
        rc, out, _ = run(["koenigs", "--p", p, "--l", l, "--eps", eps])
        assert rc == 0
        data = load_report(out)
        assert data["intertwine_residual"] <= 1e-10
        assert max(data["semigroup_residuals"]) <= 1e-9
        assert data["double_iteration_residual"] <= 1e-10


def test_critical_mass_command():
    rc, out, _ = run(["critical-mass", "--p", "2", "--l", "1", "--eps", "0.1", "--g-rel", "0.95"])
    assert rc == 0
    data = load_report(out)
    assert data["difference"] <= 1e-8


def test_g_rel_zero_seeds_g_zero_in_both_commands():
    # --g-rel scales gbar whenever it is given, 0 included: g = 0 lies
    # outside the manifold radius, so both commands refuse it alike
    params = make_params(2, 1, 0.1)
    gbar = flow_coefficients(covariance_table(params), params).gbar
    for command in ("critical-mass", "observables"):
        rc, out, err = run([command, "--p", "2", "--l", "1", "--eps", "0.1", "--g-rel", "0"])
        assert rc == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ManifoldRadiusError", command
        assert f"|g - gbar| = {gbar:.3e}" in payload["message"], command


def test_observables_g_rel_flag():
    rc, out, _ = run(["observables", "--p", "2", "--l", "1", "--eps", "0.1", "--g-rel", "1.05"])
    assert rc == 0
    data = load_report(out)
    # seed choice must not move the physical outputs
    base = load_report((DATA / "golden_observables_p2l1e01.json").read_text())
    assert data["u4"] == pytest.approx(base["u4"], abs=1e-10)
    assert data["norms"]["kappa"] != base["norms"]["kappa"]


def _assert_input_error(rc, err):
    assert rc == 2
    assert json.loads(err)["error"] == "IoError"


def test_mc_negative_seed_exits_2(tmp_path):
    rc, out, err = run(["mc", "--seed", "-1", "--samples", "1000"])
    _assert_input_error(rc, err)
    assert out == ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mc.seed = -1\nsamples = 1000\n")
    _assert_input_error(*run(["--config", str(cfg), "mc"])[::2])


def test_mc_unknown_method_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = foo\nsamples = 1000\n")
    rc, out, err = run(["--config", str(cfg), "mc"])
    _assert_input_error(rc, err)
    assert out == ""


def test_sweep_bad_eps_list_exits_2(tmp_path):
    rc, out, err = run(["sweep", "--eps-list", "0.1,abc"])
    _assert_input_error(rc, err)
    assert out == ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep.eps_list = 0.1,abc\n")
    _assert_input_error(*run(["--config", str(cfg), "sweep"])[::2])


def test_flow_negative_steps_exits_2(tmp_path):
    rc, out, err = run(["flow", "--steps", "-3"])
    _assert_input_error(rc, err)
    assert out == ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = -3\n")
    _assert_input_error(*run(["--config", str(cfg), "flow"])[::2])


def test_mc_cholesky_not_positive_definite_exits_2(monkeypatch):
    # the box covariance is positive definite at every supported point, so
    # an indefinite one is put in its place
    import hrg.mc

    monkeypatch.setattr(hrg.mc, "_exact_box_covariance", lambda params, levels: -np.eye(params.p ** (3 * levels)))
    before = threading.active_count()
    rc, out, err = run(["mc", "--r", "-1", "--s", "0", "--samples", "5000", "--method", "cholesky"])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "NotPSDError"
    assert threading.active_count() == before


def _bulk(p, l, eps):
    params = make_params(p, l, eps)
    fc = flow_coefficients(covariance_table(params), params)
    return fc, unstable_eigenpair(jacobian_at(find_fixed_point(fc, params), fc)).alpha_u


def test_observables_reports_kappa_below_the_old_depth_cap():
    # at eps 1e-4 the seed 1.05 gbar has not settled within 50 000 steps;
    # kappa comes from the Koenigs tail and matches the deep product
    rc, out, err = run(["observables", "--p", "2", "--l", "1", "--eps", "1e-4", "--g-rel", "1.05"])
    assert rc == 0, err
    kappa = load_report(out)["norms"]["kappa"]
    fc, alpha = _bulk(2, 1, 1e-4)
    deep = deep_kappa(1.05 * fc.gbar - fc.gbar, fc, alpha)
    assert abs(kappa - deep) <= 1e-13
    assert abs(deep - 0.98386889537034) <= 1e-13
    # at eps 1e-5 the deep product is out of reach: start the tail 1000
    # exact steps further on instead
    rc, out, err = run(["observables", "--p", "2", "--l", "1", "--eps", "1e-5", "--g-rel", "1.05"])
    assert rc == 0, err
    fc, alpha = _bulk(2, 1, 1e-5)
    dg, logs = 1.05 * fc.gbar - fc.gbar, []
    for _ in range(1000):
        logs.append(np.log1p(-fc.a3 * dg / alpha))
        dg = fc.lam_g * dg - fc.a1 * dg * dg
    split = np.exp(np.sum(logs) + kappa_tail_log(dg / fc.gbar, fc, alpha))
    assert abs(load_report(out)["norms"]["kappa"] - split) <= 1e-12
    # the default seed sits at the fixed point: no product, kappa exactly 1
    rc, out, _ = run(["observables", "--p", "2", "--l", "1", "--eps", "1e-5"])
    assert rc == 0
    assert load_report(out)["norms"]["kappa"] == 1.0


def test_one_parser_serves_many_calls():
    argvs = (
        ["observables", "--bogus"],
        ["observables", "--p", "3", "--l", "1", "--eps", "0.1", "--g-rel", "0.97"],
        ["--help"],
        ["observables", "--help"],
    )
    # a call leaves nothing behind that changes the next one
    first = [run(argv) for argv in argvs]
    again = [run(argv) for argv in reversed(argvs)][::-1]
    assert first == again
    (rc_bad, out_bad, err_bad), (rc_ok, out_ok, _), (rc_help, out_help, _), _ = first
    assert rc_bad == 2 and out_bad == "" and json.loads(err_bad)["error"] == "IoError"
    assert rc_ok == 0 and load_report(out_ok)["command"] == "observables"
    assert rc_help == 0 and out_help.startswith("usage: hrg")


def _assert_domain_error(rc, out, err, error):
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-mass", "--g-rel", "nan"],
        ["critical-mass", "--g", "nan"],
        ["flow", "--g", "nan"],
        ["observables", "--g-rel", "nan"],
        # a word that parses as a float is a value, -nan included, in both spellings
        ["flow", "--g", "-nan"],
        ["flow", "--g=-nan"],
    ],
)
def test_nan_coupling_seed_is_outside_the_manifold_radius(argv):
    _assert_domain_error(*run(argv), "ManifoldRadiusError")


@pytest.mark.parametrize(
    "seed", [["--mu", "nan"], ["--mu", "inf"], ["--g", "nan", "--mu", "0.0"], ["--mu", "-inf"], ["--mu=-inf"]]
)
def test_flow_non_finite_seed_blows_up(seed):
    _assert_domain_error(*run(["flow", "--steps", "2"] + seed), "BlowUpError")


def test_bulk_commands_run_past_the_box_budget():
    # 15625 boxes: the bulk flow and the report allocate nothing per box, so
    # only mc, whose batches hold 4096 samples per box, keeps the 4096-box budget
    point = ["--p", "5", "--l", "2", "--eps", "0.1"]
    for argv in (["coeffs"], ["fixed-point"], ["linearize"], ["flow", "--steps", "5"], ["koenigs"]):
        rc, out, err = run(argv + point)
        assert rc == 0 and out and err == "", argv
    rc, out, err = run(["critical-mass"] + point)
    assert rc == 0 and err == ""
    data = load_report(out)
    assert data["difference"] <= 1e-14 * abs(data["mu_c_sequence"])
    rc, out, err = run(["observables"] + point)
    assert rc == 0 and err == ""
    assert abs(load_report(out)["two_point_normalized"] - 1.0) <= 1e-10
    rc, out, err = run(["sweep", "--p", "5", "--l", "2", "--eps-list", "0.1"])
    assert rc == 0 and err == "" and out.strip().split("\n")[1].endswith(",")
    _assert_domain_error(*run(["mc"] + point + ["--samples", "10"]), "BoxBudgetError")
    # past the float range the box count is refused, not overflowed
    _assert_domain_error(*run(["coeffs", "--p", "2", "--l", "342"]), "BoxBudgetError")
    assert run(["coeffs", "--p", "2", "--l", "341"])[0] == 0


@pytest.mark.parametrize("point, koenigs_code", [(("11", "3", "0.1"), 0), (("101", "3", "0.01"), 0)], ids=["p11", "p101"])
def test_every_bulk_command_keeps_its_exit_code_at_large_volume(point, koenigs_code):
    # 11^9 and 101^9 boxes: every command but mc and sweep, with the exit
    # codes they give today; flow's default 20 steps leave the manifold
    # through rounding and blow up at both points
    args = ["--p", point[0], "--l", point[1], "--eps", point[2]]
    codes = {"coeffs": 0, "fixed-point": 0, "linearize": 0, "critical-mass": 0, "observables": 0,
             "flow": 2, "koenigs": koenigs_code}
    for command, code in codes.items():
        argv = [command] + args + (["--format", "json"] if command == "coeffs" else [])
        rc, out, err = run(argv)
        assert rc == code, (argv, err)
        if rc == 2:
            assert out == "" and isinstance(json.loads(err), dict), argv
        else:
            assert err == "" and load_report(out)["command"] == command, argv


def test_readme_key_lists_match_the_reports():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for command in ("fixed-point", "linearize", "critical-mass", "koenigs"):
        listed = re.search(rf"^- `{command}` \(JSON\): `([^`]*)`", readme, re.MULTILINE)
        assert listed, command
        rc, out, _ = run([command])
        assert rc == 0
        keys = set(load_report(out)) - {"command", "schema_version"}
        assert sorted(k.strip() for k in listed.group(1).split(",")) == sorted(keys), command
