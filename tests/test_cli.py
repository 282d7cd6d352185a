"""Command-line contract: exit codes, formats, determinism."""

import io
import json
import time

import pytest

from favlab import _parallel, cli, favard, ifs, spectral, verify


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, stdout=out)
    return code, out.getvalue()


def test_gen_round_trip(tmp_path):
    path = tmp_path / "sys.json"
    code, _ = run(["gen", "--preset", "gasket", "--out", str(path)])
    assert code == 0
    code, text = run(["favard", "--system-file", str(path), "--n", "1", "--grid", "32"])
    assert code == 0
    assert text.splitlines()[0] == "system,n,method,value,error,param,seed"


def test_unknown_preset_exits_2():
    code, _ = run(["favard", "--preset", "bogus", "--n", "1"])
    assert code == 2


def test_missing_system_exits_2():
    code, _ = run(["favard", "--n", "1"])
    assert code == 2


def test_cap_exceeded_exits_3():
    code, _ = run(["shadow", "--preset", "gasket", "--n", "9", "--theta", "0.3", "--cap", "100"])
    assert code == 3


def test_favard_below_the_resolution_floor_exits_2_and_past_the_cap_3(tmp_path, capsys):
    g = ifs.preset("gasket")
    path = tmp_path / "tiny.json"
    path.write_text(ifs.system_to_json(
        ifs.build_system(1e-11 * g.centers(), g.ratio, g.shape, "tiny", root_size=1e-11)))
    argv = ["favard", "--system-file", str(path), "--grid", "64", "--refine-limit", "2"]
    code, out = run(argv + ["--n", "2"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == "favlab: FavlabError: depth 2: piece size 1.11e-12 < floor 3.73e-09\n"
    # A depth past the piece cap is refused as before, whatever its piece size.
    code, out = run(argv + ["--n", "20"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("favlab: cap-exceeded: ")


HUGE = str(10**15)

GRID_FLAGS = [
    (["favard", "--preset", "gasket", "--n", "1"], "grid"),
    (["spectral", "--preset", "gasket", "--t", "0.37", "--n", "6", "--m", "2", "--ell", "2"],
     "grid"),
    (["scan", "--check", "product", "--preset", "gasket"], "theta-grid"),
    (["scan", "--check", "escan", "--preset", "gasket"], "theta-grid"),
    (["scan", "--check", "l2", "--preset", "gasket"], "theta-grid"),
    (["scan", "--check", "baddir", "--preset", "gasket"], "t-grid"),
]


@pytest.mark.parametrize("size", [10**15, 2**59 - 1, 2**59, 2**60 - 64, 10**30])
@pytest.mark.parametrize("argv, flag", GRID_FLAGS,
                         ids=[f"{argv[2] if argv[0] == 'scan' else argv[0]}-{flag}"
                              for argv, flag in GRID_FLAGS])
def test_huge_grid_exits_3_with_one_line_message(argv, flag, size, tmp_path, capsys):
    # 10^15 float64 samples need 8 PB, more than a 64-bit address space
    # holds, so the first allocation fails at once.  From 2^60 - 64 samples
    # numpy raises ValueError instead, which the 2^59-sample ceiling forestalls.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: size}))
    for given in ([f"--{flag}", str(size)], ["--config", str(cfg)]):
        code, out = run(argv + given)
        err = capsys.readouterr().err
        assert code == 3 and out == "" and "Traceback" not in err
        assert err.startswith("favlab: out-of-memory: ") and err.count("\n") == 1
        code, out = run(argv + given + ["--json"])
        err = capsys.readouterr().err
        assert code == 3 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == "out-of-memory"


@pytest.mark.parametrize("branching", [2**59, 2**63, 10**22])
def test_huge_random_preset_exits_3_with_one_line_message(branching, tmp_path, capsys):
    # From 2^63 maps numpy's draw raises ValueError, not MemoryError; the
    # 2^59-map ceiling refuses them all before any draw.
    name = f"random-{branching}-seed1"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": name}))
    for given in (["--preset", name], ["--config", str(cfg)]):
        code, out = run(["gen"] + given)
        err = capsys.readouterr().err
        assert code == 3 and out == ""
        assert err == ("favlab: out-of-memory: a random system of "
                       f"{branching} maps exceeds the address space\n")


@pytest.mark.parametrize("check", ["bootstrap", "baddir"])
def test_scans_that_read_no_theta_grid_ignore_it(check):
    argv = ["scan", "--check", check, "--preset", "gasket", "--N", "2", "--l-max", "2",
            "--m", "1", "--ell", "2", "--t-grid", "5"]
    plain = run(argv)
    assert plain[0] == 0 and plain[1]
    for size in (HUGE, str(10**30)):
        assert run(argv + ["--theta-grid", size]) == plain


TRIAL_ROUTES = {"buffon": ["buffon", "--preset", "gasket", "--n", "3", "--seed", "1"]} | {
    suite: ["verify", "--suite", suite] for suite in verify.SUITES
}
# The largest trial counts the tests, demos and benchmark use on each route.
TRIALS_IN_USE = {"buffon": 10**6, "blaschke": 500, "cover": 300, "turan": 500,
                 "doubling": 200, "cetsq": 120, "keyobs": 1, "sine": 1, "dist": 200}


@pytest.mark.parametrize("route", sorted(TRIAL_ROUTES))
def test_trials_above_the_ceiling_exit_2_at_once(route, capsys):
    ceiling = (favard.NEEDLE_TRIAL_CEILING if route == "buffon"
               else verify.TRIAL_CEILINGS[route])
    assert TRIALS_IN_USE[route] <= ceiling
    for trials in (HUGE, str(ceiling + 1)):
        start = time.perf_counter()
        code, out = run(TRIAL_ROUTES[route] + ["--trials", trials])
        err = capsys.readouterr().err
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"trials {trials} exceeds the " in err and f"ceiling {ceiling}" in err


@pytest.mark.parametrize(
    "preset, n, code",
    [("gasket", "26", 0), ("gasket", "27", 2), ("corner4", "21", 0), ("corner4", "22", 2),
     ("gasket", HUGE, 2)],
)
def test_buffon_depth_stops_at_the_precision_ceiling(preset, n, code, capsys):
    # buffon enumerates no pieces, so past the 2^26-piece cap it runs until
    # r^-n passes 2^NEEDLE_PRECISION_BITS, and then exits 2 before any draw.
    start = time.perf_counter()
    got, out = run(["buffon", "--preset", preset, "--n", n, "--trials", "1000", "--seed", "1"])
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 1.0
    assert got == code and (out == "") == (code == 2)
    if code == 2:
        assert err.count("\n") == 1
        assert f"exceeds the needle precision ceiling r^-n <= 2^{favard.NEEDLE_PRECISION_BITS}" in err


def test_bad_usage_exits_2():
    code, _ = run(["favard", "--preset", "gasket"])  # missing --n
    assert code == 2
    code, _ = run(["nonsense"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["favard", "--preset", "gasket", "--n", "-1"],
        ["buffon", "--preset", "gasket", "--n", "2", "--trials", "10", "--seed", "-1"],
        ["shadow", "--preset", "gasket", "--n", "-1", "--theta", "0.2"],
        ["verify", "--suite", "cover", "--trials", "2", "--seed", "-1"],
    ],
)
def test_negative_n_or_seed_exits_2_with_message(argv, capsys):
    code, out = run(argv)
    assert code == 2 and out == ""
    assert "must be a nonnegative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, override",
    [
        (["favard", "--preset", "gasket", "--n", "1"], '{"n": -1}'),
        (["buffon", "--preset", "gasket", "--n", "1", "--trials", "10", "--seed", "1"],
         '{"seed": -1}'),
    ],
)
def test_negative_n_or_seed_from_config_exits_2(argv, override, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(override)
    code, out = run(argv + ["--config", str(cfg)])
    assert code == 2 and out == ""
    assert "is negative" in capsys.readouterr().err


def test_favard_csv_values():
    code, text = run(["favard", "--preset", "gasket", "--n", "0", "--grid", "16"])
    assert code == 0
    row = text.splitlines()[1].split(",")
    assert row[0] == "gasket" and row[2] == "quadrature"
    assert float(row[3]) == pytest.approx(2.0, abs=1e-9)


def test_buffon_deterministic_across_thread_counts():
    args = ["buffon", "--preset", "corner4", "--n", "2", "--trials", "30000", "--seed", "5"]
    outputs = set()
    for threads in ("1", "8"):
        code, text = run(args + ["--threads", threads])
        assert code == 0
        outputs.add(text)
    assert len(outputs) == 1


def test_favard_deterministic_across_thread_counts():
    args = ["favard", "--preset", "gasket", "--n", "4", "--grid", "16"]
    outputs = set()
    for threads in ("1", "8"):
        code, text = run(args + ["--threads", threads])
        assert code == 0
        outputs.add(text)
    assert len(outputs) == 1


def no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was started")


@pytest.mark.parametrize("suite", ["blaschke", "cover", "turan", "doubling", "cetsq"])
def test_verify_json_is_byte_identical_and_exit_codes(suite, monkeypatch):
    args = ["verify", "--suite", suite, "--trials", "10", "--seed", "7"]
    _, first = run(args + ["--threads", "1"])
    # The trials run in one loop: --threads 8 starts no pool.
    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", no_pool)
    code, second = run(args + ["--threads", "8"])
    assert first == second
    assert code == 0
    report = json.loads(first)
    assert set(report) == {"suite", "trials", "worst_case", "pass"}


def test_shadow_csv(tmp_path):
    path = tmp_path / "prof.csv"
    code, _ = run(
        ["shadow", "--preset", "gasket", "--n", "1", "--theta", "0.0", "--out", str(path)]
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# system=gasket n=1 theta=0")
    assert lines[1] == "cell_lo,cell_hi,value"
    assert len(lines) == 2 + 5  # five cells at depth 1, angle 0


def test_spectral_csv_columns():
    code, text = run(
        [
            "spectral", "--preset", "gasket", "--t", "0.37",
            "--n", "8", "--m", "2", "--ell", "3", "--grid", "50",
        ]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "x,abs_p1,abs_p2,abs_psharp,abs_pflat,abs_nu_hat"
    assert len(lines) == 51


def test_scan_product_json():
    code, text = run(
        ["scan", "--check", "product", "--preset", "corner4", "--N", "3",
         "--K", "1", "2", "--M", "1", "--theta-grid", "16"]
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["check"] == "product"
    assert rep["worst_ratio"] >= 0


def test_scan_baddir_json():
    code, text = run(
        ["scan", "--check", "baddir", "--preset", "gasket",
         "--m", "2", "--ell", "4", "--tau", "0.05", "--t-grid", "40"]
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["h_measure"] <= rep["bound"]


def test_config_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 0}')
    code, text = run(
        ["favard", "--preset", "gasket", "--n", "3", "--grid", "16", "--config", str(cfg)]
    )
    assert code == 0
    assert text.splitlines()[1].split(",")[1] == "0"


def test_json_error_reporting(capsys):
    code = cli.main(["favard", "--preset", "bogus", "--n", "1", "--json"], stdout=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "unknown-preset"


def test_unexpected_exception_exits_2_without_traceback(monkeypatch, capsys):
    def broken(args, stdout):
        return 1 / 0

    monkeypatch.setitem(cli._HANDLERS, "gen", broken)
    code, out = run(["gen", "--preset", "gasket"])
    err = capsys.readouterr().err
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == "favlab: internal-error: ZeroDivisionError: division by zero\n"
    code, out = run(["gen", "--preset", "gasket", "--json"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "internal-error",
                               "message": "ZeroDivisionError: division by zero"}


def test_unwritable_path_exits_2(tmp_path):
    target = tmp_path / "no-such-dir" / "x.csv"
    code, _ = run(["favard", "--preset", "gasket", "--n", "0", "--out", str(target)])
    assert code == 2


def test_verify_failure_exit_code(monkeypatch):
    from favlab import verify as vmod

    def fake(trials, seed):
        return {"suite": "turan", "trials": trials, "worst_case": 99.0, "pass": False}

    monkeypatch.setitem(vmod.SUITES, "turan", fake)
    code, _ = run(["verify", "--suite", "turan", "--trials", "5", "--seed", "1"])
    assert code == 1


@pytest.mark.parametrize("value", ["0", "-2", "abc", ""])
def test_bad_favlab_threads_exits_2_with_message(value, monkeypatch, capsys):
    monkeypatch.setenv("FAVLAB_THREADS", value)
    code, out = run(FAVARD)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"FAVLAB_THREADS must be a positive integer, got {value!r}" in err
    # --threads wins over the variable; an unset variable means one thread.
    assert run(FAVARD + ["--threads", "2"])[0] == 0
    monkeypatch.delenv("FAVLAB_THREADS")
    assert _parallel.default_threads() == 1 and run(FAVARD)[0] == 0


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_zero_trials_exits_2_with_message(suite, capsys):
    code, out = run(["verify", "--suite", suite, "--trials", "0", "--seed", "1"])
    assert code == 2 and out == ""
    assert "trials must be at least 1, got 0" in capsys.readouterr().err


SPECTRAL = ["spectral", "--preset", "gasket", "--t", "0.37", "--n", "8", "--m", "2", "--ell", "3"]
FAVARD = ["favard", "--preset", "gasket", "--n", "1", "--grid", "16"]


def test_spectral_grid_zero_exits_2(capsys):
    code, out = run(SPECTRAL + ["--grid", "0"])
    assert code == 2 and out == ""
    assert "must be a positive integer, got 0" in capsys.readouterr().err


SCAN = ["scan", "--preset", "gasket", "--N", "2"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["shadow", "--preset", "gasket", "--n", "2"], "--theta"),
        (SPECTRAL[:3] + SPECTRAL[5:], "--theta"),
        (SPECTRAL[:3] + SPECTRAL[5:], "--t"),
        (SCAN + ["--check", "bootstrap"], "--theta"),
        (SCAN + ["--check", "baddir"], "--tau"),
    ],
)
def test_non_finite_angle_exits_2_with_message(argv, flag, value, capsys):
    code, out = run(argv + [f"{flag}={value}"])
    assert code == 2 and out == ""
    assert f"must be a finite number, got {float(value)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [SCAN + ["--check", "product", "--theta-grid", "0"],
             SCAN + ["--check", "baddir", "--t-grid", "0"]]
)
def test_scan_empty_grid_exits_2(argv, capsys):
    code, out = run(argv)
    assert code == 2 and out == ""
    assert "must be a positive integer, got 0" in capsys.readouterr().err


def test_config_values_go_through_the_flag_types(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": "0", "grid": 16, "target-rel-error": 1e-3, "json": true}')
    code, text = run(["favard", "--preset", "gasket", "--n", "3", "--config", str(cfg)])
    assert code == 0
    assert text.splitlines()[1].split(",")[1] == "0"
    cfg.write_text('{"K": [1, "2"], "M": 1}')
    code, text = run(["scan", "--check", "product", "--preset", "corner4", "--N", "2",
                      "--theta-grid", "8", "--config", str(cfg)])
    assert code == 0
    assert json.loads(text)["pairs"] == [[1, 1], [2, 1]]


@pytest.mark.parametrize(
    "argv, override, message",
    [
        (SPECTRAL, '{"grid": 0}', "config key 'grid': must be a positive integer, got 0"),
        (FAVARD, '{"n": 2.5}', "config key 'n': invalid literal"),
        (FAVARD, '{"n": true}', "config key 'n': True is not a valid value"),
        (FAVARD, '{"n": null}', "config key 'n': None is not a valid value"),
        (FAVARD, '{"bogus": 1}', "unknown config key 'bogus' for favard"),
        (FAVARD, '{"json": "yes"}', "config key 'json' takes true or false"),
        (FAVARD, '[1, 2]', "must hold a JSON object"),
        (FAVARD, '{"n": ', "is not valid JSON"),
        (["verify", "--suite", "cover", "--trials", "2"], '{"suite": "nope"}',
         "config key 'suite': 'nope' is not one of"),
        (SPECTRAL, '{"t": NaN}', "config key 't': must be a finite number, got nan"),
    ],
)
def test_bad_config_exits_2_with_message(argv, override, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(override)
    code, out = run(argv + ["--config", str(cfg)])
    assert code == 2 and out == ""
    assert message in capsys.readouterr().err


def gasket_file(tmp_path, ratio):
    """A --system-file gasket whose three maps share the given ratio."""
    g = ifs.preset("gasket")
    path = tmp_path / "sys.json"
    path.write_text(ifs.system_to_json(ifs.build_system(g.centers(), ratio, g.shape, "gasket-r")))
    return str(path)


PAIRS = b'"centers": [[0.5, 0], [-0.5, 0]]'
MALFORMED = "system file is malformed: "


def sysdoc(body: bytes) -> bytes:
    return b'{"shape": "disc", ' + body + b"}"


@pytest.mark.parametrize(
    "document, message",
    [
        pytest.param(sysdoc(b'"ratio": 0.3,'), MALFORMED + "Expecting property name", id="json"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": [[0.5, 0], [\xff]]'),
                     MALFORMED + "'utf-8' codec can't decode byte 0xff", id="not-utf8"),
        pytest.param(sysdoc(PAIRS), "system file lacks the key 'ratio'", id="no-ratio"),
        pytest.param(b"[1, 2]", MALFORMED + "the document must be a JSON object", id="array"),
        pytest.param(sysdoc(b'"ratio": 0.3, "label": 7, ' + PAIRS),
                     MALFORMED + "the document must be a JSON object with a string label",
                     id="label"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": [[0.5, 0, 0], [-0.5, 0]]'),
                     MALFORMED + "too many values to unpack (expected 2)", id="3-coordinates"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": [0.5, -0.5]'),
                     MALFORMED + "cannot unpack non-iterable float object", id="flat-centers"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": [["a", 0], [-0.5, 0]]'),
                     MALFORMED + "'a' is not a number", id="text-center"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": [["0.5", 0], [-0.5, 0]]'),
                     MALFORMED + "'0.5' is not a number", id="numeral-center"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": [[true, 0], [-0.5, 0]]'),
                     MALFORMED + "True is not a number", id="bool-center"),
        pytest.param(sysdoc(b'"ratio": "0.3", ' + PAIRS), MALFORMED + "'0.3' is not a number",
                     id="text-ratio"),
        pytest.param(sysdoc(b'"ratio": 1' + b"0" * 400 + b", " + PAIRS),
                     MALFORMED + "int too large to convert to float", id="huge-ratio"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": [[NaN, 0], [0, 0.3]]'),
                     "center (nan+0j) with ratio 0.3 escapes the root region by nan",
                     id="nan-center-x"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": [[0, 0.3], [0, NaN]]'),
                     "center nanj with ratio 0.3 escapes the root region by nan",
                     id="nan-center-y"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": [[Infinity, 0], [0, 0.3]]'),
                     "escapes the root region by inf", id="inf-center"),
        pytest.param(sysdoc(b'"ratio": NaN, ' + PAIRS), "ratio nan outside (0, 1)", id="nan-ratio"),
        pytest.param(sysdoc(b'"ratio": Infinity, ' + PAIRS), "ratio inf outside (0, 1)",
                     id="inf-ratio"),
        pytest.param(sysdoc(b'"ratio": 0.3, "root_size": NaN, ' + PAIRS),
                     "root size nan is not a positive finite number", id="nan-root"),
        pytest.param(sysdoc(b'"ratio": 0.3, "root_size": Infinity, ' + PAIRS),
                     "root size inf is not a positive finite number", id="inf-root"),
        pytest.param(sysdoc(b'"ratio": 0.3, "root_size": 0, ' + PAIRS),
                     "root size 0.0 is not a positive finite number", id="zero-root"),
        pytest.param(sysdoc(b'"ratio": 0.3, "root_size": 1e308, ' + PAIRS),
                     "ContainmentViolation: root size 1e+308 exceeds 2^256", id="1e308-root"),
        pytest.param(sysdoc(b'"ratio": 0.3, "root_size": %d, ' % 2**257 + PAIRS),
                     f"ContainmentViolation: root size {2.0**257} exceeds 2^256", id="2^257-root"),
        pytest.param(b'{"shape": "hexagon", "ratio": 0.3, ' + PAIRS + b"}",
                     "MixedShapes: unknown shape 'hexagon'", id="hexagon"),
        pytest.param(b'{"shape": ["disc"], "ratio": 0.3, ' + PAIRS + b"}",
                     "MixedShapes: unknown shape ['disc']", id="shape-list"),
        pytest.param(b'{"ratio": 0.3, ' + PAIRS + b"}", "system file lacks the key 'shape'",
                     id="no-shape"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": [[0.5, 0]]'),
                     "EmptySystem: system needs at least two maps", id="one-center"),
        pytest.param(sysdoc(b'"ratio": 0.3, "centers": []'), "EmptySystem: system has no maps",
                     id="no-centers"),
        pytest.param(sysdoc(b'"ratio": 1.5, ' + PAIRS),
                     "ContainmentViolation: map 0: ratio 1.5 outside (0, 1)", id="ratio-above-1"),
        pytest.param(sysdoc(b'"ratio": 0, ' + PAIRS),
                     "ContainmentViolation: map 0: ratio 0.0 outside (0, 1)", id="zero-ratio"),
    ],
)
@pytest.mark.parametrize("argv", [["gen"], ["favard", "--n", "2", "--grid", "16"]], ids=["gen", "favard"])
def test_bad_system_file_exits_2_with_message(argv, document, message, tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_bytes(document)
    code, out = run(argv + ["--system-file", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and out == "" and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--t", "0.37", "--n", "8", "--m", "2", "--ell", "3", "--grid", "50"],
        ["spectral", "--theta", "0.3", "--n", "8", "--m", "2", "--ell", "3", "--grid", "50"],
        ["scan", "--check", "baddir", "--m", "1", "--ell", "2", "--t-grid", "4"],
    ],
)
def test_transform_rejects_ratio_other_than_one_over_l(argv, tmp_path, capsys):
    code, out = run(argv + ["--system-file", gasket_file(tmp_path, 0.3)])
    assert code == 2 and out == ""
    assert "the transform needs ratio 1/L = 1/3, got ratio 0.3" in capsys.readouterr().err
    code, out = run(argv + ["--system-file", gasket_file(tmp_path, 1.0 / 3.0)])
    assert code == 0 and out


def test_spectral_threshold_reuses_the_low_block(monkeypatch):
    # With --grid >= 1000 the small-value scan reads P2 from the products:
    # phi is evaluated once per scale.  Below 1000 it evaluates P2 (scales
    # n-m..n) again on its own 1000-point grid.
    calls = []
    call = spectral.ExpPoly.__call__
    monkeypatch.setattr(spectral.ExpPoly, "__call__", lambda self, z: calls.append(1) or call(self, z))
    for grid, extra in (("2000", 0), ("500", 3)):
        calls.clear()
        code, _ = run(SPECTRAL + ["--grid", grid, "--threshold", "0.3"])
        assert code == 0 and len(calls) == 8 + extra


CAP = "must be a positive integer, got -5"
FLOAT_FLAGS = ("target-rel-error", "threshold", "k-exponent")


@pytest.mark.parametrize(
    "argv, flag, value, message",
    [
        (SCAN + ["--check", "product"], "K", "0", "must be a positive integer, got 0"),
        (SCAN + ["--check", "product"], "M", "0", "must be a positive integer, got 0"),
        (SCAN + ["--check", "escan"], "K", "0", "must be a positive integer, got 0"),
        (FAVARD, "target-rel-error", "nan", "must be a positive finite number, got nan"),
        (FAVARD, "target-rel-error", "0", "must be a positive finite number, got 0.0"),
        (FAVARD, "target-rel-error", "inf", "must be a positive finite number, got inf"),
        (FAVARD, "refine-limit", "-1", "must be a nonnegative integer, got -1"),
        (FAVARD, "cap", "-5", CAP),
        (["shadow", "--preset", "gasket", "--n", "2", "--theta", "0.2"], "cap", "-5", CAP),
        (SCAN + ["--check", "bootstrap"], "cap", "-5", CAP),
        (SPECTRAL, "threshold", "nan", "must be a positive finite number, got nan"),
        (SPECTRAL, "threshold", "inf", "must be a positive finite number, got inf"),
        (SPECTRAL, "threshold", "-inf", "must be a positive finite number, got -inf"),
        (SCAN + ["--check", "escan"], "k-exponent", "nan", "must be a finite number, got nan"),
        (SCAN + ["--check", "escan"], "k-exponent", "inf", "must be a finite number, got inf"),
        (SCAN + ["--check", "escan"], "k-exponent", "-inf", "must be a finite number, got -inf"),
        (SCAN + ["--check", "escan"], "threads", "0", "must be a positive integer, got 0"),
        (FAVARD, "threads", "-1", "must be a positive integer, got -1"),
    ],
)
def test_bad_numeric_flag_exits_2_through_argv_and_config(
    argv, flag, value, message, tmp_path, capsys
):
    code, out = run(argv + [f"--{flag}={value}"])  # "=" keeps "-inf" a value, not a flag
    assert code == 2 and out == ""
    assert message in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: float(value) if flag in FLOAT_FLAGS else int(value)}))
    code, out = run(argv + ["--config", str(cfg)])
    assert code == 2 and out == ""
    assert f"config key {flag!r}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["escan", "l2"])
def test_escan_and_l2_refuse_more_than_one_K(check, tmp_path, capsys):
    argv = SCAN + ["--check", check, "--theta-grid", "4"]
    message = f"--check {check} takes one --K value, got 2\n"
    code, out = run(argv + ["--K", "2", "3"])
    assert code == 2 and out == "" and capsys.readouterr().err.endswith(": " + message)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"K": [2, 3]}')
    code, out = run(argv + ["--config", str(cfg)])
    assert code == 2 and out == "" and capsys.readouterr().err.endswith(": " + message)
    code, out = run(argv + ["--K", "3"])
    assert code == 0 and json.loads(out)["K"] == 3


BUFFON = ["buffon", "--preset", "corner4", "--n", "1", "--trials", "10", "--seed", "1"]
BOOT = ["scan", "--check", "bootstrap", "--preset", "gasket"]
SCAN4 = ["scan", "--preset", "gasket", "--theta-grid", "4", "--check"]


@pytest.mark.parametrize(
    "argv, flag, value, code, message",
    [
        (["shadow", "--preset", "gasket", "--n", "1", "--theta", "0.3"], "n", "10000", 3,
         "3^10000 pieces exceeds cap 67108864"),
        (FAVARD, "n", "10000", 3, "3^10000 pieces exceeds cap 67108864"),
        (BUFFON, "n", "10000", 2, "depth 10000 exceeds the needle precision ceiling"),
        (BOOT + ["--l-max", "2"], "N", "5000", 3, "3^10000 pieces exceeds cap 67108864"),
        (BOOT, "N", "0", 2, "base depth N must be at least 1, got 0"),
        (BOOT + ["--N", "1"], "l-max", "100000", 3, "3^100000 pieces exceeds cap 67108864"),
        (SCAN4 + ["product"], "N", "0", 2, "depth N must be at least 1, got 0"),
        (SCAN4 + ["escan"], "N", "0", 2, "depth N must be at least 1, got 0"),
        (SCAN4 + ["l2"], "N", "0", 2, "depth N must be at least 1, got 0"),
    ],
)
def test_out_of_range_depth_exits_with_message_through_argv_and_config(
    argv, flag, value, code, message, tmp_path, capsys
):
    got, out = run(argv + [f"--{flag}={value}"])
    err = capsys.readouterr().err
    assert got == code and out == "" and message in err and "Traceback" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: int(value)}))
    got, out = run(argv + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert got == code and out == "" and message in err and "Traceback" not in err


DEEP_SPECTRAL = ["spectral", "--preset", "gasket", "--t", "0.3", "--n", "3", "--m", "1",
                 "--ell", "1", "--grid", "3"]
BADDIR = ["scan", "--check", "baddir", "--preset", "gasket"]


@pytest.mark.parametrize(
    "argv, flag, value, message",
    [
        (DEEP_SPECTRAL, "n", 700, "scale 3^700 exceeds the float range"),
        (BADDIR, "m", 700, "scale 3^704 exceeds the float range"),
        (BADDIR, "ell", 700, "scale 3^702 exceeds the float range"),
        (BADDIR, "tau", -1000, "threshold e^(-tau*ell) = e^4000.0 exceeds the float range"),
        (SCAN4 + ["escan"], "k-exponent", -1e300, "cut K^(-k) = 2^1e+300 exceeds the float range"),
        (SCAN4 + ["l2"], "k-exponent", -1e300, "cut K^(-k) = 2^1e+300 exceeds the float range"),
        (SCAN4 + ["l2"], "k-exponent", -1024, "cut K^(-k) = 2^1024 exceeds the float range"),
        *(pytest.param(SCAN4 + [check], "K", 10**400,
                       f"cut K^(-k) = {10**400}^-3 exceeds the float range", id=f"{check}-K-1e400")
          for check in ("escan", "l2")),
    ],
)
def test_scale_beyond_float_range_exits_2_through_argv_and_config(
    argv, flag, value, message, tmp_path, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: value}))
    for given in ([f"--{flag}={value}"], ["--config", str(cfg)]):
        code, out = run(argv + given)
        err = capsys.readouterr().err
        assert (code, out, err) == (2, "", f"favlab: SpecInvalid: {message}\n")
        code, out = run(argv + given + ["--json"])
        err = capsys.readouterr().err
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {"error": "SpecInvalid", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        DEEP_SPECTRAL + ["--n", "646"],
        # L^(m+ell) = 3^644 is a float, but the grid's derivative bound overflows
        BADDIR + ["--m", "640", "--t-grid", "1"],
        # e^(-tau*ell) = e^-4000 underflows to 0
        BADDIR + ["--tau", "1000", "--t-grid", "2"],
        BADDIR + ["--ell", "0", "--t-grid", "3"],
    ],
)
def test_scales_at_the_float_limit_run(argv, capsys):
    code, out = run(argv)
    assert code == 0 and out and capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--t", "0.37", "--n", "6", "--m", "2", "--ell", "2", "--grid", "50"],
        ["scan", "--check", "baddir", "--m", "1", "--ell", "2", "--t-grid", "4"],
    ],
)
def test_slope_form_of_a_two_map_system_exits_2(argv, capsys):
    code, out = run(argv + ["--preset", "random-2-seed1"])
    assert code == 2 and out == ""
    assert "the slope form anchors on maps (0, 1, 2); the system has 2" in capsys.readouterr().err


def test_threads_start_at_most_one_worker_per_item(monkeypatch):
    seen = []

    class Recording(_parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2))

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", Recording)
    assert _parallel.ordered_map(abs, [-1, -2, -3], threads=10**6) == [1, 2, 3]
    assert _parallel.ordered_map(abs, [-1], threads=10**6) == [1]
    assert seen == [3]
    # The gasket's grid of 8 maps 5 angles on [0, pi/6], then 4 midpoints in
    # the one refinement round: a pool of 5 workers, then one of 4.
    argv = ["favard", "--preset", "gasket", "--n", "1", "--grid", "8", "--refine-limit", "1"]
    code, text = run(argv + ["--threads", str(10**6)])
    assert code == 0 and text.startswith("system,n,method")
    assert seen == [3, 5, 4]


def test_cached_parser_gives_the_bytes_of_a_fresh_one(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 0, "grid": 16}')
    product = ["scan", "--check", "product", "--preset", "corner4", "--N", "2",
               "--theta-grid", "8"]
    calls = [
        FAVARD,
        product + ["--K", "3"],
        product,
        ["favard", "--preset", "gasket", "--n", "3", "--config", str(cfg)],
        ["favard", "--preset", "gasket"],
        ["nonsense"],
        product + ["--M", "1", "3"],
        product,
        ["shadow", "--preset", "gasket", "--n", "1", "--theta", "0.3"],
        ["gen", "--preset", "corner4"],
    ]

    def sequence():
        results = []
        for argv in calls:
            code, out = run(argv)
            results.append((code, out, capsys.readouterr().err))
        return results

    cached = sequence()
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cached == sequence()
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 2, 2, 0, 0, 0, 0]
    assert json.loads(cached[2][1])["pairs"] == [[2, 2]]
