"""Exit-code table: every numeric flag of every subcommand against bad values.

The flags come from `cli.build_parser()`: every option with a type
converter, for each subcommand and, under `scan`, for each check, so a new
flag is covered as soon as it exists.  Each one gets 0, -1, nan and inf
through argv, and the same values as JSON numbers and as strings through
`--config`.  Every case must end in exit 0, 2 or 3 without a traceback and
without `internal-error`: `cli.main` turns any unexpected exception into
exit 2 with that kind, so the table would otherwise stop catching crashes.

Through argv every flag also gets 10^15, 10^30 and +-1e300, values past
every count, depth, grid and float range the commands admit.  Each is
refused at once or runs a small command: depths meet the piece cap or the
needle's precision ceiling, trial counts their ceilings, grids the address
space, and float flags the range checks of the scales, the threshold and
the exceptional-set cut.  test_cli.py pins the messages of the grids
(`test_huge_grid_exits_3_with_one_line_message`) and of the trial counts
(`test_trials_above_the_ceiling_exit_2_at_once`).
"""

import argparse
import io
import json

import pytest

from favlab import cli

# A cheap valid command line per subcommand (per check for scan).
BASE = {
    "gen": ["gen", "--preset", "gasket"],
    "shadow": ["shadow", "--preset", "gasket", "--n", "1", "--theta", "0.3"],
    "favard": ["favard", "--preset", "gasket", "--n", "1", "--grid", "16"],
    "buffon": ["buffon", "--preset", "corner4", "--n", "1", "--trials", "10", "--seed", "1"],
    "spectral": ["spectral", "--preset", "gasket", "--t", "0.37", "--n", "4", "--m", "1",
                 "--ell", "2", "--grid", "50"],
    "verify": ["verify", "--suite", "blaschke", "--trials", "2"],
}
SCAN = ["--preset", "gasket", "--N", "2", "--theta-grid", "4", "--l-max", "2", "--m", "1",
        "--ell", "2", "--t-grid", "5"]
VALUES = ("0", "-1", "nan", "inf", str(10**15), str(10**30), "1e300", "-1e300")
CONFIG_VALUES = (0, -1, float("nan"), float("inf"), "nan", "inf")


def numeric_flags():
    """(command line, flag) for every typed option of every subcommand."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    out = []
    for name, sub in commands.choices.items():
        check = next((a for a in sub._actions if a.dest == "check"), None)
        bases = [["scan", "--check", c] + SCAN for c in check.choices] if check else [BASE[name]]
        flags = [a.option_strings[0] for a in sub._actions if a.option_strings and a.type]
        out += [(base, flag) for base in bases for flag in flags]
    return out


FLAGS = numeric_flags()


def crashed(err: str) -> bool:
    return "Traceback" in err or "internal-error" in err


def outcome(argv, capsys):
    code = cli.main(argv, stdout=io.StringIO())
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", FLAGS,
                         ids=["-".join(argv[:3:2] if argv[0] == "scan" else argv[:1]) + flag
                              for argv, flag in FLAGS])
def test_bad_numeric_value_exits_0_2_or_3(argv, flag, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for value in VALUES:
        code, err = outcome(argv + [f"{flag}={value}"], capsys)  # "=" keeps "-1" a value
        assert code in (0, 2, 3) and not crashed(err), (flag, value, code, err)
    for value in CONFIG_VALUES:
        cfg.write_text(json.dumps({flag.lstrip("-"): value}))
        code, err = outcome(argv + ["--config", str(cfg)], capsys)
        assert code in (0, 2, 3) and not crashed(err), (flag, value, code, err)

