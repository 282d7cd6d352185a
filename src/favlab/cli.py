"""Command-line entry point.

Subcommands: gen | shadow | favard | buffon | spectral | verify | scan.
Exit codes: 0 success, 1 verification-suite failure, 2 usage or config
error (and any unexpected exception, as `internal-error`), 3 enumeration
cap exceeded or out of memory.  With --json, errors go to stderr as a
single JSON object.  Identical invocations (same flags, same
seed) produce byte-identical output regardless of --threads.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import emit, favard, ifs, shadow, spectral, stacks, verify
from ._parallel import default_threads
from .errors import EnumerationCapExceeded, FavlabError, UnknownPreset

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _load_system(args) -> ifs.SimilaritySystem:
    if getattr(args, "system_file", None):
        with open(args.system_file, "rb") as fh:
            return ifs.system_from_json(fh.read())
    if getattr(args, "preset", None):
        return ifs.preset(args.preset)
    raise FavlabError("pass --preset or --system-file")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {value}, which is negative"
        )
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value}")
    return value


def _positive_finite(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {value}")
    return value


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="gasket | corner4 | random-L-seedS")
    p.add_argument("--system-file", help="system definition JSON path")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--json", action="store_true", help="machine-readable errors")
    p.add_argument("--threads", type=_positive, default=None, help="worker threads")
    p.add_argument("--config", default=None, help="JSON file overriding flags")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The favlab argument parser, built once per process and shared.

    Reuse is safe because parsing leaves the parser unchanged and no handler
    changes an argument value in place (the `--K`/`--M` default list is the
    same object on every call that leaves the flag out).
    """
    ap = argparse.ArgumentParser(prog="favlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a validated system definition JSON")
    _add_system_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("shadow", help="multiplicity profile CSV at one angle")
    _add_system_flags(p)
    p.add_argument("--n", type=_nonnegative, required=True)
    p.add_argument("--theta", type=_finite, required=True)
    p.add_argument("--cap", type=_positive, default=ifs.ENUMERATION_CAP)
    _add_common_flags(p)

    p = sub.add_parser("favard", help="direction-averaged shadow length")
    _add_system_flags(p)
    p.add_argument("--n", type=_nonnegative, required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--target-rel-error", type=_positive_finite, default=1e-6)
    p.add_argument("--refine-limit", type=_nonnegative, default=6)
    p.add_argument("--cap", type=_positive, default=ifs.ENUMERATION_CAP)
    _add_common_flags(p)

    p = sub.add_parser("buffon", help="Monte Carlo needle estimate")
    _add_system_flags(p)
    p.add_argument("--n", type=_nonnegative, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_nonnegative, required=True)
    _add_common_flags(p)

    p = sub.add_parser("spectral", help="product magnitudes over the sample block")
    _add_system_flags(p)
    p.add_argument("--theta", type=_finite, default=None)
    p.add_argument("--t", type=_finite, default=None)
    p.add_argument("--n", type=_nonnegative, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--threshold", type=_positive_finite, default=None, help="small-value cutoff")
    p.add_argument("--grid", type=_positive, default=10000)
    _add_common_flags(p)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=sorted(verify.SUITES),
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_nonnegative, default=0)
    _add_common_flags(p)

    p = sub.add_parser("scan", help="combinatorial reports")
    p.add_argument(
        "--check",
        required=True,
        choices=list(_SCANS),
    )
    _add_system_flags(p)
    p.add_argument("--N", type=_nonnegative, default=4)
    p.add_argument("--K", type=_positive, nargs="+", default=[2])
    p.add_argument("--M", type=_positive, nargs="+", default=[2])
    p.add_argument("--theta-grid", type=_positive, default=64)
    p.add_argument("--k-exponent", type=_finite, default=3.0)
    p.add_argument("--theta", type=_finite, default=0.2)
    p.add_argument("--l-max", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--ell", type=int, default=4)
    p.add_argument("--tau", type=_finite, default=0.05)
    p.add_argument("--t-grid", type=_positive, default=100)
    p.add_argument("--cap", type=_positive, default=ifs.ENUMERATION_CAP)
    _add_common_flags(p)

    return ap


def _config_value(action: argparse.Action, key: str, val):
    """A --config value converted and checked as the flag's own argument would be."""
    if action.nargs == 0:
        if not isinstance(val, bool):
            raise FavlabError(f"config key {key!r} takes true or false, got {val!r}")
        return val
    if val is None and action.default is None and not action.required:
        return None
    items = val if action.nargs == "+" and isinstance(val, list) and val else [val]
    out = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, float, str)):
            raise FavlabError(f"config key {key!r}: {item!r} is not a valid value")
        text = item if isinstance(item, str) else repr(item)
        try:
            value = action.type(text) if action.type else text
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise FavlabError(f"config key {key!r}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise FavlabError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
        out.append(value)
    return out if action.nargs == "+" else out[0]


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except ValueError as exc:
            raise FavlabError(f"config {args.config} is not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise FavlabError(f"config {args.config} must hold a JSON object")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {
        a.dest: a
        for a in commands.choices[args.command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    for key, val in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise FavlabError(f"unknown config key {key!r} for {args.command}")
        setattr(args, dest, _config_value(actions[dest], key, val))


def _grid(size: int) -> int:
    """size, refused as out of memory from 2^59 samples (4 EiB of float64):
    near its 2^63-byte index limit numpy raises ValueError, not MemoryError."""
    if size >= 1 << 59:
        raise MemoryError(f"a grid of {size} samples exceeds the address space")
    return size


def _cmd_gen(args, stdout) -> int:
    system = _load_system(args)
    emit.write_text(args.out, ifs.system_to_json(system) + "\n", stdout)
    return EXIT_OK


def _cmd_shadow(args, stdout) -> int:
    system = _load_system(args)
    f = shadow.multiplicity(system, args.n, args.theta, cap=args.cap)
    with emit.output(args.out, stdout) as stream:
        shadow.write_step_csv(stream, f, args.theta, args.n, system.label)
    return EXIT_OK


ESTIMATE_HEADER = ("system", "n", "method", "value", "error", "param", "seed")


def _write_estimate(args, stdout, label, n, method, value, error, param, seed) -> None:
    with emit.output(args.out, stdout) as stream:
        stream.write(",".join(ESTIMATE_HEADER) + "\n")
        stream.write("%s,%s,%s,%.17g,%.17g,%s,%s\n" % (label, n, method, value, error, param, seed))


def _cmd_favard(args, stdout) -> int:
    system = _load_system(args)
    cfg = favard.QuadratureConfig(
        grid_size=_grid(args.grid),
        refinement_limit=args.refine_limit,
        target_rel_error=args.target_rel_error,
    )
    res = favard.favard_length(system, args.n, cfg, cap=args.cap, threads=args.threads)
    if not res.converged:
        print("warning: refinement limit reached before target error", file=sys.stderr)
    _write_estimate(args, stdout, system.label, args.n, "quadrature",
                    res.value, res.error_estimate, res.grid, "")
    return EXIT_OK


def _cmd_buffon(args, stdout) -> int:
    system = _load_system(args)
    est, err = favard.buffon_estimate(system, args.n, args.trials, args.seed)
    _write_estimate(args, stdout, system.label, args.n, "buffon", est, err, args.trials, args.seed)
    return EXIT_OK


def _cmd_spectral(args, stdout) -> int:
    system = _load_system(args)
    spec = spectral.ProductSpec(args.n, args.m, args.ell)
    if args.t is not None:
        phi = spectral.t_form(system).poly(args.t)
    elif args.theta is not None:
        phi = spectral.phi_theta_poly(system, args.theta)
    else:
        raise FavlabError("pass --theta or --t")
    xs = np.linspace(*spectral.low_block_interval(phi, spec), _grid(args.grid))
    products = spectral.split_products(spec, phi, xs)
    # np.hypot on the parts is bit-equal to abs() of each complex128 scalar;
    # the array np.abs is not (it differs in the last place on many points).
    columns = [xs] + [np.hypot(z.real, z.imag) for z in products]
    with emit.output(args.out, stdout) as stream:
        emit.write_csv(
            stream, ["x", "abs_p1", "abs_p2", "abs_psharp", "abs_pflat", "abs_nu_hat"], columns
        )
    if args.threshold is not None:
        # An output grid with the 1000 samples the scan needs already holds
        # P2; a coarser one leaves the scan to sample P2 on its own grid.
        if args.grid >= 1000:
            cover = spectral.ssv_cover(xs, products[1], args.threshold)
        else:
            cover = spectral.ssv_scan(phi, spec, args.threshold, 1000)
        print(f"small-value components: {cover.count}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args, stdout) -> int:
    report = verify.run_suite(args.suite, args.trials, args.seed)
    emit.write_text(args.out, emit.json_report(report), stdout)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


def _thetas(args) -> np.ndarray:
    return np.linspace(0.0, np.pi, _grid(args.theta_grid), endpoint=False)


def _scan_product(args, system) -> dict:
    pairs = [(k, m) for k in args.K for m in args.M]
    rep = stacks.product_inequality_report(system, args.N, _thetas(args), pairs, cap=args.cap)
    return {"N": args.N, "pairs": [list(p) for p in pairs], "worst_ratio": rep.worst_ratio,
            "worst_at": list(rep.worst_at) if rep.worst_at else None, "checked": rep.checked}


def _one_K(args) -> int:
    if len(args.K) != 1:
        raise FavlabError(f"--check {args.check} takes one --K value, got {len(args.K)}")
    return args.K[0]


def _scan_escan(args, system) -> dict:
    K = _one_K(args)
    rep = stacks.e_scan(system, args.N, K, _thetas(args), args.k_exponent, cap=args.cap)
    return {"N": args.N, "K": K, "members": int(sum(rep.membership)),
            "grid": len(rep.membership), "measure_estimate": rep.measure_estimate}


def _scan_l2(args, system) -> dict:
    K = _one_K(args)
    rep = stacks.e_scan(system, args.N, K, _thetas(args), args.k_exponent, cap=args.cap)
    ratios = [r for _, r in rep.l2_ratios]
    return {"N": args.N, "K": K, "vacuous": not ratios, "max_ratio": max(ratios, default=0.0),
            "sampled": len(ratios)}


def _scan_bootstrap(args, system) -> dict:
    rep = stacks.bootstrap_report(system, args.theta, args.N, args.l_max, cap=args.cap)
    return {"theta": args.theta, "depths": list(rep.depths), "measures": list(rep.measures),
            "geom_a": rep.geom_a, "geom_rho": rep.geom_rho, "residual": rep.residual}


def _scan_baddir(args, system) -> dict:
    spec = spectral.ProductSpec(args.m + args.ell + 1, args.m, args.ell)
    ts = np.linspace(0.0, 1.0, _grid(args.t_grid))
    rep = stacks.bad_direction_scan(spectral.t_form(system), spec, args.tau, ts)
    return {"m": args.m, "ell": args.ell, "tau": args.tau, "h_measure": rep.h_measure,
            "bound": rep.bound, "offenders": int(sum(rep.offenders))}


# Each scan check runs its report and returns the JSON payload without "check".
_SCANS = {
    "product": _scan_product,
    "escan": _scan_escan,
    "l2": _scan_l2,
    "bootstrap": _scan_bootstrap,
    "baddir": _scan_baddir,
}


def _cmd_scan(args, stdout) -> int:
    system = _load_system(args)
    payload = {"check": args.check, **_SCANS[args.check](args, system)}
    emit.write_text(args.out, emit.json_report(payload), stdout)
    return EXIT_OK


_HANDLERS = {
    "gen": _cmd_gen,
    "shadow": _cmd_shadow,
    "favard": _cmd_favard,
    "buffon": _cmd_buffon,
    "spectral": _cmd_spectral,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}


def _fail(args_json: bool, code: int, kind: str, message: str) -> int:
    if args_json:
        sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    else:
        sys.stderr.write(f"favlab: {kind}: {message}\n")
    return code


def main(argv: list[str] | None = None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    wants_json = bool(getattr(args, "json", False))
    try:
        _apply_config(args, parser)
        if getattr(args, "threads", None) is None:
            args.threads = default_threads()
        return _HANDLERS[args.command](args, stdout)
    except EnumerationCapExceeded as exc:
        return _fail(wants_json, EXIT_CAP, "cap-exceeded", str(exc))
    except MemoryError as exc:
        return _fail(wants_json, EXIT_CAP, "out-of-memory", str(exc) or "allocation failed")
    except UnknownPreset as exc:
        return _fail(wants_json, EXIT_USAGE, "unknown-preset", str(exc))
    except FavlabError as exc:
        return _fail(wants_json, EXIT_USAGE, type(exc).__name__, str(exc))
    except OSError as exc:
        return _fail(wants_json, EXIT_USAGE, "io-error", str(exc))
    except Exception as exc:  # noqa: BLE001 - a bug still exits 2 with one line, never 1
        return _fail(wants_json, EXIT_USAGE, "internal-error", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
