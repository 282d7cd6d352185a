"""Per-layer tracing of favlab from outside the package.

`Tracer.install()` wraps every public function of favlab's modules (and
`ExpPoly.__call__`) in a span recorder and rebinds every module-level
binding of each wrapped function, including names imported into other
modules (`interval_union` in spectral, lemmas and verify) and values of
module-level dicts (`verify.SUITES`).  `Tracer.uninstall()` puts the
originals back.  Spans are kept in memory as tuples

    (span_id, parent_id, name, start, end, thread_id, info)

and written out at exit by `write_spans`.  A span opened in an
`ordered_map` pool thread gets the `ordered_map` span that caused it as its
parent.  `layer_metrics` turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict

MODULES = ("ifs", "shadow", "favard", "spectral", "lemmas", "stacks", "verify", "emit", "cli",
           "_parallel")
# emit.fmt formats a single CSV field; a span per field would swamp the trace.
# Its time is inside the emit.csv_rows spans.
SKIP = {"emit.fmt"}


def _cfg_rounds(args: tuple, kwargs: dict, result) -> tuple[int, bool]:
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    base = cfg.grid_size if cfg is not None else result.grid
    return (round(math.log2(result.grid / base)), bool(result.converged))


# The count a span carries, for the functions whose work is counted.
INFO = {
    "ifs.piece_centers": lambda a, k, r: int(r.size),
    "shadow.from_events": lambda a, k, r: (int(a[0].size), int(r.values.size)),
    "shadow.interval_union": lambda a, k, r: len(a[0]),
    "favard.favard_length": _cfg_rounds,
    "favard.buffon_estimate": lambda a, k, r: int(a[2] if len(a) > 2 else k["trials"]),
    "spectral.ExpPoly.__call__": lambda a, k, r: int(getattr(a[1], "size", 1)),
    "lemmas.count_zeros": lambda a, k, r: len(r.zeros),
    "lemmas.zeros_in_rect": lambda a, k, r: len(r),
    "verify.run_suite": lambda a, k, r: int(r["trials"]),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        info_of = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            busy: list[float] = []
            if name == "shadow.interval_union":
                # The argument may be a generator; count it by listing it.
                args = (list(args[0]),) + args[1:]
            elif name == "_parallel.ordered_map":
                args = (tracer._adopt(args[0], sid, busy), list(args[1])) + args[2:]
            stack.append(sid)
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info_of is not None:
                    info = info_of(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == "_parallel.ordered_map":
                    info = _pool_info(args, kwargs, busy)
                tracer.spans.append((sid, parent, name, start, end, threading.get_ident(), info))

        return traced

    def _adopt(self, fn, parent: int, busy: list[float]):
        """Run fn with `parent` as the caller span, in whichever thread runs it."""
        tracer = self

        def child(item):
            saved = tracer._stack()
            tracer._local.stack = [parent]
            cpu = time.thread_time()
            try:
                return fn(item)
            finally:
                busy.append(time.thread_time() - cpu)
                tracer._local.stack = saved

        return child

    def install(self) -> None:
        pkg = {m: importlib.import_module(f"favlab.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in pkg.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrappers[obj] = self._wrap(name, obj)
        exp_poly = pkg["spectral"].ExpPoly
        self._patch(exp_poly, "__call__", self._wrap("spectral.ExpPoly.__call__", exp_poly.__call__))
        for mod in [importlib.import_module("favlab")] + list(pkg.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._patch(obj, key, wrappers[val])

    def _patch(self, owner, key, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _pool_info(args: tuple, kwargs: dict, busy: list[float]) -> tuple:
    from favlab._parallel import default_threads

    items = len(args[1])
    threads = args[2] if len(args) > 2 else kwargs.get("threads")
    threads = default_threads() if threads is None else max(1, int(threads))
    return (items, min(threads, max(items, 1)), sum(busy))


# ------------------------------------------------------------ metrics

# Self time: the span's duration minus the part of it its child spans cover.
SELF_TIME = {
    "ifs.enum_s": ("ifs.piece_centers", "ifs.enumerate_pieces"),
    "shadow.sweep_s": ("shadow.from_events",),
    "shadow.canon_s": ("shadow.step_function",),
    "shadow.max_s": ("shadow.pointwise_max", "shadow.maximal_profile", "shadow.values_at"),
    "shadow.union_s": ("shadow.interval_union",),
    "shadow.level_s": ("shadow.level_measure", "shadow.level_intervals",
                       "shadow.support_measure", "shadow.support_intervals"),
    "favard.quad_self_s": ("favard.favard_length",),
    "spectral.phi_s": ("spectral.ExpPoly.__call__",),
    "cli.self_s": ("cli.main", "cli.build_parser"),
}
# Inclusive time: durations of the outermost spans of the named functions.
INCLUSIVE_TIME = {
    "favard.needle_s": ("favard.buffon_estimate",),
    "spectral.products_s": ("spectral.split_products", "spectral.nu_hat_eval"),
    "spectral.ssv_s": ("spectral.ssv_scan", "spectral.ssv_small_points"),
    "lemmas.zero_s": ("lemmas.count_zeros", "lemmas.zeros_in_rect"),
    "lemmas.sup_s": ("lemmas.supremum_on_interval", "lemmas.box_sup"),
    "lemmas.cetsq_s": ("lemmas.cetsq_ratio",),
    "stacks.scan_s": ("stacks.",),
    "verify.suite_s": ("verify.run_suite",),
    "cli.emit_s": ("emit.", "shadow.write_step_csv"),
}
COUNTS = (
    "ifs.pieces", "shadow.profiles", "shadow.events", "shadow.cells", "shadow.union_items",
    "favard.theta_evals", "favard.rounds", "favard.needles", "spectral.phi_points",
    "lemmas.zero_counts", "lemmas.zeros", "lemmas.phi_points", "stacks.directions",
    "verify.trials", "cli.ops",
)
# The counts that must repeat exactly between runs with one seed.
DETERMINISTIC = (
    "ifs.pieces", "shadow.events", "shadow.cells", "favard.theta_evals",
    "spectral.phi_points", "lemmas.zero_counts",
)


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _inclusive_groups(name: str) -> frozenset[str]:
    return frozenset(
        metric for metric, names in INCLUSIVE_TIME.items()
        if any(name == p or (p.endswith(".") and name.startswith(p)) for p in names)
    )


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one pass, from its spans (see the README table)."""
    spans = sorted(spans)  # by id: a parent opens, and so is numbered, before its children
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    # Per span, inherited from its ancestors: the inclusive-time metrics
    # already open, whether a lemmas or piece_centers span encloses it, and
    # the nearest enclosing span outside the thread pool.
    open_groups: dict[int, frozenset] = {}
    in_lemmas: dict[int, bool] = {}
    in_centers: dict[int, bool] = {}
    caller: dict[int, str] = {}
    groups_of: dict[str, frozenset] = {}

    out = {k: 0.0 for k in SELF_TIME} | {k: 0.0 for k in INCLUSIVE_TIME}
    out |= {k: 0 for k in COUNTS}
    solves = converged = 0
    pool_busy = pool_capacity = 0.0
    for sid, parent, name, start, end, _, info in spans:
        dur = end - start
        if name not in groups_of:
            groups_of[name] = _inclusive_groups(name)
        above = open_groups.get(parent, frozenset())
        for metric in groups_of[name] - above:
            out[metric] += dur
        open_groups[sid] = above | groups_of[name]
        in_lemmas[sid] = in_lemmas.get(parent, False) or name.startswith("lemmas.")
        in_centers[sid] = in_centers.get(parent, False) or name == "ifs.piece_centers"
        pool = name == "_parallel.ordered_map"
        caller[sid] = caller.get(parent, "") if pool else name
        for metric, names in SELF_TIME.items():
            if name in names:
                out[metric] += dur - _covered(start, end, children.get(sid, []))
        if name == "ifs.piece_centers" and not in_centers.get(parent, False):
            out["ifs.pieces"] += info
        elif name == "shadow.multiplicity":
            out["shadow.profiles"] += 1
        elif name == "shadow.from_events":
            out["shadow.events"] += info[0]
            out["shadow.cells"] += info[1]
        elif name == "shadow.interval_union":
            out["shadow.union_items"] += info
        elif name == "favard.favard_length":
            solves += 1
            out["favard.rounds"] += info[0]
            converged += info[1]
        elif name == "favard.buffon_estimate":
            out["favard.needles"] += info
        elif name == "spectral.ExpPoly.__call__":
            out["spectral.phi_points"] += info
            if in_lemmas.get(parent, False):
                out["lemmas.phi_points"] += info
        elif name in ("lemmas.count_zeros", "lemmas.zeros_in_rect"):
            out["lemmas.zero_counts"] += 1
            out["lemmas.zeros"] += info
        elif name == "stacks.bootstrap_report":
            out["stacks.directions"] += 1
        elif name == "verify.run_suite":
            out["verify.trials"] += info
        elif name == "cli.main":
            out["cli.ops"] += 1
        elif pool:
            items, threads, busy = info
            if caller[sid] == "favard.favard_length":
                out["favard.theta_evals"] += items
            elif caller[sid].startswith("stacks."):
                out["stacks.directions"] += items
                pool_busy += busy
                pool_capacity += threads * dur
    out["favard.converged_frac"] = converged / solves if solves else 0.0
    out["favard.needles_per_s"] = (
        out["favard.needles"] / out["favard.needle_s"] if out["favard.needle_s"] else 0.0
    )
    out["stacks.busy_frac"] = pool_busy / pool_capacity if pool_capacity else 0.0
    return out


def write_spans(path, spans: list[tuple]) -> None:
    """Tab-separated spans, one a line, in the order they ended."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span\tparent\tname\tstart\tend\tthread\tinfo\n")
        for sid, parent, name, start, end, thread, info in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\t{thread}\t{info!r}\n")


UNITS = {k: "s" for k in SELF_TIME} | {k: "s" for k in INCLUSIVE_TIME} | {k: "count" for k in COUNTS}
UNITS |= {
    "favard.converged_frac": "ratio",
    "favard.needles_per_s": "1/s",
    "stacks.busy_frac": "ratio",
    "cli.out_bytes": "bytes",
    "trace.overhead": "ratio",
}
