"""Outside-in trace of the ``pursuit`` layers.

Nothing in the package is edited.  While a ``Tracer`` is installed it
replaces public entry points with wrappers that record one span per call
(id, parent id, name, start, end, attributes) in memory.  Every module of
the package that binds the same function object is patched, so calls made
through ``from .solver import solve_finite`` style imports are seen too.
``uninstall`` restores the originals.

Parents follow the calling thread's span stack.  Work that the verify
suite hands to its thread pool starts with an empty stack, so its parent is
the innermost span open on the thread that installed the tracer.  A call
made while a span of the same name is already open on the thread (a product
net building its base net, say) is folded into the outer span.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
Counts (calls, entries scanned, sweeps, cache hits, steps) depend only on
the commands run, so they repeat exactly from pass to pass.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

LEMMA_IDS = (
    "L1-equality",
    "step-monotone",
    "pos-continuity",
    "agility-continuity",
    "subdivision-monotone",
    "volatile-sandwich",
    "minmax-gap",
    "oracle-equivalence",
)

SOLVER_FNS = (
    "solve_finite",
    "solve_volatile",
    "limit_value",
    "duration_value",
    "standard_value",
    "cop_number_estimate",
    "policy_playout",
)

# (mode, with arg table, axis class) combinations the solver can issue:
# cop min-filters run on axes 1..k, the robber max-filter on axis 0, and
# the volatile adversary filters every axis without arg tables.
FILTER_KINDS = (
    "min.lead", "min.mid", "min.trail",
    "max.lead", "max.mid", "max.trail",
    "min_arg.mid", "min_arg.trail", "max_arg.lead",
)

F64 = 8  # bytes per value-layer entry; arg tables are int64, also 8 bytes


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._patches = []

    # -- span recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1][0]
        main = self._main_stack
        return main[-1][0] if main else None

    def span(self, name: str, fn, *args, before=None, after=None, **kwargs):
        """Call ``fn`` inside a span.  ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` return attribute dicts; they run
        outside the timed interval."""
        stack = self._stack()
        if any(n == name for _, n in stack):
            return fn(*args, **kwargs)
        attrs = before(args, kwargs) if before else {}
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, attrs))
        if after:
            attrs.update(after(args, kwargs, result))
        return result

    def reset(self) -> None:
        self.spans = []

    # -- patching

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, before=before, after=after,
                               **kwargs)

        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        """Wrap ``owner.attr`` and every other binding of the same function
        in the package's modules."""
        original = getattr(owner, attr)
        wrapped = self._wrap(name, original, before, after)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "pursuit" or mod is owner:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    targets.append((mod, key))
        for obj, key in targets:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapped)

    def install(self) -> None:
        import pursuit.arena as arena
        import pursuit.cli as cli
        import pursuit.solver as solver
        import pursuit.spaces as spaces
        import pursuit.verify as verify

        self._main_stack = self._stack()
        self.patch(solver, "reach_filter", "kernels.reach_filter",
                   after=_filter_attrs)
        self.patch(solver, "reach_set", "solver.reach_set",
                   before=_reach_hit)
        for fn in SOLVER_FNS:
            self.patch(solver, fn, f"solver.{fn}")
        self.patch(spaces, "build_net", "spaces.build_net",
                   after=lambda a, kw, net: {"points": net.size})
        self.patch(spaces.Net, "nearest_index", "spaces.nearest_index")
        self.patch(cli, "_dump", "cli.dump",
                   after=lambda a, kw, r: {"bytes": os.path.getsize(a[1])})
        self.patch(arena, "run_game", "arena.run_game",
                   after=lambda a, kw, traj: {"steps": traj.steps})
        self.patch(arena, "export_trajectory_jsonl", "arena.export")
        self.patch(arena, "export_gaps_csv", "arena.export")
        self.patch(verify, "run_suite", "verify.run_suite")
        self.patch(verify, "exhaustive_value", "verify.oracle")
        self.patch(verify, "minmax_gap_probe", "verify.minmax_probe")
        runners = verify._LEMMA_RUNNERS
        self._patches.append((runners, None, dict(runners)))
        for lemma, (fn, tol) in list(runners.items()):
            runners[lemma] = (self._wrap(f"verify.lemma.{lemma}", fn), tol)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            if key is None:
                obj.clear()
                obj.update(original)
            else:
                setattr(obj, key, original)
        self._patches = []

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, **attrs}) + "\n")


def _reach_hit(args, kwargs) -> dict:
    net, t = args[0], args[1]
    cache = getattr(net, "_reach_cache", None)
    return {"hit": cache is not None and float(t) in cache}


def _filter_attrs(args, kwargs, result) -> dict:
    values, indptr, indices, axis, mode = args[:5]
    want_arg = args[5] if len(args) > 5 else kwargs.get("want_arg", False)
    ndim = values.ndim
    where = "lead" if axis == 0 else ("trail" if axis == ndim - 1 else "mid")
    P = indptr.size - 1
    others = values.size // P
    entries = int(indices.size) * others
    written = values.size * F64 * (2 if want_arg else 1)
    return {"kind": f"{mode}{'_arg' if want_arg else ''}.{where}",
            "entries": entries, "bytes": entries * F64 + written}


# ---------------------------------------------------------------------------
# span tree -> metrics


def _covered(intervals) -> float:
    """Length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its children cover."""
    children = {}
    for sid, parent, _, t0, t1, _ in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _ in spans:
        kids = [(max(s, t0), min(e, t1)) for s, e in children.get(sid, ())]
        out[sid] = (t1 - t0) - _covered([k for k in kids if k[1] > k[0]])
    return out


def _within(spans, names) -> set:
    """Ids of spans that have an ancestor (or are themselves) named in
    ``names``."""
    parent_of = {sid: parent for sid, parent, *_ in spans}
    name_of = {sid: name for sid, _, name, *_ in spans}
    memo = {}

    def inside(sid):
        path = []
        found = False
        while sid is not None:
            if sid in memo:
                found = memo[sid]
                break
            path.append(sid)
            if name_of.get(sid) in names:
                found = True
                break
            sid = parent_of.get(sid)
        for p in path:
            memo[p] = found
        return found

    return {sid for sid in name_of if inside(sid)}


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def total(name):
        return sum(t1 - t0 for _, _, _, t0, t1, _ in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(a.get(key, 0) for *_, a in by_name.get(name, ()))

    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    m = {}
    filters = by_name.get("kernels.reach_filter", [])
    filter_s = {kind: 0.0 for kind in FILTER_KINDS}
    for _, _, _, t0, t1, a in filters:
        if "kind" in a:  # absent when the call raised
            filter_s[a["kind"]] = filter_s.get(a["kind"], 0.0) + (t1 - t0)
    for kind in FILTER_KINDS:
        m[f"kernels.filter_s.{kind}"] = (filter_s[kind], "s")
    entries = attr_sum("kernels.reach_filter", "entries")
    m["kernels.filter_calls"] = (len(filters), "count")
    m["kernels.entries"] = (entries, "count")
    m["kernels.entries_per_s"] = (rate(entries, sum(filter_s.values())), "1/s")
    m["kernels.computed_mb"] = (attr_sum("kernels.reach_filter", "bytes") / 1e6, "MB")

    in_limit = _within(spans, {"solver.limit_value", "solver.duration_value"})
    m["solver.limit_sweeps"] = (sum(
        1 for sid, _, _, _, _, a in filters
        if a.get("kind") == "max.lead" and sid in in_limit), "count")
    calls = count("solver.reach_set")
    hits = sum(1 for *_, a in by_name.get("solver.reach_set", ()) if a["hit"])
    m["solver.reach_set_s"] = (total("solver.reach_set"), "s")
    m["solver.reach_set_calls"] = (calls, "count")
    m["solver.reach_cache_hit_frac"] = (hits / calls if calls else 0.0, "ratio")
    for fn in SOLVER_FNS:
        m[f"solver.{fn}_s"] = (total(f"solver.{fn}"), "s")

    points = attr_sum("spaces.build_net", "points")
    m["spaces.build_net_s"] = (total("spaces.build_net"), "s")
    m["spaces.build_net_calls"] = (count("spaces.build_net"), "count")
    m["spaces.net_points"] = (points, "count")
    m["spaces.matrix_mb"] = (sum(
        a.get("points", 0) ** 2 * F64 for *_, a in by_name.get("spaces.build_net", ())
    ) / 1e6, "MB")
    m["spaces.nearest_index_s"] = (total("spaces.nearest_index"), "s")
    m["spaces.nearest_index_calls"] = (count("spaces.nearest_index"), "count")

    selfs = self_times(spans)
    m["cli.dump_s"] = (total("cli.dump"), "s")
    m["cli.result_mb"] = (attr_sum("cli.dump", "bytes") / 1e6, "MB")
    m["cli.self_s"] = (sum(selfs[s[0]] for s in by_name.get("cli.main", ())), "s")

    steps = attr_sum("arena.run_game", "steps")
    m["arena.run_game_s"] = (total("arena.run_game"), "s")
    m["arena.steps"] = (steps, "count")
    m["arena.steps_per_s"] = (rate(steps, total("arena.run_game")), "1/s")

    for lemma in LEMMA_IDS:
        m[f"verify.{lemma}_s"] = (total(f"verify.lemma.{lemma}"), "s")
    m["verify.oracle_s"] = (total("verify.oracle"), "s")
    m["verify.oracle_calls"] = (count("verify.oracle"), "count")
    m["verify.minmax_probe_s"] = (total("verify.minmax_probe"), "s")
    return m
