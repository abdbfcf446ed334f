"""Per-layer tracing from outside the library.

Each traced function is replaced, in its defining module and in every
``condexp`` module that imported it by name, by a wrapper that records a span
(name, start, end, parent, item).  Spans stay in memory until ``dump``.
Aggregates are kept on the fly: calls, inclusive seconds (outermost span of a
group only, so nested or recursive calls count once) and self seconds (a
span's duration minus its children).  They are staged per item and added to
the run's totals by ``end_item``, which instead drops the item's spans and
aggregates when its deadline stopped it.  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

# (defining module, attribute or Class.method, group); a group of None means
# one group per importing module, named "<importing module>.<function>".
TARGETS = [
    ("games", "interim_affine", "games.interim_affine"),
    ("games", "player_payoff", "games.player_payoff"),
    ("games", "strategy_moments", "games.strategy_moments"),
    ("games", "derive_interplayer_info", "games.derive_interplayer_info"),
    ("games", "BayesianGame.__init__", "games.BayesianGame.init"),
    ("equilibrium", "solve_behavioral", "equilibrium.solve"),
    ("equilibrium", "_solve_br", "equilibrium.br"),
    ("equilibrium", "AgentForm.__init__", "equilibrium.AgentForm.init"),
    ("equilibrium", "verify_equilibrium", "equilibrium.verify_equilibrium"),
    ("equilibrium", "purify_equilibrium", "equilibrium.purify_equilibrium"),
    ("rational_geometry", "simplex_min", "rational_geometry.simplex_min"),
    ("rational_geometry", "feasible_combination", None),
    ("rational_geometry", "extreme_points", "rational_geometry.extreme_points"),
    ("rational_geometry", "nearest_point_in_hull", "rational_geometry.nearest_point_in_hull"),
    ("piecewise", "integrate_envelope", "piecewise.integrate_envelope"),
    ("piecewise", "proportional_subintervals", "piecewise.proportional_subintervals"),
    ("attainable", "CondExpBlockSet.polytopes", "attainable.polytopes"),
    ("attainable", "block_set", "attainable.block_set"),
    ("attainable", "membership", "attainable.membership"),
    ("attainable", "convexify_witness", "attainable.convexify_witness"),
    ("attainable", "uhc_audit", "attainable.uhc_audit"),
    ("measure", "MeasureSpaceModel.conditional_expectation", "measure.conditional_expectation"),
    ("measure", "scalar_product", "measure.scalar_product"),
    ("purification", "strong_purify", "purification.strong_purify"),
    ("purification", "audit_equivalence", "purification.audit_equivalence"),
    ("pennies", "grid_strategies", "pennies.grid_strategies"),
    ("pennies", "no_pure_equilibrium_search", "pennies.search"),
    ("pennies", "pure_profile_gain", "pennies.exact_recheck"),
] + [
    ("serialize", name, "serialize.load")
    for name in ("load_space", "load_step_function", "load_correspondence",
                 "load_selection", "load_game", "load_strategy")
] + [
    ("serialize", name, "serialize.dump")
    for name in ("dump_block_set", "dump_membership", "dump_selection", "dump_strategy",
                 "dump_uhc", "dump_obstruction")
] + [("cli", "_emit", "serialize.dump")]  # the report's JSON encoding

# Modules whose self times partition the item wall time ("cli" holds the
# root span's own time: argument parsing and the subcommand bodies).
MODULES = ("games", "equilibrium", "purification", "attainable", "rational_geometry",
           "measure", "piecewise", "pennies", "serialize", "cli")


@dataclass
class Aggregates:
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    incl: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    module_self: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add(self, other: "Aggregates") -> None:
        for name in ("calls", "incl", "self_s", "module_self", "counters"):
            mine = getattr(self, name)
            for key, value in getattr(other, name).items():
                mine[key] += value


def _count_result(tracer, group, args, result):
    """Counters taken where the work happens; may rename the span's group."""
    c = tracer.item_agg.counters
    if group == "rational_geometry.simplex_min":
        c["simplex_min.tableau_cells"] += len(args[1]) * len(args[0])
    elif group == "rational_geometry.extreme_points":
        c["extreme_points.in"] += len(args[0])
        c["extreme_points.kept"] += len(result)
    elif group.endswith(".feasible_combination"):
        c[group + ".hits"] += result is not None
    elif group == "equilibrium.br":
        c["br.iterations"] += result[1]
    elif group == "equilibrium.solve":
        c["unconverged"] += not result.converged
        return f"equilibrium.solve.{result.method}"
    elif group == "attainable.membership":
        return "attainable.membership.member" if result.member else "attainable.membership.nonmember"
    elif group == "pennies.grid_strategies":
        c["family_size"] += len(result)
    elif group == "pennies.search":
        c["sampled_items"] += not result.exhaustive
    return group


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, start, child seconds, group, module]
        self._active: dict[str, int] = defaultdict(int)
        self.item_agg = Aggregates()  # the running item's
        self.total = Aggregates()  # the kept items'
        self.items_kept = 0
        self.item = -1
        self._item_first_span = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _name_id(self, group: str) -> int:
        name_id = self._name_ids.get(group)
        if name_id is None:
            name_id = self._name_ids[group] = len(self.names)
            self.names.append(group)
        return name_id

    def _open(self, group: str, module: str) -> list:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(group))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._active[group] += 1
        frame = [idx, 0.0, 0.0, group, module]
        self._stack.append(frame)
        frame[1] = self.span_start[idx] = time.perf_counter()
        return frame

    def _close(self, frame: list, group: str | None = None) -> None:
        end = time.perf_counter()
        idx, start, child, opened, module = frame
        while self._stack and self._stack[-1] is not frame:
            self._close(self._stack[-1])  # unwinding after a deadline signal
        self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self._active[opened] -= 1
        group = group or opened
        if group != opened:
            self.span_name[idx] = self._name_id(group)
        agg = self.item_agg
        agg.calls[group] += 1
        if self._active[opened] == 0:
            agg.incl[group] += dur
        agg.self_s[group] += dur - child
        agg.module_self[module] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def run_item(self, item: int, fn, *args):
        """Call fn under a root span for one item; spans left open by an
        exception are closed at the point it reached the root.  Call
        ``end_item`` afterwards."""
        self.item = item
        self.item_agg = Aggregates()
        self._stack.clear()
        self._active.clear()
        self._item_first_span = len(self.span_start)
        frame = self._open("cli.main", "cli")
        try:
            return fn(*args)
        finally:
            self._close(frame)
            self.item = -1

    def end_item(self, keep: bool) -> None:
        """Add the last item's aggregates to the totals, or drop its spans
        and aggregates.  A deadline signal can land inside the bookkeeping
        of ``_open`` or ``_close``, so an item it stopped is dropped whole;
        ``run_item`` resets the stack for the next one."""
        if keep:
            self.total.add(self.item_agg)
            self.items_kept += 1
        else:
            for column in (self.span_name, self.span_parent, self.span_item,
                           self.span_start, self.span_end):
                del column[self._item_first_span:]
        self.item_agg = Aggregates()

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, fn, group: str, module: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(group, module)
            renamed = None
            try:
                result = fn(*args, **kwargs)
                renamed = _count_result(tracer, group, args, result)
                return result
            finally:
                tracer._close(frame, renamed)

        return traced

    def install(self) -> None:
        for mod_name, _attr, _group in TARGETS:
            importlib.import_module(f"condexp.{mod_name}")
        loaded = {
            name.removeprefix("condexp."): mod
            for name, mod in list(sys.modules.items())
            if name.startswith("condexp.") and mod is not None
        }
        for mod_name, attr, group in TARGETS:
            mod = loaded[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, self._wrapper(original, group, mod_name))
                continue
            original = getattr(mod, attr)
            shared = self._wrapper(original, group, mod_name) if group else None
            for user_name, user in loaded.items():
                for binding, value in list(vars(user).items()):
                    if value is original:
                        wrapper = shared or self._wrapper(
                            original, f"{user_name}.{attr}", mod_name
                        )
                        self._patch(user, binding, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per kept item, with its unit."""
        per = 1.0 / max(self.items_kept, 1)
        t = self.total
        c = t.counters
        out: dict[str, tuple[float, str]] = {}

        def incl(name):
            out[name] = (t.incl[name[: -len(".s")]] * per, "s/item")

        def calls(name):
            out[name] = (t.calls[name[: -len(".calls")]] * per, "calls/item")

        for g in ("games.interim_affine", "games.player_payoff", "games.strategy_moments",
                  "games.derive_interplayer_info", "equilibrium.verify_equilibrium",
                  "equilibrium.purify_equilibrium", "piecewise.integrate_envelope",
                  "rational_geometry.simplex_min", "rational_geometry.extreme_points",
                  "attainable.polytopes", "attainable.block_set",
                  "rational_geometry.nearest_point_in_hull", "attainable.convexify_witness",
                  "attainable.uhc_audit", "measure.conditional_expectation",
                  "measure.scalar_product", "purification.audit_equivalence",
                  "pennies.grid_strategies", "pennies.exact_recheck"):
            incl(g + ".s")
        for g in ("games.interim_affine", "games.derive_interplayer_info",
                  "equilibrium.feasible_combination", "piecewise.proportional_subintervals",
                  "rational_geometry.simplex_min", "attainable.polytopes", "attainable.block_set",
                  "rational_geometry.nearest_point_in_hull", "measure.conditional_expectation",
                  "pennies.exact_recheck"):
            calls(g + ".calls")
        out["games.BayesianGame.init_s"] = (t.incl["games.BayesianGame.init"] * per, "s/item")
        out["equilibrium.AgentForm.init_s"] = (t.incl["equilibrium.AgentForm.init"] * per, "s/item")
        for method in ("lp", "enum", "br"):
            out[f"equilibrium.solve.{method}_s"] = (
                t.self_s[f"equilibrium.solve.{method}"] * per, "s/item")
        polish = t.calls["equilibrium.feasible_combination"]
        out["equilibrium.feasible_combination.hit_ratio"] = (
            c["equilibrium.feasible_combination.hits"] / polish if polish else 0.0, "ratio")
        out["equilibrium.br.iterations"] = (c["br.iterations"] * per, "iters/item")
        out["equilibrium.unconverged"] = (c["unconverged"] * per, "share")
        out["rational_geometry.simplex_min.tableau_cells"] = (
            c["simplex_min.tableau_cells"] * per, "cells/item")
        seen = c["extreme_points.in"]
        out["rational_geometry.extreme_points.kept_ratio"] = (
            c["extreme_points.kept"] / seen if seen else 0.0, "ratio")
        out["attainable.membership.member_s"] = (
            t.incl["attainable.membership.member"] * per, "s/item")
        out["attainable.membership.nonmember_s"] = (
            t.incl["attainable.membership.nonmember"] * per, "s/item")
        out["purification.strong_purify.self_s"] = (
            t.self_s["purification.strong_purify"] * per, "s/item")
        out["pennies.family_size"] = (c["family_size"] * per, "strats/item")
        out["pennies.search.self_s"] = (t.self_s["pennies.search"] * per, "s/item")
        out["pennies.sampled_items"] = (c["sampled_items"] * per, "share")
        # self time: dump_block_set computes the polytopes it reports
        out["serialize.load_s"] = (t.self_s["serialize.load"] * per, "s/item")
        out["serialize.dump_s"] = (t.self_s["serialize.dump"] * per, "s/item")
        for module in MODULES:
            out[f"self.{module}.s"] = (t.module_self[module] * per, "s/item")
        return out

    def dump(self, path, item_ids: list[str]) -> None:
        """Write every span as one JSON document (columns, not rows)."""
        doc = {
            "names": self.names,
            "items": item_ids,
            "columns": ["name", "start", "end", "parent", "item"],
            "name": self.span_name.tolist(),
            "start": [round(x, 9) for x in self.span_start],
            "end": [round(x, 9) for x in self.span_end],
            "parent": self.span_parent.tolist(),
            "item": self.span_item.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
