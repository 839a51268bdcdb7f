"""Span tracing around calls into ``signedbn``, installed from outside.

``install`` replaces each listed public function with a wrapper wherever
callers look it up: the attribute of its defining module and every name
that another ``signedbn`` module bound to the same object by importing it.
Methods are replaced on their class.  ``uninstall`` puts the originals
back.  The program's own code is not edited.

Spans are aggregated as they close, so memory stays flat however many
calls a run makes: per span name the call count, total and self time
(duration minus the time covered by its child spans), and per
(parent, child) pair the call count.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

from inputs import family_size


class Overrun(BaseException):
    """A call exceeded its budget.

    A BaseException, so that no ``except Exception`` inside the library
    can swallow it on the way out.
    """


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, int] = {}  # (parent, name) -> calls
        self.counters: dict[str, float] = {}
        self._patches: list[tuple] = []
        self._two_term = None  # 2^tau~+ of the open fixed_point_bound span

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_enter=None, on_exit=None):
        stack = self.stack
        stats = self.stats
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if on_enter is not None:
                on_enter(parent, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Overrun as exc:
                if name.startswith("codes.") and not getattr(exc, "counted", False):
                    exc.counted = True
                    self.count("codes.timeouts")
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                edges[(parent, name)] = edges.get((parent, name), 0) + 1
                if stack:
                    stack[-1][1] += duration
            if on_exit is not None:
                on_exit(parent, args, kwargs, result, duration)
            return result

        return wrapper

    def _patch_function(self, module, attr: str, name: str, **hooks):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "signedbn" or mod_name.startswith("signedbn.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str, **hooks):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    # -- counters taken at the boundaries --------------------------------

    def _enumerate_exit(self, parent, args, kwargs, result, duration):
        self.count("graphs.enumerate_cycles.cycles_returned", len(result))

    def _states_exit(self, key):
        def hook(parent, args, kwargs, result, duration):
            self.count(f"{key}.states", 1 << args[0].n)

        return hook

    def _families_exit(self, parent, args, kwargs, result, duration):
        G = args[0]
        networks = family_size(len(G.in_neighbors(v)) for v in G.vertices)
        self.count("boolnet.max_fixed_points.networks", networks)

    def _falsify_exit(self, parent, args, kwargs, result, duration):
        theorem = args[0] if args else kwargs["theorem"]
        self.count(f"falsify.trials.{theorem}", result.trials)
        self.count(f"falsify.seconds.{theorem}", duration)
        self.count("falsify.counterexamples", len(result.counterexamples))

    def _bound_enter(self, parent, args, kwargs):
        self._two_term = 1 << args[1]

    def _exact_exit(self, parent, args, kwargs, result, duration):
        # Distances 1 and 2 have closed forms; from 3 on the call searches.
        n, d = args[0], args[1]
        if parent != "codes.fixed_point_bound" or not 3 <= d <= n:
            return
        self.count("codes.exact_searches")
        if result >= self._two_term:
            self.count("codes.wasted_searches")

    def install(self):
        """Wrap the public functions the per-layer metrics are read from."""
        import signedbn.boolnet as boolnet
        import signedbn.codes as codes
        import signedbn.falsify as falsify
        import signedbn.formats as formats
        import signedbn.generators as generators
        import signedbn.graphs as graphs
        import signedbn.structure as structure

        kernels_module = sys.modules["signedbn.kernels"]

        self._patch_function(formats, "parse_signed_digraph", "formats.parse_signed_digraph")
        self._patch_function(
            graphs, "enumerate_cycles", "graphs.enumerate_cycles", on_exit=self._enumerate_exit
        )
        self._patch_function(graphs, "scc", "graphs.scc")
        self._patch_function(graphs, "reachable", "graphs.reachable")
        self._patch_method(graphs.SignedDigraph, "__init__", "graphs.SignedDigraph")
        for method in ("induced", "remove_incoming", "delete"):
            self._patch_method(graphs.SignedDigraph, method, f"graphs.subgraph.{method}")
        for fn in ("analyze", "tau_plus", "tau_tilde_plus", "g_tilde_plus", "is_special_arc"):
            self._patch_function(structure, fn, f"structure.{fn}")
        for fn in ("uniqueness_arc_rule", "uniqueness_vertex_rule", "existence_arc_rule"):
            self._patch_function(structure, fn, f"structure.rules.{fn}")
        self._patch_function(
            codes, "fixed_point_bound", "codes.fixed_point_bound", on_enter=self._bound_enter
        )
        self._patch_function(
            codes, "exact_max_code", "codes.exact_max_code", on_exit=self._exact_exit
        )
        self._patch_function(codes, "delsarte_upper", "codes.delsarte_upper")
        self._patch_method(
            boolnet.BooleanNetwork, "fixed_points", "boolnet.fixed_points",
            on_exit=self._states_exit("boolnet.fixed_points"),
        )
        self._patch_method(
            boolnet.BooleanNetwork, "attractors", "boolnet.attractors",
            on_exit=self._states_exit("boolnet.attractors"),
        )
        self._patch_method(
            boolnet.BooleanNetwork, "interaction_graph", "boolnet.interaction_graph"
        )
        self._patch_function(
            boolnet, "max_fixed_points", "boolnet.max_fixed_points", on_exit=self._families_exit
        )
        self._patch_function(boolnet, "sample_consistent", "boolnet.sample_consistent")
        self._patch_function(kernels_module, "kernels", "kernels.kernels")
        self._patch_function(kernels_module, "kernel_indicators", "kernels.kernel_indicators")
        self._patch_function(falsify, "falsify", "falsify.falsify", on_exit=self._falsify_exit)
        self._patch_function(
            generators, "random_signed_digraph", "generators.random_signed_digraph"
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-layer metrics -------------------------------------------------

    def _get(self, name: str, field: int) -> float:
        entry = self.stats.get(name)
        return entry[field] if entry else 0

    def calls(self, name: str) -> int:
        return self._get(name, 0)

    def total_s(self, name: str) -> float:
        return self._get(name, 1)

    def self_s(self, name: str) -> float:
        return self._get(name, 2)

    def metrics(self, theorem_ids, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, each as (value, unit).  Counts and
        seconds are per traced pass; rates and ratios are over all."""
        out = self._totals(theorem_ids)
        for name, (value, unit) in out.items():
            if unit in ("s", "count"):
                out[name] = (value / passes, unit)
        return out

    def _totals(self, theorem_ids) -> dict[str, tuple[float, str]]:
        c = self.counters

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in (
            "formats.parse_signed_digraph",
            "graphs.enumerate_cycles",
            "graphs.SignedDigraph",
            "graphs.scc",
            "structure.analyze",
            "structure.tau_plus",
            "structure.tau_tilde_plus",
            "structure.g_tilde_plus",
            "structure.is_special_arc",
            "codes.fixed_point_bound",
            "codes.exact_max_code",
            "codes.delsarte_upper",
            "boolnet.fixed_points",
            "boolnet.attractors",
            "boolnet.sample_consistent",
            "boolnet.interaction_graph",
            "kernels.kernels",
            "kernels.kernel_indicators",
            "generators.random_signed_digraph",
        ):
            out[f"{name}.self_s"] = (self.self_s(name), "s")
        for name in (
            "graphs.enumerate_cycles",
            "graphs.scc",
            "graphs.reachable",
            "structure.is_special_arc",
            "codes.exact_max_code",
            "boolnet.fixed_points",
        ):
            out[f"{name}.calls"] = (self.calls(name), "count")
        out["graphs.enumerate_cycles.cycles_returned"] = (
            c.get("graphs.enumerate_cycles.cycles_returned", 0), "count",
        )
        out["graphs.SignedDigraph.constructions"] = (self.calls("graphs.SignedDigraph"), "count")
        out["graphs.subgraph.calls"] = (
            sum(self.calls(f"graphs.subgraph.{m}") for m in ("induced", "remove_incoming", "delete")),
            "count",
        )
        out["structure.tau_tilde_plus.subsets_scanned"] = (
            self.edges.get(("structure.tau_tilde_plus", "graphs.subgraph.remove_incoming"), 0),
            "count",
        )
        out["structure.rules.self_s"] = (
            sum(
                self.self_s(f"structure.rules.{r}")
                for r in ("uniqueness_arc_rule", "uniqueness_vertex_rule", "existence_arc_rule")
            ),
            "s",
        )
        out["codes.timeouts"] = (c.get("codes.timeouts", 0), "count")
        searches = c.get("codes.exact_searches", 0)
        out["codes.wasted_search_ratio"] = (
            c.get("codes.wasted_searches", 0) / searches if searches else 0.0, "ratio",
        )
        out["boolnet.fixed_points.states_per_s"] = (
            rate(c.get("boolnet.fixed_points.states", 0), self.total_s("boolnet.fixed_points")),
            "1/s",
        )
        out["boolnet.attractors.states_per_s"] = (
            rate(c.get("boolnet.attractors.states", 0), self.total_s("boolnet.attractors")),
            "1/s",
        )
        networks = c.get("boolnet.max_fixed_points.networks", 0)
        out["boolnet.max_fixed_points.networks"] = (networks, "count")
        out["boolnet.max_fixed_points.networks_per_s"] = (
            rate(networks, self.total_s("boolnet.max_fixed_points")), "1/s",
        )
        for theorem in theorem_ids:
            out[f"falsify.trials_per_s.{theorem}"] = (
                rate(c.get(f"falsify.trials.{theorem}", 0), c.get(f"falsify.seconds.{theorem}", 0)),
                "1/s",
            )
        out["falsify.counterexamples"] = (c.get("falsify.counterexamples", 0), "count")
        return out
