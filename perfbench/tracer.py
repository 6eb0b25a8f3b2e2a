"""Per-layer tracing of subsetcurrents from outside the package.

`Tracer.install` replaces each listed public function with a wrapper in
every package namespace that binds it (`cli`, `fiber` and `currents`
import most of the API from `stallings`, and the package root re-exports
it), and `uninstall` puts the originals back.  A wrapper records one span
(name, start, end, parent) in memory; self time is derived afterwards as
a span's duration minus the time its child spans cover.  Size counters are
read off arguments and return values after the span has closed, on a
clock that excludes that bookkeeping, so counting never inflates a span.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

# Layer = package module; the public functions whose spans are recorded.
LAYERS = {
    "words": ("parse_word",),
    "stallings": ("fold", "core_vertices", "from_generators", "subgroup_generators",
                  "minimal_covering_quotient", "canonical_key", "induced_subgraph",
                  "contains"),
    "fiber": ("fiber_product", "classify_components", "component_subgroup",
              "intersection_number_cosets", "intersection_number_euler"),
    "currents": ("functional_V", "enumerate_round_graphs", "occurrence_count",
                 "eval_cylinder", "normalize", "c_hat", "intersection_functional_N",
                 "pushforward_I", "neighborhood_profile"),
    "automorphisms": ("is_automorphism", "act_on_subgroup"),
    "cli": ("cmd_core", "cmd_product", "cmd_shnc_scan", "cmd_converge", "cmd_intersect"),
}

# Sizes below this are dominated by per-call overhead (and by the tiny
# rank 4 to 7 products), so the fits leave them out.
FIT_MIN_SIZE = 100


def _graph(g):
    """The LabeledGraph behind any of the package's graph wrappers."""
    return getattr(g, "graph", g)


def _count_fold(tr, idx, args, result):
    n = len(args[0].edges)
    tr.counters["stallings.fold.edges_in"] += n
    tr.fits["stallings.fold.exponent"].append((n, idx))


def _count_canonical_key(tr, idx, args, result):
    n = _graph(args[0]).num_vertices
    tr.counters["stallings.canonical_key.vertices"] += n
    tr.fits["stallings.canonical_key.exponent"].append((n, idx))


def _count_fiber_product(tr, idx, args, result):
    g = result.graph
    touched = set()
    for o, t, _ in g.edges:
        touched.add(o)
        touched.add(t)
    tr.counters["fiber.product_vertices"] += g.num_vertices
    tr.counters["fiber.product_edges"] += len(g.edges)
    tr.counters["fiber.isolated_vertices"] += g.num_vertices - len(touched)


def _count_classify(tr, idx, args, result):
    tr.counters["fiber.components"] += len(result)
    tr.counters["fiber.essential_components"] += sum(not c.contractible for c in result)


def _count_component_subgroup(tr, idx, args, result):
    # Calls on one product come in a run under one parent span; the fit is
    # per product, since the per-component rebuild makes its total superlinear.
    key = (id(args[0]), tr.spans[idx][3])
    tr.component_calls.append((key, args[0].graph.num_vertices, idx))


def _count_round_graphs(tr, idx, args, result):
    tr.counters["currents.round_graphs"] += len(result)


def _count_occurrence(tr, idx, args, result):
    tr.counters["currents.occurrence_hits"] += result
    tr.counters["currents.occurrence_scanned"] += _graph(args[1]).num_vertices


HOOKS = {
    "stallings.fold": _count_fold,
    "stallings.canonical_key": _count_canonical_key,
    "fiber.fiber_product": _count_fiber_product,
    "fiber.classify_components": _count_classify,
    "fiber.component_subgroup": _count_component_subgroup,
    "currents.enumerate_round_graphs": _count_round_graphs,
    "currents.occurrence_count": _count_occurrence,
}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric the tracer reports."""
    out = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            key = f"{mod}.{fn}"
            out += [(f"{key}.calls", "count", "lower"), (f"{key}.self_s", "s", "lower"),
                    (f"{key}.total_s", "s", "lower")]
    out += [
        ("stallings.fold.edges_in", "count", "lower"),
        ("stallings.canonical_key.vertices", "count", "lower"),
        ("fiber.product_vertices", "count", "lower"),
        ("fiber.product_edges", "count", "lower"),
        ("fiber.product_isolated_ratio", "ratio", "lower"),
        ("fiber.components", "count", "lower"),
        ("fiber.essential_ratio", "ratio", "higher"),
        ("currents.round_graphs", "count", "lower"),
        ("currents.occurrence_hit_ratio", "ratio", "higher"),
        ("stallings.fold.exponent", "1", "lower"),
        ("stallings.canonical_key.exponent", "1", "lower"),
        ("fiber.component_subgroup.exponent", "1", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


def fit_exponent(points) -> float:
    """Least-squares slope of log(seconds) on log(size).

    Points are (size, seconds); each size contributes the median of its
    times, so a size seen often does not outweigh the rest of the ladder.
    Returns 0.0 when fewer than two sizes reach FIT_MIN_SIZE.
    """
    by_size = defaultdict(list)
    for size, seconds in points:
        if size >= FIT_MIN_SIZE and seconds > 0:
            by_size[size].append(seconds)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.excluded = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.fits: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.component_calls: list[tuple[tuple[int, int], int, int]] = []
        self._saved: list[tuple[object, str, object]] = []

    def clock(self) -> int:
        return perf_counter_ns() - self.excluded

    def _wrap(self, key: str, fn):
        tracer, hook = self, HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append([key, tracer.clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = tracer.clock()
                stack.pop()
            if hook is not None:
                t0 = perf_counter_ns()
                hook(tracer, idx, args, result)
                tracer.excluded += perf_counter_ns() - t0
            return result

        return wrapper

    def install(self, package: str = "subsetcurrents") -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"{package}.{mod}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._saved.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, as totals per traced op (ratios and exponents as is)."""
        spans = self.spans
        covered = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - covered[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # outermost span of its name: count it once in total_s
                total_ns[name] += end - start
        out: dict[str, float] = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                key = f"{mod}.{fn}"
                out[f"{key}.calls"] = calls[key] / ops
                out[f"{key}.self_s"] = self_ns[key] / 1e9 / ops
                out[f"{key}.total_s"] = total_ns[key] / 1e9 / ops
        c = self.counters
        for name in ("stallings.fold.edges_in", "stallings.canonical_key.vertices",
                     "fiber.product_vertices", "fiber.product_edges", "fiber.components",
                     "currents.round_graphs"):
            out[name] = c[name] / ops
        out["fiber.product_isolated_ratio"] = _ratio(c["fiber.isolated_vertices"],
                                                     c["fiber.product_vertices"])
        out["fiber.essential_ratio"] = _ratio(c["fiber.essential_components"],
                                              c["fiber.components"])
        out["currents.occurrence_hit_ratio"] = _ratio(c["currents.occurrence_hits"],
                                                      c["currents.occurrence_scanned"])
        for name, calls_ in self.fits.items():
            out[name] = fit_exponent(
                [(size, (spans[i][2] - spans[i][1]) / 1e9) for size, i in calls_])
        out["fiber.component_subgroup.exponent"] = fit_exponent(self._per_product())
        out.setdefault("stallings.fold.exponent", 0.0)
        out.setdefault("stallings.canonical_key.exponent", 0.0)
        return out

    def _per_product(self) -> list[tuple[int, float]]:
        """(product V, summed component_subgroup time) per run of calls on one product."""
        runs: list[list] = []
        for key, size, i in self.component_calls:
            ns = self.spans[i][2] - self.spans[i][1]
            if runs and runs[-1][0] == key:
                runs[-1][2] += ns
            else:
                runs.append([key, size, ns])
        return [(size, ns / 1e9) for _, size, ns in runs]

    def dump(self) -> dict:
        """Spans as a compact table: names once, then [name id, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[ids[n], s, e, p] for n, s, e, p in self.spans]}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
