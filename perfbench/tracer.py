"""Out-of-program tracer for the ergolab benchmark.

`install(tracer)` wraps the public functions of each ergolab module, in every
module namespace that looks them up (``cli`` imports ``build_cubes`` by name,
``operators`` imports ``expectation``, ``dynamics`` imports ``sweep_profile``,
and so on), and the cached methods on their classes.  Each call records a
span ``(name, start, end, parent)`` in memory; a few calls also bump
counters computed from their arguments or results.  `self_times` gives each
layer's self time: its spans' durations minus the part their child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer name); a dotted attribute is a method on a class.
FUNCTIONS = (
    ("space", "build_group_space", "space.build_group_space"),
    ("space", "geometric_doubling_check", "space.geometric_doubling_check"),
    ("space", "FiniteSpace.dist_row", "space.dist_row"),
    ("space", "GroupSpace.right_perm", "space.right_perm"),
    ("cubes", "select_nets", "cubes.select_nets"),
    ("cubes", "build_cubes", "cubes.build_cubes"),
    ("cubes", "verify_cube_axioms", "cubes.verify_cube_axioms"),
    ("operators", "avg_profile", "operators.avg_profile"),
    ("operators", "sweep_profile", "operators.sweep_profile"),
    ("operators", "norm_probe", "operators.norm_probe"),
    ("stats", "jump_count_batch", "stats.jump_count_batch"),
    ("stats", "variation_batch", "stats.variation_batch"),
    ("martingale", "expectation", "martingale.expectation"),
    ("martingale", "martingale_jump_probe", "martingale.martingale_jump_probe"),
    ("decomposition", "gundy_decompose", "decomposition.gundy_decompose"),
    ("dynamics", "build_system", "dynamics.build_system"),
    ("dynamics", "action_profile", "dynamics.action_profile"),
    ("dynamics", "tail_experiment", "dynamics.tail_experiment"),
    ("dynamics", "convergence_probe", "dynamics.convergence_probe"),
    ("dynamics", "transference_check", "dynamics.transference_check"),
    ("dynamics", "MPSystem.act_perm", "dynamics.act_perm"),
    ("dynamics", "MPSystem.orbit_labels", "dynamics.orbit_labels"),
    ("cli", "cmd_space", "cli.space"),
    ("cli", "cmd_cubes", "cli.cubes"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_probe", "cli.probe"),
    ("cli", "cmd_experiment", "cli.experiment"),
)

# cached methods: distinct (instance, index) arguments are builds of a
# cached object, and their result bytes are the cache's size
CACHED = ("space.right_perm", "dynamics.act_perm")


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list = []          # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` recording a span per call.  ``before(args, kwargs)`` may
        return replacement arguments; ``after(args, result)`` sees each
        successful result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[name + ".errors"] += 1
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def distinct(self, name: str, key, nbytes: int) -> None:
        """Count a call's argument key; the first sighting adds its bytes."""
        if key not in self._seen[name]:
            self._seen[name].add(key)
            self.counters[name + ".bytes"] += nbytes

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "distinct": {k: len(v) for k, v in self._seen.items()}}


def _hooks(tracer: Tracer, name: str, fn):
    """(before, after) callbacks for the layers that keep counters."""
    count = tracer.counters

    if name in CACHED:
        def after(args, result):
            tracer.distinct(name, (id(args[0]), int(args[1])), result.nbytes)
        return None, after

    if name == "space.dist_row":
        def after(args, result):
            space, i = args[0], int(args[1])
            # only BFS rows are kept; quotient and l1 rows are recomputed
            cached = getattr(space, "_row_cache", {}).get(i) is result
            tracer.distinct(name, (id(space), i), result.nbytes if cached else 0)
        return None, after

    if name in ("stats.jump_count_batch", "stats.variation_batch"):
        def after(args, result):
            rows, width = args[0].shape
            count[name + ".cells"] += rows * (rows - 1) // 2 * width
        return None, after

    if name == "cubes.build_cubes":
        def after(args, result):
            count["cubes.centers"] += sum(len(c) for c in result.centers)
        return None, after

    if name == "decomposition.gundy_decompose":
        def after(args, result):
            count["decomposition.stopping_cubes"] += len(result.stopping)
            count["decomposition.part_bytes"] += sum(
                p.values.nbytes for p in result.b_parts + result.xi_parts)
        return None, after

    if name == "operators.sweep_profile":
        sig = inspect.signature(fn)

        def counted(shells):
            for dist, perms in shells:
                count["operators.sweep.gathers"] += len(perms)
                yield dist, perms

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["shells"] = counted(bound.arguments["shells"])
            return bound.args, bound.kwargs
        return before, None

    return None, None


def install(tracer: Tracer) -> None:
    """Wrap every traced ergolab function and method in place."""
    import ergolab.cli  # noqa: F401  (loads every traced module)

    modules = [m for key, m in sys.modules.items()
               if key == "ergolab" or key.startswith("ergolab.")]
    for mod_name, attr, name in FUNCTIONS:
        mod = sys.modules[f"ergolab.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            fn = cls.__dict__[meth]
            before, after = _hooks(tracer, name, fn)
            setattr(cls, meth, tracer.wrap(name, fn, before, after))
            continue
        fn = getattr(mod, attr)
        before, after = _hooks(tracer, name, fn)
        wrapped = tracer.wrap(name, fn, before, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)


def self_times(spans: list) -> dict[str, dict[str, float]]:
    """Per layer name: total self time (span minus the union of its child
    spans) and the number of calls."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "calls": 0})
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name]["s"] += (end - start) - covered
        out[name]["calls"] += 1
    return out


def calls_within(spans: list, name: str, ancestor: str) -> int:
    """Number of `name` spans that run inside an `ancestor` span."""
    inside = [False] * len(spans)
    count = 0
    for idx, (span_name, _, _, parent) in enumerate(spans):
        # a parent is appended before its children, so its flag is final
        inside[idx] = parent >= 0 and (inside[parent]
                                       or spans[parent][0] == ancestor)
        if inside[idx] and span_name == name:
            count += 1
    return count
