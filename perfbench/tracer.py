"""Outside-in per-layer tracer for the scmas benchmark.

The tracer wraps layer entry points of the library from outside: it never
edits `src/scmas`. While active it replaces every binding of each target in
every loaded `scmas` module, because `experiments` and `game` import solver
and `scm` functions by name, so patching only the defining module would miss
those calls. Spans form a stack; a span's self time is its duration minus the
durations of its direct child spans.

A hook whose target is missing raises at patch time, and `check_fired` raises
when a hook that the workload must exercise never fired, so a refactor that
renames or bypasses an entry point cannot silently zero a layer metric.

`wrapper_costs` measures what one wrapper event costs, so that the tracing
overhead of a section can be given as its events times those costs.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

SOLVER_SPANS = ("solvers.exact", "solvers.classical", "solvers.approx")


class HookError(RuntimeError):
    """A traced entry point is missing or never fired where it must."""


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point.

    module/attr name the target (`attr` may be `Class.method`); span names
    the metric family it feeds; kind is "call" (timed span) or "yields"
    (a generator whose items are counted); required_on lists the workloads
    on which the hook must fire at least once.
    """

    module: str
    attr: str
    span: str
    required_on: tuple[str, ...]
    kind: str = "call"


HOOKS = (
    Hook("scmas.scm", "enumerate_exogenous", "scm.enumerate",
         ("mc", "procurement", "approx_large")),
    Hook("scmas.scm", "sample_exogenous", "scm.sample",
         ("mc", "procurement", "approx_large")),
    Hook("scmas.game", "PayoffEvaluator.__init__", "game.evaluator",
         ("mc", "procurement", "approx_large")),
    Hook("scmas.solvers", "exact_scne", "solvers.exact", ("mc", "procurement")),
    Hook("scmas.solvers", "classical_stackelberg", "solvers.classical",
         ("mc", "procurement")),
    Hook("scmas.solvers", "approx_scne", "solvers.approx", ("mc", "approx_large")),
    Hook("scmas.solvers", "_stage2", "solvers.stage2",
         ("mc", "procurement", "approx_large")),
    Hook("scmas.solvers", "_leader_candidates", "solvers.stage1",
         ("mc", "procurement", "approx_large"), kind="yields"),
    Hook("scmas.generators", "random_instance", "generators", ("mc",)),
    Hook("scmas.generators", "build_instance", "generators", ("mc",)),
    Hook("scmas.generators", "procurement", "generators", ("procurement",)),
    Hook("scmas.experiments", "run_monte_carlo", "experiments.suite", ("mc",)),
    Hook("scmas.experiments", "run_procurement", "experiments.suite",
         ("procurement",)),
    Hook("scmas.experiments", "equilibrium_actions",
         "experiments.equilibrium_actions", ("mc",)),
    Hook("scmas.experiments", "report_to_json", "experiments.serialize",
         ("mc", "procurement")),
    Hook("scmas.experiments", "report_to_csv", "experiments.serialize",
         ("mc", "procurement")),
)


class _Frame:
    __slots__ = ("span", "start", "child")

    def __init__(self, span: str, start: float):
        self.span = span
        self.start = start
        self.child = 0.0


class Tracer:
    """Context manager that patches HOOKS and accumulates per-span figures.

    Figures, keyed by span name:
      calls  - entries of the span (nested re-entries of one span included)
      busy   - wall time of outermost entries only, so nesting is not counted
               twice
      self   - duration minus direct child spans, summed over all entries
      items  - "joints"/"draws" for scm spans, yields for generator hooks
    Plus `fired[hook]`, and `outside_solvers`, the evaluator builds that ran
    with no solver entry point on the stack.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.fired: Counter = Counter()
        self.outside_solvers = 0
        self._stack: list[_Frame] = []
        self._restore: list = []

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        try:
            for hook in self.hooks:
                self._patch(hook)
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc):
        self._unpatch()
        return False

    def _patch(self, hook: Hook) -> None:
        module = sys.modules.get(hook.module)
        if module is None:
            raise HookError(f"module {hook.module} is not loaded")
        owner_name, _, name = hook.attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        orig = getattr(owner, name, None)
        if orig is None or not callable(orig):
            raise HookError(f"hook target {hook.module}.{hook.attr} is missing")
        wrapper = self._wrap(hook, orig)
        if owner_name:  # a method: the class object is shared by every importer
            self._set(owner, name, wrapper, orig)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "scmas" or mod_name.startswith("scmas.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, binding, wrapper, orig)

    def _set(self, owner, name, wrapper, orig) -> None:
        self._restore.append((owner, name, orig))
        setattr(owner, name, wrapper)

    def _unpatch(self) -> None:
        while self._restore:
            owner, name, orig = self._restore.pop()
            setattr(owner, name, orig)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, hook: Hook, orig):
        tracer = self
        key = f"{hook.module}.{hook.attr}"
        span = hook.span
        if hook.kind == "yields":
            def counted(*args, **kwargs):
                tracer.fired[key] += 1
                for item in orig(*args, **kwargs):
                    tracer.items[span] += 1
                    yield item

            return counted

        def timed(*args, **kwargs):
            tracer.fired[key] += 1
            stack = tracer._stack
            outermost = all(f.span != span for f in stack)
            if span == "game.evaluator" and not any(
                    f.span in SOLVER_SPANS for f in stack):
                tracer.outside_solvers += 1
            frame = _Frame(span, time.perf_counter())
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame.start
                stack.pop()
                if stack:
                    stack[-1].child += dur
                tracer.calls[span] += 1
                tracer.self_time[span] += dur - frame.child
                if outermost:
                    tracer.busy[span] += dur
            if span in ("scm.enumerate", "scm.sample"):
                tracer.items[span] += len(result)
            elif span == "generators" and outermost:
                tracer.items[span] += 1
            return result

        return timed

    def check_fired(self, workload: str) -> None:
        """Raise if a hook required on this workload never fired."""
        silent = [
            f"{h.module}.{h.attr}" for h in self.hooks
            if workload in h.required_on and not self.fired[f"{h.module}.{h.attr}"]
        ]
        if silent:
            raise HookError(f"hooks never fired on {workload}: {', '.join(silent)}")

    def counts(self) -> dict:
        """The deterministic part of the trace."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "items": dict(sorted(self.items.items())),
            "outside_solvers": self.outside_solvers,
        }

    def events(self) -> tuple[int, int]:
        """Wrapper invocations so far: timed calls, and items passed through
        "yields" wrappers."""
        counted = {h.span for h in self.hooks if h.kind == "yields"}
        return sum(self.calls.values()), sum(self.items[s] for s in counted)


COST_EVENTS = 20000
COST_REPEATS = 7


def wrapper_costs() -> tuple[float, float]:
    """Seconds a wrapper adds per timed call and per yielded item.

    Each is the least, over COST_REPEATS timings, of COST_EVENTS events
    through the wrappers of a throw-away Tracer, minus the same for the bare
    target, with three spans on the stack as in a solver call.
    """
    n, repeats = COST_EVENTS, COST_REPEATS
    probe = Tracer(hooks=())
    probe._stack.extend(_Frame(f"probe.outer{i}", 0.0) for i in range(3))

    def noop():
        return None

    def items():
        yield from range(n)

    def calls(fn):
        for _ in range(n):
            fn()

    def drain(gen_fn):
        for _ in gen_fn():
            pass

    def least(fn, arg) -> float:
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(arg)
            best = min(best, time.perf_counter() - t0)
        return best

    timed = probe._wrap(Hook("probe", "noop", "probe.call", ()), noop)
    counted = probe._wrap(Hook("probe", "items", "probe.items", (), "yields"), items)
    per_call = (least(calls, timed) - least(calls, noop)) / n
    per_item = (least(drain, counted) - least(drain, items)) / n
    return per_call, per_item
