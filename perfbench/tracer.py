"""Span tracer that wraps discountlab's layer functions from the outside.

The library binds its layer functions with ``from .x import y``, so one
function object is reachable under several module names (for example
``discretize.linearized_matrix`` is also ``measures.linearized_matrix``
and ``limits.linearized_matrix``).  ``Tracer.install`` therefore rebinds
the wrapper in every ``discountlab`` module that holds the original
object; ``coverage_errors`` checks that it did, and ``uninstall`` puts
the originals back.  Nothing under ``src/`` is modified.

A span is (rep, id, parent id, name, start, end).  Spans stay in memory
until the caller writes them out.  A function's self time is the
duration of its spans minus the part covered by their child spans.
Re-entrant calls (``cli.dumps_precise`` recurses) open no nested span,
so a call count is the number of calls made from outside the function.
"""

import sys
import time
from collections import defaultdict

# Functions wrapped in a traced run, by "<module>.<function>" name.
TRACED = (
    "discretize.standard_system",
    "discretize.linearized_matrix",
    "discretize.policy_matrix",
    "discretize.control_values",
    "discretize.bellman_policy",
    "solver.policy_evaluate",
    "solver.policy_iterate",
    "solver.ergodic_solve",
    "lp.lp_solve",
    "lp.enumerate_basic_solutions",
    "measures.assemble_closed_constraints",
    "measures.subsolution_lp",
    "measures.duality_audit",
    "limits.discount_sweep",
    "limits.mather_lp",
    "limits.mather_face_samples",
    "limits.selection_field",
    "model.coercivity_profile",
    "cli.run_experiment",
    "cli.dumps_precise",
)

# Work counts read from the objects a traced function returns.  They do
# not depend on the machine, so they must repeat exactly.
WORK_COUNTS = {
    "solver.policy_iterate": ("solver.pi_iterations",
                              lambda r: r[2].iterations),
    "solver.ergodic_solve": ("solver.ergodic_outer_iterations",
                             lambda r: r.outer_iterations),
    "lp.lp_solve": ("lp.pivots", lambda r: r.iterations),
    "lp.enumerate_basic_solutions": ("lp.vertices_raw", len),
    "limits.mather_face_samples": ("limits.face_vertices_kept",
                                   lambda r: len(r.representatives)),
}


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "discountlab" or name.startswith("discountlab."))]


def _bindings(func):
    """Every (module, attribute) in the package bound to ``func``."""
    return [(mod, attr) for mod in _package_modules()
            for attr, value in list(vars(mod).items()) if value is func]


class Tracer:
    """Wraps the TRACED functions and accumulates spans and counters."""

    def __init__(self):
        import discountlab  # noqa: F401  (loads every submodule)
        self.originals = {}
        for qualname in TRACED:
            mod_name, func_name = qualname.split(".")
            mod = sys.modules[f"discountlab.{mod_name}"]
            self.originals[qualname] = getattr(mod, func_name)
        self.wrappers = {q: self._wrap(q, f)
                         for q, f in self.originals.items()}
        self.spans = []
        self.rep = 0
        self._stack = []      # [span id, child time] of open spans
        self._active = defaultdict(int)
        self.reset()

    def reset(self):
        """Start a new rep: zero the per-rep totals (spans are kept)."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def _wrap(self, qualname, func):
        count = WORK_COUNTS.get(qualname)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._active[qualname]:
                return func(*args, **kwargs)
            self._active[qualname] += 1
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            self.spans.append(None)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._active[qualname] -= 1
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[span_id] = (self.rep, span_id, parent, qualname,
                                       start, end)
                self.calls[qualname] += 1
                self.self_s[qualname] += duration - frame[1]
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def install(self):
        for qualname, func in self.originals.items():
            for mod, attr in _bindings(func):
                setattr(mod, attr, self.wrappers[qualname])

    def uninstall(self):
        for qualname, wrapper in self.wrappers.items():
            for mod, attr in _bindings(wrapper):
                setattr(mod, attr, self.originals[qualname])

    def coverage_errors(self, installed):
        """Bindings that escaped the wrapper (or, uninstalled, the restore).

        Installed, no package module may still hold an original; every
        traced function must be reachable through at least one wrapper.
        Uninstalled, no module may hold a wrapper.
        """
        errors = []
        for qualname in TRACED:
            stray = self.originals[qualname] if installed \
                else self.wrappers[qualname]
            for mod, attr in _bindings(stray):
                errors.append(f"{mod.__name__}.{attr} is "
                              f"{'unwrapped' if installed else 'still wrapped'}")
            if installed and not _bindings(self.wrappers[qualname]):
                errors.append(f"{qualname} is bound nowhere")
        return errors


def self_test():
    """Install and uninstall once; return every coverage error found."""
    tracer = Tracer()
    tracer.install()
    errors = tracer.coverage_errors(installed=True)
    tracer.uninstall()
    return errors + tracer.coverage_errors(installed=False)


if __name__ == "__main__":
    # Self-test, from the root of a checkout:
    #     PYTHONPATH=src python3 perfbench/tracer.py
    problems = self_test()
    for problem in problems:
        print(problem)
    print(f"tracer self-test: {len(TRACED)} functions, "
          f"{'FAIL' if problems else 'ok'}")
    sys.exit(1 if problems else 0)
