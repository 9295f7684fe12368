"""Span tracing of the program's layer boundaries, from outside the program.

``Tracer.install`` replaces public functions of ``pendusim`` modules with
wrappers that record one span per call (name, start, end, parent span) and,
for ``engine.assemble``, the number of configurations in the batch.  Spans
are kept in memory; ``summary`` turns them into per-function call counts and
self times (span time minus the time covered by child spans), and
``write`` saves them as CSV when the run ends.  ``uninstall`` restores every
original, so an untraced round in the same process runs the program as is.
"""

import time

# (module, owner attribute or None, attribute, span name).  A name imported
# into another module is wrapped there too, so calls through either binding
# are seen.
TARGETS = [
    ("engine", None, "assemble", "engine.assemble"),
    ("dynamics", "Eval", "__init__", "dynamics.Eval"),
    ("dynamics", "Eval", "act_solve", "dynamics.act_solve"),
    ("control", "Controller", "u_vector", "control.u_vector"),
    ("control", None, "solve_equilibrium_qm", "control.solve_equilibrium_qm"),
    ("cli", None, "solve_equilibrium_qm", "control.solve_equilibrium_qm"),
    ("sim", None, "run", "sim.run"),
    ("sim", None, "build_report", "sim.build_report"),
    ("sim", None, "write_csv", "sim.write_csv"),
    ("sim", None, "load_scenario", "sim.load_scenario"),
    ("cli", None, "load_scenario", "sim.load_scenario"),
    ("svg", None, "write_trajectory_svgs", "svg.write_trajectory_svgs"),
    ("cli", None, "main", "cli.main"),
]

SPAN_NAMES = sorted({name for *_, name in TARGETS})


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []        # [name, start, end, parent index, configs]
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        counts_configs = name == "engine.assemble"

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    len(args[1]) if counts_configs else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, owner, attr, name in TARGETS:
            obj = getattr(self.package, module)
            if owner is not None:
                obj = getattr(obj, owner)
            fn = getattr(obj, attr)
            self._saved.append((obj, attr, fn))
            setattr(obj, attr, self._wrap(fn, name))

    def uninstall(self):
        for obj, attr, fn in reversed(self._saved):
            setattr(obj, attr, fn)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def summary(self):
        """{span name: {"calls", "self_s", "configs"}} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {n: {"calls": 0, "self_s": 0.0, "configs": 0} for n in SPAN_NAMES}
        for (name, start, end, _, configs), c in zip(self.spans, child):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - c
            rec["configs"] += configs
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,configs\n")
            for i, (name, start, end, parent, configs) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{configs}\n")
