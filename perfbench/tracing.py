"""Per-layer tracing of qcorr, installed from the benchmark's side.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper that
records a span (id, parent id, command id, name, start, end). The
wrapper is bound under every name the function has in any ``qcorr``
module, because ``cli`` and the other modules import functions by name.
Spans are kept in memory, up to ``MAX_SPANS`` of them, and written out
at the end; calls and self times (span minus the spans of wrapped
children) are summed over every traced call. A layer function that the
program no longer has is left out and reads 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli.main",
    "cli.build_state",
    "cli.p_grid",
    "cli.compute_rows",
    "cli.csv_text",
    "discord.qd_numeric",
    "discord.qd_gwl_analytic",
    "discord.qd_werner",
    "entanglement.eof_from_concurrence",
    "entanglement.concurrence_gwl_analytic",
    "entanglement.eof_werner",
    "entanglement.concurrence_werner",
    "deformed.select_nmax",
    "deformed.quasi_bell_wmatrix",
    "deformed.overlap",
    "deformed.coherent_coefficients",
    "states.werner",
    "states.gwl",
    "states.WMatrix.from_text",
    "linalg.hermitian_eigenvalues",
    "linalg.von_neumann_entropy",
    "linalg.partial_trace",
)

#: spans kept for the trace file; counters keep running past it
MAX_SPANS = 100_000


def _tail(samples):
    # the highest percentile with at least ten samples beyond it; the
    # median alone below forty samples
    if len(samples) < 40:
        return statistics.median(samples) if samples else 0.0
    return sorted(samples)[len(samples) - 11]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.spans = []
        self.dropped_spans = 0
        self.qd_numeric_ms = []
        self.kets_in_select = 0
        self.unconverged = 0
        self.p_crossing_calls = 0
        self.p_crossing_roots = 0
        self._stack = []
        self._next_id = 0
        self._command = None
        self._check = None
        self._warnings = []
        self._in_select = 0
        self._restore = []

    def begin_command(self, index, check, caught_warnings):
        """Tag the spans of the next command; ``caught_warnings`` is its warning record."""
        self._command, self._check, self._warnings = index, check, caught_warnings
        if check == "p-crossing":
            self.p_crossing_roots += 1

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            selecting = name == "deformed.select_nmax"
            if selecting:
                self._in_select += 1
                n_warnings = len(self._warnings)
            elif name == "deformed.quasi_bell_wmatrix" and self._in_select:
                self.kets_in_select += 1
            elif name == "discord.qd_gwl_analytic" and self._check == "p-crossing":
                self.p_crossing_calls += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += span - frame[1]
                if stack:
                    stack[-1][1] += span
                if name == "discord.qd_numeric":
                    self.qd_numeric_ms.append(span * 1e3)
                if selecting:
                    self._in_select -= 1
                    self.unconverged += sum(
                        issubclass(w.category, UserWarning) for w in self._warnings[n_warnings:]
                    )
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[0], parent, self._command, name, t0, t1))
                else:
                    self.dropped_spans += 1

        return traced

    def install(self):
        """Wrap every layer function under all the names qcorr modules bind it to."""
        modules = [m for n, m in list(sys.modules.items()) if n == "qcorr" or n.startswith("qcorr.")]
        for name in LAYERS:
            module_name, _, attr = name.partition(".")
            home = importlib.import_module("qcorr." + module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if not isinstance(original, classmethod):
                    continue
                setattr(cls, method, classmethod(self._wrap(name, original.__func__)))
                self._restore.append((cls, method, original))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            traced = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

    def uninstall(self):
        """Put every wrapped name back as it was."""
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def metrics(self, rounds, overhead_s):
        """Per-layer metrics, counts and times per round of the command list."""
        out = {}
        for name in LAYERS:
            out[name + ".calls"] = (self.calls[name] / rounds, "count")
            out[name + ".self_s"] = (self.self_s[name] / rounds, "s")
        ms = self.qd_numeric_ms
        out["discord.qd_numeric.p50_ms"] = (statistics.median(ms) if ms else 0.0, "ms")
        out["discord.qd_numeric.tail_ms"] = (_tail(ms), "ms")
        selects = self.calls["deformed.select_nmax"]
        out["deformed.select_nmax.kets_per_call"] = (
            self.kets_in_select / selects if selects else 0.0, "kets/call")
        out["deformed.select_nmax.unconverged"] = (self.unconverged / rounds, "count")
        roots = self.p_crossing_roots
        out["discord.qd_gwl_analytic.calls_per_root"] = (
            self.p_crossing_calls / roots if roots else 0.0, "calls/root")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def trace_file(self):
        """The kept spans as JSON-ready data, times in seconds from the first span."""
        t_base = self.spans[0][4] if self.spans else 0.0
        return {
            "fields": ["id", "parent", "command", "name", "start_s", "end_s"],
            "spans": [[i, parent, cmd, name, t0 - t_base, t1 - t_base]
                      for i, parent, cmd, name, t0, t1 in self.spans],
            "dropped_spans": self.dropped_spans,
        }
