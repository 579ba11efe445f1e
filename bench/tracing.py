"""Span tracing of jcaslink from outside the package.

``Tracer.install`` replaces the public functions of each layer module (and
``Scenario.__init__``) with wrappers that record one span per call: name,
parent span, start and end. Every module attribute that holds a wrapped
function is replaced, so names imported into another module, such as
``linkbudget.symbols_in`` or ``cli.run_sweep``, are traced too.
``uninstall`` puts the originals back. Spans are kept in memory.

A layer's self time is the sum over its spans of the span's duration minus
the part of it covered by its child spans.
"""

import functools
import itertools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions wrapped in that module
TARGETS = {
    "geometry": ("slant_range", "implied_altitude", "orbital_speed", "doppler_shift", "bistatic_range"),
    "waveform": ("numerology", "partition", "tone_offsets", "rms_bandwidth", "sensing_rms_bandwidth", "symbols_in"),
    "linkbudget": (
        "fspl_db",
        "noise_power_dbw",
        "array_gain_db",
        "tx_array_gain_db",
        "comm_snr_db",
        "integration_gain_db",
        "bistatic_received_power_dbw",
        "bistatic_radar_snr_db",
        "monostatic_radar_snr_db",
    ),
    "performance": ("achievable_rate", "delay_crlb", "range_mse", "detection_feasible", "ici_effective_snr_db"),
    "sweep": ("run_point", "run_sweep", "emit_csv", "scenario_fingerprint", "residual_doppler_hz", "selected_radar_snrs"),
    "config": (
        "parse_config_text",
        "parse_config_file",
        "parse_overrides",
        "effective_values",
        "scenario_from_values",
        "sweep_spec_from_values",
    ),
    "cli": ("main",),
    "spectrum": (
        "load_registry",
        "default_registry",
        "lookup_comm_band",
        "lookup_radar_allocations",
        "check_jcas_pairing",
    ),
}

SCENARIO_INIT = "linkbudget.Scenario.__init__"


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id or None, name, start s, end s)
        self.distinct = defaultdict(set)  # name -> reprs of distinct arguments
        self.tones = 0  # sensing tones generated by waveform.tone_offsets
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.main_thread()
        self._restore = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A span opened on a pool thread with nothing open on that thread
        # belongs to the main thread's innermost open span: the run_sweep
        # call that started the pool.
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def wrap(self, name: str, fn):
        spans, ids = self.spans, self._ids
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observer(self, name):
        if name == "waveform.sensing_rms_bandwidth":
            seen = self.distinct[name]
            return lambda args, kwargs, result: seen.add(repr((args, sorted(kwargs.items()))))
        if name == "waveform.tone_offsets":

            def count(args, kwargs, result):
                self.tones += len(result)

            return count
        return None

    def install(self) -> None:
        """Wrap every target in every loaded jcaslink module."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == "jcaslink" or name.startswith("jcaslink."))
        }
        wrappers = {}
        for layer, names in TARGETS.items():
            module = modules.get(f"jcaslink.{layer}")
            if module is None:
                continue
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._replace(module, attr, entry[1])
        scenario = modules["jcaslink.linkbudget"].Scenario
        self._replace(scenario, "__init__", self.wrap(SCENARIO_INIT, scenario.__init__))

    def _replace(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)


# --- aggregation ------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict:
    """Per span name: calls, total duration and total self time (seconds)."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    for sid, _, name, start, end in spans:
        duration = end - start
        calls[name] += 1
        total[name] += duration
        kids = children.get(sid)
        self_time[name] += duration - (_covered(kids) if kids else 0.0)
    return {name: {"calls": calls[name], "total_s": total[name], "self_s": self_time[name]} for name in calls}


def outermost_total(spans, names) -> float:
    """Summed duration of spans named in ``names`` whose parent is not."""
    names = frozenset(names)
    name_of = {sid: name for sid, _, name, _, _ in spans}
    return sum(
        end - start
        for _, parent, name, start, end in spans
        if name in names and name_of.get(parent) not in names
    )


def layer_self_s(summary: dict, layer: str) -> float:
    return sum(v["self_s"] for name, v in summary.items() if name.split(".")[0] == layer)


# --- -X importtime ------------------------------------------------------------


def _ours(module: str) -> bool:
    return module == "jcaslink" or module.startswith("jcaslink.")


def parse_importtime(stderr: str) -> dict:
    """Import cost per jcaslink module from the ``python -X importtime -c
    "import jcaslink.cli"`` report on stderr.

    Each module is charged its own self time plus the cumulative time of the
    other modules it imports directly, so the standard-library dependencies
    a module pulls in show against it. Returns milliseconds per module, and
    the cumulative time of ``jcaslink.cli`` under the key ``"total"``.
    """
    pending = defaultdict(list)  # nesting level -> entries awaiting their parent
    charged = {"total": None}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_field, cum_field, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip())) // 2
        name, cum_us = name.strip(), int(cum_field)
        kids = pending.pop(level + 1, [])
        if _ours(name):
            charged[name] = (int(self_field) + sum(c for n, c in kids if not _ours(n))) / 1000.0
        if name == "jcaslink.cli":
            charged["total"] = cum_us / 1000.0
        pending[level].append((name, cum_us))
    return charged
