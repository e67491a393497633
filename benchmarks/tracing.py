"""Span tracing of dprelax's public functions, installed from outside the library.

`Tracer.install` replaces every ``dprelax.*`` module global bound to a traced
function with a timing wrapper.  Rebinding only the defining module would miss
calls made through names that `experiments`, `inference`, `audit`, `cli` and
the package itself import directly, so every module that holds the same
function object is patched.  `Tracer.uninstall` restores the originals.

Open spans live on a per-thread stack; closed spans are folded into per-thread
aggregates (calls, total time, self time, callers) held in memory and merged
by `Tracer.snapshot`.  Self time is a span's duration minus the time of the
traced spans it directly contains.
"""

import os
import sys
import threading
from time import perf_counter

import numpy as np

SIMULATE_SPAN = "experiments.simulate_experiment"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_draws(counts, stack, args, kwargs, result):
    # sample_rr_batch(values, ...) and relax_step_batch(kernel, true_values, ...)
    n = int(np.size(result))
    counts["mechanism.draws"] = counts.get("mechanism.draws", 0) + n
    if any(frame[0] == SIMULATE_SPAN for frame in stack):
        counts["simulate_draws"] = counts.get("simulate_draws", 0) + n


def _count_scored(counts, stack, args, kwargs, result):
    n = int(np.size(_arg(args, kwargs, 0, "outputs")))
    counts["inference.object_rounds_scored"] = counts.get("inference.object_rounds_scored", 0) + n


def _count_samples(counts, stack, args, kwargs, result):
    n = int(np.size(result))
    counts["rappor.samples_drawn"] = counts.get("rappor.samples_drawn", 0) + n


def _count_sequences(counts, stack, args, kwargs, result):
    n = int(np.shape(result)[1])
    counts["audit.sequences_enumerated"] = counts.get("audit.sequences_enumerated", 0) + n


def _count_csv(counts, stack, args, kwargs, result):
    n = os.path.getsize(result)
    counts["experiments.csv_bytes"] = counts.get("experiments.csv_bytes", 0) + n


CSV_WRITERS = (
    "write_rounds_csv",
    "write_attacks_csv",
    "write_rappor_csv",
    "write_kernel_table_csv",
    "write_audit_csv",
)

# (module, function, count hook run on the result).  The per-layer metrics of
# BENCHMARK.json name these spans; the CSV writers feed experiments.csv_*.
TRACED = (
    ("mechanism", "sample_rr_batch", _count_draws),
    ("mechanism", "relax_step_batch", _count_draws),
    ("mechanism", "relax_kernel", None),
    ("mechanism", "kernel_tensor", None),
    ("mechanism", "start_chain", None),
    ("mechanism", "relax_step", None),
    ("mechanism", "chain_likelihood", None),
    ("estimation", "histogram", None),
    ("estimation", "estimate_poly", None),
    ("estimation", "frequency_estimate_covariance", None),
    ("inference", "attack_guesses_matrix", _count_scored),
    ("inference", "balanced_subset", None),
    ("inference", "posterior", None),
    ("rappor", "simulate_noisy_sampling_batch", _count_samples),
    ("rappor", "decode_noisy_sampling_counts", None),
    ("audit", "run_standard_audits", None),
    ("audit", "chain_log_probs", _count_sequences),
    ("audit", "audit_composition_ldp", None),
    ("audit", "audit_step_epsilon", None),
    ("experiments", "simulate_experiment", None),
    ("experiments", "compare_noisy_sampling", None),
    ("experiments", "load_config", None),
    ("cli", "main", None),
) + tuple(("experiments", name, _count_csv) for name in CSV_WRITERS)


class _ThreadState:
    def __init__(self):
        self.stack = []       # open spans: [name, time covered by child spans]
        self.spans = {}       # name -> [calls, total_s, self_s]
        self.callers = {}     # (parent name or None, name) -> calls
        self.counts = {}
        self.top_level_s = 0.0


class Tracer:
    """Wraps the functions in `TRACED`; one instance per traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                agg = state.spans.get(name)
                if agg is None:
                    agg = state.spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                parent = stack[-1][0] if stack else None
                key = (parent, name)
                state.callers[key] = state.callers.get(key, 0) + 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    state.top_level_s += elapsed
            if hook is not None:
                hook(state.counts, stack, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "dprelax" or mod_name.startswith("dprelax."))
        ]
        for module_name, func_name, hook in TRACED:
            original = getattr(sys.modules[f"dprelax.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def snapshot(self) -> dict:
        """Merged spans, callers and counts of every thread that ran traced code."""
        spans, callers, counts, top_level_s = {}, {}, {}, 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in state.spans.items():
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            for key, calls in state.callers.items():
                callers[key] = callers.get(key, 0) + calls
            for key, value in state.counts.items():
                counts[key] = counts.get(key, 0) + value
            top_level_s += state.top_level_s
        return {"spans": spans, "callers": callers, "counts": counts, "top_level_s": top_level_s}
