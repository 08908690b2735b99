"""Span recorder wrapped around noonamp's public entry points.

Spans are recorded from outside the library: each traced entry point is
replaced, for the duration of a traced pass, by a wrapper that records the
span's name, start, end, parent span and run id, plus a few counts read off
the call's arguments and result.  Spans stay in memory; the caller turns
them into per-layer metrics after the pass and may write them out at exit.

``cli`` and ``gaussian`` import several entry points by value (for example
``cli.log_negativity_block`` and ``gaussian.evolve``), so every module
attribute bound to a traced function object is rebound, not only the one
in the defining module.  Otherwise those calls would run untraced.
"""

from collections import Counter
from contextlib import contextmanager
import functools
import importlib
import os
import statistics
import time

MODULES = ("fock", "channel", "negativity", "lindblad", "husimi", "gaussian", "cli")
_MIB = float(2**20)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "error", "attrs")

    def __init__(self, name, parent, run_id):
        self.name = name
        self.parent = parent
        self.run_id = run_id
        self.error = False
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run_id": self.run_id, "error": self.error,
                **self.attrs}


# --- counters read at the call boundary -----------------------------------

def _state_size(span, state):
    span.attrs["dim"] = state.dimension
    span.attrs["matrix_bytes"] = state.matrix.nbytes


def _observe_result_state(span, args, kwargs, result):
    _state_size(span, result)


def _observe_first_arg_state(span, args, kwargs, result):
    _state_size(span, args[0])


def _observe_block(span, args, kwargs, result):
    _state_size(span, args[0])
    span.attrs["blocks"] = result.block_count or 0
    # the block path hands over to the dense solver (after a RuntimeWarning)
    # exactly when its result comes back labelled "dense"
    span.attrs["dense_fallback"] = int(result.method == "dense")


def _observe_evolve(span, args, kwargs, result):
    _state_size(span, result)
    span.attrs["modes"] = len(args[1].amplified_modes)


def _observe_generator(span, args, kwargs, result):
    # one application reads rho and reads and writes out: 3 tensor sweeps
    span.attrs["bytes_computed"] = 3 * args[0].nbytes


def _observe_q_evaluate(span, args, kwargs, result):
    _state_size(span, args[0])
    span.attrs["q_values"] = result.values.size


def _observe_q_pairs(span, args, kwargs, result):
    _state_size(span, args[0])
    span.attrs["q_values"] = len(result)


def _observe_csv(span, args, kwargs, result):
    span.attrs["csv_bytes"] = os.path.getsize(args[1])


# (module, attribute, observer); the span name is "<module>.<attribute>"
TARGETS = (
    ("channel", "amplify_noon_symmetric", _observe_result_state),
    ("channel", "amplify_noon_asymmetric", _observe_result_state),
    ("channel", "photon_add_both", _observe_result_state),
    ("negativity", "log_negativity_block", _observe_block),
    ("negativity", "log_negativity_dense", _observe_first_arg_state),
    ("fock", "trace_distance", _observe_first_arg_state),
    ("lindblad", "evolve", _observe_evolve),
    ("_kernels", "gen_mode_a", _observe_generator),
    ("_kernels", "gen_mode_b", _observe_generator),
    ("husimi", "q_evaluate", _observe_q_evaluate),
    ("husimi", "q_pairs", _observe_q_pairs),
    ("husimi", "write_qgrid_csv", _observe_csv),
    ("gaussian", "photon_added_tmsv_negativity_sweep", None),
    ("gaussian", "threshold_bisection", None),
    ("cli", "run_sweep", None),
    ("cli", "emit", None),
    ("cli", "rows_to_csv", None),
    ("cli", "run_verify", None),
)


class Tracer:
    """Records spans for one traced pass; ``run_id`` tags every span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, observe):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, run_id)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Swap every binding of each target for its traced wrapper."""
        modules = [importlib.import_module("noonamp")] + [
            importlib.import_module(f"noonamp.{m}") for m in MODULES + ("_kernels",)]
        swapped = []
        try:
            for mod_name, attr, observe in TARGETS:
                original = getattr(importlib.import_module(f"noonamp.{mod_name}"), attr)
                wrapper = self.wrap(original, f"{mod_name}.{attr}", observe)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            swapped.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(swapped):
                setattr(mod, key, original)

    def dump(self) -> list[dict]:
        return [span.as_dict(i) for i, span in enumerate(self.spans)]


def _layer(span_name: str) -> str:
    mod = span_name.split(".", 1)[0]
    return "lindblad" if mod == "_kernels" else mod


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced pass.

    ``*_s`` values are inclusive span durations except where the name says
    ``self`` (duration minus the time covered by child spans) and for
    ``negativity.block_s`` and ``lindblad.evolve_s``, which are self times so
    that dense fallbacks and generator calls are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, span in enumerate(spans):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_time[span.name] = self_time.get(span.name, 0.0) + span.duration - child_time[i]
        calls[span.name] = calls.get(span.name, 0) + 1

    def named(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def attr_sum(prefix, key):
        return sum(s.attrs.get(key, 0) for s in named(prefix))

    def attr_max(prefix, key):
        return max((s.attrs.get(key, 0) for s in named(prefix)), default=0)

    gen_calls = calls.get("_kernels.gen_mode_a", 0) + calls.get("_kernels.gen_mode_b", 0)
    kernel_calls = Counter(s.parent for s in spans if s.name.startswith("_kernels."))
    # each RK4 step applies the generator 4 times per amplified mode
    steps = sum(kernel_calls[i] // (4 * max(span.attrs.get("modes", 1), 1))
                for i, span in enumerate(spans) if span.name == "lindblad.evolve")
    evolve_total = total.get("lindblad.evolve", 0.0)

    m = {
        "fock.dim_max": attr_max("", "dim"),
        "fock.matrix_mb_max": attr_max("", "matrix_bytes") / _MIB,
        "fock.trace_distance_s": total.get("fock.trace_distance", 0.0),
        "fock.trace_distance_calls": calls.get("fock.trace_distance", 0),
        "channel.build_s": total.get("channel.amplify_noon_symmetric", 0.0)
        + total.get("channel.amplify_noon_asymmetric", 0.0),
        "channel.build_calls": calls.get("channel.amplify_noon_symmetric", 0)
        + calls.get("channel.amplify_noon_asymmetric", 0),
        "channel.photon_add_s": total.get("channel.photon_add_both", 0.0),
        "negativity.block_s": self_time.get("negativity.log_negativity_block", 0.0),
        "negativity.block_calls": calls.get("negativity.log_negativity_block", 0),
        "negativity.blocks": attr_sum("negativity.log_negativity_block", "blocks"),
        "negativity.dense_fallbacks": attr_sum("negativity.log_negativity_block",
                                               "dense_fallback"),
        "negativity.dense_s": total.get("negativity.log_negativity_dense", 0.0),
        "negativity.dense_calls": calls.get("negativity.log_negativity_dense", 0),
        "negativity.dense_dim_max": attr_max("negativity.log_negativity_dense", "dim"),
        "lindblad.evolve_s": self_time.get("lindblad.evolve", 0.0),
        "lindblad.generator_s": total.get("_kernels.gen_mode_a", 0.0)
        + total.get("_kernels.gen_mode_b", 0.0),
        "lindblad.generator_calls": gen_calls,
        "lindblad.rk4_steps": steps,
        "lindblad.step_ms": 1e3 * evolve_total / steps if steps else 0.0,
        "lindblad.generator_mb_computed":
            attr_sum("_kernels.", "bytes_computed") / gen_calls / _MIB if gen_calls else 0.0,
        "husimi.q_evaluate_s": total.get("husimi.q_evaluate", 0.0),
        "husimi.q_values": attr_sum("husimi.q_", "q_values"),
        "husimi.q_pairs_s": total.get("husimi.q_pairs", 0.0),
        "husimi.csv_write_s": total.get("husimi.write_qgrid_csv", 0.0),
        "husimi.csv_mb": attr_sum("husimi.write_qgrid_csv", "csv_bytes") / _MIB,
        "gaussian.pipeline_self_s":
            self_time.get("gaussian.photon_added_tmsv_negativity_sweep", 0.0),
        "gaussian.threshold_s": total.get("gaussian.threshold_bisection", 0.0),
        "cli.run_sweep_self_s": self_time.get("cli.run_sweep", 0.0),
        "cli.emit_s": total.get("cli.emit", 0.0),
        "cli.verify_self_s": self_time.get("cli.run_verify", 0.0),
    }
    for mod in MODULES:
        m[f"{mod}.errors"] = sum(1 for s in spans if s.error and _layer(s.name) == mod)
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
