"""In-memory span tracing of catphase's layer functions.

`Tracer.install()` replaces each layer function by a timing wrapper in
every catphase namespace that holds a reference to it (the defining
module, the package, and every module that imported the name), plus
the Grid2D serialization methods and the verify criteria.  Nothing in
the package itself changes; `uninstall()` puts the originals back.

Spans are recorded only while an op is open (`begin_op`/`end_op`), so
the benchmark's own output checks, which call the same functions, do
not count.  Each span is (name, start, end, parent index, op id); a
layer's self time is its duration minus that of its direct children.
"""

import inspect
import os
import sys
import time


# Counters: count(fn, args, kwargs, result, before) -> {counter: amount},
# where `before` is what the layer's before-hook returned, if it has one.

def _cells(fn, args, kwargs, result, before):
    values = getattr(result, "values", result)
    return {"cells": int(getattr(values, "size", 1))}


def _calls(fn, args, kwargs, result, before):
    return {"calls": 1}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _wigner_flops(fn, args, kwargs, result, before):
    # (nx x q_nodes) @ (q_nodes x ny), promoted to a complex product:
    # 8 real flops per multiply-add
    a = _bound(fn, args, kwargs)
    return {"flops": 8 * a["grid"].nx * a["q_nodes"] * a["grid"].ny}


def _convolve_flops(fn, args, kwargs, result, before):
    a = _bound(fn, args, kwargs)
    src, out = a["src"], a["out_grid"]
    if a["method"] == "separable":
        return {"flops": 8 * out.nx * src.nx * src.ny + 8 * out.nx * src.ny * out.ny}
    return {"flops": 8 * out.nx * out.ny * src.nx * src.ny}


def _reconstruct_bytes(fn, args, kwargs, result, before):
    # u_pows and v_pows: two (n_max + 1) x nodes^2 complex128 tables
    a = _bound(fn, args, kwargs)
    nodes = a["quad"].node_count
    return {"intermediate_bytes": 2 * (a["n_max"] + 1) * nodes * nodes * 16}


def _tell(stream):
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _stream_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("stream")


def _csv_before(args, kwargs):
    stream = _stream_arg(args, kwargs)
    return stream, _tell(stream)


def _csv_written(fn, args, kwargs, result, before):
    stream, start = before
    if isinstance(stream, (str, bytes)):
        return {"bytes": os.path.getsize(stream)}
    end = _tell(stream)
    return {"bytes": end - start if start is not None and end is not None else 0}


def _json_written(fn, args, kwargs, result, before):
    return {"bytes": len(result)}


def _csv_read(fn, args, kwargs, result, before):
    stream = _stream_arg(args, kwargs)
    if isinstance(stream, (str, bytes)):
        return {"bytes": os.path.getsize(stream)}
    return {"bytes": _tell(stream) or 0}


def _json_read(fn, args, kwargs, result, before):
    return {"bytes": len(args[1] if len(args) > 1 else kwargs["text"])}


# layer name -> (defining module, attribute, counter or None)
FUNCTION_LAYERS = {
    "cli.main": ("catphase.cli", "main", None),
    "quasiprob.q_function": ("catphase.quasiprob", "q_function", _cells),
    "quasiprob.p_representation_grid": ("catphase.quasiprob", "p_representation_grid", _cells),
    "quasiprob.wigner_fock": ("catphase.quasiprob", "wigner_fock", _wigner_flops),
    "quasiprob.convolve": ("catphase.quasiprob", "_gaussian_convolve", _convolve_flops),
    "amplifier.amplified_p": ("catphase.amplifier", "amplified_p", _cells),
    "amplifier.amplify_q": ("catphase.amplifier", "amplify_q", _cells),
    "gendelta.delta_kernel": ("catphase.gendelta", "delta_kernel", _calls),
    "gendelta.sift": ("catphase.gendelta", "sift", None),
    "gendelta.sift_shifted_line": ("catphase.gendelta", "sift_shifted_line", None),
    "states.cat_density_matrix": ("catphase.states", "cat_density_matrix", _calls),
    "states.coherent_fock_coeffs": ("catphase.states", "coherent_fock_coeffs", _calls),
    "reconstruct.reconstruct_rho_numeric":
        ("catphase.reconstruct", "reconstruct_rho_numeric", _reconstruct_bytes),
    "reconstruct.roundtrip_report": ("catphase.reconstruct", "roundtrip_report", None),
}

# Grid2D method -> (before hook, counter); from_* are classmethods
GRID_METHODS = {
    "to_csv": (_csv_before, _csv_written),
    "to_json": (None, _json_written),
    "from_csv": (None, _csv_read),
    "from_json": (None, _json_read),
}

# catphase.verify criterion names, in the order `catphase verify` prints them
VERIFY_CRITERIA = (
    "moment-identity", "sifting", "round-trip", "wigner-marginal",
    "wigner-negativity", "transform-loop", "factorization", "weak-convergence",
    "overlap-consistency", "q-normalization",
)

# per-layer metric name -> unit; values are per completed op of the traced run
PER_LAYER_UNITS = {}
for _m in ("to_csv", "to_json", "from_csv", "from_json"):
    PER_LAYER_UNITS[f"quasiprob.Grid2D.{_m}.self_s"] = "s/op"
    PER_LAYER_UNITS[f"quasiprob.Grid2D.{_m}.bytes"] = "B/op"
for _layer, _counts in (
        ("quasiprob.q_function", {"cells": "count/op"}),
        ("quasiprob.p_representation_grid", {"cells": "count/op"}),
        ("amplifier.amplified_p", {"cells": "count/op", "failed": "count/op"}),
        ("amplifier.amplify_q", {"cells": "count/op", "failed": "count/op"}),
        ("gendelta.delta_kernel", {"calls": "count/op"}),
        ("quasiprob.wigner_fock", {"flops": "flop/op"}),
        ("quasiprob.convolve", {"flops": "flop/op"}),
        ("reconstruct.reconstruct_rho_numeric", {"intermediate_bytes": "B/op"}),
        ("reconstruct.roundtrip_report", {}),
        ("states.cat_density_matrix", {"calls": "count/op"}),
        ("states.coherent_fock_coeffs", {"calls": "count/op"}),
        ("gendelta.sift", {}),
        ("gendelta.sift_shifted_line", {}),
        ("cli.main", {})):
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s/op"
    for _c, _u in _counts.items():
        PER_LAYER_UNITS[f"{_layer}.{_c}"] = _u
for _c in VERIFY_CRITERIA:
    PER_LAYER_UNITS[f"verify.{_c}.self_s"] = "s/op"
PER_LAYER_UNITS["trace.overhead_s"] = "s/op"  # median paired-op latency increase


class Tracer:
    """Span recorder; one instance per traced phase."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, raised]
        self.counts = {}  # (name, counter) -> total
        self._stack = []
        self._op = None
        self._restore = []

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id

    def end_op(self):
        self._op = None
        self._stack.clear()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, before=None, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, tracer._op, False]
            tracer.spans.append(span)
            tracer._stack.append(index)
            state = before(args, kwargs) if before else None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                for key, value in counter(fn, args, kwargs, result, state).items():
                    tracer.counts[name, key] = tracer.counts.get((name, key), 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def _swap(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import catphase.quasiprob
        import catphase.verify

        modules = [m for n, m in sys.modules.items()
                   if n == "catphase" or n.startswith("catphase.")]
        for name, (modname, attr, counter) in FUNCTION_LAYERS.items():
            fn = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, fn, counter=counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._swap(module, key, wrapped)

        grid_cls = catphase.quasiprob.Grid2D
        for method, (before, counter) in GRID_METHODS.items():
            raw = grid_cls.__dict__[method]
            name = f"quasiprob.Grid2D.{method}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, before, counter))
            else:
                new = self._wrap(name, raw, before, counter)
            self._swap(grid_cls, method, new)

        criteria = tuple((n, self._wrap(f"verify.{n}", fn))
                         for n, fn in catphase.verify.CRITERIA)
        self._swap(catphase.verify, "CRITERIA", criteria)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _raised in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {}
        for (name, start, end, *_), inner in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def failed_calls(self, name, failed_ops):
        """Calls of `name` that raised or belong to an op whose check failed."""
        return sum(1 for s in self.spans
                   if s[0] == name and (s[5] or s[4] in failed_ops))

    def per_layer(self, n_ops, failed_ops, overhead_s):
        """Every per-layer metric, each a total over the run divided by n_ops."""
        self_s = self.self_times()
        out = {}
        for metric, unit in PER_LAYER_UNITS.items():
            layer, _, kind = metric.rpartition(".")
            if metric == "trace.overhead_s":
                value = overhead_s
            elif kind == "self_s":
                value = self_s.get(layer, 0.0) / n_ops
            elif kind == "failed":
                value = self.failed_calls(layer, failed_ops) / n_ops
            else:
                value = self.counts.get((layer, kind), 0) / n_ops
            out[metric] = {"value": value, "unit": unit}
        return out
