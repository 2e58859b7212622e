"""Per-layer call tracing, applied to emaxbr from outside the package.

The tracer replaces every module-level binding of each public emaxbr
function with a timing wrapper: the binding in the defining module, the
bindings in every module that imported the function by name, the package
re-exports, and entries of module-level dispatch tables such as the
estimator table behind ``estimators.fit``.  Each call becomes a span
``(name, layer, start, end, parent, op)`` kept in compact in-memory arrays
and written out when the run ends.  ``uninstall`` restores the originals.

The layers are the package's seven modules.  A layer's self time is the
time of its spans minus the time of their child spans; since nested spans
of the same layer are subtracted too, the self times of all layers inside
an op add up to the op's wall time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array

import numpy as np

LAYERS = ("model", "cumulants", "estimators", "inference", "diagnostics", "simharness", "cli")
KINDS = ("mle", "coxsnell", "firth", "mple")
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Wraps emaxbr's public functions and records one span per call."""

    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        # span index -> (estimator kind, status, iterations) for estimators.fit
        self.fit_info: dict[int, tuple[str, str, int]] = {}
        self.op = -1
        self._stack = [-1]
        self._patches: list[tuple[dict, object, object]] = []

    def public_functions(self):
        """Yield ``(layer, name, function)`` for every public module-level function."""
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    yield layer, name, obj

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {
            id(fn): (fn, self._wrap(fn, f"{layer}.{name}"))
            for layer, name, fn in self.public_functions()
        }

        def patch(table: dict) -> None:
            for key, val in list(table.items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((table, key, val))
                    table[key] = hit[1]

        for ns in (self.package, *self.modules.values()):
            namespace = vars(ns)
            patch(namespace)
            for val in list(namespace.values()):
                if type(val) is dict:
                    patch(val)

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches.clear()

    def _wrap(self, fn, qualname: str):
        if qualname not in self.names:
            self.names.append(qualname)
        nid = self.names.index(qualname)
        name_of, parent, op_of = self.name_of, self.parent, self.op_of
        start, end, stack, fit_info = self.start, self.end, self._stack, self.fit_info
        clock = time.perf_counter
        records_fit = qualname == "estimators.fit"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            op_of.append(self.op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if records_fit:
                kind = args[0] if args else kwargs["kind"]
                fit_info[i] = (kind.value, result.status.value, int(result.iterations))
            return result

        return traced

    def write(self, path) -> None:
        """Write all spans as gzip CSV: name,layer,start,end,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,layer,start,end,parent,op\n")
            for i in range(len(self.name_of)):
                name = self.names[self.name_of[i]]
                fh.write(
                    f"{name},{name.split('.', 1)[0]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.op_of[i]}\n"
                )


def integrity_error(counts: dict, n_ops: int, fits_per_op: int) -> str | None:
    """Check that the trace saw every op and every top-level ``fit`` call.

    A binding the tracer missed hides a layer's calls; the fit count is
    fixed by the workload, so a shortfall shows it.
    """
    expected = n_ops * fits_per_op
    if counts["ops"] == n_ops and counts["fit_spans"] == expected and not counts["fit_spans_outside_ops"]:
        return None
    return (
        f"trace integrity: {counts['ops']} op spans and {counts['fit_spans']} top-level fit "
        f"spans ({counts['fit_spans_outside_ops']} outside ops), expected {n_ops} and {expected}"
    )


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail_percentile(n: int) -> float:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in _TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def _tail(values) -> float:
    if not len(values):
        return 0.0
    return float(np.percentile(values, tail_percentile(len(values))))


def layer_metrics(tracer: Tracer, root: str) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from the spans, normalised per top-level ``fit`` call.

    ``root`` names the span of one timed op (``simharness.run_study`` or
    ``cli.main``).  Shares are taken over the summed wall time of the op
    spans; spans outside ops (the benchmark's fingerprint calls) count only
    towards their own per-call times.  Returns the metrics and a dict of
    raw counts used by the integrity check.
    """
    n = len(tracer.name_of)
    names = tracer.names
    name_of = np.frombuffer(tracer.name_of, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time

    root_id = names.index(root) if root in names else -1
    top = np.empty(n, dtype=np.int64)
    for i in range(n):
        top[i] = i if parent[i] < 0 else top[parent[i]]
    is_root = (name_of == root_id) & ~has_parent
    in_op = is_root[top]
    op_wall = float(dur[is_root].sum())

    def span_mask(qualname: str, within_ops: bool = True) -> np.ndarray:
        if qualname not in names:
            return np.zeros(n, bool)
        mask = name_of == names.index(qualname)
        return mask & in_op if within_ops else mask

    fit_mask = span_mask("estimators.fit")
    n_fit = int(fit_mask.sum())
    per_fit = 1.0 / n_fit if n_fit else 0.0
    fit_idx = np.flatnonzero(fit_mask)

    m: dict[str, float] = {}

    def calls_per_fit(qualname: str) -> float:
        return float(span_mask(qualname).sum()) * per_fit

    def mean_ms(qualname: str, within_ops: bool = True) -> float:
        return 1e3 * _mean(dur[span_mask(qualname, within_ops)])

    def share(total: float, part: float) -> float:
        return part / total if total > 0 else 0.0

    layer_of_name = np.array([name.split(".", 1)[0] for name in names] + [""])
    layer_self = {
        layer: float(self_time[in_op & (layer_of_name[name_of] == layer)].sum())
        for layer in LAYERS
    }

    for fn in ("deriv_tensors", "log_likelihood", "score", "hessian", "expected_information"):
        m[f"model.{fn}.calls_per_fit"] = calls_per_fit(f"model.{fn}")
    m["model.deriv_tensors.us_per_call"] = 1e3 * mean_ms("model.deriv_tensors")
    m["cumulants.cumulant_bundle.calls_per_fit"] = calls_per_fit("cumulants.cumulant_bundle")
    m["cumulants.cumulant_bundle.us_per_call"] = 1e3 * mean_ms("cumulants.cumulant_bundle")

    fit_time = float(dur[fit_idx].sum())
    sv = span_mask("estimators.starting_values")
    m["estimators.starting_values.calls_per_fit"] = calls_per_fit("estimators.starting_values")
    m["estimators.starting_values.ms_per_call"] = mean_ms("estimators.starting_values")
    m["estimators.starting_values.share"] = share(fit_time, float(dur[sv].sum()))
    m["estimators.fit_mle.calls_per_fit"] = calls_per_fit("estimators.fit_mle")
    m["estimators.fit_mple.calls_per_fit"] = calls_per_fit("estimators.fit_mple")

    fits_by_kind = {k: [] for k in KINDS}
    for i in fit_idx:
        kind, status, iterations = tracer.fit_info[int(i)]
        fits_by_kind[kind].append((1e3 * dur[i], status, iterations))
    for kind in KINDS:
        rows = fits_by_kind[kind]
        ms = [r[0] for r in rows]
        total = len(rows)
        m[f"estimators.{kind}.ms_per_fit.p50"] = _median(ms)
        m[f"estimators.{kind}.ms_per_fit.tail"] = _tail(ms)
        m[f"estimators.{kind}.iterations_mean"] = _mean([r[2] for r in rows])
        for status, key in (
            ("Converged", "converged_frac"),
            ("Unstable", "unstable_frac"),
            ("FailedToEstimate", "failed_frac"),
        ):
            count = sum(r[1] == status for r in rows)
            m[f"estimators.{kind}.{key}"] = count / total if total else 0.0

    bands = np.flatnonzero(span_mask("inference.bootstrap_bands"))
    refits: list[int] = []
    band_fits = 0
    for b in bands:
        children = fit_idx[parent[fit_idx] == b]
        band_fits += len(children)
        refits.extend(int(c) for c in children[1:])  # the first is the point fit
    m["inference.bootstrap_bands.fit_calls"] = band_fits / len(bands) if len(bands) else 0.0
    m["inference.refit_ms.p50"] = _median([1e3 * dur[i] for i in refits])
    m["inference.refit_failed_frac"] = (
        sum(tracer.fit_info[i][1] == "FailedToEstimate" for i in refits) / len(refits)
        if refits
        else 0.0
    )

    m["diagnostics.detect_separation.us_per_call"] = 1e3 * mean_ms("diagnostics.detect_separation")
    m["diagnostics.classify_shape.us_per_call"] = 1e3 * mean_ms("diagnostics.classify_shape")
    m["simharness.generate_dataset.us_per_call"] = 1e3 * mean_ms("simharness.generate_dataset")
    m["simharness.audit_csv_ms"] = mean_ms("simharness.audit_csv", within_ops=False)
    m["simharness.emit_table_ms"] = mean_ms("simharness.emit_table", within_ops=False)
    n_cli = int(span_mask("cli.main").sum())
    m["cli.self_ms_per_analysis"] = 1e3 * layer_self["cli"] / n_cli if n_cli else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_share"] = share(op_wall, layer_self[layer])

    counts = {
        "spans": n,
        "ops": int(is_root.sum()),
        "fit_spans": n_fit,
        "fit_spans_outside_ops": int(span_mask("estimators.fit", within_ops=False).sum()) - n_fit,
        "op_wall_s": op_wall,
        "tail_percentile": {k: tail_percentile(len(v)) for k, v in fits_by_kind.items() if v},
    }
    return m, counts
