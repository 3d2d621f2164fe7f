"""Per-module tracing from outside the program.

``install`` replaces public functions of ``orthoseries`` modules with
wrappers, under the names their callers look them up (``verify`` imports
``majorant`` into its own namespace, so the wrapper goes on
``verify.majorant``).  Each wrapper records a span (name, start, end,
parent) in memory and bumps the counters of its layer.  The layer of a span
is the text before the first dot of its name, one of the modules of
``src/orthoseries``.  Only traced passes call ``install``.

Traced passes run with one thread, so the parent of a span is the
innermost open span; the recorder keeps no per-thread state.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MIB = float(1 << 20)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# -- counters ---------------------------------------------------------------

def _count_suite(c, args, kwargs, report):
    c["verify.trials"] += sum(r.n_cases for r in report.results.values())


def _count_stream(c, args, kwargs, profile):
    c["majorants.stream_calls"] += 1


def _count_delta(c, args, kwargs, osc):
    c["majorants.tandori_delta_calls"] += 1
    c["majorants.osc_exact" if osc.mode == "exact" else "majorants.osc_doubled"] += 1


def _is_greedy(args, kwargs) -> bool:
    return _arg(args, kwargs, 3, "strategy").value == "greedy-max-prefix"


def _name_adversary(args, kwargs) -> str:
    return "majorants.greedy" if _is_greedy(args, kwargs) else "majorants.block_reversal"


def _count_adversary(c, args, kwargs, plan):
    if _is_greedy(args, kwargs):
        system, n = _arg(args, kwargs, 0, "system"), _arg(args, kwargs, 2, "n")
        c["majorants.greedy_calls"] += 1
        # one (w*v) @ Vc.T product of n x D per step, n steps
        c["majorants.greedy_ops"] += n * n * system.values.shape[1]


def _count_gram(c, args, kwargs, report):
    from orthoseries import direct_integral
    n = report.gram.shape[0]
    c["direct_integral.gram_calls"] += 1
    c["direct_integral.eig_lanczos" if n > direct_integral.DENSE_EIG_LIMIT
      else "direct_integral.eig_dense"] += 1
    c["direct_integral.gram_mib"] = max(c["direct_integral.gram_mib"],
                                        report.gram.nbytes / MIB)


def _count_generate(c, args, kwargs, result):
    c["systems.generate_calls"] += 1
    c["systems.values_mib"] += result[2].values.nbytes / MIB


def _count_condition(pos, name):
    def count(c, args, kwargs, result):
        c["coefficients.calls"] += 1
        c["coefficients.terms"] += int(_arg(args, kwargs, pos, name))
    return count


def _count_coeff_call(c, args, kwargs, result):
    c["coefficients.calls"] += 1


def _count_cumsum(c, args, kwargs, out):
    c["summation.cumsum_terms"] += len(out)


def _count_sum(c, args, kwargs, out):
    c["summation.sum_calls"] += 1


def _count_written(c, args, kwargs, text):
    c["serialization.bytes_written"] += len(text.encode())


def _count_read(c, args, kwargs, system):
    c["serialization.bytes_read"] += len(_arg(args, kwargs, 0, "text").encode())


# -- the wrap list ----------------------------------------------------------
# (module the caller looks the name up in, attribute, span name, counter).
WRAPS = [
    # cli: the root of every pass.  Its self time is argument parsing, the
    # partial-sum listing and JSON encoding, which dominate conditions-cli.
    ("cli", "main", "cli.main", None),
    # verify: suite dispatch and the per-check trial loops; the thread pool
    # and the mixing QR of riesz-ratio are verify self time.  run_suite looks
    # the checks up in verify's own namespace.
    ("cli", "run_suite", "verify.run_suite", _count_suite),
    ("verify", "check_mr_inequality", "verify.mr_inequality", None),
    ("verify", "check_dyadic_pointwise", "verify.dyadic_pointwise", None),
    ("verify", "_chaining_results", "verify.chaining", None),
    ("verify", "check_tandori_block", "verify.tandori_block", None),
    ("verify", "check_orlicz_chain", "verify.orlicz_chain", None),
    ("verify", "check_exhaustive_perm", "verify.exhaustive_perm", None),
    ("verify", "check_riesz_ratio", "verify.riesz_ratio", None),
    # majorants: streaming majorant (per-call overhead on verify-default),
    # blocked oscillations and the greedy adversary (O(n^2) on large-n).
    ("verify", "majorant", "majorants.majorant", _count_stream),
    ("verify", "permuted_majorant", "majorants.permuted_majorant", _count_stream),
    ("cli", "majorant", "majorants.majorant", _count_stream),
    ("verify", "chaining_diagnostics", "majorants.chaining_diagnostics", None),
    ("verify", "dyadic_pointwise_bound", "majorants.dyadic_pointwise_bound", None),
    ("verify", "tandori_delta", "majorants.tandori_delta", _count_delta),
    ("verify", "adversarial_permutation", _name_adversary, _count_adversary),
    ("cli", "dyadic_decomposition", "majorants.dyadic_decomposition", None),
    # direct_integral: Gram products and their dense or Lanczos spectrum.
    ("verify", "gram_matrix", "direct_integral.gram_matrix", _count_gram),
    # systems: generation, on the set-up path of every workload.
    ("verify", "generate", "systems.generate", _count_generate),
    ("cli", "generate", "systems.generate", _count_generate),
    # coefficients: sequence draws, block masses and the condition reports.
    ("cli", "weyl_sum", "coefficients.weyl_sum", _count_condition(1, "truncation")),
    ("cli", "tandori_sum", "coefficients.tandori_sum", _count_condition(1, "truncation")),
    ("cli", "orlicz_conditions", "coefficients.orlicz_conditions",
     _count_condition(2, "truncation")),
    ("cli", "orlicz_reduction", "coefficients.orlicz_reduction",
     _count_condition(2, "truncation")),
    ("verify", "orlicz_conditions", "coefficients.orlicz_conditions",
     _count_condition(2, "truncation")),
    ("verify", "orlicz_reduction", "coefficients.orlicz_reduction",
     _count_condition(2, "truncation")),
    ("verify", "condensation_chain", "coefficients.condensation_chain",
     _count_condition(1, "terms")),
    ("verify", "tandori_blocks", "coefficients.tandori_blocks", _count_coeff_call),
    ("majorants", "tandori_blocks", "coefficients.tandori_blocks", _count_coeff_call),
    # summation: the per-element compensated running sum is the hot loop of
    # conditions-cli; the one-shot sums run inside majorants and verify.
    ("coefficients", "compensated_cumsum", "summation.compensated_cumsum", _count_cumsum),
    ("coefficients", "compensated_sum", "summation.compensated_sum", _count_sum),
    ("majorants", "compensated_sum", "summation.compensated_sum", _count_sum),
    # serialization: cli calls these through the module object, so they are
    # wrapped on the module itself.
    ("serialization", "system_to_json", "serialization.write", _count_written),
    ("serialization", "system_to_csv", "serialization.write", _count_written),
    ("serialization", "profile_to_json", "serialization.write", _count_written),
    ("serialization", "system_from_json", "serialization.read", _count_read),
    ("serialization", "system_from_csv", "serialization.read", _count_read),
]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._open_spans: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open_spans.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open_spans.pop()

    def wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, count in WRAPS:
            mod = importlib.import_module(f"orthoseries.{module}")
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, count))

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the part of the span's
        interval that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[name] += (end - start) - covered
        return dict(out)

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)


# per-layer metric -> (unit, span names whose self times it sums)
TIMED = {
    "verify.self_s": ("s", "verify."),
    "verify.mr_inequality_s": ("s", ["verify.mr_inequality"]),
    "verify.dyadic_pointwise_s": ("s", ["verify.dyadic_pointwise"]),
    "verify.chaining_s": ("s", ["verify.chaining"]),
    "verify.tandori_block_s": ("s", ["verify.tandori_block"]),
    "verify.orlicz_chain_s": ("s", ["verify.orlicz_chain"]),
    "verify.exhaustive_perm_s": ("s", ["verify.exhaustive_perm"]),
    "verify.riesz_ratio_s": ("s", ["verify.riesz_ratio"]),
    "majorants.self_s": ("s", "majorants."),
    "majorants.tandori_delta_s": ("s", ["majorants.tandori_delta"]),
    "majorants.greedy_s": ("s", ["majorants.greedy"]),
    "majorants.stream_s": ("s", ["majorants.majorant", "majorants.permuted_majorant"]),
    "majorants.chaining_s": ("s", ["majorants.chaining_diagnostics"]),
    "majorants.dyadic_s": ("s", ["majorants.dyadic_pointwise_bound"]),
    "direct_integral.gram_s": ("s", ["direct_integral.gram_matrix"]),
    "systems.generate_s": ("s", ["systems.generate"]),
    "coefficients.self_s": ("s", "coefficients."),
    "summation.cumsum_s": ("s", ["summation.compensated_cumsum"]),
    "summation.sum_s": ("s", ["summation.compensated_sum"]),
    "serialization.write_s": ("s", ["serialization.write"]),
    "serialization.read_s": ("s", ["serialization.read"]),
    "cli.self_s": ("s", "cli."),
    "bench.glue_s": ("s", "bench."),
}

COUNTED = {
    "verify.trials": "count",
    "majorants.tandori_delta_calls": "count",
    "majorants.osc_exact": "count",
    "majorants.osc_doubled": "count",
    "majorants.greedy_calls": "count",
    "majorants.greedy_ops": "count",
    "majorants.stream_calls": "count",
    "direct_integral.gram_calls": "count",
    "direct_integral.eig_dense": "count",
    "direct_integral.eig_lanczos": "count",
    "direct_integral.gram_mib": "MiB",
    "systems.generate_calls": "count",
    "systems.values_mib": "MiB",
    "coefficients.calls": "count",
    "coefficients.terms": "count",
    "summation.cumsum_terms": "count",
    "summation.sum_calls": "count",
    "serialization.bytes_written": "bytes",
    "serialization.bytes_read": "bytes",
    "cli.bytes_out": "bytes",
}

LAYERS = ("cli", "verify", "majorants", "direct_integral", "systems",
          "coefficients", "summation", "serialization")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass, plus each layer's self time
    and span count under ``layer.<name>_s`` and ``layer.<name>_calls`` for the
    printed split."""
    selfs = tracer.self_times()
    out: dict[str, float] = {}
    for metric, (_, spans) in TIMED.items():
        if isinstance(spans, str):
            out[metric] = float(sum(v for k, v in selfs.items() if k.startswith(spans)))
        else:
            out[metric] = float(sum(selfs.get(k, 0.0) for k in spans))
    for metric in COUNTED:
        out[metric] = float(tracer.counters.get(metric, 0.0))
    for layer in LAYERS:
        out[f"layer.{layer}_s"] = float(sum(v for k, v in selfs.items()
                                            if k.startswith(layer + ".")))
        out[f"layer.{layer}_calls"] = float(sum(s[0].startswith(layer + ".")
                                                for s in tracer.spans))
    return out
