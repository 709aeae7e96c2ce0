"""Per-layer tracing installed from outside the alquot package.

Each public function named below is replaced, in every ``alquot.*``
module that holds a reference to it, by a wrapper that records a span:
name, start, end, parent span and run id.  Calls go through module
globals, so rebinding reaches calls between modules as well as calls
inside one.  Functions called very often (the ``ntheory`` primitives and
algebra construction) get counts and aggregate times instead of one span
per call.  Self time is a span's duration minus the time covered by its
child spans.  ``restore`` puts every original object back.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function); the metric prefix is the module name without "alquot."
FUNCTIONS = (
    ("alquot.ntheory", "is_prime"),
    ("alquot.ntheory", "is_squarefree"),
    ("alquot.ntheory", "prime_factors"),
    ("alquot.ntheory", "legendre"),
    ("alquot.ntheory", "kronecker"),
    ("alquot.ntheory", "hilbert_symbol"),
    ("alquot.quadforms", "reduced_forms"),
    ("alquot.quadforms", "class_number"),
    ("alquot.quaternion", "ramified_places"),
    ("alquot.quaternion", "eichler_class_number"),
    ("alquot.quaternion", "quad_field_splits"),
    ("alquot.shimura", "check_admissible"),
    ("alquot.shimura", "genus_quotient"),
    ("alquot.shimura", "fixed_points_e"),
    ("alquot.localpoints", "deficiency_ledger"),
    ("alquot.localpoints", "pic1_at_other_prime"),
    ("alquot.parity", "certify"),
    ("alquot.parity", "enumerate_admissible"),
    ("alquot.parity", "hyperelliptic_sieve"),
    ("alquot.mumford_graph", "parse_graph"),
    ("alquot.mumford_graph", "validate"),
    ("alquot.mumford_graph", "quotient_by_involution"),
    ("alquot.mumford_graph", "base_change"),
    ("alquot.mumford_graph", "has_local_point"),
    ("alquot.mumford_graph", "serialize_graph"),
    ("alquot.cli", "main"),
)

# (module, class, methods, metric name): methods are wrapped on the class.
METHODS = (
    ("alquot.cli", "OutputRecord", ("from_certificate", "to_json", "from_json", "csv_row"), "cli.record"),
    ("alquot.quaternion", "QuaternionAlgebra", ("__post_init__",), "quaternion.algebras_built"),
)

AGGREGATED = {
    "ntheory.is_prime",
    "ntheory.is_squarefree",
    "ntheory.prime_factors",
    "ntheory.legendre",
    "ntheory.kronecker",
    "ntheory.hilbert_symbol",
    "quaternion.algebras_built",
}

# Every per-layer metric, in report order: (name, unit, better).
PER_LAYER = (
    ("quadforms.reduced_forms.self_s", "s", "lower"),
    ("quadforms.class_number.calls", "count", "lower"),
    ("quadforms.class_number.distinct_ratio", "ratio", "higher"),
    ("shimura.genus_quotient.calls", "count", "lower"),
    ("shimura.genus_quotient.per_certificate", "calls/cert", "lower"),
    ("shimura.fixed_points_e.self_s", "s", "lower"),
    ("shimura.check_admissible.calls", "count", "lower"),
    ("shimura.check_admissible.accept_ratio", "ratio", "higher"),
    ("shimura.check_admissible.self_s", "s", "lower"),
    ("parity.enumerate_admissible.self_s", "s", "lower"),
    ("ntheory.is_prime.calls", "count", "lower"),
    ("ntheory.is_prime.self_s", "s", "lower"),
    ("ntheory.prime_factors.calls", "count", "lower"),
    ("ntheory.prime_factors.self_s", "s", "lower"),
    ("ntheory.is_squarefree.calls", "count", "lower"),
    ("ntheory.is_squarefree.self_s", "s", "lower"),
    ("ntheory.hilbert_symbol.calls", "count", "lower"),
    ("ntheory.hilbert_symbol.self_s", "s", "lower"),
    ("ntheory.legendre.calls", "count", "lower"),
    ("ntheory.kronecker.calls", "count", "lower"),
    ("quaternion.ramified_places.calls", "count", "lower"),
    ("quaternion.ramified_places.self_s", "s", "lower"),
    ("quaternion.eichler_class_number.calls", "count", "lower"),
    ("quaternion.eichler_class_number.self_s", "s", "lower"),
    ("quaternion.quad_field_splits.calls", "count", "lower"),
    ("quaternion.quad_field_splits.self_s", "s", "lower"),
    ("quaternion.algebras_built", "count", "lower"),
    ("localpoints.deficiency_ledger.self_s", "s", "lower"),
    ("localpoints.pic1_at_other_prime.self_s", "s", "lower"),
    ("parity.certify.calls", "count", "lower"),
    ("parity.certify.self_s", "s", "lower"),
    ("parity.hyperelliptic_sieve.calls", "count", "lower"),
    ("parity.hyperelliptic_sieve.self_s", "s", "lower"),
    ("cli.record.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("mumford_graph.parse_graph.self_s", "s", "lower"),
    ("mumford_graph.validate.self_s", "s", "lower"),
    ("mumford_graph.quotient_by_involution.self_s", "s", "lower"),
    ("mumford_graph.base_change.self_s", "s", "lower"),
    ("mumford_graph.has_local_point.self_s", "s", "lower"),
    ("mumford_graph.serialize_graph.self_s", "s", "lower"),
    ("mumford_graph.quotient_by_involution.error_ratio", "ratio", "lower"),
    ("setup.import.numpy_s", "s", "lower"),
    ("setup.import.alquot_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _alquot_modules():
    return [m for n, m in list(sys.modules.items()) if n == "alquot" or n.startswith("alquot.")]


class Tracer:
    """Collects spans and per-name counters while ``enabled`` is true."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.class_number_args: set[int] = set()
        self.admissible_accepted = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, spanned = self._stack, name not in AGGREGATED
        watch_args = name == "quadforms.class_number"
        watch_accept = name == "shimura.check_admissible"

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if spanned:
                    self.spans.append((frame[0], name, start, end, parent))
            if watch_args:
                self.class_number_args.add(args[0])
            if watch_accept and not hasattr(result, "reason"):
                self.admissible_accepted += 1
            return result

        return wrapper

    def install(self) -> None:
        modules = _alquot_modules()
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name[len('alquot.'):]}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        for module_name, cls_name, methods, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                setattr(cls, method, wrapped)
                self._undo.append((cls, method, original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values this tracer measures; the caller adds the
        setup, output-size and overhead figures."""
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[base]
            elif kind == "self_s":
                out[name] = self.self_s[base]
        out["quaternion.algebras_built"] = self.calls["quaternion.algebras_built"]
        cn = self.calls["quadforms.class_number"]
        out["quadforms.class_number.distinct_ratio"] = len(self.class_number_args) / cn if cn else 0.0
        certs = self.calls["parity.certify"]
        out["shimura.genus_quotient.per_certificate"] = (
            self.calls["shimura.genus_quotient"] / certs if certs else 0.0
        )
        checked = self.calls["shimura.check_admissible"]
        out["shimura.check_admissible.accept_ratio"] = self.admissible_accepted / checked if checked else 0.0
        quotients = self.calls["mumford_graph.quotient_by_involution"]
        out["mumford_graph.quotient_by_involution.error_ratio"] = (
            self.errors["mumford_graph.quotient_by_involution"] / quotients if quotients else 0.0
        )
        return out

    def write(self, path) -> None:
        """Spans, then one aggregate record per name, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({"run": self.run_id, "id": span_id, "name": name,
                                         "start": start, "end": end, "parent": parent}) + "\n")
            for name in sorted(self.calls):
                handle.write(json.dumps({"run": self.run_id, "name": name, "calls": self.calls[name],
                                         "self_s": self.self_s[name],
                                         "errors": self.errors[name]}) + "\n")
