"""Spans and counts around the calls into each layer of `hrg`.

The tracer replaces a public function by a wrapper at every module
attribute it is bound to (`deviation_step`, for one, is called through
both `hrg.rg` and `hrg.observables`), and puts the originals back when it
is removed.  Timed targets record a span (name, start, end, parent, op);
spans nest, so each also gives a self time.  Targets called very often are
counted only.  Spans stay in memory until the run ends.  A target whose
name no longer exists is skipped, and the metrics built on it are reported
as absent.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


def _settle_steps(args, kwargs, result):
    return result.settle_index


def _psi_stages(args, kwargs, result):
    return result[1]


def _ir_terms(args, kwargs, result):
    return result.n_terms


SPAN, COUNT, STEPS = "span", "count", "steps"


@dataclass(frozen=True)
class Target:
    module: str  # "hrg.rg"
    name: str  # attribute, or "Class.method"
    kind: str  # SPAN: a span per call; COUNT: a call count only; STEPS: a span per generator step
    extra: tuple = ()  # (counter suffix, function of (args, kwargs, result))

    @property
    def label(self) -> str:
        return self.module.removeprefix("hrg.") + "." + self.name


TARGETS = (
    Target("hrg.cli", "run_command", SPAN),
    Target("hrg.covariance", "covariance_table", SPAN),
    Target("hrg.geometry", "distance_exponents", SPAN),
    Target("hrg.rg", "flow_coefficients", SPAN),
    Target("hrg.rg", "block_step", SPAN),
    Target("hrg.rg", "second_order_counterterms", SPAN),
    Target("hrg.rg", "deviation_step", COUNT),
    Target("hrg.rg", "deviation_vacuum", COUNT),
    Target("hrg.rg", "bulk_step", COUNT),
    Target("hrg.wick", "connection_coeff", COUNT),
    Target("hrg.dynamics", "find_fixed_point", COUNT),
    Target("hrg.dynamics", "stable_orbit", SPAN, ("settle_steps", _settle_steps)),
    Target("hrg.dynamics", "critical_mass", SPAN),
    Target("hrg.dynamics", "psi_fixed_seed", COUNT, ("stages", _psi_stages)),
    Target("hrg.dynamics", "koenigs_value", SPAN),
    Target("hrg.dynamics", "t_infinity", SPAN),
    Target("hrg.dynamics", "semigroup_residuals", SPAN),
    Target("hrg.observables", "phi2_ir_reduced", SPAN, ("terms", _ir_terms)),
    Target("hrg.observables", "one_point_residual", SPAN),
    Target("hrg.observables", "phi2_uv_reduced", SPAN),
    Target("hrg.observables", "normalization_constants", SPAN),
    Target("hrg.observables", "u_values", SPAN),
    Target("hrg.mc", "validate", SPAN),
    Target("hrg.mc", "FieldEnsemble.batches", STEPS),
)

SAMPLE_LABEL = "mc.FieldEnsemble.batches"
BLOCK_STEP_LABEL = "rg.block_step"


def _block_key(args, kwargs) -> bytes:
    """Digest of the per-box couplings and the parameter point of a block step."""
    bc = args[0] if args else kwargs["bc"]
    params = args[2] if len(args) > 2 else kwargs["params"]
    h = hashlib.blake2b(repr((params.p, params.l, params.eps)).encode(), digest_size=16)
    for key, value in sorted(vars(bc).items()):
        h.update(key.encode())
        h.update(value.tobytes())
    return h.digest()


class Tracer:
    """Installs the wrappers, and holds the spans and counts they record."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [label, start, end, parent index, op]
        self.counts = defaultdict(int)
        self.absent = set()  # labels of targets, and counters, that could not be read
        self.op = -1
        self._stack = []
        self._seen_blocks = set()
        self._patches = []

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id: int):
        """Start a new op: spans get its id, and repeat detection restarts."""
        self.op = op_id
        self._seen_blocks = set()

    # -- install / remove ------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "hrg" and m]
        for t in self.targets:
            owner = sys.modules.get(t.module)
            cls_name, _, attr = t.name.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.add(t.label)
                continue
            wrapper = self._wrap(t, original)
            if cls_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers --------------------------------------------------------

    def _observe(self, t: Target, args, kwargs, result):
        if not t.extra:
            return
        suffix, fn = t.extra
        counter = f"{t.label}.{suffix}"
        try:
            self.counts[counter] += fn(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            self.absent.add(counter)

    def _wrap(self, t: Target, fn):
        label = t.label
        counts = self.counts
        if t.kind == STEPS:
            return self._wrap_generator(label, fn)
        if t.kind == COUNT:
            calls = label + ".calls"

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[calls] += 1
                self._observe(t, args, kwargs, result)
                return result

            return counted

        def timed(*args, **kwargs):
            if label == BLOCK_STEP_LABEL:
                self._note_block(args, kwargs)
            idx = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(t, args, kwargs, result)
            return result

        return timed

    def _wrap_generator(self, label, fn):
        """Time each step of the sampler generator, not the caller's work
        between steps."""
        tracer = self

        def batches(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(label)
                try:
                    batch = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.counts[label + ".box_samples"] += batch.size
                yield batch

        return batches

    def _note_block(self, args, kwargs):
        try:
            key = _block_key(args, kwargs)
        except (AttributeError, TypeError, IndexError, KeyError):
            self.absent.add(BLOCK_STEP_LABEL + ".repeat_calls")
            return
        if key in self._seen_blocks:
            self.counts[BLOCK_STEP_LABEL + ".repeat_calls"] += 1
        else:
            self._seen_blocks.add(key)

    def _open(self, label: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([label, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- summaries -------------------------------------------------------

    def span_totals(self) -> dict:
        """label -> (calls, inclusive seconds, self seconds)."""
        child = defaultdict(float)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (label, start, end, parent, _) in enumerate(self.spans):
            calls, total, own = out.get(label, (0, 0.0, 0.0))
            out[label] = (calls + 1, total + end - start, own + end - start - child[i])
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for label, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": label, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


class _Stats:
    """Per-label readings; None wherever a target or counter is absent."""

    def __init__(self, tracer: Tracer):
        self.absent = tracer.absent
        self.spans = tracer.span_totals()
        self.counts = tracer.counts

    def _span(self, label: str, i: int):
        if label in self.absent:
            return None
        return self.spans.get(label, (0, 0.0, 0.0))[i]

    def total(self, label):
        return self._span(label, 1)

    def own(self, label):
        return self._span(label, 2)

    def calls(self, label):
        if label in self.absent:
            return None
        if label in self.spans:
            return self.spans[label][0]
        return self.counts.get(label + ".calls", 0)

    def count(self, label, suffix):
        name = f"{label}.{suffix}"
        if label in self.absent or name in self.absent:
            return None
        return self.counts.get(name, 0)


def _minus(a, b):
    return None if a is None or b is None else a - b


def _times8(a):
    return None if a is None else 8 * a


S, N = "s/cycle", "count/cycle"

# name, unit, reading; every reading is per traced cycle
LAYER_METRICS = (
    ("cli.run_command.self_s", S, lambda st: st.own("cli.run_command")),
    ("covariance.covariance_table.s", S, lambda st: st.total("covariance.covariance_table")),
    ("covariance.covariance_table.calls", N, lambda st: st.calls("covariance.covariance_table")),
    ("geometry.distance_exponents.s", S, lambda st: st.total("geometry.distance_exponents")),
    ("rg.flow_coefficients.s", S, lambda st: st.total("rg.flow_coefficients")),
    ("rg.block_step.calls", N, lambda st: st.calls("rg.block_step")),
    ("rg.block_step.repeat_calls", N, lambda st: st.count("rg.block_step", "repeat_calls")),
    ("rg.second_order_counterterms.self_s", S, lambda st: st.own("rg.second_order_counterterms")),
    ("rg.deviation_step.calls", N, lambda st: st.calls("rg.deviation_step")),
    ("rg.deviation_vacuum.calls", N, lambda st: st.calls("rg.deviation_vacuum")),
    ("rg.bulk_step.calls", N, lambda st: st.calls("rg.bulk_step")),
    ("wick.connection_coeff.calls", N, lambda st: st.calls("wick.connection_coeff")),
    ("dynamics.find_fixed_point.calls", N, lambda st: st.calls("dynamics.find_fixed_point")),
    ("dynamics.stable_orbit.s", S, lambda st: st.total("dynamics.stable_orbit")),
    ("dynamics.stable_orbit.settle_steps", N, lambda st: st.count("dynamics.stable_orbit", "settle_steps")),
    ("dynamics.critical_mass.s", S, lambda st: st.total("dynamics.critical_mass")),
    ("dynamics.psi_fixed_seed.calls", N, lambda st: st.calls("dynamics.psi_fixed_seed")),
    ("dynamics.psi_fixed_seed.stages", N, lambda st: st.count("dynamics.psi_fixed_seed", "stages")),
    ("dynamics.koenigs_value.s", S, lambda st: st.total("dynamics.koenigs_value")),
    ("dynamics.t_infinity.s", S, lambda st: st.total("dynamics.t_infinity")),
    ("dynamics.semigroup_residuals.s", S, lambda st: st.total("dynamics.semigroup_residuals")),
    ("observables.phi2_ir_reduced.s", S, lambda st: st.total("observables.phi2_ir_reduced")),
    ("observables.phi2_ir_reduced.terms", N, lambda st: st.count("observables.phi2_ir_reduced", "terms")),
    ("observables.one_point_residual.s", S, lambda st: st.total("observables.one_point_residual")),
    ("observables.phi2_uv_reduced.s", S, lambda st: st.total("observables.phi2_uv_reduced")),
    ("observables.normalization_constants.s", S, lambda st: st.total("observables.normalization_constants")),
    ("observables.u_values.s", S, lambda st: st.total("observables.u_values")),
    ("mc.sample_s", S, lambda st: st.total(SAMPLE_LABEL)),
    ("mc.aggregate_s", S, lambda st: _minus(st.total("mc.validate"), st.total(SAMPLE_LABEL))),
    ("mc.box_samples", N, lambda st: st.count(SAMPLE_LABEL, "box_samples")),
    # computed from the sample count (8 bytes per float64 box value), not measured
    ("mc.bytes_sampled", "computed_B/cycle", lambda st: _times8(st.count(SAMPLE_LABEL, "box_samples"))),
)


def layer_metrics(tracer: Tracer, cycles: int) -> dict:
    """Every per-layer metric per traced cycle; value None when absent."""
    st = _Stats(tracer)
    out = {}
    for name, unit, read in LAYER_METRICS:
        value = read(st)
        out[name] = {"value": None if value is None else value / cycles, "unit": unit}
    return out
