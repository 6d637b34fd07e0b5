"""Span tracer for the traced pass.

Wraps public library functions at every name the library looks them up
under (the package modules bind imported names in their own namespaces, so
wrapping only the defining module would miss calls).  Each wrapped call is a
span: name, parent span, start and end.  Spans stay in memory until the pass
ends; then their durations are corrected for the host's speed, self time is
each span's duration minus its children's, and the spans are written out as
JSON lines.

Names that a library version no longer has are skipped; metrics of a layer
the workload never calls read 0.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("intervals", "knowledge", "reach", "control", "qpsolve", "systems")

# public names traced as spans, by the layer that defines them
SPAN_NAMES = {
    "intervals": ("imat_vec", "imat_imat", "tensor_vec", "tensorT_vec",
                  "real_mat_iv", "meet"),
    "knowledge": ("contract_fg", "append_sample", "rebuild", "build_knowledge",
                  "f_over_iv", "G_over_iv", "jacobian_extensions"),
    "reach": ("datareach", "datareach_step", "rough_enclosure_explicit",
              "rough_enclosure_fixpoint"),
    "control": ("datacontrol_step", "linearize", "subopt_bound",
                "idealistic_coeffs", "assemble_idealistic", "assemble_optimistic"),
    "qpsolve": ("solve_idealistic", "solve_optimistic"),
    "systems": ("run_closed_loop", "excite", "advance"),
}
KERNELS = SPAN_NAMES["intervals"]
BOX_CLASSES = ("IVector", "IMatrix", "ITensor3")
ASSEMBLE = ("idealistic_coeffs", "assemble_idealistic", "assemble_optimistic")
BOX_QUERIES = ("f_over_iv", "G_over_iv")
# the host speed is sampled before these calls, as in untraced passes
SAMPLE_BEFORE = ("datacontrol_step", "append_sample", "rebuild", "build_knowledge",
                 "contract_fg", "datareach_step")


def _p50(values):
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    def __init__(self, modules, speed):
        """`modules` maps layer name to module; any other entries (such as the
        package itself) are namespaces whose re-exported names get wrapped too.
        `speed` is a hostspeed.HostSpeed."""
        self.modules = modules
        self.speed = speed
        self.names = []
        self.layer_of = []
        self.spans = []      # (name id, parent span index, start, end)
        self.stack = []      # indices of the open spans
        self.open = Counter()
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.kb_size_max = 0
        self._last_explicit = None

    # -- wrapping --------------------------------------------------------
    def install(self):
        hooks = {
            "datacontrol_step": self._after_control,
            "solve_idealistic": self._after_idealistic,
            "solve_optimistic": self._after_optimistic,
            "append_sample": self._after_kb,
            "rebuild": self._after_rebuild,
            "build_knowledge": self._after_kb,
            "datareach_step": self._after_reach_step,
            "rough_enclosure_explicit": self._after_explicit,
            "rough_enclosure_fixpoint": self._after_fixpoint,
        }
        for layer, names in SPAN_NAMES.items():
            home = self.modules[layer]
            for name in names:
                orig = getattr(home, name, None)
                if orig is not None:
                    self._patch(orig, self._span(name, layer, orig, hooks.get(name)))
        self._count_boxes()

    def _patch(self, orig, wrapper):
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    def _count_boxes(self):
        home = self.modules["intervals"]
        counts = self.counts
        classes = {getattr(home, n, None) for n in BOX_CLASSES} - {None}
        for cls in classes:  # a set, so a class behind several names counts once
            def counted(obj, *args, _init=cls.__init__, **kwargs):
                counts["boxes"] += 1
                _init(obj, *args, **kwargs)

            cls.__init__ = counted

    def _span(self, name, layer, orig, after):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans, stack, open_ = self.spans, self.stack, self.open
        clock = time.perf_counter
        speed = self.speed if name in SAMPLE_BEFORE else None

        def traced(*args, **kwargs):
            if speed is not None:
                speed.maybe_sample()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            open_[name] += 1
            start = clock()
            result = exc = None
            try:
                result = orig(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                spans[idx] = (nid, parent, start, clock())
                stack.pop()
                open_[name] -= 1
                if after is not None:
                    after(args, kwargs, result, exc)
            return result

        traced.__wrapped__ = orig
        return traced

    # -- hooks reading library results ------------------------------------
    def _after_control(self, args, kwargs, result, exc):
        if exc is None:
            self.counts["fell_back"] += int(bool(getattr(result[1], "fell_back", False)))

    def _after_idealistic(self, args, kwargs, result, exc):
        info = result[1] if isinstance(result, tuple) else None
        if info is not None:
            self.samples["ideal_iters"].append(info.iters)
            self.counts["ideal_solves"] += 1
            self.counts["ideal_converged"] += int(bool(info.converged))

    def _after_optimistic(self, args, kwargs, result, exc):
        info = result[3] if isinstance(result, tuple) and len(result) == 4 else None
        if info is not None:
            feasible = getattr(info, "feasible_orthants", 0)
            self.samples["optim_iters"].append(info.iters)
            self.samples["optim_iters_per_orthant"].append(info.iters / max(feasible, 1))
            self.counts["feasible_orthants"] += feasible

    def _after_kb(self, args, kwargs, result, exc):
        entries = getattr(result, "entries", None)
        if entries is not None:
            self.kb_size_max = max(self.kb_size_max, len(entries))

    def _after_rebuild(self, args, kwargs, result, exc):
        self._after_kb(args, kwargs, result, exc)
        samples = kwargs.get("samples", args[1] if len(args) > 1 else ())
        self.counts["rebuild_samples"] += len(samples)

    def _after_reach_step(self, args, kwargs, result, exc):
        self._last_explicit = None

    def _after_explicit(self, args, kwargs, result, exc):
        if self.open["datareach_step"] and exc is None:
            self._last_explicit = result

    def _after_fixpoint(self, args, kwargs, result, exc):
        """Counts `best` steps and those where the fixpoint box tightens the
        explicit one in at least one endpoint."""
        if exc is not None and type(exc).__name__ == "NoEnclosure":
            self.counts["no_enclosure"] += 1
        explicit = self._last_explicit
        if not self.open["datareach_step"] or explicit is None:
            return
        self._last_explicit = None
        self.counts["best_steps"] += 1
        if exc is None and (
            bool((result.lo > explicit.lo).any()) or bool((result.hi < explicit.hi).any())
        ):
            self.counts["fixpoint_tighter"] += 1

    # -- results ---------------------------------------------------------
    def metrics(self):
        spans, names = self.spans, self.names
        dur = [self.speed.correct([(s, e)]) for _, _, s, e in spans]
        child = [0.0] * len(spans)
        for i, (_, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        by_name = defaultdict(list)
        layer_self = defaultdict(float)
        for i, (nid, _, _, _) in enumerate(spans):
            by_name[names[nid]].append(dur[i])
            layer_self[self.layer_of[nid]] += dur[i] - child[i]

        def below(wanted, ancestor):
            """Per `ancestor` span: [calls, seconds] of the `wanted` spans under it."""
            per = defaultdict(lambda: [0, 0.0])
            for i, (nid, parent, _, _) in enumerate(spans):
                if names[nid] not in wanted:
                    continue
                while parent >= 0 and names[spans[parent][0]] != ancestor:
                    parent = spans[parent][1]
                if parent >= 0:
                    per[parent][0] += 1
                    per[parent][1] += dur[i]
            return per

        def total(wanted):
            return sum(sum(by_name[n]) for n in wanted)

        def calls(wanted):
            return sum(len(by_name[n]) for n in wanted)

        per_step = below(ASSEMBLE, "datacontrol_step")
        assemble = [per_step[i][1] if i in per_step else 0.0
                    for i, sp in enumerate(spans) if names[sp[0]] == "datacontrol_step"]
        in_rebuild = sum(v[0] for v in below(("contract_fg",), "rebuild").values())
        c, s = self.counts, self.samples
        out = {
            "intervals.boxes": c["boxes"],
            "intervals.kernel_calls": calls(KERNELS),
            "intervals.kernel_ms": 1e3 * total(KERNELS),
            "knowledge.contract_fg.calls": calls(("contract_fg",)),
            "knowledge.contract_fg.ms": 1e3 * total(("contract_fg",)),
            "knowledge.passes_per_rebuild": (
                in_rebuild / c["rebuild_samples"] if c["rebuild_samples"] else 0.0
            ),
            "knowledge.append_sample.us_p50": 1e6 * _p50(by_name["append_sample"]),
            "knowledge.box_query.calls": calls(BOX_QUERIES),
            "knowledge.box_query.ms": 1e3 * total(BOX_QUERIES),
            "knowledge.kb_size_max": self.kb_size_max,
            "control.datacontrol_step.us_p50": 1e6 * _p50(by_name["datacontrol_step"]),
            "control.linearize.us_p50": 1e6 * _p50(by_name["linearize"]),
            "control.subopt_bound.us_p50": 1e6 * _p50(by_name["subopt_bound"]),
            "control.assemble.us_p50": 1e6 * _p50(assemble),
            "control.fell_back": c["fell_back"],
            "qpsolve.solve_optimistic.ms_p50": 1e3 * _p50(by_name["solve_optimistic"]),
            "qpsolve.solve_optimistic.iters_p50": _p50(s["optim_iters"]),
            "qpsolve.solve_optimistic.iters_per_orthant_p50": _p50(s["optim_iters_per_orthant"]),
            "qpsolve.solve_optimistic.feasible_orthants": c["feasible_orthants"],
            "qpsolve.solve_idealistic.us_p50": 1e6 * _p50(by_name["solve_idealistic"]),
            "qpsolve.solve_idealistic.iters_p50": _p50(s["ideal_iters"]),
            "qpsolve.solve_idealistic.converged_frac": (
                c["ideal_converged"] / c["ideal_solves"] if c["ideal_solves"] else 0.0
            ),
            "reach.datareach_step.us_p50": 1e6 * _p50(by_name["datareach_step"]),
            "reach.enclosure_explicit.ms": 1e3 * total(("rough_enclosure_explicit",)),
            "reach.enclosure_fixpoint.ms": 1e3 * total(("rough_enclosure_fixpoint",)),
            "reach.no_enclosure": c["no_enclosure"],
            "reach.fixpoint_tighter_frac": (
                c["fixpoint_tighter"] / c["best_steps"] if c["best_steps"] else 0.0
            ),
            "systems.advance.ms": 1e3 * total(("advance",)),
            "systems.excite.ms": 1e3 * total(("excite",)),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * layer_self[layer]
        return out

    def write(self, path, header):
        """Write the spans as JSON lines: a header, then [name, parent, start_us, dur_us]
        with raw (uncorrected) times."""
        t0 = min((sp[2] for sp in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, names=self.names, layers=self.layer_of)) + "\n")
            for nid, parent, start, end in self.spans:
                fh.write(f"[{nid},{parent},{(start - t0) * 1e6:.1f},{(end - start) * 1e6:.1f}]\n")
