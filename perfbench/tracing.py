"""Spans and computed counts recorded around calls into the semivmp layers.

The tracer replaces public functions by wrappers in every module namespace
that looks them up (a function imported by name, like
``mvn_moments_from_natural``, is patched in each importing module too), and
puts the originals back afterwards.  Each span holds name, start, end, parent
span and fit id; spans stay in memory until the run writes them out.

Computed counts are derived from the arguments and results of the wrapped
calls, not measured: ``natparam.factor_flops`` charges d^3/3 per Cholesky
factorization and 2 d^3 per inverse formed from a factor, d being the
dimension passed in.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

import numpy as np

from semivmp import cli, engine, expfam, models, natparam
from semivmp import fragments_gaussian as fg
from semivmp import fragments_glm as glm


def _calls(name):
    return lambda args, result: {name: 1}


def _glm_rows(args, result):
    return {"fragments_glm.rows": args[0].A.shape[0]}


def _sweeps(args, result):
    return {"engine.sweeps": result.iterations}


def _mvn(args, result):
    d = args[1]
    return {"natparam.mvn_moments_calls": 1, "natparam.factor_flops": 2 * d**3}


def _cholesky_flops(args, result):
    return {"natparam.factor_flops": np.shape(args[0])[0] ** 3 / 3}


def _inverse_flops(args, result):
    return {"natparam.factor_flops": 2 * np.shape(args[0])[0] ** 3}


# (span name or None for a count-only wrapper, [(module, attribute)], counter)
PATCHES = (
    ("cli.main", [(cli, "main")], None),
    ("models.build", [(models, f) for f in
                      ("build_glm_spline", "build_group_curves", "build_penalized_spline")], None),
    ("models.curve", [(models, "fitted_curve")], None),
    ("engine.build_graph", [(engine, "build_factor_graph"), (cli, "build_factor_graph")], None),
    ("engine.run_vmp", [(engine, "run_vmp"), (cli, "run_vmp")], _sweeps),
    ("engine.update", [(engine, "update_factor")], _calls("engine.factor_updates")),
    ("engine.elbo", [(engine, "elbo")], _calls("engine.elbo_calls")),
    ("engine.q_density", [(engine, "q_density"), (cli, "q_density")], None),
    ("expfam.entropy", [(expfam, "entropy")], None),
    ("fragments_gaussian.penalization", [(fg, "gaussian_penalization_messages")], None),
    ("fragments_gaussian.likelihood", [(fg, "gaussian_likelihood_messages")], None),
    ("fragments_gaussian.variance", [(fg, f) for f in
                                     ("gaussian_prior_message", "inverse_wishart_prior_message",
                                      "iterated_igw_messages")], None),
    ("fragments_gaussian.logp", [(fg, f) for f in
                                 ("gaussian_prior_logp", "inverse_wishart_prior_logp",
                                  "iterated_igw_logp", "gaussian_penalization_logp",
                                  "gaussian_likelihood_logp")], None),
    ("fragments_glm.update", [(glm, f) for f in
                              ("jaakkola_jordan_update", "albert_chib_update",
                               "knowles_minka_wand_update")], _glm_rows),
    ("fragments_glm.elbo", [(glm, f) for f in
                            ("jaakkola_jordan_elbo", "albert_chib_elbo",
                             "knowles_minka_wand_elbo")], _glm_rows),
    ("natparam.mvn_moments", [(m, "mvn_moments_from_natural") for m in (natparam, glm, fg, expfam)],
     _mvn),
    (None, [(natparam, "spd_chol"), (expfam, "spd_chol")], _cholesky_flops),
    (None, [(natparam, "spd_inverse"), (expfam, "spd_inverse"), (fg, "spd_inverse")], _inverse_flops),
)

# Per-layer metric -> span.  Every time is self time (the span minus its traced
# children) except engine.elbo_s, which covers the whole ELBO evaluation.
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "models.build_s": "models.build",
    "models.curve_s": "models.curve",
    "engine.build_graph_s": "engine.build_graph",
    "engine.update_self_s": "engine.update",
    "engine.q_density_s": "engine.q_density",
    "expfam.entropy_s": "expfam.entropy",
    "fragments_gaussian.penalization_s": "fragments_gaussian.penalization",
    "fragments_gaussian.likelihood_s": "fragments_gaussian.likelihood",
    "fragments_gaussian.variance_s": "fragments_gaussian.variance",
    "fragments_gaussian.logp_s": "fragments_gaussian.logp",
    "fragments_glm.update_s": "fragments_glm.update",
    "fragments_glm.elbo_s": "fragments_glm.elbo",
    "natparam.mvn_moments_s": "natparam.mvn_moments",
}
COMPUTED_COUNTS = (
    "engine.sweeps",
    "engine.factor_updates",
    "engine.elbo_calls",
    "natparam.mvn_moments_calls",
    "natparam.factor_flops",
    "fragments_glm.rows",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, fit id]
        self.counts = Counter()
        self.fit = None  # id shared by the spans of one fit
        self._pass = ""
        self._open = []
        self._saved = []

    def install(self):
        for name, targets, counter in PATCHES:
            for module, attr in targets:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._open, self.counts

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts.update(counter(args, result))
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.fit]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts.update(counter(args, result))
            return result

        return traced

    def mark(self, tag=""):
        """Start a pass; returns the mark that layer_metrics() reports from."""
        self._pass = f"{len(self.spans)}:{tag}"
        return len(self.spans), self.counts.copy()

    def label(self, name):
        """Give the spans of the next fit their own id."""
        self.fit = f"{self._pass}:{name}"

    def layer_metrics(self, mark):
        """Per-layer metrics of everything recorded since ``mark``."""
        first, counts_before = mark
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_time, total = Counter(), Counter()
        for (name, start, end, _, _), inner in zip(spans, child):
            self_time[name] += end - start - inner
            total[name] += end - start
        out = {metric: self_time[span] for metric, span in SELF_TIMES.items()}
        out["engine.elbo_s"] = total["engine.elbo"]
        sweeping = total["engine.run_vmp"]
        out["engine.elbo_share"] = total["engine.elbo"] / sweeping if sweeping else 0.0
        counts = self.counts - counts_before
        out.update({name: float(counts[name]) for name in COMPUTED_COUNTS})
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
