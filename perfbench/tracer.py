"""Outside-in per-layer tracing for the traced benchmark run.

Each wrapper replaces a function at the name its caller looks up: a module
attribute bound by ``from .x import f`` is a separate binding from ``x.f``,
so ``ml2v.representations.residue_terms_x`` and
``ml2v.asymptotics.residue_terms_x`` are patched separately.  Spans (id,
parent id, name, phase, start, end, error, info) stay in memory and are
written out when the run ends.  Integrand evaluations are only counted,
never given spans: there are tens of thousands per second.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections import Counter

import numpy as np

_CLOCK = time.perf_counter


class Tracer:
    def __init__(self, tol: float) -> None:
        self.tol = tol
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self._saved: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None, name,
               self.phase, _CLOCK(), None, None, {}]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def end(self, rec: list, error: BaseException | None = None) -> None:
        rec[5] = _CLOCK()
        if error is not None:
            rec[6] = type(error).__name__
        self.stack.pop()

    def _wrap(self, module, attr: str, name: str, info=None, result=None, after=None) -> None:
        """Replace module.attr with a span-recording wrapper.

        ``info`` reads the arguments, ``result`` the return value, and
        ``after`` runs once the call ends, whether it returned or raised.
        """
        fn = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.begin(name)
            if info is not None:
                rec[7].update(info(*args, **kwargs))
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(rec, exc)
                raise
            finally:
                if after is not None:
                    rec[7].update(after())
            tracer.end(rec)
            if result is not None:
                rec[7].update(result(out, *args))
            return out

        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's layer boundaries at the names callers use."""
        from ml2v import asymptotics, cli, representations, series

        tol = self.tol

        def certified(ev) -> bool:
            return math.isfinite(ev.est_error) and ev.est_error <= tol * max(1.0, abs(ev.value))

        def n_images(x, y, params, images):
            return {"terms": len(images)}

        def elems(s, *rest):
            return {"elems": int(np.size(s))}

        def fallback(x, y, *rest):
            return {"fallback": max(abs(complex(x)), abs(complex(y))) > representations.SERIES_RADIUS}

        # representations: the routes eval_auto dispatches to
        self._wrap(representations, "eval_with_contour", "representations.eval_with_contour")
        self._wrap(representations, "choose_contour", "representations.choose_contour")
        self._wrap(representations, "eval_double_series", "series.eval_double_series",
                   info=fallback, result=lambda ev, *a: {"uncertified": not certified(ev)})
        self._wrap(representations, "residue_terms_x", "residues.x", info=n_images)
        self._wrap(representations, "residue_terms_y", "residues.y", info=n_images)
        self._wrap(asymptotics, "residue_terms_x", "residues.x", info=n_images)
        self._wrap(asymptotics, "residue_terms_y", "residues.y", info=n_images)
        # contour: the quadrature and its integrand
        self._wrap(representations, "integrate", "contour.integrate",
                   info=lambda *a, **k: {"nodes0": self.counts["integrand_points"]},
                   after=lambda: {"nodes1": self.counts["integrand_points"]})
        make_integrand = representations.ml_integrand

        def counted_integrand(x, y, params):
            spec = make_integrand(x, y, params)
            f = spec.f

            def g(z):
                self.counts["integrand_calls"] += 1
                self.counts["integrand_points"] += int(np.size(z))
                return f(z)

            return dataclasses.replace(spec, f=g)

        self._saved.append((representations, "ml_integrand", make_integrand))
        representations.ml_integrand = counted_integrand
        # series and the gamma kernel it calls
        self._wrap(series, "recip_gamma", "gamma.recip_gamma.series", info=elems)
        self._wrap(series, "log_recip_gamma", "gamma.log_recip_gamma.series", info=elems)
        # asymptotics; eval_auto imports eval_asymptotic from the module at call time
        self._wrap(asymptotics, "eval_asymptotic", "asymptotics.eval_asymptotic",
                   result=lambda ev, *a: {"accepted": certified(ev)})
        self._wrap(asymptotics, "asympt_tail_sum", "asymptotics.tail_sum")
        self._wrap(asymptotics, "recip_gamma", "gamma.recip_gamma.asymptotics", info=elems)
        self._wrap(asymptotics, "oracle_eval", "oracle.calibration")
        # cli
        self._wrap(cli, "evaluate_point", "cli.evaluate_point")
        self._wrap(cli, "oracle_eval", "oracle.cli")

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "parent": s[1], "name": s[2], "phase": s[3],
                                     "t0": s[4], "t1": s[5], "error": s[6], "info": s[7]}) + "\n")

    # --- per-layer metrics -------------------------------------------------------

    def metrics(self, points: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; timed-phase work is per attempted point.

        Calibration and oracle figures are totals over the whole run, set-up
        included, because that is where calibration happens.
        """
        timed = [s for s in self.spans if s[3] == "timed"]
        per = 1.0 / max(points, 1)

        def pick(spans, prefix):
            return [s for s in spans if s[2].startswith(prefix)]

        def secs(spans):
            return sum(s[5] - s[4] for s in spans)

        def ratio(num, den):
            return num / den if den else 0.0

        asym = pick(timed, "asymptotics.eval_asymptotic")
        cont = pick(timed, "representations.eval_with_contour")
        ser = pick(timed, "series.eval_double_series")
        res = pick(timed, "residues.")
        n_terms = sum(s[7]["terms"] for s in res)
        integ = pick(timed, "contour.integrate")
        nodes_all = sum(s[7]["nodes1"] - s[7]["nodes0"] for s in integ)
        nodes_ok = sum(s[7]["nodes1"] - s[7]["nodes0"] for s in integ if s[6] is None)
        rg_series = pick(timed, "gamma.recip_gamma.series")
        rg = pick(timed, "gamma.recip_gamma.")
        rg_elems = sum(s[7]["elems"] for s in rg)
        cal = pick(self.spans, "oracle.calibration")
        grid_main = pick(timed, "cli.main")
        grid_points = pick(timed, "cli.evaluate_point")
        return {
            "representations.asym_accept_ratio":
                (ratio(sum(s[7].get("accepted", False) for s in asym), len(asym)), "ratio"),
            "representations.contour_accept_ratio":
                (ratio(sum(s[6] is None for s in cont), len(cont)), "ratio"),
            "representations.series_fallbacks":
                (per * sum(s[7]["fallback"] for s in ser), "calls/pt"),
            "representations.residue_terms.count": (per * n_terms, "terms/pt"),
            "representations.residue_terms.s_per_term": (ratio(secs(res), n_terms), "s/term"),
            "representations.choose_contour.s":
                (per * secs(pick(timed, "representations.choose_contour")), "s/pt"),
            "contour.integrate.s": (per * secs(integ), "s/pt"),
            "contour.integrate.calls": (per * len(integ), "calls/pt"),
            "contour.nodes_per_point": (per * self.counts["timed_integrand_points"], "nodes/pt"),
            "contour.integrand_calls": (per * self.counts["timed_integrand_calls"], "calls/pt"),
            "contour.quad_failures":
                (per * sum(s[6] == "QuadratureError" for s in integ), "count/pt"),
            "contour.useful_node_ratio": (ratio(nodes_ok, nodes_all), "ratio"),
            "series.calls": (per * len(ser), "calls/pt"),
            "series.s": (per * secs(ser), "s/pt"),
            "series.blocks": (per * len(rg_series), "blocks/pt"),
            "series.terms": (per * sum(s[7]["elems"] for s in rg_series), "terms/pt"),
            "series.uncertified": (per * sum(s[7].get("uncertified", False) for s in ser), "count/pt"),
            "series.log_fallbacks":
                (per * len(pick(timed, "gamma.log_recip_gamma.series")), "calls/pt"),
            "gamma.recip_gamma.calls": (per * len(rg), "calls/pt"),
            "gamma.recip_gamma.elems": (per * rg_elems, "elems/pt"),
            "gamma.recip_gamma.s_per_elem": (ratio(secs(rg), rg_elems), "s/elem"),
            "asymptotics.calls": (per * len(asym), "calls/pt"),
            "asymptotics.s": (per * secs(asym), "s/pt"),
            "asymptotics.tail_sum.s": (per * secs(pick(timed, "asymptotics.tail_sum")), "s/pt"),
            "asymptotics.calibration.oracle_calls": (float(len(cal)), "count"),
            "asymptotics.calibration.s": (secs(cal), "s"),
            "oracle.calls": (float(len(pick(self.spans, "oracle."))), "count"),
            "oracle.s": (secs(pick(self.spans, "oracle.")), "s"),
            "cli.overhead_s": (per * (secs(grid_main) - secs(grid_points)), "s/pt"),
        }

    def start_timed(self) -> None:
        self.phase = "timed"
        self._base = (self.counts["integrand_points"], self.counts["integrand_calls"])

    def stop_timed(self) -> None:
        self.counts["timed_integrand_points"] = self.counts["integrand_points"] - self._base[0]
        self.counts["timed_integrand_calls"] = self.counts["integrand_calls"] - self._base[1]
        self.phase = "after"
