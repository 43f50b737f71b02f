"""Per-layer tracing by wrapping mulab's functions from outside.

The program is not edited.  ``Tracer.install`` replaces functions and
methods of the loaded ``mulab`` modules with wrappers and ``uninstall``
puts the originals back.  A module-level function is replaced in every
namespace that holds it (``mulab.cli``, ``mulab.extractors``,
``mulab.trees``, the package itself, ...) and in every function default
that holds it, such as ``mu=mu_exact``.  A method is replaced once, on its
class.

Three wrapper kinds:

* span: a record ``(op, name, start, end, parent)`` kept in memory, plus
  aggregated calls and self time.  Used at op, route, xi, fan, theta,
  scf, parse, normalize, obligation and corpus boundaries.
* timed: aggregated calls, self time and inclusive time, no record.  Used
  at hot boundaries (tree membership, approximation columns, exact
  values, mu_exact, the coding functions, printing).
* count: calls only.  Used where even two clock reads would dominate
  (view queries, sequence construction, rewrite steps).

Self time is a frame's duration minus the time of the wrapped frames
directly inside it, so it is measured against the hooks listed in
``HOOKS``; time in code that is not wrapped counts for the nearest
wrapped caller.

What the counters cannot see:

* ``PresentedSequence.value`` and the ``Presentation`` subclasses'
  ``approx``/``exact_value`` are not wrapped: the first has tens of
  millions of calls, the second recurse through each other.  Their time
  counts for the caller (``reals.approx`` counts ``FastCauchyReal.approx``).
* Self-recursive functions are never wrapped in their own module, since
  that doubles their stack depth and moves the RecursionError cliff.
  ``format_formula`` is wrapped only where ``mulab.cli`` calls it, so
  ``formulas.format`` counts top-level prints, not the recursion, and
  prints made inside ``mulab.formulas`` count as normalizer time.
* A reference captured before ``install`` (a closure built at import
  time, a bound method stored in an object) keeps calling the original.
  No such reference reaches a hooked function in mulab today.
* ``formulas.rewrite_steps`` counts ``RuleStep`` records as they are
  built, so a run that hits the step cap still counts its steps.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

RULES = ("R1a-flip-antecedent", "R2-herbrandize", "R3-drop-st", "forall-pull",
         "R1b-bound-antecedent", "R1c-bound-consequent", "exists-pull",
         "R4-idealize", "not-push")

ROUTES = ("ubin", "wwkl", "ivt", "dq", "weier")

_CODING = ("string_code", "string_decode", "max_coded_length", "cantor_pair",
           "cantor_unpair", "rational_code", "rational_decode", "dyadic_index",
           "dyadic_value")

# (module, attribute or Class.method, kind, metric name, namespace filter)
# The filter is None (everywhere), ("only", modules) or ("skip", modules).
HOOKS = [
    ("mulab.sequences", "mu_exact", "timed", "sequences.mu_exact", None),
    ("mulab.sequences", "PresentedSequence.__post_init__", "count",
     "sequences.built", None),
    *[("mulab.coding", name, "timed", f"coding.{name}", None) for name in _CODING],
    ("mulab.reals", "FastCauchyReal.approx", "timed", "reals.approx", None),
    ("mulab.reals", "FastCauchyReal.exact_value", "timed", "reals.exact_value", None),
    ("mulab.reals", "real_sign", "count", "reals.real_sign",
     ("skip", ("mulab.extractors",))),
    # the bisection in uivt_from_mu probes one midpoint per real_sign call
    ("mulab.reals", "real_sign", "count",
     ("reals.real_sign", "extractors.bisect_probes"), ("only", ("mulab.extractors",))),
    ("mulab.extractors", "_sign_certified", "count", "extractors.bisect_probes", None),
    ("mulab.functionals", "TracedView._record", "count", "functionals.view_queries", None),
    ("mulab.functionals", "omega_fan", "span", "functionals.fan", None),
    ("mulab.functionals", "theta_special", "span", "functionals.theta", None),
    ("mulab.functionals", "xi_by_tracing", "span", "functionals.xi", None),
    ("mulab.trees", "TracedTreeView.query", "timed", "trees.member", None),
    ("mulab.trees", "scf_check", "span", "trees.scf", None),
    ("mulab.extractors", "ubin_extraction", "span", "extractors.ubin", None),
    ("mulab.extractors", "uwwkl_extraction", "span", "extractors.wwkl", None),
    ("mulab.extractors", "uivt_extraction", "span", "extractors.ivt", None),
    ("mulab.extractors", "udq_extraction", "span", "extractors.dq", None),
    ("mulab.extractors", "weierstrass_counterexample", "span", "extractors.weier", None),
    ("mulab.extractors", "TwoBump.argmax", "span", "extractors.weier", None),
    ("mulab.formulas", "parse_formula", "span", "formulas.parse", None),
    ("mulab.formulas", "to_normal_form", "span", "formulas.normalize", None),
    ("mulab.formulas", "extraction_obligation", "span", "formulas.obligation", None),
    ("mulab.formulas", "format_formula", "timed", "formulas.format",
     ("skip", ("mulab.formulas",))),
    ("mulab.corpus", "flag_corpus", "span", "corpus", None),
    ("mulab.corpus", "corpus_stats", "span", "corpus", None),
]


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.op = -1
        # child-time accumulators of the open wrapped frames, root first
        self._frames: list[list[float]] = [[0.0]]
        self._open: list[int] = []          # indexes of the open spans
        self._open_names: list[str] = []
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn, record: bool = False,
               on_result=None, on_error=None):
        stat = self.stats[name]
        frames, spans = self._frames, self.spans
        open_spans, open_names = self._open, self._open_names
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if record:
                idx = len(spans)
                parent = open_spans[-1] if open_spans else -1
                spans.append(None)
                open_spans.append(idx)
                open_names.append(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                frames.pop()
                frames[-1][0] += dt
                stat.calls += 1
                stat.self_s += dt - frame[0]
                stat.incl_s += dt
                if record:
                    open_spans.pop()
                    open_names.pop()
                    spans[idx] = (tracer.op, name, t0, t1, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, names, fn):
        stats = [self.stats[n] for n in ((names,) if isinstance(names, str) else names)]

        def wrapper(*args, **kwargs):
            for stat in stats:
                stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn, kind: str):
        if kind == "count":
            return self._counted(name, fn)
        extra = {}
        if name in ("extractors.ubin", "extractors.wwkl", "extractors.ivt",
                    "extractors.dq"):
            extra["on_result"] = self._route_result
        elif name == "trees.scf":
            extra["on_result"] = self._scf_result
        elif name == "formulas.normalize":
            extra["on_error"] = self._normalize_error
        return self._timed(name, fn, record=(kind == "span"), **extra)

    def run_op(self, op_index: int, fn, *args):
        """Call fn(*args) as the span ``cli`` of op ``op_index``."""
        self.op = op_index
        return self._timed("cli", fn, record=True)(*args)

    # -- result hooks -------------------------------------------------------

    def _route_result(self, report) -> None:
        c = self.counts
        if report.xi_bound is not None:
            c["extractors.xi_bound_sum"] += report.xi_bound
        if report.search_bound is not None and report.witness is not None:
            c["extractors.search_slack"] += report.search_bound - report.witness
            c["extractors.scan_useful"] += report.witness + 1
            c["extractors.scan_bound"] += report.search_bound + 1

    def _scf_result(self, report) -> None:
        self.counts["trees.cover_size"] += report.cover_size

    def _normalize_error(self, exc: BaseException) -> None:
        if type(exc).__name__ == "NotNormalizable" and "step" in str(exc):
            self.counts["formulas.step_cap_hits"] += 1

    def _wrap_catalog(self, fn):
        """catalog_functional: count body runs by the span they run in."""
        counts, open_names = self.counts, self._open_names
        where_counts = {"functionals.fan": "functionals.fan.replay_nodes",
                        "functionals.theta": "functionals.theta.g_evals"}

        def counting(body):
            def counted_body(view):
                key = where_counts.get(open_names[-1]) if open_names else None
                if key is not None:
                    counts[key] += 1
                return body(view)
            return counted_body

        def wrapper(*args, **kwargs):
            g = fn(*args, **kwargs)
            g.body = counting(g.body)
            return g

        return wrapper

    def _wrap_rule_step(self, init):
        counts = self.counts

        def wrapper(step, rule, *args, **kwargs):
            counts["formulas.rewrite_steps"] += 1
            counts[f"formulas.rule.{rule}"] += 1
            return init(step, rule, *args, **kwargs)

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self) -> list[str]:
        """Patch every hook; return the hook targets that do not exist."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "mulab" or name.startswith("mulab.")}
        hooks = [(module, attr, where,
                  lambda fn, m=metric, k=kind: self._wrap(m, fn, k))
                 for module, attr, kind, metric, where in HOOKS]
        hooks += [("mulab.functionals", "catalog_functional", None, self._wrap_catalog),
                  ("mulab.formulas", "RuleStep.__init__", None, self._wrap_rule_step)]
        functions = list(_functions(modules.values()))
        resolved, missing = [], []
        for module, attr, where, make in hooks:
            owner, leaf = _resolve(modules, module, attr)
            if owner is None:
                missing.append(f"{module}.{attr}")
            else:
                resolved.append((owner, leaf, vars(owner)[leaf], where, make))
        # originals are all looked up before anything is replaced, so two
        # hooks on one function (real_sign) both find it
        for owner, leaf, original, where, make in resolved:
            wrapper = make(original)
            if isinstance(owner, type):
                self._set(owner, leaf, wrapper)
            else:
                self._patch_everywhere(modules, functions, original, wrapper, where)
        return missing

    def _patch_everywhere(self, modules, functions, original, wrapper,
                          where) -> None:
        for name, mod in modules.items():
            if where is not None:
                mode, listed = where
                if (mode == "only") != (name in listed):
                    continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
        if where is not None:
            return
        for fn in functions:
            if fn.__defaults__ and any(d is original for d in fn.__defaults__):
                old = fn.__defaults__
                fn.__defaults__ = tuple(wrapper if d is original else d for d in old)
                self._undo.append((fn, "__defaults__", old))

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except trace.overhead_s, as
        name -> (value, unit)."""
        s, c = self.stats, self.counts
        out: dict[str, tuple[float, str]] = {}

        def calls(name: str, stat: str) -> None:
            out[name] = (s[stat].calls, "count")

        def self_s(name: str, stat: str) -> None:
            out[name] = (s[stat].self_s, "s")

        def count(name: str) -> None:
            out[name] = (c[name], "count")

        calls("trees.member_queries", "trees.member")
        out["trees.member_s"] = (s["trees.member"].incl_s, "s")
        calls("sequences.mu_exact.calls", "sequences.mu_exact")
        self_s("sequences.mu_exact.self_s", "sequences.mu_exact")
        calls("coding.string_code.calls", "coding.string_code")
        for layer in ("reals.approx", "reals.exact_value"):
            calls(f"{layer}.calls", layer)
            self_s(f"{layer}.self_s", layer)
        calls("reals.real_sign.calls", "reals.real_sign")
        calls("extractors.bisect_probes", "extractors.bisect_probes")
        calls("functionals.view_queries", "functionals.view_queries")
        calls("functionals.xi.calls", "functionals.xi")
        self_s("functionals.xi.self_s", "functionals.xi")
        calls("coding.cantor_pair.calls", "coding.cantor_pair")
        calls("coding.rational_code.calls", "coding.rational_code")
        out["coding.self_s"] = (sum(s[f"coding.{n}"].self_s for n in _CODING), "s")
        self_s("cli.self_s", "cli")
        calls("cli.calls", "cli")
        for route in ROUTES:
            self_s(f"extractors.{route}.self_s", f"extractors.{route}")
        self_s("corpus.self_s", "corpus")
        self_s("functionals.fan.self_s", "functionals.fan")
        count("functionals.fan.replay_nodes")
        self_s("functionals.theta.self_s", "functionals.theta")
        count("functionals.theta.g_evals")
        calls("sequences.built", "sequences.built")
        self_s("trees.scf.self_s", "trees.scf")
        count("trees.cover_size")
        for part in ("parse", "normalize", "format", "obligation"):
            self_s(f"formulas.{part}.self_s", f"formulas.{part}")
        steps = c["formulas.rewrite_steps"]
        out["formulas.s_per_step"] = (
            s["formulas.normalize"].self_s / steps if steps else 0.0, "s")
        count("formulas.step_cap_hits")
        count("extractors.xi_bound_sum")
        count("extractors.search_slack")
        bound = c["extractors.scan_bound"]
        out["extractors.scan_useful_ratio"] = (
            c["extractors.scan_useful"] / bound if bound else 0.0, "ratio")
        count("formulas.rewrite_steps")
        for rule in RULES:
            count(f"formulas.rule.{rule}")
        return out


def _resolve(modules, module: str, attr: str):
    """(owner, leaf) for 'name' or 'Class.name' in a loaded module."""
    mod = modules.get(module)
    if mod is None:
        return None, None
    owner_name, _, leaf = attr.rpartition(".")
    owner = vars(mod).get(owner_name) if owner_name else mod
    if owner is None or leaf not in vars(owner):
        return None, None
    return owner, leaf


def _functions(modules):
    """Every plain function reachable from the modules and their classes."""
    seen = set()
    for mod in modules:
        for value in list(vars(mod).values()):
            members = vars(value).values() if isinstance(value, type) else (value,)
            for fn in members:
                fn = getattr(fn, "__func__", fn)
                if (hasattr(fn, "__defaults__") and hasattr(fn, "__code__")
                        and id(fn) not in seen):
                    seen.add(id(fn))
                    yield fn
