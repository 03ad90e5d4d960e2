"""Spans and counters around the calls into each layer of cuntzlab.

The tracer lives in the benchmark, not in the program: ``install`` rebinds
each traced public function at every module that imported it (``solve`` is
bound separately in classify, fcs and linalg), wraps the evaluator
handed to every ``MomentFunctional``, and counts ``QQi`` ring operations and
``check_word`` calls without spans.  Spans are kept in memory and written
out by ``dump_spans`` at the end of the pass; ``uninstall`` restores every
binding.

A span's self time is its duration minus the durations of its direct child
spans; every per-layer time here is self time.  The selftest criteria are
root spans of the span tree; their per-criterion times come from the pass
records (run.py), because a criterion's self time is only glue.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
import weakref
from collections import Counter

# evaluator families a spec file can reach (a superposition vector, family
# shift_vector or grid_vector, has no spec form)
FAMILIES = (
    "cuntz", "sub_cuntz", "geometric_progression", "prefix_code", "induced_product", "mixture",
    "gauge", "sandwich", "sandwich_series", "shift", "shift_lazy", "grid",
)
CONSTRUCTORS = (
    ("moments", "make_cuntz"), ("moments", "make_sub_cuntz"), ("moments", "make_geometric_progression"),
    ("moments", "make_prefix_code_state"), ("moments", "make_induced_product"), ("moments", "make_mixture"),
    ("moments", "make_split_series_sandwich"), ("moments", "transform_gauge"), ("moments", "transform_sandwich"),
    ("shiftrep", "vector_state"),
)
SPANNED = (
    ("specio", "parse_spec", "specio.parse_spec"),
    ("moments", "solve_low_moments", "moments.solve_low_moments"),
    ("symalg", "multiply", "symalg.multiply"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "hermitian_psd_check", "linalg.psd_check"),
    ("classify", "gram_growth", "classify.gram_growth"),
    ("classify", "verify_properly_infinite", "classify.verify_properly_infinite"),
    ("classify", "kappa", "classify.kappa"),
    ("classify", "equivalent", "classify.equivalent"),
    ("fcs", "extract_fcs", "fcs.extract_fcs"),
)
QQI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__")
MAX_SPANS = 400_000


def metric_names() -> list[str]:
    """Per-layer metrics a traced pass reports, in print order."""
    return [
        "specio.parse_spec_calls", "specio.parse_spec_s",
        "moments.construct_s", "moments.solve_low_moments_s", "moments.moment_calls",
        "moments.evaluator_calls", "moments.memo_hit_ratio",
        *(f"moments.evaluator_s.{f}" for f in FAMILIES),
        "symalg.multiply_calls", "symalg.multiply_s", "symalg.multiply_terms_out",
        "linalg.solve_calls", "linalg.solve_s", "linalg.kernel_basis_s", "linalg.rank_s",
        "linalg.psd_check_s", "linalg.max_system_dim",
        "scalars.qqi_ops",
        "words.check_word_calls",
        "classify.gram_growth_calls", "classify.gram_growth_useful_ratio", "classify.gram_growth_s",
        "classify.max_rank", "classify.verify_properly_infinite_s", "classify.kappa_s", "classify.equivalent_s",
        "fcs.extract_fcs_s",
    ]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns)
        self.dropped = 0
        self._stack: list[list] = []  # [span id, ns spent in child spans]
        self._next_id = 1
        self._patched: list[tuple] = []  # (owner, attribute, original)
        self._qqi_ops = [0]
        self._check_word = [0]
        self._moment = [0, 0]  # calls, memo misses
        self._gram_keys: set = set()
        self._serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._serials = itertools.count(1)
        self.max_system_dim = 0
        self.max_rank = 0
        self.terms_out = 0

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        calls, self_ns = self.calls, self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_ns[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((sid, parent, name, t0, t1))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _rebind(self, originals: dict) -> None:
        """Replace every module-level binding of an original by its wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "cuntzlab" or mod_name.startswith("cuntzlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper[1])

    def _patch_attr(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import cuntzlab.moments as moments
        import cuntzlab.scalars as scalars
        import cuntzlab.selftest as selftest
        import cuntzlab.words as words

        mods = {name: sys.modules[f"cuntzlab.{name}"] for name in
                ("specio", "moments", "symalg", "linalg", "classify", "fcs", "shiftrep")}
        originals: dict[int, tuple] = {}

        def add(fn, wrapper):
            originals[id(fn)] = (fn, wrapper)

        for mod, fname in CONSTRUCTORS:
            fn = getattr(mods[mod], fname)
            add(fn, self.wrap("moments.construct", fn))
        hooks = {
            "symalg.multiply": self._after_multiply,
            "classify.gram_growth": self._after_gram_growth,
            "linalg.solve": self._after_system,
            "linalg.kernel_basis": self._after_system,
            "linalg.rank": self._after_system,
            "linalg.psd_check": self._after_system,
        }
        for mod, fname, name in SPANNED:
            fn = getattr(mods[mod], fname)
            add(fn, self.wrap(name, fn, hooks.get(name)))
        self._gram_sig = inspect.signature(mods["classify"].gram_growth)

        counter = self._check_word
        check_word = words.check_word

        @functools.wraps(check_word)
        def counted_check_word(*args, **kwargs):
            counter[0] += 1
            return check_word(*args, **kwargs)

        add(check_word, counted_check_word)
        self._rebind(originals)

        ops = self._qqi_ops
        for op in QQI_OPS:
            self._patch_attr(scalars.QQi, op, _counted(scalars.QQi.__dict__[op], ops))

        mf = moments.MomentFunctional
        init, moment = mf.__init__, mf.moment
        tracer = self

        def traced_init(obj, n, family, evaluator, *args, **kwargs):
            init(obj, n, family, tracer.wrap(f"moments.evaluator.{family}", evaluator), *args, **kwargs)

        stats = self._moment

        def counted_moment(obj, J, K=()):
            before = len(obj._memo)
            value = moment(obj, J, K)
            stats[0] += 1
            stats[1] += len(obj._memo) != before
            return value

        self._patch_attr(mf, "__init__", functools.wraps(init)(traced_init))
        self._patch_attr(mf, "moment", functools.wraps(moment)(counted_moment))

        for i, (name, fn) in enumerate(selftest.CRITERIA):
            self._patched.append((selftest.CRITERIA, i, (name, fn)))
            selftest.CRITERIA[i] = (name, self.wrap(f"selftest.{name}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, list):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- hooks ---------------------------------------------------------------

    def _after_multiply(self, args, kwargs, result) -> None:
        self.terms_out += len(result.terms)

    def _after_system(self, args, kwargs, result) -> None:
        rows = args[0] if args else kwargs.get("a", kwargs.get("rows", kwargs.get("g", ())))
        self.max_system_dim = max(self.max_system_dim, len(rows))

    def _after_gram_growth(self, args, kwargs, result) -> None:
        bound = self._gram_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        omega = bound.arguments["omega"]
        serial = self._serial.get(omega)
        if serial is None:
            serial = self._serial[omega] = next(self._serials)
        self._gram_keys.add((serial, bound.arguments["L_max"], bound.arguments["tol"]))
        self.max_rank = max(self.max_rank, len(result.pivots))

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        s = {k: v / 1e9 for k, v in self.self_ns.items()}
        moment_calls, misses = self._moment
        evaluator_calls = sum(v for k, v in self.calls.items() if k.startswith("moments.evaluator."))
        gram_calls = self.calls["classify.gram_growth"]
        out = {
            "specio.parse_spec_calls": self.calls["specio.parse_spec"],
            "specio.parse_spec_s": s.get("specio.parse_spec", 0.0),
            "moments.construct_s": s.get("moments.construct", 0.0),
            "moments.solve_low_moments_s": s.get("moments.solve_low_moments", 0.0),
            "moments.moment_calls": moment_calls,
            "moments.evaluator_calls": evaluator_calls,
            "moments.memo_hit_ratio": (moment_calls - misses) / moment_calls if moment_calls else 0.0,
            "symalg.multiply_calls": self.calls["symalg.multiply"],
            "symalg.multiply_s": s.get("symalg.multiply", 0.0),
            "symalg.multiply_terms_out": self.terms_out,
            "linalg.solve_calls": self.calls["linalg.solve"],
            "linalg.solve_s": s.get("linalg.solve", 0.0),
            "linalg.kernel_basis_s": s.get("linalg.kernel_basis", 0.0),
            "linalg.rank_s": s.get("linalg.rank", 0.0),
            "linalg.psd_check_s": s.get("linalg.psd_check", 0.0),
            "linalg.max_system_dim": self.max_system_dim,
            "scalars.qqi_ops": self._qqi_ops[0],
            "words.check_word_calls": self._check_word[0],
            "classify.gram_growth_calls": gram_calls,
            "classify.gram_growth_useful_ratio": len(self._gram_keys) / gram_calls if gram_calls else 0.0,
            "classify.gram_growth_s": s.get("classify.gram_growth", 0.0),
            "classify.max_rank": self.max_rank,
            "classify.verify_properly_infinite_s": s.get("classify.verify_properly_infinite", 0.0),
            "classify.kappa_s": s.get("classify.kappa", 0.0),
            "classify.equivalent_s": s.get("classify.equivalent", 0.0),
            "fcs.extract_fcs_s": s.get("fcs.extract_fcs", 0.0),
        }
        for fam in FAMILIES:
            out[f"moments.evaluator_s.{fam}"] = s.get(f"moments.evaluator.{fam}", 0.0)
        unknown = sorted(k for k in self.calls if k.startswith("moments.evaluator.")
                         and k.split(".", 2)[2] not in FAMILIES)
        out["unlisted_evaluators"] = unknown
        return out

    def dump_spans(self, path: str) -> dict:
        """Write the spans as JSON lines; returns how many were kept and dropped."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start_ns": t0, "end_ns": t1}))
                fh.write("\n")
        return {"kept": len(self.spans), "dropped": self.dropped, "path": path}


def _counted(op, cell):
    @functools.wraps(op)
    def counted(*args):
        cell[0] += 1
        return op(*args)

    return counted
