"""Outside-in tracing of the expk layers.

The tracer wraps public callables of the ``expk`` modules at run time, so
no file of the library changes.  Every wrapped call records a span -- name,
thread id, parent span, start, end and self time -- on a stack kept per
thread, which keeps self times right under ``run_verify(jobs=2)``.  Spans
stay in memory; ``write_spans`` writes them out when the traced process
ends.  Self time is a span's duration minus the part its child spans cover.

Counters are recorded at the same boundaries (matrix cells, simplices,
JSON bytes, cache hits), so ratios are measured where the work happens.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []  # (name, thread id, parent name, start, end, self seconds)
        self.counts = collections.Counter()
        self.cache_models = set()  # (id of the ModelCache, spec key) loaded or built
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped in a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(args, kwargs, result, pre)``, which records
        counters.  ``name=None`` records counters only, with no span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                stack = tracer._stack()
                frame = [name, 0.0]  # [name, seconds covered by children]
                parent = stack[-1][0] if stack else None
                stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    if stack:
                        stack[-1][1] += end - start
                    tracer.spans.append(
                        (name, threading.get_ident(), parent, start, end,
                         end - start - frame[1])
                    )
            if after:
                after(args, kwargs, result, pre)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def patch_function(self, module, attr, name, **hooks):
        """Replace a module-level function everywhere expk bound it.

        Modules that did ``from .x import f`` hold their own reference, so
        every ``expk`` module namespace is searched for the original.
        """
        original = getattr(module, attr)
        traced = self.wrap(name, original, **hooks)
        for modname, mod in list(sys.modules.items()):
            if modname != "expk" and not modname.startswith("expk."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, original.__func__, **hooks)))
        else:
            setattr(cls, attr, self.wrap(name, original, **hooks))

    def install(self):
        """Wrap the public callables of every expk layer."""
        import expk  # noqa: F401  (loads every submodule)
        from expk import cochains, exact_sequences, gf2, simplicial, spaces, verify

        count = self.count
        Matrix, Model = gf2.Gf2Matrix, simplicial.SimplicialSetModel

        def cells(stat):
            def after(args, kwargs, result, pre):
                count(stat, args[0].row_count * args[0].col_count)

            return after

        def rank_cells(args, kwargs, result, pre):
            if pre:  # rank() eliminates only on its first call per matrix
                count("gf2.rank_cells", args[0].row_count * args[0].col_count)

        self.patch_method(Matrix, "kernel_basis", "gf2.kernel", after=cells("gf2.kernel_cells"))
        self.patch_method(
            Matrix, "rank", "gf2.rank",
            before=lambda args, kwargs: args[0]._rank is None, after=rank_cells,
        )
        for attr, name in (
            ("transpose", "gf2.transpose"),
            ("solve", "gf2.solve"),
            ("mul_vec", "gf2.mul_vec"),
            ("matmul", "gf2.matmul"),
            ("from_rows", "gf2.construct"),
            ("from_triplets", "gf2.construct"),
        ):
            self.patch_method(Matrix, attr, name)

        def model_sizes(args, kwargs, result, pre):
            model = args[0]
            count("spaces.stored_simplices", sum(model.level_sizes))
            count(
                "simplicial.nondeg_simplices",
                sum(model.nondeg_count(n) for n in range(model.level_cap + 1)),
            )

        def json_bytes(args, kwargs, result, pre):
            count("simplicial.json_bytes", len(result))

        self.patch_method(Model, "__init__", "simplicial.model_init", after=model_sizes)
        for attr, name in (
            ("boundary_matrix", "simplicial.boundary"),
            ("betti_table", "simplicial.betti"),
            ("cohomology_basis", "simplicial.cohomology_basis"),
            ("validate", "simplicial.validate"),
            ("from_json_dict", "simplicial.from_json"),
            ("content_hash", "simplicial.hash"),
        ):
            self.patch_method(Model, attr, name)
        self.patch_method(Model, "to_json_text", None, after=json_bytes)

        for attr, name in (
            ("exp_subsets", "spaces.exp_subsets"),
            ("sym_power", "spaces.sym_power"),
            ("multi_product", "spaces.multi_product"),
            ("from_complex", "spaces.from_complex"),
            ("pushout", "spaces.pushout"),
            ("compare_pushout_with_subsets", "spaces.compare"),
            ("compare_sym2_with_subsets", "spaces.compare"),
        ):
            self.patch_function(spaces, attr, name)

        def mark_built(args, kwargs, result, pre):
            self._local.built = True

        self.patch_function(spaces, "build_space", "spaces.build", after=mark_built)

        self.patch_function(cochains, "cup_i", "cochains.cup_i")
        self.patch_function(cochains, "express_in_basis", "cochains.express")
        self.patch_function(cochains, "is_coboundary", "cochains.express")
        self.patch_function(cochains, "steenrod_square", "cochains.square")
        self.patch_function(exact_sequences, "solve_template", "exact_sequences.solve")
        self._install_cache(verify)

    def _install_cache(self, verify):
        """Classify each ``ModelCache.model_for`` call as hit, load or build.

        The class comes from inside the call: a ``_load`` that returned a
        model or a ``build_space`` call in this thread.  A call that did
        neither was a memory hit, even when the other thread stored the
        key after this call began.
        """
        local = self._local
        count = self.count

        def before_request(args, kwargs):
            local.loaded = local.built = False
            return args[1].to_json_text()

        def after_request(args, kwargs, result, pre):
            count("verify.model_requests")
            if local.loaded:
                count("verify.disk_loads")
            elif local.built:
                count("verify.builds")
            else:
                count("verify.memory_hits")
                return
            with self._lock:
                self.cache_models.add((id(args[0]), pre))

        def after_load(args, kwargs, result, pre):
            if result is not None:
                local.loaded = True
                count("verify.cache_bytes", os.path.getsize(args[1]))

        def before_verify(args, kwargs):
            return time.process_time()

        def after_verify(args, kwargs, result, pre):
            with self._lock:
                self.counts["verify.cpu_s"] += time.process_time() - pre

        self.patch_method(
            verify.ModelCache, "model_for", "verify.store",
            before=before_request, after=after_request,
        )
        self.patch_method(verify.ModelCache, "_load", "verify.load", after=after_load)
        self.patch_function(
            verify, "run_verify", "verify.run", before=before_verify, after=after_verify
        )

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: [self seconds, total seconds, calls]; plus counters."""
        spans = {}
        for name, _tid, _parent, start, end, self_s in self.spans:
            row = spans.setdefault(name, [0.0, 0.0, 0])
            row[0] += self_s
            row[1] += end - start
            row[2] += 1
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "cache_models": len(self.cache_models),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, tid, parent, start, end, self_s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "thread": tid, "parent": parent,
                         "start": start, "end": end, "self_s": self_s}
                    )
                    + "\n"
                )


def layer_metrics(summaries, check_times) -> dict:
    """Per-layer metrics from the summaries of every traced process of a run.

    Every ``_s`` metric is self time, except ``verify.load_s`` (whole span,
    including parsing and hashing the loaded model), ``verify.cpu_s``
    (process CPU seconds inside ``run_verify``) and ``verify.check.*_s``
    (the report's wall time per check).  ``verify.store_s`` is the self
    time of ``ModelCache.model_for``: the model's JSON document, its
    encoding and the write.  Metrics of a layer the workload never calls
    read 0.
    """
    spans = collections.defaultdict(lambda: [0.0, 0.0, 0])
    counts = collections.Counter()
    cache_models = 0
    for s in summaries:
        for name, row in s["spans"].items():
            for i in range(3):
                spans[name][i] += row[i]
        counts.update(s["counts"])
        cache_models += s["cache_models"]

    def self_s(name):
        return spans[name][0] if name in spans else 0.0

    def calls(name):
        return spans[name][2] if name in spans else 0

    out = {}
    for name in (
        "gf2.kernel", "gf2.transpose", "gf2.solve", "gf2.rank", "gf2.mul_vec",
        "exact_sequences.solve", "cochains.cup_i",
    ):
        out[f"{name}_s"] = self_s(name)
        out[f"{name}_calls"] = calls(name)
    for name in (
        "gf2.matmul", "gf2.construct",
        "spaces.exp_subsets", "spaces.sym_power", "spaces.multi_product",
        "spaces.from_complex", "spaces.pushout", "spaces.compare",
        "simplicial.model_init", "simplicial.boundary", "simplicial.betti",
        "simplicial.validate", "simplicial.from_json", "simplicial.hash",
        "cochains.express",
    ):
        out[f"{name}_s"] = self_s(name)
    out["simplicial.cohomology_basis_self_s"] = self_s("simplicial.cohomology_basis")
    out["simplicial.hash_calls"] = calls("simplicial.hash")
    out["cochains.square_calls"] = calls("cochains.square")
    out["spaces.builds"] = calls("spaces.build")
    for name in (
        "gf2.kernel_cells", "gf2.rank_cells", "spaces.stored_simplices",
        "simplicial.nondeg_simplices", "simplicial.json_bytes",
        "verify.model_requests", "verify.memory_hits", "verify.disk_loads",
        "verify.builds", "verify.cache_bytes", "verify.cpu_s",
    ):
        out[name] = counts.get(name, 0)
    attempts = counts.get("verify.disk_loads", 0) + counts.get("verify.builds", 0)
    out["verify.useful_ratio"] = cache_models / attempts if attempts else 0.0
    out["verify.load_s"] = spans["verify.load"][1] if "verify.load" in spans else 0.0
    out["verify.store_s"] = self_s("verify.store")
    for check_id, seconds in check_times.items():
        out[f"verify.check.{check_id}_s"] = seconds
    return out
