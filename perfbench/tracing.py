"""Per-layer tracing from outside the program.

`install()` wraps the public functions listed in LAYERS wherever crystorb
binds them: a function imported with `from .a import f` is replaced in
module `a` and in every module that holds the same object, and a method is
replaced under every class attribute that names it (`__rmul__ = __mul__`).
Each call opens a span on an in-memory stack.  Spans are aggregated as they
close: per function, as calls and self time (the span's duration minus the
time covered by its traced children), and for the functions in HOT, which
run 10^4 to 10^6 times per job, also per parent span.  Nothing is written
anywhere: the worker returns the aggregates.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# module -> functions, as "name" or "Class.method"
LAYERS = {
    "crystal": ["verify_crystallographic", "normalize_action", "VectorSystem.is_consistent",
                "cocycle_from_system", "ExtensionCocycle.validate", "affine_realization",
                "realizations_equivalent", "is_torsion_free"],
    "groupcore": ["closure", "conjugacy_classes", "character_table",
                  "real_isotypic_dimensions"],
    "cyclo": ["Cyclo.conjugate", "Cyclo.__mul__", "Cyclo.__add__"],
    "exactla": ["hnf", "snf", "solve_mod_lattice", "solve_affine_congruence", "kernel_q",
                "rank_rat"],
    "fieldlin": ["rref", "nullspace", "solve_columns", "inverse", "det"],
    "hodge": ["is_even", "point_group_table", "invariant_complex_structure",
              "rational_isotypic_projectors", "hodge_types", "sample_subspace",
              "tangent_dimension", "omega_in_T"],
    "quotient": ["fixed_points", "all_fixed_loci", "classify_action", "pseudoreflections",
                 "gpr_subgroup", "factorization_report", "orbifold_descriptor",
                 "pointwise_stabilizer", "subtori_equal"],
    "orbpi": ["coset_enumerate", "central_line_quotient", "orbifold_quotient"],
    "cli": ["parse_cryst_data", "JobSpec.run"],
}

HOT = {"cyclo.Cyclo.conjugate", "cyclo.Cyclo.__mul__", "cyclo.Cyclo.__add__"}

TRACED = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


class Recorder:
    """Span stack and aggregates of one job."""

    def __init__(self):
        self.stack = [["job", 0.0]]         # [name, time covered by children]
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.under = {}                     # (parent, hot name) -> [calls, seconds]

    def result(self):
        return {"calls": self.calls, "self_s": self.self_s,
                "under": [[parent, name, c, s]
                          for (parent, name), (c, s) in sorted(self.under.items())]}


def _wrap(name, fn, rec):
    hot = name in HOT
    stack = rec.stack

    def traced(*args, **kwargs):
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            stack.pop()
            parent = stack[-1]
            parent[1] += took
            rec.calls[name] += 1
            rec.self_s[name] += took - frame[1]
            if hot:
                key = (parent[0], name)
                agg = rec.under.get(key)
                if agg is None:
                    rec.under[key] = [1, took]
                else:
                    agg[0] += 1
                    agg[1] += took

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(rec):
    """Wrap every function in LAYERS at every binding, recording into `rec`.
    Meant for a process that runs one job.  Raises LookupError when a listed
    function is missing, so a rename cannot silently drop a layer."""
    modules = {m: importlib.import_module(f"crystorb.{m}") for m in LAYERS}
    owners = {id(m): m for m in modules.values()}
    for m in modules.values():
        for v in vars(m).values():
            if isinstance(v, type) and v.__module__.startswith("crystorb."):
                owners[id(v)] = v
    for module, fns in LAYERS.items():
        for fn_name in fns:
            *path, attr = fn_name.split(".")
            holder = modules[module]
            for part in path:
                holder = getattr(holder, part)
            original = vars(holder).get(attr)
            if original is None:
                raise LookupError(f"{module}.{fn_name} not found")
            wrapper = _wrap(f"{module}.{fn_name}", original, rec)
            for owner in owners.values():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
