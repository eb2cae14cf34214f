"""Spans around the calls into pelks' public functions, recorded from outside.

`Tracer.install()` replaces each traced function in every pelks module
namespace that binds it (`pelks.pel_modules.smith_normal_form` and
`pelks.algebra.smith_normal_form` alike) with a wrapper that records a
span: name, start, end, parent span, the time the wrapper spent
counting, and counts taken from the arguments and the result.  Spans
stay in memory; the benchmark collects them per verdict and writes
them out when it ends.  A span's self time is its duration minus the
part covered by its child spans and minus its own counting time.
"""

import functools
import importlib
import sys
import time

_clock = time.perf_counter


def _series_matrix_counts(args, kwargs, result):
    rows = (args[0] if args else kwargs["matrix"]).rows
    entries = sum(len(row) for row in rows)
    nonzero = sum(1 for row in rows for x in row if x.coeffs)
    return {"entries": entries, "nonzero": nonzero}


def _integer_rows_counts(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    entries = sum(len(row) for row in rows)
    nonzero = sum(1 for row in rows for x in row if x)
    return {"entries": entries, "nonzero": nonzero}


def _relation_rows(args, kwargs, result):
    return {"rows": len(result[1])}


# (metric prefix, module, attribute path, counter)
TARGETS = (
    ("algebra.smith_normal_form", "pelks.algebra", "smith_normal_form", _series_matrix_counts),
    ("algebra.integer_smith_normal_form", "pelks.algebra", "integer_smith_normal_form", _integer_rows_counts),
    ("algebra.integer_inverse", "pelks.algebra", "integer_inverse", None),
    ("algebra.integer_det", "pelks.algebra", "integer_det", None),
    ("algebra.finite_field", "pelks.algebra", "finite_field", "field"),
    ("pel_modules.global_rank_lemma", "pelks.pel_modules", "global_rank_lemma", None),
    ("pel_modules.relation_generators", "pelks.pel_modules", "relation_generators", _relation_rows),
    ("pel_modules.find_test_letters", "pelks.pel_modules", "find_test_letters", None),
    ("pel_modules.quotient_structure", "pelks.pel_modules", "quotient_structure", None),
    ("pel_modules.image_exponent", "pelks.pel_modules", "image_exponent", None),
    ("cyclic_algebra.discriminant_report", "pelks.cyclic_algebra", "discriminant_report", None),
    ("lattices.RiemannForm.gram", "pelks.lattices", "RiemannForm.gram", None),
    ("lattices.build_lattice", "pelks.lattices", "build_lattice", None),
    ("lattices.solve_self_dual_mu", "pelks.lattices", "solve_self_dual_mu", None),
    ("lattices.polarization_degree", "pelks.lattices", "polarization_degree", None),
    ("lattices.dual_index_oracle", "pelks.lattices", "dual_index_oracle", None),
    ("lattices.covolume_closed_form", "pelks.lattices", "covolume_closed_form", None),
    ("lattices.OrderEmbedding", "pelks.lattices", "OrderEmbedding.__post_init__", None),
    ("kodaira_spencer.cocycle_jacobian", "pelks.kodaira_spencer", "cocycle_jacobian", None),
    ("kodaira_spencer.numeric_cocycle_jacobian", "pelks.kodaira_spencer", "numeric_cocycle_jacobian", None),
    ("kodaira_spencer.solve_w_vectors", "pelks.kodaira_spencer", "solve_w_vectors", None),
    ("kodaira_spencer.assemble_phi", "pelks.kodaira_spencer", "assemble_phi", None),
    ("kodaira_spencer.psi_constant", "pelks.kodaira_spencer", "psi_constant", None),
    ("kodaira_spencer.metric_identity_check", "pelks.kodaira_spencer", "metric_identity_check", None),
    ("domains.random_point", "pelks.domains", "random_point", None),
    ("domains.petersson_norm", "pelks.domains", "petersson_norm", None),
    ("config.config_from_dict", "pelks.config", "config_from_dict", None),
    ("config.build_embedding", "pelks.config", "build_embedding", None),
    ("checks.run_checks", "pelks.checks", "run_checks", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Installs span-recording wrappers and holds the spans of one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._fields_seen = set()
        self._restore = []

    def reset(self):
        self.spans = []
        self._stack = []
        self._fields_seen = set()

    def _field_counts(self, args, kwargs, result):
        if id(result) in self._fields_seen:
            return {"built": 0, "table_entries": 0}
        self._fields_seen.add(id(result))
        return {"built": 1, "table_entries": result.size**2}

    def wrap(self, name, fn, counter):
        if counter == "field":
            counter = self._field_counts
        tracer = self  # reset() replaces the lists, so look them up per call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            record = [name, _clock(), 0.0, stack[-1] if stack else -1, 0.0, None]
            tracer.spans.append(record)
            stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = _clock()
            if counter is not None:
                record[5] = counter(args, kwargs, result)
                done = _clock()
                record[4] = done - record[2]
                record[2] = done
            return result

        return traced

    def install(self):
        """Wrap every target in every loaded pelks module that binds it."""
        modules = [m for key, m in list(sys.modules.items()) if key == "pelks" or key.startswith("pelks.")]
        for name, module_name, path, counter in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    replacement = property(self.wrap(name, original.fget, counter), original.fset, original.fdel, original.__doc__)
                else:
                    replacement = self.wrap(name, original, counter)
                setattr(cls, attr, replacement)
                self._restore.append((cls, attr, original))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore = []


def self_times(spans):
    """Per span: duration minus the union of its children's intervals and its counting time."""
    children = {}
    for idx, span in enumerate(spans):
        children.setdefault(span[3], []).append(idx)
    out = []
    for idx, (name, start, end, parent, counting, counts) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            c_start, c_end = max(spans[c][1], reach), spans[c][2]
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(max(0.0, end - start - covered - counting))
    return out
