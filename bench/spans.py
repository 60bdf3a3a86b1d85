"""Outside-in span tracing of bettiforge's layers.

The tracer wraps the public functions and methods each layer exposes.
A module-level function is patched under every bettiforge module name
that binds it, because ``from .x import f`` copies the binding: ``aci``
looks up ``gaeta_diesel_violation`` and ``mci_from_sorted`` in its own
namespace, and ``cli`` does the same for ``enumerate_admissible``,
``check_betti``, ``build_aci_complex`` and ``verify_complex``.  Methods
are patched on their class, which every caller shares.

Spans record name, start, end and parent.  Top-level spans are kept one
by one; below the top level they are aggregated per (parent, name) edge,
because one enumeration makes about a million Gaeta-Diesel calls.  A
span's self time is its duration minus the time its child spans cover.
Counts are taken at the same wrapper boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# (span name, module, attribute path).  Span names start with the layer.
# Class-body aliases such as ``__radd__ = __add__`` are listed separately:
# each is its own class attribute.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # multiset
    ("multiset.init", "multiset", "IntMultiset.__init__"),
    ("multiset.from_values", "multiset", "IntMultiset.from_values"),
    ("multiset.empty", "multiset", "IntMultiset.empty"),
    ("multiset.multiplicity", "multiset", "IntMultiset.multiplicity"),
    ("multiset.support", "multiset", "IntMultiset.support"),
    ("multiset.card", "multiset", "IntMultiset.card"),
    ("multiset.norm", "multiset", "IntMultiset.norm"),
    ("multiset.values", "multiset", "IntMultiset.values"),
    ("multiset.min", "multiset", "IntMultiset.min"),
    ("multiset.max", "multiset", "IntMultiset.max"),
    ("multiset.len", "multiset", "IntMultiset.__len__"),
    ("multiset.iter", "multiset", "IntMultiset.__iter__"),
    ("multiset.contains", "multiset", "IntMultiset.__contains__"),
    ("multiset.bool", "multiset", "IntMultiset.__bool__"),
    ("multiset.eq", "multiset", "IntMultiset.__eq__"),
    ("multiset.intersect", "multiset", "IntMultiset.intersect"),
    ("multiset.intersect", "multiset", "IntMultiset.__and__"),
    ("multiset.union", "multiset", "IntMultiset.union"),
    ("multiset.union", "multiset", "IntMultiset.__or__"),
    ("multiset.sum", "multiset", "IntMultiset.sum"),
    ("multiset.sum", "multiset", "IntMultiset.__add__"),
    ("multiset.diff", "multiset", "IntMultiset.diff"),
    ("multiset.diff", "multiset", "IntMultiset.__sub__"),
    ("multiset.is_submultiset", "multiset", "IntMultiset.is_submultiset"),
    ("multiset.is_submultiset", "multiset", "IntMultiset.__le__"),
    ("multiset.affine", "multiset", "IntMultiset.affine"),
    ("multiset.to_list", "multiset", "IntMultiset.to_list"),
    ("multiset.str", "multiset", "IntMultiset.__str__"),
    # gorenstein
    ("gorenstein.gaeta_diesel", "gorenstein", "gaeta_diesel_violation"),
    ("gorenstein.check", "gorenstein", "check_gorenstein_betti"),
    ("gorenstein.mci", "gorenstein", "mci_from_sorted"),
    ("gorenstein.mci_checked", "gorenstein", "mci"),
    ("gorenstein.ci_index_sets", "gorenstein", "ci_index_sets"),
    ("gorenstein.hilbert", "gorenstein", "hilbert_from_resolution"),
    ("gorenstein.koszul", "gorenstein", "koszul_modules"),
    ("gorenstein.cancel_duals", "gorenstein", "cancel_duals"),
    ("gorenstein.betti_init", "gorenstein", "GorensteinBetti.__init__"),
    ("gorenstein.from_gens", "gorenstein", "GorensteinBetti.from_gens"),
    ("gorenstein.syzygies", "gorenstein", "GorensteinBetti.syzygies"),
    ("gorenstein.to_json", "gorenstein", "GorensteinBetti.to_json"),
    # aci
    ("aci.betti_init", "aci", "AciBetti.__init__"),
    ("aci.from_values", "aci", "AciBetti.from_values"),
    ("aci.from_json", "aci", "AciBetti.from_json"),
    ("aci.to_json", "aci", "AciBetti.to_json"),
    ("aci.key", "aci", "AciBetti.key"),
    ("aci.decompose", "aci", "decompose"),
    ("aci.induced_gorenstein", "aci", "induced_gorenstein"),
    ("aci.check_betti", "aci", "check_betti"),
    ("aci.verdict_json", "aci", "Verdict.to_json"),
    ("aci.link_betti", "aci", "link_betti"),
    ("aci.enumerate", "aci", "enumerate_admissible"),
    # exact
    ("exact.poly_zero", "exact", "Poly.zero"),
    ("exact.poly_const", "exact", "Poly.const"),
    ("exact.poly_variable", "exact", "Poly.variable"),
    ("exact.poly_add", "exact", "Poly.__add__"),
    ("exact.poly_add", "exact", "Poly.__radd__"),
    ("exact.poly_sub", "exact", "Poly.__sub__"),
    ("exact.poly_sub", "exact", "Poly.__rsub__"),
    ("exact.poly_neg", "exact", "Poly.__neg__"),
    ("exact.poly_mul", "exact", "Poly.__mul__"),
    ("exact.poly_mul", "exact", "Poly.__rmul__"),
    ("exact.poly_pow", "exact", "Poly.__pow__"),
    ("exact.poly_eq", "exact", "Poly.__eq__"),
    ("exact.poly_str", "exact", "Poly.__str__"),
    ("exact.homogeneous_degree", "exact", "Poly.homogeneous_degree"),
    ("exact.matrix_init", "exact", "PolyMatrix.__init__"),
    ("exact.matmul", "exact", "PolyMatrix.__matmul__"),
    ("exact.matrix_add", "exact", "PolyMatrix.__add__"),
    ("exact.matrix_neg", "exact", "PolyMatrix.__neg__"),
    ("exact.transpose", "exact", "PolyMatrix.transpose"),
    ("exact.submatrix", "exact", "PolyMatrix.submatrix"),
    ("exact.determinant", "exact", "PolyMatrix.determinant"),
    ("exact.adjugate", "exact", "PolyMatrix.adjugate"),
    ("exact.parse", "exact", "parse_poly"),
    ("exact.parse", "exact", "parse_matrix"),
    ("exact.monomials", "exact", "monomials"),
    # pfaffian
    ("pfaffian.init", "pfaffian", "AlternatingMatrix.__init__"),
    ("pfaffian.from_poly_matrix", "pfaffian", "AlternatingMatrix.from_poly_matrix"),
    ("pfaffian.to_poly_matrix", "pfaffian", "AlternatingMatrix.to_poly_matrix"),
    ("pfaffian.delete", "pfaffian", "AlternatingMatrix.delete"),
    ("pfaffian.pfaffian", "pfaffian", "AlternatingMatrix.pfaffian"),
    ("pfaffian.oracle", "pfaffian", "AlternatingMatrix.pfaffian_oracle"),
    ("pfaffian.submaximal", "pfaffian", "AlternatingMatrix.submaximal_pfaffians"),
    ("pfaffian.adjoint", "pfaffian", "AlternatingMatrix.adjoint"),
    ("pfaffian.augment", "pfaffian", "AlternatingMatrix.augment"),
    # structure
    ("structure.presentation", "structure", "AlternatingPresentation.__init__"),
    ("structure.reordered", "structure", "AlternatingPresentation.reordered"),
    ("structure.build", "structure", "build_aci_complex"),
    ("structure.verify", "structure", "verify_complex"),
    ("structure.twist_multisets", "structure", "GradedComplex.twist_multisets"),
    ("structure.report_json", "structure", "ComplexReport.to_json"),
    # cli
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.check", "cli", "cmd_check"),
    ("cli.pfaffian", "cli", "cmd_pfaffian"),
    ("cli.enumerate", "cli", "cmd_enumerate"),
    ("cli.verify_structure", "cli", "cmd_verify_structure"),
)

# Outputs whose coefficients feed exact.coeff_bits.max.
_COEFF_OUTPUTS = frozenset(
    ("exact.matmul", "pfaffian.pfaffian", "pfaffian.submaximal", "pfaffian.adjoint")
)


def _coeff_bits(value) -> int:
    """Largest numerator or denominator, in bits, over every Poly reachable in value."""
    terms = getattr(value, "terms", None)
    if isinstance(terms, dict):
        return max(
            (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in terms.values()),
            default=0,
        )
    entries = getattr(value, "entries", None)
    if entries is not None:
        value = entries
    if isinstance(value, (tuple, list)):
        return max((_coeff_bits(v) for v in value), default=0)
    return 0


class Tracer:
    """Installs span wrappers on bettiforge, aggregates them, and removes them again."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str | None, str], list] = {}  # (parent, name) -> [calls, total_s, self_s]
        self.roots: list[tuple[str, float, float]] = []  # (name, start, end)
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _close(self, frame: list, start: float, end: float) -> None:
        name = frame[0]
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[1] += duration
            key = (parent[0], name)
        else:
            self.roots.append((name, start, end))
            key = (None, name)
        rec = self.edges.get(key)
        if rec is None:
            self.edges[key] = [1, duration, duration - frame[1]]
        else:
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - frame[1]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        return self._wrap_function(name, fn)(*args, **kwargs)

    def _after(self, name: str, result) -> None:
        counts = self.counts
        if name == "aci.check_betti":
            key = "admissible" if result.admissible else f"stage{result.stage}"
            counts[key] = counts.get(key, 0) + 1
        elif name in _COEFF_OUTPUTS:
            bits = _coeff_bits(result)
            if bits > counts.get("coeff_bits", 0):
                counts["coeff_bits"] = bits

    def _wrap_function(self, name: str, fn):
        stack = self._stack
        close = self._close
        clock = time.perf_counter
        after = self._after if name == "aci.check_betti" or name in _COEFF_OUTPUTS else None

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(name, result)
                return result
            finally:
                close(frame, start, clock())

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span; each item yielded counts as emitted."""
        stack = self._stack
        close = self._close
        clock = time.perf_counter
        counts = self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(frame, start, clock())
                counts["emitted"] = counts.get("emitted", 0) + 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Patch every target that exists; targets removed from the program are skipped."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "bettiforge" or n.startswith("bettiforge.")]
        for name, module_name, path in TARGETS:
            module = importlib.import_module(f"bettiforge.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or attr not in owner.__dict__:
                    continue
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap_function(name, raw.__func__)))
                elif isinstance(raw, staticmethod):
                    self._set(owner, attr, staticmethod(self._wrap_function(name, raw.__func__)))
                else:
                    self._set(owner, attr, self._wrap_function(name, raw))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap_function(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ----------------------------------------------------------

    def calls(self, name: str, outside: str | None = None) -> int:
        """Calls of span name; with outside, only those whose parent is not in that layer."""
        return sum(
            rec[0]
            for (p, n), rec in self.edges.items()
            if n == name and (outside is None or p is None or not p.startswith(outside + "."))
        )

    def self_s(self, prefix: str) -> float:
        """Self time of every span whose name is prefix or starts with prefix + '.'."""
        return sum(
            rec[2]
            for (_, n), rec in self.edges.items()
            if n == prefix or n.startswith(prefix + ".")
        )

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in metrics.PER_LAYER, except tracing_overhead_s."""
        c = self.counts
        # The generator calls gaeta_diesel_violation and mci_from_sorted
        # directly; calls nested in check_gorenstein_betti and mci are the
        # decision procedure's and are counted by gorenstein.check.calls.
        gd = self.calls("gorenstein.gaeta_diesel", outside="gorenstein")
        mci_calls = self.calls("gorenstein.mci", outside="gorenstein")
        emitted = c.get("emitted", 0)
        return {
            "multiset.built": self.calls("multiset.init"),
            "multiset.self_s": self.self_s("multiset"),
            "gorenstein.gaeta_diesel.calls": gd,
            "gorenstein.gaeta_diesel.self_s": self.self_s("gorenstein.gaeta_diesel"),
            "gorenstein.mci.calls": mci_calls,
            "gorenstein.gd_pass_ratio": mci_calls / gd if gd else 0.0,
            "gorenstein.check.calls": self.calls("gorenstein.check"),
            "gorenstein.self_s": self.self_s("gorenstein"),
            "aci.enumerate.emitted": emitted,
            "aci.enumerate.yield": emitted / gd if gd else 0.0,
            "aci.self_s": self.self_s("aci"),
            "aci.check_betti.calls": self.calls("aci.check_betti"),
            "aci.check_betti.self_s": self.self_s("aci.check_betti"),
            "aci.decompose.calls": self.calls("aci.decompose"),
            "aci.decompose.self_s": self.self_s("aci.decompose"),
            "aci.verdicts.admissible": c.get("admissible", 0),
            "aci.verdicts.stage1": c.get("stage1", 0),
            "aci.verdicts.stage2": c.get("stage2", 0),
            "aci.verdicts.stage3": c.get("stage3", 0),
            "exact.poly_mul.calls": self.calls("exact.poly_mul"),
            "exact.poly_mul.self_s": self.self_s("exact.poly_mul"),
            "exact.poly_add.calls": self.calls("exact.poly_add"),
            "exact.poly_add.self_s": self.self_s("exact.poly_add"),
            "exact.matmul.calls": self.calls("exact.matmul"),
            "exact.coeff_bits.max": c.get("coeff_bits", 0),
            "exact.self_s": self.self_s("exact"),
            "exact.parse.self_s": self.self_s("exact.parse"),
            "pfaffian.submaximal.calls": self.calls("pfaffian.submaximal"),
            "pfaffian.submaximal.self_s": self.self_s("pfaffian.submaximal"),
            "pfaffian.pfaffian.calls": self.calls("pfaffian.pfaffian"),
            "pfaffian.pfaffian.self_s": self.self_s("pfaffian.pfaffian"),
            "pfaffian.adjoint.self_s": self.self_s("pfaffian.adjoint"),
            "pfaffian.self_s": self.self_s("pfaffian"),
            "structure.build.self_s": self.self_s("structure.build"),
            "structure.verify.self_s": self.self_s("structure.verify"),
            "cli.self_s": self.self_s("cli"),
        }

    def to_json(self) -> dict:
        """Top-level spans one by one, and the aggregated edges below them."""
        return {
            "roots": [{"name": n, "start": s, "end": e} for n, s, e in self.roots],
            "edges": [
                {"parent": p, "name": n, "calls": r[0], "total_s": r[1], "self_s": r[2]}
                for (p, n), r in sorted(self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))
            ],
            "counts": dict(sorted(self.counts.items())),
        }
