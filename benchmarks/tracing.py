"""Spans and counters recorded from outside the package, by rebinding names.

Each target replaces one public name at the place its caller looks it up
(a module global such as ``tracepir.pir.grs_decode``, or a class attribute
such as ``tracepir.gf.ExtField.add``) and is restored afterwards.  Two
kinds of pass use them:

- the span pass wraps the stage functions in ``SPAN_TARGETS``; each call
  records (span id, name, start, end, parent span id, operation id);
- the counting pass wraps the per-element functions in ``COUNT_TARGETS``,
  whose calls are too frequent to time without distorting the spans.  It
  wraps the stage functions too, but only to know the innermost stage a
  count happened in.

The operation id plays the role of a session id: every span and count
belongs to the top-level benchmark operation (setup, session, sweep or
audit) that was running.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

# (owner, attribute, span or counter name).  The owner is "module" or
# "module:Class"; a name listed twice is the same function bound in two places.
SPAN_TARGETS = (
    ("tracepir.harness", "run_session", "harness.run_session"),
    ("tracepir.harness", "gen_queries", "pir.gen_queries"),
    ("tracepir.pir", "queries_from_blinding", "pir.queries_from_blinding"),
    ("tracepir.harness:ServerNode", "respond", "harness.ServerNode.respond"),
    ("tracepir.harness", "server_answer", "pir.server_answer"),
    ("tracepir.pir", "server_answer", "pir.server_answer"),
    ("tracepir.harness", "retrieve_from_k", "pir.retrieve_from_k"),
    ("tracepir.pir", "grs_decode", "rscodes.grs_decode"),
    ("tracepir.linalg", "solve", "linalg.solve"),
    ("tracepir.rscodes", "grs_encode", "rscodes.grs_encode"),
    ("tracepir.pir", "setup", "pir.setup"),
    ("tracepir.pir", "find_irreducibles", "gf.find_irreducibles"),
    ("tracepir.pir", "verify_params", "pir.verify_params"),
    ("tracepir.pir", "dual_basis", "gf.dual_basis"),
    ("tracepir.pir", "dual_multipliers", "rscodes.dual_multipliers"),
    ("tracepir.harness", "byzantine_sweep", "harness.byzantine_sweep"),
    ("tracepir.harness", "privacy_audit", "harness.privacy_audit"),
)

COUNT_TARGETS = (
    ("tracepir.gf:ExtField", "add", "gf.ExtField.add"),
    ("tracepir.gf:ExtField", "mul", "gf.ExtField.mul"),
    ("tracepir.gf:ExtField", "trace", "gf.ExtField.trace"),
    ("tracepir.gf:ExtField", "eval_base_poly", "gf.ExtField.eval_base_poly"),
    ("tracepir.kernels", "ext_mul", "kernels.ext_mul"),
    ("tracepir.kernels", "ext_pow", "kernels.ext_pow"),
    ("tracepir.kernels", "ext_inv", "kernels.ext_inv"),
    ("tracepir.kernels", "ext_dot", "kernels.ext_dot"),
    ("tracepir.rand:SeededStream", "randrange", "rand.SeededStream.randrange"),
    ("tracepir.rand:SeededStream", "fork", "rand.SeededStream.fork"),
    ("tracepir.polyring", "poly_eval", "polyring.poly_eval"),
    ("tracepir.polyring", "poly_powmod", "polyring.poly_powmod"),
    ("tracepir.gf", "rabin_irreducible", "gf.rabin_irreducible"),
)

# counters that also add up the length of their first argument
TERM_COUNTERS = {"kernels.ext_dot"}


def resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


def bound_originals(targets) -> dict:
    """The object currently bound at each target, keyed by (owner, attribute)."""
    return {(owner, attr): vars(resolve_owner(owner))[attr] for owner, attr, _ in targets}


class Tracer:
    """Installs wrappers for one pass and keeps what they recorded."""

    def __init__(self, counting: bool):
        self.counting = counting
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.counts = Counter()  # (op kind, innermost stage, name) -> calls
        self.fired = Counter()  # (owner, attribute) -> calls
        self.op_kinds = {}  # op id -> kind
        self._op = None
        self._stack = []  # open spans: (id, name)
        self._next_id = 0

    @contextlib.contextmanager
    def operation(self, kind: str):
        """Attribute everything recorded inside to one new operation."""
        op = len(self.op_kinds)
        self.op_kinds[op] = kind
        self._op = op
        try:
            yield op
        finally:
            self._op = None

    def _span_wrapper(self, fn, key, name):
        stack, fired = self._stack, self.fired
        if self.counting:
            def scope(*args, **kwargs):
                fired[key] += 1
                stack.append((None, name))
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return scope
        spans, clock = self.spans, time.perf_counter

        def span(*args, **kwargs):
            fired[key] += 1
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self._op))
        return span

    def _count_wrapper(self, fn, key, name):
        stack, fired, counts = self._stack, self.fired, self.counts
        kinds = self.op_kinds
        terms = name in TERM_COUNTERS

        def count(*args, **kwargs):
            fired[key] += 1
            where = (kinds.get(self._op), stack[-1][1] if stack else None)
            counts[where + (name,)] += 1
            if terms:
                counts[where + (name + ".terms",)] += len(args[0])
            return fn(*args, **kwargs)
        return count

    def targets(self):
        if self.counting:
            return [(t, self._span_wrapper) for t in SPAN_TARGETS] + [
                (t, self._count_wrapper) for t in COUNT_TARGETS
            ]
        return [(t, self._span_wrapper) for t in SPAN_TARGETS]

    @contextlib.contextmanager
    def installed(self):
        """Bind every wrapper of this pass, and restore the originals on exit."""
        restore = []
        try:
            for (owner, attr, name), make in self.targets():
                holder = resolve_owner(owner)
                original = vars(holder)[attr]
                restore.append((holder, attr, original))
                setattr(holder, attr, make(original, (owner, attr), name))
            yield self
        finally:
            for holder, attr, original in reversed(restore):
                setattr(holder, attr, original)

    def silent_targets(self) -> list:
        """Targets whose wrapper never ran: the name is looked up elsewhere."""
        return [f"{owner}.{attr}" for (owner, attr, _), _ in self.targets()
                if not self.fired[(owner, attr)]]

    # --- reductions -------------------------------------------------------------

    def durations(self, name: str) -> list:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def self_times(self, name: str) -> list:
        """Span time minus the time its direct child spans cover."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[sid]
                for sid, n, start, end, _, _ in self.spans if n == name]

    def ops_of(self, kind: str) -> int:
        return sum(1 for k in self.op_kinds.values() if k == kind)

    def span_count(self, name: str, op_kind: str | None = None) -> int:
        return sum(1 for _, n, _, _, _, op in self.spans
                   if n == name and (op_kind is None or self.op_kinds.get(op) == op_kind))

    def count(self, name: str, op_kind: str, stage: str | None = None) -> int:
        """Calls of a counted function inside operations of one kind.

        Given a ``stage``, only calls whose innermost traced stage is that
        stage are counted.
        """
        return sum(n for (kind, where, counted), n in self.counts.items()
                   if counted == name and kind == op_kind and stage in (None, where))

    def spans_as_json(self) -> dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "op_kinds": self.op_kinds,
            "spans": self.spans,
        }
