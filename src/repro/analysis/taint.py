"""The shared taint engine: secret labels, summaries, fixpoint.

TEE004 (secret flow) and TEE008 (secret-dependent timing) both need to
know *which expressions carry key material*. This module computes that
once per project:

* every function gets a label environment — parameters carry their
  positional index as a label (plus :data:`SECRET` when the parameter
  *name* denotes key material), assignments propagate labels forward in
  statement order exactly like the PR-4 intra-procedural walk;
* from the environment a :class:`TaintSummary` is extracted — does the
  return value carry :data:`SECRET`, which parameters flow to the
  return value, which parameters reach an observable sink inside the
  callee (or transitively inside *its* callees);
* summaries are propagated to **fixpoint** over the call graph
  (:class:`~repro.analysis.callgraph.SymbolTable` resolves the edges),
  so a secret sourced in ``crypto/``, formatted by a helper in
  ``ems/``, and logged in ``obs/`` is one flow;
* a final reporting pass records :class:`FlowEvent`s (a concretely
  secret value reaching a sink, possibly *via* a callee whose summary
  says the parameter leaks) and :class:`TaintedBranch`es (an ``if``
  whose condition carries :data:`SECRET` — TEE008's raw material).

Sanitizers (digests, MACs, ``len``) erase labels, matching the PR-4
contract: a hash *of* a secret is observable, the secret is not.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from typing import Iterator

from repro.analysis.callgraph import FunctionInfo, SymbolTable
from repro.analysis.project import Project, SourceModule

#: The label carried by concrete key material.
SECRET = "<secret>"

#: A label is either :data:`SECRET` or a parameter index.
Label = int | str

#: Identifier patterns that *are* secret material.
SECRET_NAME_PATTERNS = (
    r"(^|_)secret(_|$)",
    r"(^|_)privkey$",
    r"(^|_)private_key$",
    r"(^|_)key_material$",
    r"(^|_)(sealing|signing|attestation|session|platform|enclave|root|"
    r"derived|device)_key$",
    r"(^|_)sk$",
)

#: Method/function names whose *return value* is secret material.
SOURCE_CALL_PATTERNS = (
    r"(^|_)(sealing|signing|attestation|session|platform|enclave|root|"
    r"derived|device)_key$",
    r"^derive_key",
    r"^platform_signing_key$",
    r"^shared_key$",
)

#: Runtime-sanitizer reporting APIs (repro.sanitize.report/manager):
#: their output is printed, written to CI artifacts, and carried in
#: exception messages, so they are observable sinks exactly like logs.
TEESAN_REPORT_CALLS = frozenset({
    "report_violation", "format_violation", "format_summary",
})

#: Logging-flavoured attribute calls treated as sinks.
LOG_METHODS = frozenset({"debug", "info", "warning", "error", "critical",
                         "exception", "log"})

#: CS-visible packet constructors (wire fields the CS OS can read).
PACKET_CONSTRUCTORS = frozenset({"PrimitiveRequest", "PrimitiveResponse",
                                 "BatchRequest", "BatchResponse"})

#: Call names whose result is *derived from* a secret but safe to
#: observe: digests, MACs, lengths, redactions. An expression rooted in
#: one of these neither taints its assignment target nor trips a sink.
SANITIZER_CALLS = frozenset({
    "sha1", "sha256", "sha384", "sha512", "blake2b", "blake2s", "md5",
    "digest", "hexdigest", "keyed_mac", "hash_measurement", "len",
    "fingerprint", "redact", "hash",
})

#: Fixpoint safety valve; real call graphs converge in 2-4 passes.
MAX_PASSES = 10


def sink_name(node: ast.Call) -> str | None:
    """The observable-sink description of a call, or ``None``."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "print":
            return "print"
        if func.id in PACKET_CONSTRUCTORS:
            return f"packet field ({func.id})"
        if func.id in TEESAN_REPORT_CALLS:
            return f"teesan report ({func.id})"
        return None
    if isinstance(func, ast.Attribute):
        attr = func.attr
        if attr in TEESAN_REPORT_CALLS:
            # teesan diagnostics are printed, dumped to CI artifacts,
            # and embedded in exception text: key material must be
            # redact()ed before it reaches a violation message.
            return f"teesan report ({attr})"
        if attr == "labels":
            return "metric label"
        if attr == "add_span":
            return "trace span arg"
        if attr == "add_deferred":
            return "deferred trace span arg"
        if attr == "record_event":
            return "flight recorder event"
        # Any call on a flight-recorder-named receiver is a sink: its
        # ring ends up verbatim in crash-dump artifacts.
        base = func.value
        base_name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else "")
        if "flightrec" in base_name.lower():
            return f"flight recorder ({attr})"
        if attr.startswith("record_"):
            return f"obs probe ({attr})"
        if attr in LOG_METHODS and isinstance(func.value, ast.Name) \
                and ("log" in func.value.id.lower()):
            return f"log call ({attr})"
        if attr == "format":
            return "format string"
    return None


def is_sanitized(node: ast.AST) -> bool:
    """Is the expression rooted in a sanitizing call (digest/MAC/len)?

    Follows attribute/subscript/call chains inward, so
    ``sha256(key).hexdigest()[:8]`` is sanitized end to end.
    """
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if name in SANITIZER_CALLS:
            return True
        if isinstance(func, ast.Attribute):
            return is_sanitized(func.value)
        return False
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        return is_sanitized(node.value)
    return False


@dataclasses.dataclass
class TaintSummary:
    """What a function does with secrets, seen from a call site."""

    returns_secret: bool = False
    #: parameter indices whose labels reach the return value.
    param_to_return: frozenset[int] = frozenset()
    #: parameter index -> sink description reachable from it.
    param_to_sink: dict[int, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class FlowEvent:
    """A concretely secret value reaching an observable sink."""

    function: FunctionInfo
    node_line: int
    node_col: int
    sink: str
    via: str = ""    #: callee short name when the sink is transitive
    node_end_line: int = 0   #: 1-based last line of the sink expression
    node_end_col: int = 0    #: 0-based column past the expression's end


@dataclasses.dataclass(frozen=True)
class TaintedBranch:
    """An ``if`` whose condition carries :data:`SECRET`."""

    function: FunctionInfo
    node: ast.If


def walk_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Nested statements in source order, skipping nested functions
    and classes (they get their own taint scope)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from walk_statements(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield from walk_statements(handler.body)


class TaintEngine:
    """Label propagation with interprocedural summaries, per project."""

    def __init__(self, project: Project,
                 name_patterns: tuple[str, ...] = SECRET_NAME_PATTERNS,
                 source_patterns: tuple[str, ...] = SOURCE_CALL_PATTERNS
                 ) -> None:
        self.project = project
        self.symbols = SymbolTable(project)
        self._name_re = re.compile("|".join(name_patterns))
        self._source_re = re.compile("|".join(source_patterns))
        self.summaries: dict[str, TaintSummary] = {}
        self._events: list[FlowEvent] | None = None
        self._branches: list[TaintedBranch] | None = None
        #: call-node id -> resolved callee (nodes outlive the engine).
        self._resolved: dict[int, FunctionInfo | None] = {}

    # -- classification ------------------------------------------------------

    def is_secret_name(self, name: str) -> bool:
        """Does the identifier itself denote key material?"""
        return bool(self._name_re.search(name.lower()))

    def _is_source_call(self, node: ast.Call) -> bool:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        return bool(self._source_re.search(name.lower()))

    def _resolve_call(self, info: FunctionInfo,
                      node: ast.Call) -> FunctionInfo | None:
        """Memoized call resolution (the fixpoint revisits every site)."""
        key = id(node)
        if key not in self._resolved:
            self._resolved[key] = self.symbols.resolve_call(info, node)
        return self._resolved[key]

    # -- the fixpoint --------------------------------------------------------

    def run(self) -> None:
        """Compute summaries to fixpoint, then record flow events."""
        if self._events is not None:
            return
        functions = list(self.symbols.functions.values())
        for info in functions:
            self.summaries[info.qualname] = TaintSummary()
        for _ in range(MAX_PASSES):
            changed = False
            for info in functions:
                summary = self._analyze(info, collect=None)
                if summary != self.summaries[info.qualname]:
                    self.summaries[info.qualname] = summary
                    changed = True
            if not changed:
                break
        self._events = []
        self._branches = []
        collect = (self._events, self._branches)
        for info in functions:
            self._analyze(info, collect=collect)

    def flow_events(self) -> list[FlowEvent]:
        """Every secret-to-sink flow, after :meth:`run`."""
        self.run()
        assert self._events is not None
        return self._events

    def tainted_branches(self) -> list[TaintedBranch]:
        """Every secret-conditioned ``if``, after :meth:`run`."""
        self.run()
        assert self._branches is not None
        return self._branches

    # -- per-function analysis -----------------------------------------------

    def _params(self, info: FunctionInfo) -> list[str]:
        args = info.node.args
        return [a.arg for a in args.posonlyargs + args.args
                + args.kwonlyargs]

    def _analyze(self, info: FunctionInfo,
                 collect: tuple[list[FlowEvent], list[TaintedBranch]]
                 | None) -> TaintSummary:
        params = self._params(info)
        env: dict[str, frozenset[Label]] = {}
        flagged_params: set[int] = set()
        for index, name in enumerate(params):
            labels: set[Label] = {index}
            if self.is_secret_name(name):
                labels.add(SECRET)
                flagged_params.add(index)
            env[name] = frozenset(labels)
        summary = TaintSummary(param_to_sink={})
        to_return: set[int] = set()
        for stmt in walk_statements(info.node.body):
            # Sinks first: a sink on the same statement still sees the
            # taint state *before* the assignment lands.
            self._check_statement(info, stmt, env, params, flagged_params,
                                  summary, collect)
            self._propagate(info, stmt, env, summary, to_return)
        summary.param_to_return = frozenset(to_return - flagged_params)
        return summary

    def _propagate(self, info: FunctionInfo, stmt: ast.stmt,
                   env: dict[str, frozenset[Label]],
                   summary: TaintSummary, to_return: set[int]) -> None:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) \
                and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            labels = self._labels(info, stmt.value, env)
            if SECRET in labels:
                summary.returns_secret = True
            to_return.update(l for l in labels if isinstance(l, int))
            return
        if value is None:
            return
        labels = self._labels(info, value, env)
        if not labels:
            return
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    env[sub.id] = env.get(sub.id, frozenset()) | labels

    def _check_statement(self, info: FunctionInfo, stmt: ast.stmt,
                         env: dict[str, frozenset[Label]],
                         params: list[str], flagged_params: set[int],
                         summary: TaintSummary,
                         collect: tuple[list[FlowEvent],
                                        list[TaintedBranch]] | None
                         ) -> None:
        if collect is not None and isinstance(stmt, ast.If):
            if SECRET in self._labels(info, stmt.test, env):
                collect[1].append(TaintedBranch(info, stmt))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self._check_call(info, node, env, params, flagged_params,
                                 summary, collect)
            elif isinstance(node, ast.JoinedStr):
                for part in node.values:
                    if isinstance(part, ast.FormattedValue):
                        labels = self._labels(info, part.value, env)
                        if self._record(info, node, "f-string", "",
                                        labels, flagged_params, summary,
                                        collect):
                            break

    def _check_call(self, info: FunctionInfo, node: ast.Call,
                    env: dict[str, frozenset[Label]], params: list[str],
                    flagged_params: set[int], summary: TaintSummary,
                    collect: tuple[list[FlowEvent],
                                   list[TaintedBranch]] | None) -> None:
        sink = sink_name(node)
        if sink is not None:
            reported = False
            for arg in list(node.args) + [kw.value
                                          for kw in node.keywords]:
                labels = self._labels(info, arg, env)
                if self._record(info, node, sink, "", labels,
                                flagged_params, summary,
                                None if reported else collect):
                    reported = True
            return
        # Not itself a sink: does a callee summary say an argument
        # reaches one transitively?
        callee = self._resolve_call(info, node)
        if callee is None or callee.qualname == info.qualname:
            return
        callee_summary = self.summaries.get(callee.qualname)
        if callee_summary is None or not callee_summary.param_to_sink:
            return
        for position, labels in self._argument_labels(info, node, callee,
                                                      env):
            reached = callee_summary.param_to_sink.get(position)
            if reached is None:
                continue
            self._record(info, node, reached, callee.short_name, labels,
                         flagged_params, summary, collect)

    def _record(self, info: FunctionInfo, node: ast.AST, sink: str,
                via: str, labels: frozenset[Label],
                flagged_params: set[int], summary: TaintSummary,
                collect: tuple[list[FlowEvent],
                               list[TaintedBranch]] | None) -> bool:
        """Fold one tainted-value-at-sink observation into the summary
        (and the event list on the reporting pass). True when a
        concretely secret value reached the sink (one event per site)."""
        if SECRET in labels and collect is not None:
            collect[0].append(FlowEvent(
                function=info, node_line=node.lineno,
                node_col=node.col_offset, sink=sink, via=via,
                node_end_line=getattr(node, "end_lineno", 0) or 0,
                node_end_col=getattr(node, "end_col_offset", 0) or 0))
        for label in labels:
            # Secret-*named* parameters already produce a finding
            # inside this function; exporting them in the summary would
            # double-report every caller.
            if isinstance(label, int) and label not in flagged_params:
                summary.param_to_sink.setdefault(label, sink)
        return SECRET in labels

    def _argument_labels(self, info: FunctionInfo, node: ast.Call,
                         callee: FunctionInfo,
                         env: dict[str, frozenset[Label]]
                         ) -> Iterator[tuple[int, frozenset[Label]]]:
        """(callee parameter index, labels) for each call argument.

        Methods called through an attribute receive the receiver as
        parameter 0, so positional arguments shift by one.
        """
        offset = 0
        if callee.cls is not None and isinstance(node.func, ast.Attribute):
            offset = 1
        for position, arg in enumerate(node.args):
            yield position + offset, self._labels(info, arg, env)
        callee_params = self._params(callee)
        for kw in node.keywords:
            if kw.arg is not None and kw.arg in callee_params:
                yield (callee_params.index(kw.arg),
                       self._labels(info, kw.value, env))

    # -- expression labels ---------------------------------------------------

    def _labels(self, info: FunctionInfo, node: ast.AST,
                env: dict[str, frozenset[Label]]) -> frozenset[Label]:
        if is_sanitized(node):
            return frozenset()
        if isinstance(node, ast.Name):
            out = env.get(node.id, frozenset())
            if self.is_secret_name(node.id):
                out = out | {SECRET}
            return out
        if isinstance(node, ast.Attribute):
            out = self._labels(info, node.value, env)
            if self.is_secret_name(node.attr):
                out = out | {SECRET}
            return out
        if isinstance(node, ast.Call):
            return self._call_labels(info, node, env)
        if isinstance(node, ast.Constant):
            return frozenset()
        out: frozenset[Label] = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword,
                                  ast.comprehension)):
                out = out | self._labels(info, child, env)
        return out

    def _call_labels(self, info: FunctionInfo, node: ast.Call,
                     env: dict[str, frozenset[Label]]
                     ) -> frozenset[Label]:
        out: set[Label] = set()
        if self._is_source_call(node):
            out.add(SECRET)
        callee = self._resolve_call(info, node)
        callee_summary = (self.summaries.get(callee.qualname)
                          if callee is not None else None)
        if callee_summary is not None and callee is not None \
                and callee.qualname != info.qualname:
            if callee_summary.returns_secret:
                out.add(SECRET)
            for position, labels in self._argument_labels(
                    info, node, callee, env):
                if position in callee_summary.param_to_return:
                    out.update(labels)
        else:
            # Unknown callee: conservatively, tainted arguments (or a
            # tainted receiver) taint the result.
            for arg in node.args:
                out.update(self._labels(info, arg, env))
            for kw in node.keywords:
                out.update(self._labels(info, kw.value, env))
            if isinstance(node.func, ast.Attribute):
                out.update(self._labels(info, node.func.value, env))
        return frozenset(out)


def engine_for(project: Project) -> TaintEngine:
    """The per-project singleton engine (TEE004 and TEE008 share it)."""
    engine = getattr(project, "_taint_engine", None)
    if engine is None:
        engine = TaintEngine(project)
        project._taint_engine = engine      # type: ignore[attr-defined]
    return engine
