"""Span tracing of the program's public calls, for ``--trace 1`` runs only.

:func:`Tracer.install` wraps every public function and method of the
traced packages by patching class attributes and module attributes in
this process. A module function is re-bound in *every* loaded ``repro``
module that holds it, not only where it is defined: ``truncated_mac``,
for one, is imported by name into ``repro.hw.encryption_engine``, so
patching ``repro.crypto.hashes`` alone would miss every line MAC.
Install after the platform's modules are imported and before the traced
platform is built, so bound methods the platform captures at
construction (``ems.pump`` handed to the gate, say) are the wrapped ones.

Each wrapped call made while recording is one span: name, start, end,
parent span and op id, kept in flat arrays and written out by
:meth:`Tracer.write`. A layer's self time is the duration of its spans
minus the time their child spans cover. Layers are named by module.
"""

from __future__ import annotations

import array
import enum
import functools
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable

#: Module prefix -> layer; the longest matching prefix wins.
LAYERS = {
    "repro.crypto": "crypto",
    "repro.hw.encryption_engine": "hw.encryption_engine",
    "repro.hw.memory": "hw.memory",
    "repro.hw.page_table": "hw.page_table",
    "repro.hw.tlb": "hw.tlb",
    "repro.cs.emcall": "cs.emcall",
    "repro.hw.mailbox": "hw.mailbox",
    "repro.ems.runtime": "ems.runtime",
    "repro.ems.lifecycle": "ems.lifecycle",
    "repro.ems.memory_pool": "ems.memory_pool",
    "repro.ems.shardpool": "ems.shardpool",
    "repro.core.api": "core.api",
    "repro.obs": "obs",
    "repro.sanitize": "sanitize",
}
#: Every other module of these packages is traced as layer ``other``, so
#: its time is not charged to whichever named layer called it.
TRACED_PACKAGES = ("repro.common", "repro.core", "repro.crypto", "repro.cs",
                   "repro.cvm", "repro.ems", "repro.faults", "repro.hw",
                   "repro.obs", "repro.sanitize")
#: Root span of each op; its self time is the benchmark's own glue.
OP_SPAN = "bench.op"
SPAN_FIELDS = ("name", "parent", "op", "start", "end")


def layer_of(module: str) -> str:
    """The layer a module's spans are charged to."""
    best = ""
    for prefix in LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return LAYERS[best] if best else "other"


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _blocks(start: int, length: int) -> int:
    """Keystream blocks (32 B SHA3 digests) covering [start, start+len)."""
    if length <= 0:
        return 0
    return (start + length - 1) // 32 - start // 32 + 1


def _is_traced(module: str) -> bool:
    return module.startswith(TRACED_PACKAGES) and "fastkernel" not in module


def _traced_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and _is_traced(name)]


def _traceable(cls: type) -> bool:
    """Enums, exceptions and protocols are data, not call boundaries."""
    return not (issubclass(cls, (enum.Enum, BaseException))
                or getattr(cls, "_is_protocol", False))


class Tracer:
    """Span recorder plus the work counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = [OP_SPAN]
        self.layers: list[str] = ["bench"]
        self.name_ids: dict[str, int] = {OP_SPAN: 0}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.current = -1
        self.op = -1
        self.counts: dict[str, int] = {}
        #: id(original module function) -> its wrapper.
        self._originals: dict[int, Callable] = {}
        #: ids of every wrapper made, and the modules traced at install.
        self._wrappers: set[int] = set()
        self._installed: set[str] = set()

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str, module: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer_of(module))
        return self.name_ids[name]

    def _bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _parent_name(self) -> str:
        if self.current < 0:
            return ""
        return self.names[self.span_name[self.current]]

    def wrap(self, fn: Callable, name: str, module: str,
             count: Callable | None = None) -> Callable:
        """A recording wrapper around ``fn``; a pass-through when idle."""
        tracer = self
        name_id = self._name_id(name, module)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(starts)
            parent = tracer.current
            names.append(name_id)
            parents.append(parent)
            ops.append(tracer.op)
            ends.append(0.0)
            tracer.current = index
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                tracer.current = parent
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        self._wrappers.add(id(traced))
        return traced

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one op and start recording."""
        self.op = op_id
        self.current = self._root = len(self.span_start)
        self.span_name.append(0)
        self.span_parent.append(-1)
        self.span_op.append(op_id)
        self.span_end.append(0.0)
        self.active = True
        self.span_start.append(time.perf_counter())

    def end_op(self) -> None:
        """Close the op's root span and stop recording."""
        self.span_end[self._root] = time.perf_counter()
        self.active = False
        self.current = -1

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public callable of the loaded traced modules."""
        modules = _traced_modules()
        self._installed = {module.__name__ for module in modules}
        originals = self._originals
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and \
                        value.__module__ == module.__name__:
                    originals[id(value)] = self.wrap(
                        value, f"{module.__name__}.{attr}",
                        module.__name__, COUNTERS.get(attr))
                elif inspect.isclass(value) and \
                        value.__module__ == module.__name__:
                    self._wrap_class(value)
        # Re-bind each wrapped function wherever a module holds it.
        for name, module in sorted(sys.modules.items()):
            if module is None or not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and inspect.isfunction(value):
                    setattr(module, attr, wrapped)

    def _wrap_class(self, cls: type) -> None:
        if not _traceable(cls):
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__module__}.{cls.__qualname__}.{attr}"
            count = COUNTERS.get(f"{cls.__qualname__}.{attr}")
            if isinstance(value, staticmethod):
                wrapped = staticmethod(self.wrap(value.__func__, name,
                                                 cls.__module__, count))
            elif isinstance(value, classmethod):
                wrapped = classmethod(self.wrap(value.__func__, name,
                                                cls.__module__, count))
            elif inspect.isfunction(value):
                wrapped = self.wrap(value, name, cls.__module__, count)
            else:
                continue
            setattr(cls, attr, wrapped)

    def untraced(self) -> list[str]:
        """Call paths the trace cannot see, found after the traced round.

        Lists each traced-package module loaded after :meth:`install`
        (its functions were never wrapped), and each public function of a
        traced module that is still reachable unwrapped: as a module
        attribute of any ``repro`` module, as a method of a traced class,
        or as a value in a module-level dict, list or tuple.
        """
        missed = [f"{module.__name__} (loaded after install)"
                  for module in _traced_modules()
                  if module.__name__ not in self._installed]
        for name, module in sorted(sys.modules.items()):
            if module is None or not name.startswith("repro."):
                continue
            for attr, value in vars(module).items():
                if attr.startswith("__"):
                    continue
                where = f"{name}.{attr}"
                if self._raw(value):
                    missed.append(where)
                elif isinstance(value, dict):
                    missed += [f"{where}[{key!r}]"
                               for key, item in value.items()
                               if self._raw(item)]
                elif isinstance(value, (list, tuple)):
                    missed += [f"{where}[{index}]"
                               for index, item in enumerate(value)
                               if self._raw(item)]
                elif inspect.isclass(value) and value.__module__ == name \
                        and _is_traced(name) and _traceable(value):
                    for method, member in vars(value).items():
                        if isinstance(member, (staticmethod, classmethod)):
                            member = member.__func__
                        if not method.startswith("_") and self._raw(member):
                            missed.append(f"{where}.{method}")
        return missed

    def _raw(self, value) -> bool:
        """A public function of a traced module that is not a wrapper."""
        return (inspect.isfunction(value)
                and id(value) not in self._wrappers
                and not value.__name__.startswith("_")
                and _is_traced(value.__module__ or ""))

    # -- results ---------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus child-span cover."""
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, \
            self.span_parent
        for index in range(n):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        totals: dict[str, float] = {}
        layers, names = self.layers, self.span_name
        for index in range(n):
            layer = layers[names[index]]
            totals[layer] = totals.get(layer, 0.0) + (
                ends[index] - starts[index] - child[index])
        return totals

    def layer_calls(self) -> dict[str, int]:
        """Wrapped calls per layer (op root spans excluded)."""
        calls: dict[str, int] = {}
        layers = self.layers
        for name_id in self.span_name:
            if name_id:
                layer = layers[name_id]
                calls[layer] = calls.get(layer, 0) + 1
        return calls

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "layers": self.layers,
                  "spans": len(self.span_start),
                  "fields": [[field, arr.typecode] for field, arr in zip(
                      SPAN_FIELDS, self._arrays())],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in self._arrays():
                arr.tofile(out)

    def _arrays(self):
        return (self.span_name, self.span_parent, self.span_op,
                self.span_start, self.span_end)


# -- work counters at the wrapped boundaries ---------------------------------


def _tlb_lookup(t, args, kwargs, result):
    t._bump("hw.tlb.hits" if result is not None else "hw.tlb.misses")


def _tlb_flush(t, args, kwargs, result):
    t._bump("hw.tlb.flushes")


def _pte_lookup(t, args, kwargs, result):
    # The walker consults the page table only on a TLB miss: one walk.
    if t._parent_name() == "repro.hw.page_table.PageTableWalker.translate":
        t._bump("hw.page_table.walks")


def _truncated_mac(t, args, kwargs, result):
    parent = t._parent_name()
    if parent.endswith("MemoryEncryptionEngine.record_macs"):
        t._bump("hw.encryption_engine.mac_lines_recorded")
    elif parent.endswith("MemoryEncryptionEngine.verify_macs"):
        t._bump("hw.encryption_engine.mac_lines_verified")


def _keyed_mac(t, args, kwargs, result):
    t._bump("crypto.mac_calls")


def _cipher_encrypt(t, args, kwargs, result):
    t._bump("crypto.keystream_blocks",
            _blocks(_arg(args, kwargs, 2, "tweak", 0), len(args[1])))


def _cipher_keystream(t, args, kwargs, result):
    t._bump("crypto.keystream_blocks",
            _blocks(_arg(args, kwargs, 1, "start"),
                    _arg(args, kwargs, 2, "length")))


def _mem_read(t, args, kwargs, result):
    t._bump("hw.memory.reads")
    t._bump("hw.memory.bytes", _arg(args, kwargs, 2, "length"))


def _mem_write(t, args, kwargs, result):
    t._bump("hw.memory.writes")
    t._bump("hw.memory.bytes", len(_arg(args, kwargs, 2, "data")))


def _push_request(t, args, kwargs, result):
    t._bump("hw.mailbox.requests_sent")


def _poll_response(t, args, kwargs, result):
    t._bump("hw.mailbox.poll_attempts")


def _dispatch(t, args, kwargs, result):
    status = result.status.value
    if status == "ok":
        if not result.result.get("replayed"):
            t._bump("ems.runtime.served")
            t._bump("ems.runtime.service_cycles", result.service_cycles)
    elif status != "transient":
        t._bump("ems.runtime.failed")


def _pool_take(t, args, kwargs, result):
    t._bump("ems.memory_pool.takes", len(result))


def _pool_give_back(t, args, kwargs, result):
    t._bump("ems.memory_pool.returns", len(_arg(args, kwargs, 1, "frames")))


def _transfer(t, args, kwargs, result):
    t._bump("ems.shardpool.transfers")


def _san_event(t, args, kwargs, result):
    t._bump("sanitize.events")


#: ``Class.method`` (or module function name) -> counter hook.
COUNTERS: dict[str, Callable] = {
    "TLB.lookup": _tlb_lookup,
    "TLB.flush_all": _tlb_flush,
    "TLB.flush_asid": _tlb_flush,
    "TLB.flush_frame": _tlb_flush,
    "PageTable.lookup": _pte_lookup,
    "truncated_mac": _truncated_mac,
    "keyed_mac": _keyed_mac,
    "KeystreamCipher.encrypt": _cipher_encrypt,
    "KeystreamCipher.keystream": _cipher_keystream,
    "PhysicalMemory.read": _mem_read,
    "PhysicalMemory.write": _mem_write,
    "Mailbox.push_request": _push_request,
    "Mailbox.poll_response": _poll_response,
    "EMSRuntime.dispatch": _dispatch,
    "EnclaveMemoryPool.take": _pool_take,
    "EnclaveMemoryPool.take_contiguous": _pool_take,
    "EnclaveMemoryPool.give_back": _pool_give_back,
    "ShardPool.transfer_enclave": _transfer,
    "SanitizerManager.event": _san_event,
}
