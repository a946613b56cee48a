"""The four benchmark workloads: seeded input generators and op drivers.

Every workload is a closed loop on one thread: the next op is issued
only after the previous one returns. Inputs come from
:class:`random.Random` seeded by the workload seed; the platform itself
is always built from :data:`PLATFORM_SEED`, so two workload seeds differ
only in the traffic they send. The program sees nothing but the
generated inputs (code images, page counts, payloads, offsets, report
data).

A workload exposes four steps, all called by ``run.py``:

``setup()``
    build the platform, attach the hooks the workload names, finish lazy
    set-up, pre-launch resident enclaves; returns the live context.
``specs(round_index)``
    the generated inputs of one round of ``round_ops`` ops.
``run_op(ctx, spec)``
    one op over the public facade; this call alone is timed.
``check(ctx, spec, outcome)``
    verify the op's output against the benchmark's own expectation,
    outside the timed region; a mismatch raises :class:`CheckFailed`.

Only the facade is imported (``repro.core.api``, ``repro.core.config``,
``repro.core.enclave``); ``Primitive`` and ``Permission`` are the names
the facade itself re-exports.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Iterator

from repro.core import api
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig

#: Platform seed, fixed for every run: only the workload seed varies.
PLATFORM_SEED = 0x5E12
#: Quotes are verified in chunks of this size (outside the timed region)
#: so memory stays flat however many rounds a run completes.
QUOTE_CHUNK = 128
#: serve phase cycle, as ``python -m repro serve`` runs it.
SERVE_PHASES = ("launch", "enter", "memory", "batch", "attest", "exit",
                "transfer", "destroy")
SERVE_WORKERS = 3
SERVE_SHARDS = 4
#: Every Nth enclave generation of a worker migrates shards.
TRANSFER_EVERY = 3
#: An OS EWB is issued after every Nth serve step (as its own op).
EWB_EVERY = 50
GATE_ENCLAVES = 3
PAGE_RW_HEAP_PAGES = 64
PAGE_SIZE = 4096


class CheckFailed(Exception):
    """An op's output disagreed with the benchmark's expectation."""


@dataclasses.dataclass
class Spec:
    """One generated op: which kind, on which worker, with what inputs."""

    kind: str
    worker: int = 0
    args: dict[str, Any] = dataclasses.field(default_factory=dict)


class _QuoteLedger:
    """Quotes awaiting CA verification, checked in bounded chunks.

    ``plant`` flips the expected report data of the first quote checked,
    which the self-check uses to prove a wrong quote fails the run.
    """

    def __init__(self, ca, plant: bool = False) -> None:
        self.ca = ca
        self.pending: list[tuple[Any, bytes, bytes]] = []
        self.plant = plant

    def add(self, quote, report_data: bytes, measurement: bytes) -> None:
        self.pending.append((quote, report_data, measurement))
        if len(self.pending) >= QUOTE_CHUNK:
            self.flush()

    def flush(self) -> None:
        pending, self.pending = self.pending, []
        for quote, report_data, measurement in pending:
            if self.plant:
                report_data = bytes([report_data[0] ^ 1]) + report_data[1:]
                self.plant = False
            if not self.ca.verify_quote(quote, measurement):
                raise CheckFailed("quote failed CA verification")
            if quote.enclave.report_data != report_data:
                raise CheckFailed("quote report_data does not match")


class _Strata:
    """Stratified draws: each block of ``len(values)`` draws is a shuffle.

    A round's composition (op kinds, size classes) then barely depends on
    the seed; the seed still sets the order and the exact values. Without
    it, one seed's extra large launches would read as a slowdown.
    """

    def __init__(self, rng: random.Random, values) -> None:
        self.rng = rng
        self.values = list(values)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = self.values[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()

    def draw_int(self, low: int, high: int) -> int:
        """An int in [low, high]; ``values`` are the bin indices."""
        width = (high - low + 1) / len(self.values)
        return low + int((self.draw() + self.rng.random()) * width)


class Workload:
    """Base: the model-level totals every workload pins exactly."""

    name = ""
    #: Name of the input streams (``serve_sanitized`` reuses serve_mix's).
    inputs = ""
    #: Ops in one round: a fresh platform driven through ``round_ops``
    #: ops generated for that round. A round's modelled totals must
    #: repeat exactly for its seed; ``--trace 1`` traces round 0.
    round_ops = 0

    def __init__(self, seed: int, plant: str | None = None) -> None:
        self.seed = seed
        self.plant = plant

    def _rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.inputs}:{stream}:{self.seed}")

    def setup(self) -> dict[str, Any]:
        raise NotImplementedError

    def specs(self, round_index: int) -> Iterator[Spec]:
        """The op inputs of one round; each round has its own stream."""
        raise NotImplementedError

    def run_op(self, ctx: dict[str, Any], spec: Spec) -> Any:
        raise NotImplementedError

    def check(self, ctx: dict[str, Any], spec: Spec, outcome: Any) -> None:
        """Default: ops with no output to check."""

    def finish(self, ctx: dict[str, Any]) -> None:
        """Verify whatever was deferred (pending quotes)."""
        ledger = ctx.get("quotes")
        if ledger is not None:
            ledger.flush()

    def model_totals(self, ctx: dict[str, Any]) -> dict[str, Any]:
        """Modelled quantities; they must repeat exactly for one seed."""
        tee = ctx["tee"]
        system = tee.system
        return {
            "requests_served": system.ems_requests_served(),
            "primitive_cycles": tee.primitive_cycles,
            "per_shard_served": [r.stats.served for r in system.ems_runtimes],
            "service_cycles": sum(r.stats.total_service_cycles
                                  for r in system.ems_runtimes),
        }


# -- serve_mix / serve_sanitized ----------------------------------------------


class _Worker:
    def __init__(self, index: int) -> None:
        self.index = index
        self.enclave = None
        self.vaddrs: list[int] = []


class ServeMix(Workload):
    """The serve phase cycle over the facade, 3 workers on 4 EMS shards."""

    name = inputs = "serve_mix"
    round_ops = 300
    sanitizers: tuple[str, ...] = ()

    def setup(self) -> dict[str, Any]:
        # One CS core per worker: an entered enclave pins its core.
        tee = api.HyperTEE(SystemConfig(seed=PLATFORM_SEED,
                                        ems_shards=SERVE_SHARDS,
                                        cs_cores=SERVE_WORKERS))
        tee.system.enable_observability()
        if self.sanitizers:
            tee.system.enable_sanitizers(self.sanitizers)
        # Lazy set-up finishes before timing: each shard's first response
        # carries the TLB shootdown of its whole initial pool, so launch
        # (and destroy) tiny enclaves until every shard has served one.
        warm = []
        while not all(r.stats.served for r in tee.system.ems_runtimes):
            warm.append(tee.launch_enclave(b"warm-up"))
        for enclave in warm:
            enclave.destroy()
        return {
            "tee": tee,
            "workers": [_Worker(i) for i in range(SERVE_WORKERS)],
            "quotes": _QuoteLedger(tee.system.certificate_authority(),
                                   plant=self.plant == "quote"),
            "planted_readback": self.plant == "readback",
        }

    def specs(self, round_index: int) -> Iterator[Spec]:
        rng = self._rng(f"ops{round_index}")
        workers = _Strata(rng, range(SERVE_WORKERS))
        code_size = _Strata(rng, range(8))
        pages = _Strata(rng, (1, 2, 3, 4))
        batch_len = _Strata(rng, (2, 3, 4))
        phase = [0] * SERVE_WORKERS
        generation = [0] * SERVE_WORKERS
        steps = 0
        while True:
            worker = workers.draw()
            name = SERVE_PHASES[phase[worker]]
            if name == "transfer" and generation[worker] % TRANSFER_EVERY:
                phase[worker] += 1
                name = SERVE_PHASES[phase[worker]]
            args: dict[str, Any] = {}
            if name == "launch":
                args["code"] = rng.randbytes(code_size.draw_int(600, 9000))
            elif name == "memory":
                args["pages"] = pages.draw()
                args["payload"] = rng.randbytes(rng.randint(8, 64))
            elif name == "batch":
                args["counts"] = [rng.randint(1, 3)
                                  for _ in range(batch_len.draw())]
            elif name == "attest":
                args["report_data"] = rng.randbytes(16)
            elif name == "destroy":
                generation[worker] += 1
            phase[worker] = (phase[worker] + 1) % len(SERVE_PHASES)
            yield Spec(name, worker, args)
            steps += 1
            if steps % EWB_EVERY == 0:
                yield Spec("ewb")

    def run_op(self, ctx: dict[str, Any], spec: Spec) -> Any:
        tee = ctx["tee"]
        if spec.kind == "ewb":
            return tee.invoke_os(api.Primitive.EWB, {"pages": 1})
        worker = ctx["workers"][spec.worker]
        enclave = worker.enclave
        kind = spec.kind
        if kind == "launch":
            worker.enclave = tee.launch_enclave_batched(
                spec.args["code"],
                EnclaveConfig(name=f"serve-w{worker.index}",
                              heap_pages_max=64),
                core=tee.system.cores[worker.index])
        elif kind == "enter":
            enclave.enter()
        elif kind == "memory":
            vaddr = enclave.ealloc(spec.args["pages"])
            payload = spec.args["payload"]
            enclave.write(vaddr, payload)
            worker.vaddrs.append(vaddr)
            return enclave.read(vaddr, len(payload))
        elif kind == "batch":
            enclave.efree_many(enclave.ealloc_many(spec.args["counts"],
                                                   api.Permission.RW))
            for vaddr in worker.vaddrs:
                enclave.efree(vaddr)
            worker.vaddrs = []
        elif kind == "attest":
            return enclave.attest(report_data=spec.args["report_data"])
        elif kind == "exit":
            enclave.exit()
        elif kind == "transfer":
            pool = tee.system.shard_pool
            eid = enclave.enclave_id
            pool.transfer_enclave(eid, (pool.resolve(eid) + 1)
                                  % pool.num_shards)
        elif kind == "destroy":
            enclave.destroy()
            worker.enclave = None
        return None

    def check(self, ctx: dict[str, Any], spec: Spec, outcome: Any) -> None:
        if spec.kind == "memory":
            expected = spec.args["payload"]
            if ctx["planted_readback"]:
                expected = b"\xff" + expected[1:]
                ctx["planted_readback"] = False
            if outcome != expected:
                raise CheckFailed("serve readback mismatch")
        elif spec.kind == "attest":
            enclave = ctx["workers"][spec.worker].enclave
            ctx["quotes"].add(outcome, spec.args["report_data"],
                              enclave.measurement)


class ServeSanitized(ServeMix):
    """serve_mix, same inputs, with teesan ``secret`` and ``own``."""

    name = "serve_sanitized"
    sanitizers = ("secret", "own")

    def setup(self) -> dict[str, Any]:
        ctx = super().setup()
        if self.plant == "san":
            ctx["tee"].system.san.report_violation(
                "own", "PLANTED", "planted by the benchmark self-check")
        return ctx

    def finish(self, ctx: dict[str, Any]) -> None:
        super().finish(ctx)
        san = ctx["tee"].system.san
        if not san.ok():
            raise CheckFailed("teesan reported violations:\n"
                              + san.report_text())


# -- gate_storm ---------------------------------------------------------------


class GateStorm(Workload):
    """enter -> attest -> exit rounds on 3 resident enclaves, 4 shards."""

    name = inputs = "gate_storm"
    round_ops = 2000

    def setup(self) -> dict[str, Any]:
        tee = api.HyperTEE(SystemConfig(seed=PLATFORM_SEED,
                                        ems_shards=SERVE_SHARDS,
                                        cs_cores=GATE_ENCLAVES))
        tee.system.enable_observability()
        code = self._rng("setup")
        enclaves = [tee.launch_enclave_batched(
            code.randbytes(4096), EnclaveConfig(name=f"gate{i}"),
            core=tee.system.cores[i]) for i in range(GATE_ENCLAVES)]
        return {
            "tee": tee,
            "enclaves": enclaves,
            "quotes": _QuoteLedger(tee.system.certificate_authority(),
                                   plant=self.plant == "quote"),
        }

    def specs(self, round_index: int) -> Iterator[Spec]:
        rng = self._rng(f"ops{round_index}")
        enclaves = _Strata(rng, range(GATE_ENCLAVES))
        while True:
            yield Spec("round", enclaves.draw(),
                       {"report_data": rng.randbytes(16)})

    def run_op(self, ctx: dict[str, Any], spec: Spec) -> Any:
        enclave = ctx["enclaves"][spec.worker]
        enclave.enter()
        quote = enclave.attest(report_data=spec.args["report_data"])
        enclave.exit()
        return quote

    def check(self, ctx: dict[str, Any], spec: Spec, outcome: Any) -> None:
        ctx["quotes"].add(outcome, spec.args["report_data"],
                          ctx["enclaves"][spec.worker].measurement)


# -- page_rw ------------------------------------------------------------------


class PageRW(Workload):
    """Seeded 8 B-4 KiB reads and writes over a 64-page enclave heap."""

    name = inputs = "page_rw"
    round_ops = 1500

    def setup(self) -> dict[str, Any]:
        # Single-EMS default platform: obs, faults, sanitizers detached.
        tee = api.HyperTEE(SystemConfig(seed=PLATFORM_SEED))
        enclave = tee.launch_enclave_batched(
            self._rng("setup").randbytes(4096),
            EnclaveConfig(name="page-rw",
                          heap_pages_max=PAGE_RW_HEAP_PAGES))
        enclave.enter()
        heap = enclave.ealloc(PAGE_RW_HEAP_PAGES)
        # Freshly allocated heap reads as zeros; this is the shadow copy
        # every read is compared against.
        shadow = bytearray(PAGE_RW_HEAP_PAGES * PAGE_SIZE)
        if self.plant == "shadow":
            shadow[:] = b"\x01" * len(shadow)
        return {"tee": tee, "enclave": enclave, "heap": heap,
                "shadow": shadow}

    def specs(self, round_index: int) -> Iterator[Spec]:
        rng = self._rng(f"ops{round_index}")
        kinds = _Strata(rng, ("read", "write"))
        lengths = _Strata(rng, range(16))
        while True:
            kind = kinds.draw()
            length = lengths.draw_int(8, PAGE_SIZE)
            # An access stays inside one page (CSCore.load/store contract).
            offset = (rng.randrange(PAGE_RW_HEAP_PAGES) * PAGE_SIZE
                      + rng.randrange(PAGE_SIZE - length + 1))
            if kind == "write":
                yield Spec("write", args={"offset": offset,
                                          "data": rng.randbytes(length)})
            else:
                yield Spec("read", args={"offset": offset,
                                         "length": length})

    def run_op(self, ctx: dict[str, Any], spec: Spec) -> Any:
        vaddr = ctx["heap"] + spec.args["offset"]
        if spec.kind == "write":
            ctx["enclave"].write(vaddr, spec.args["data"])
            return None
        return ctx["enclave"].read(vaddr, spec.args["length"])

    def check(self, ctx: dict[str, Any], spec: Spec, outcome: Any) -> None:
        offset = spec.args["offset"]
        shadow = ctx["shadow"]
        if spec.kind == "write":
            data = spec.args["data"]
            shadow[offset:offset + len(data)] = data
        elif outcome != shadow[offset:offset + spec.args["length"]]:
            raise CheckFailed(f"page_rw read at heap+{offset:#x} differs "
                              "from the shadow copy")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeMix, GateStorm, PageRW, ServeSanitized)}
