"""The assembled HyperTEE SoC (paper Fig. 1 / Fig. 4).

:class:`HyperTEESystem` builds and boots a complete platform:

1. physical memory with the multi-key encryption engine on its bus;
2. the boot-time address partition (CS region / EMS-private region) and
   the iHub enforcing unidirectional isolation, with the mailbox;
3. the enclave bitmap in protected CS memory;
4. manufacturing (eFuse roots, provisioned flash/EEPROM) and the secure
   boot chain, yielding the platform measurement;
5. the CS OS, CS cores (each with TLB + bitmap-checking PTW), and the
   EMCall firmware holding the only CS-side mailbox port;
6. the EMS: pool, ownership, key manager, lifecycle, page/swap/shm
   managers, attestation, sealing, and the runtime dispatcher.

Everything downstream (SDK, examples, benches, attacks) builds a system
through this class.
"""

from __future__ import annotations

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.common.rng import DeterministicRng
from repro.core.config import SystemConfig
from repro.crypto.engine import ENGINE_CRYPTO, SOFTWARE_CRYPTO, CryptoEngine
from repro.cs.cpu import CSCore
from repro.cs.emcall import EMCall
from repro.cs.os import CSOperatingSystem
from repro.ems import boot as secure_boot_mod
from repro.ems.attestation import AttestationService, CertificateAuthority
from repro.ems.key_mgmt import KeyManager
from repro.ems.lifecycle import EnclaveManager
from repro.ems.memory_pool import EnclaveMemoryPool
from repro.ems.ownership import PageOwnershipTable
from repro.ems.page_mgmt import PageManager
from repro.ems.runtime import EMSRuntime
from repro.ems.sealing import SealingService
from repro.ems.shardpool import EMSShard
from repro.ems.shared_memory import SharedMemoryManager
from repro.ems.swapping import SwapManager
from repro.hw.bitmap import BitmapReader, EnclaveBitmap
from repro.hw.core import CS_CORE, ems_config
from repro.hw.devices import EEPROM, EFuse, PrivateFlash
from repro.hw.encryption_engine import MemoryEncryptionEngine
from repro.hw.fabric import AddressPartition, IHub
from repro.hw.iommu import IOMMU
from repro.hw.mailbox import Mailbox
from repro.hw.memory import PhysicalMemory

#: Frames reserved at the bottom of CS memory for EMCall firmware.
FIRMWARE_FRAMES = 16

#: Stand-in software images for the boot chain.
_RUNTIME_IMAGE = b"ems-runtime-rust-image-v1" * 64
_EMCALL_IMAGE = b"emcall-m-mode-firmware-v1" * 32


class HyperTEESystem:
    """One booted HyperTEE platform."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config if config is not None else SystemConfig()
        cfg = self.config
        self.rng = DeterministicRng(cfg.seed)

        # -- memory, engine, partition, iHub ---------------------------------
        cs_bytes = cfg.cs_memory_mb * 1024 * 1024
        ems_bytes = cfg.ems_memory_mb * 1024 * 1024
        self.memory = PhysicalMemory(cs_bytes + ems_bytes)
        if cfg.engine == "fast":
            from repro.core.fastkernel import FastMemoryEncryptionEngine

            self.engine = FastMemoryEncryptionEngine(
                integrity_enabled=cfg.integrity,
                num_frames=self.memory.num_frames)
        else:
            self.engine = MemoryEncryptionEngine(
                integrity_enabled=cfg.integrity)
        self.memory.encryption_engine = self.engine
        self.partition = AddressPartition(
            cs_base=0, cs_size=cs_bytes, ems_base=cs_bytes, ems_size=ems_bytes)
        self.mailbox = Mailbox()
        self.ihub = IHub(self.partition, self.mailbox)

        # -- enclave bitmap in protected CS memory -----------------------------
        bitmap_base = FIRMWARE_FRAMES * PAGE_SIZE
        self.bitmap = EnclaveBitmap(self.memory, bitmap_base)
        bitmap_frames = (self.bitmap.size_bytes + PAGE_SIZE - 1) // PAGE_SIZE
        first_free = FIRMWARE_FRAMES + bitmap_frames

        # -- manufacturing + secure boot -----------------------------------------
        self.efuse = EFuse()
        self.efuse.burn("EK", self.rng.randbytes(32, stream="efuse"))
        self.efuse.burn("SK", self.rng.randbytes(32, stream="efuse"))
        self.efuse.lock()
        self.flash = PrivateFlash()
        self.eeprom = EEPROM()
        secure_boot_mod.provision(self.efuse, self.flash, self.eeprom,
                                  _RUNTIME_IMAGE, _EMCALL_IMAGE)
        self.boot_report = secure_boot_mod.secure_boot(
            self.efuse, self.flash, self.eeprom)

        # -- CS side ------------------------------------------------------------------
        self.os = CSOperatingSystem(
            self.memory, first_free_frame=first_free,
            frame_limit=cs_bytes >> PAGE_SHIFT)
        reader = BitmapReader(self.bitmap) if cfg.bitmap_checking else None
        self.cores = [CSCore(i, self.memory, self.ihub, reader, CS_CORE)
                      for i in range(cfg.cs_cores)]
        if cfg.engine == "fast":
            from repro.core.fastkernel import FastEMCall

            self.emcall = FastEMCall(self.mailbox, self.rng, self.cores)
        else:
            self.emcall = EMCall(self.mailbox, self.rng, self.cores)

        # -- EMS side ------------------------------------------------------------------
        profile = ENGINE_CRYPTO if cfg.crypto == "engine" else SOFTWARE_CRYPTO
        self.crypto = CryptoEngine(profile)
        self.keys = KeyManager(self.efuse, self.engine, self.rng)
        self.iommu = IOMMU()
        self.sealing = SealingService(self.keys, self.rng)
        #: Every EMS on the platform, shard 0 first; one entry on a
        #: single-EMS system. Shard 0's components are also reachable
        #: as ``pool``, ``ownership``, ``enclaves``, ``pages``, ``swap``,
        #: ``shm``, ``attestation`` and ``ems`` (its runtime).
        primary = self._build_shard(0, self.mailbox)
        self.shards = [primary]
        self.pool = primary.pool
        self.ownership = primary.ownership
        self.enclaves = primary.enclaves
        self.pages = primary.pages
        self.swap = primary.swap
        self.shm = primary.shm
        self.attestation = primary.attestation
        self.ems = primary.runtime
        self.emcall.attach_ems(self.ems.pump)
        if cfg.engine == "fast":
            # The short-circuit path dispatches into the runtime directly;
            # the pump stays attached for the delegated degraded paths.
            self.emcall.attach_runtime(self.ems)

        # Section IX extensions: VM-level TEE, CFI monitoring, and the
        # Varys-style interrupt anomaly detector.
        from repro.cvm.manager import CVMManager
        from repro.ems.cfi import CFIMonitor
        from repro.ems.monitor import InterruptAnomalyDetector

        self.cvm = CVMManager(self.enclaves, self.keys, self.attestation,
                              self.memory, self.crypto, self.rng)
        self.cfi = CFIMonitor(self.enclaves)
        self.interrupt_monitor = InterruptAnomalyDetector(self.enclaves)
        self.emcall.attach_interrupt_observer(self.interrupt_monitor.observe)

        # -- multi-EMS scale-out (docs/scale_out.md) ---------------------------
        #: The shard fleet coordinator; None on a single-EMS system. With
        #: ems_shards == 1 nothing below runs, so construction (and every
        #: RNG draw in it) is bit-identical to the pre-shard platform.
        self.shard_pool = None
        if cfg.ems_shards > 1:
            self._build_shards(cfg)

        # -- observability (out-of-band; see docs/observability.md) -----------
        from repro.obs.probes import Observability

        self.obs = Observability()
        #: Fault injector; None until enable_fault_injection() is called.
        self.faults = None
        #: teesan sanitizer manager; None until enable_sanitizers().
        self.san = None
        self._register_stats_sources()

    def _build_shard(self, index: int, mailbox: Mailbox) -> EMSShard:
        """Build one EMS's management-software state behind ``mailbox``.

        Each shard owns its pool, ownership table, lifecycle, page/swap/
        shm managers, attestation service and runtime; platform hardware
        — memory, the encryption engine, the key manager, the bitmap,
        the CS OS — stays shared.
        """
        cfg = self.config
        pool = EnclaveMemoryPool(
            self.os, self.memory, self.rng, bitmap=self.bitmap,
            initial_pages=cfg.pool_initial_pages)
        ownership = PageOwnershipTable()
        enclaves = EnclaveManager(
            self.memory, pool, ownership, self.bitmap,
            self.keys, self.crypto, self.rng)
        pages = PageManager(enclaves)
        swap = SwapManager(pool, self.keys, self.crypto, self.rng)
        shm = SharedMemoryManager(enclaves, self.keys, self.ihub,
                                  iommu=self.iommu)
        attestation = AttestationService(enclaves, self.keys, self.crypto)
        attestation.set_platform_measurement(
            self.boot_report.platform_measurement)
        runtime = EMSRuntime(
            mailbox, ems_config(cfg.ems_core),
            enclaves, pages, swap, shm, attestation, self.rng,
            num_cores=cfg.ems_cores, fabric_probe=self.ihub.probe)
        return EMSShard(
            index, mailbox=mailbox, pool=pool, ownership=ownership,
            enclaves=enclaves, pages=pages, swap=swap, shm=shm,
            attestation=attestation, runtime=runtime)

    def _build_shards(self, cfg: SystemConfig) -> None:
        """Grow the booted single-EMS platform into a shard fleet.

        Shard 0 is the EMS built at boot, so its state matches a
        single-EMS system exactly. Each additional shard gets its own
        mailbox on the fabric (see :meth:`_build_shard`), and the
        CS-side gate becomes a :class:`ShardedEMCall` routing on
        enclave IDs.
        """
        from repro.cs.emcall import ShardedEMCall
        from repro.ems.shardpool import ShardPool

        gates = [self.emcall]
        for index in range(1, cfg.ems_shards):
            mailbox = Mailbox()
            self.ihub.register_shard_mailbox(mailbox)
            shard = self._build_shard(index, mailbox)
            self.shards.append(shard)
            if cfg.engine == "fast":
                from repro.core.fastkernel import FastEMCall

                gate = FastEMCall(mailbox, self.rng, self.cores)
                gate.attach_runtime(shard.runtime)
            else:
                gate = EMCall(mailbox, self.rng, self.cores)
            gate.attach_interrupt_observer(self.interrupt_monitor.observe)
            gates.append(gate)

        self.shard_pool = ShardPool(self.shards, self.sealing)
        # Every gate's retry pump goes through its shard's wrapper so
        # shard outages (ems.shard.fail) land on the right runtime.
        for gate, shard in zip(gates, self.shards):
            gate.attach_ems(shard.pump)
        self.emcall = ShardedEMCall(gates, self.cores)
        self.emcall.attach_shard_router(self.shard_pool.place_ecreate,
                                        self.shard_pool.resolve)

    def _register_stats_sources(self) -> None:
        """Federate the per-subsystem ``*Stats`` into the registry.

        Pull-based: the registry stores readers over the live dataclasses,
        so nothing is duplicated and ``stats_summary()`` becomes a
        registry snapshot with the same schema as before.
        """
        from repro.obs.metrics import stats_asdict

        reg = self.obs.metrics
        reg.register_source("ems", lambda: stats_asdict(self.ems.stats))
        reg.register_source("mailbox", lambda: stats_asdict(self.mailbox.stats))
        reg.register_source("fabric", lambda: stats_asdict(self.ihub.stats))
        reg.register_source("pool", lambda: stats_asdict(self.pool.stats))
        reg.register_source(
            "emcall",
            lambda: {"bitmap_flushes": self.emcall.bitmap_flush_count})
        reg.register_source(
            "tlb",
            lambda: {f"core{core.core_id}": stats_asdict(core.tlb.stats)
                     for core in self.cores})
        reg.register_source(
            "interrupts", lambda: stats_asdict(self.interrupt_monitor.stats))

        from repro.faults.injector import FaultStats

        reg.register_source(
            "faults",
            lambda: stats_asdict(self.faults.stats if self.faults is not None
                                 else FaultStats()))

        if self.shard_pool is not None:
            # Only multi-EMS systems grow the summary schema; the default
            # key set stays pinned (tests/core/test_stats.py).
            reg.register_source("shards", self.shard_pool.stats_summary)

    def enable_observability(self) -> "HyperTEESystem":
        """Attach the probe points and turn on tracing.

        Off by default so the probes cost nothing; when on, they stay
        out-of-band — no modelled cycle count or attacker-visible state
        changes (regression-tested by tests/obs/test_noninterference.py).
        Returns self for chaining.
        """
        self.obs.enable()
        self.emcall.obs = self.obs
        self.crypto.obs = self.obs
        self.os.obs = self.obs
        for core in self.cores:
            core.tlb.obs = self.obs
            core.ptw.obs = self.obs
        for shard in self.shards:
            shard.mailbox.obs = self.obs
            shard.runtime.obs = self.obs
            shard.pool.obs = self.obs
            shard.swap.obs = self.obs
        if self.shard_pool is not None:
            self.shard_pool.obs = self.obs
        return self

    def enable_fault_injection(self, plan) -> "HyperTEESystem":
        """Attach a deterministic fault injector driven by ``plan``.

        Wires the injector into every fault point: the mailbox queues
        (via the iHub, which owns the transfer path), the EMS runtime,
        and the EMCall gate. An empty plan is guaranteed non-interfering:
        cycle counts, stats, and attestation signatures stay bit-identical
        to a system without injection (tests/obs/test_noninterference.py).
        Returns self for chaining.
        """
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        if plan is None:
            plan = FaultPlan.empty()
        self.faults = FaultInjector(plan, obs=self.obs)
        self.ihub.attach_faults(self.faults)
        self.emcall.faults = self.faults
        for shard in self.shards:
            shard.runtime.faults = self.faults
        if self.shard_pool is not None:
            self.shard_pool.faults = self.faults
        return self

    def enable_sanitizers(
            self,
            sanitizers: tuple[str, ...] = ("secret", "own"),
    ) -> "HyperTEESystem":
        """Attach the teesan runtime sanitizers (docs/sanitizers.md).

        Off by default and observe-only, exactly like the ``obs`` and
        ``faults`` hooks: no modelled state, RNG draw, or cycle count
        changes — a sanitized run is bit-identical to an unsanitized one
        (tests/sanitize/test_noninterference.py). The manager is wired
        into every instrumented component, fleet-wide on sharded
        platforms, and the eFuse roots are registered as taint so every
        derived key is traceable from boot. Returns self for chaining.
        """
        from repro.common import codec
        from repro.sanitize.manager import SanitizerManager

        san = SanitizerManager(sanitizers, obs=self.obs)
        self.san = san
        self.memory.san = san
        self.engine.san = san
        self.keys.san = san
        self.sealing.san = san
        self.emcall.san = san
        self.crypto.san = san
        self.obs.flightrec.san = san
        codec.set_sanitizer(san)
        for shard in self.shards:
            shard.mailbox.san = san
            shard.pool.san = san
            shard.ownership.san = san
            shard.runtime.san = san
        if self.shard_pool is not None:
            self.shard_pool.san = san
        # The manufacturing roots are the taint sources everything else
        # derives from (EFuse.read stays readable after lock()).
        san.register_secret(self.efuse.read("EK"), "efuse-EK")
        san.register_secret(self.efuse.read("SK"), "efuse-SK")
        # Only sanitized systems grow the summary schema; the default
        # key set stays pinned (tests/core/test_stats.py).
        self.obs.metrics.register_source("sanitize", san.stats_snapshot)
        return self

    # -- conveniences ----------------------------------------------------------------------

    @property
    def primary_core(self) -> CSCore:
        return self.cores[0]

    @property
    def ems_runtimes(self) -> list[EMSRuntime]:
        """Every EMS runtime on the platform (one per shard)."""
        return [shard.runtime for shard in self.shards]

    def ems_requests_served(self) -> int:
        """Fleet-wide served-request count (shard-aware ``stats.served``)."""
        return sum(runtime.stats.served for runtime in self.ems_runtimes)

    def stats_summary(self) -> dict[str, dict]:
        """Aggregate counters from every subsystem, for diagnostics.

        Reads through the metrics registry's federated sources; the key
        schema is stable (tests/core/test_stats.py pins it).
        """
        return self.obs.metrics.federated_snapshot()

    def certificate_authority(self) -> CertificateAuthority:
        """The trusted CA's view of this device (remote-attestation side).

        Models the manufacturing-time registration of the device with the
        CA: the CA learns the platform key, the AK, and the golden
        platform measurement.
        """
        return CertificateAuthority(
            platform_key=self.keys.platform_signing_key(),
            attestation_key=self.keys.attestation_key(),
            expected_platform=self.boot_report.platform_measurement)
