"""Memory subsystem: physical memory, bus, paging/MMU, MPU, TZASC, DMA, MEE.

Everything a hardware-assisted security architecture hangs off lives here:

* :class:`PhysicalMemory` — byte-addressable backing store.
* :class:`SystemBus` — routes master transactions through pluggable access
  control (this is where TrustZone's TZASC, Sanctum's DMA filter and SMART's
  PC-gated key vault are enforced).
* :mod:`repro.memory.paging` / :class:`MMU` — radix page tables *stored in
  simulated physical memory* so an untrusted OS really can flip
  present/reserved bits (the Foreshadow precondition).
* :class:`MPU` / :class:`ExecutionAwareMPU` — embedded-class protection
  (TrustLite/TyTAN).
* :class:`DMAEngine` — a non-CPU bus master for DMA-attack experiments.
* :class:`MemoryEncryptionEngine` — SGX-style transparent encryption of a
  protected physical range.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "BusMaster": "bus",
    "BusTransaction": "bus",
    "DMAEngine": "dma",
    "DisturbanceModel": "disturbance",
    "ExecutionAwareMPU": "mpu",
    "KeyVault": "rom",
    "MMU": "mmu",
    "MPU": "mpu",
    "MPURegion": "mpu",
    "MemoryEncryptionEngine": "mee",
    "MemoryRegion": "regions",
    "PAGE_SIZE": "paging",
    "PageFlags": "paging",
    "PageTable": "paging",
    "Permissions": "regions",
    "PhysicalMemory": "phys",
    "ROMRegion": "rom",
    "ROW_SIZE": "disturbance",
    "RegionMap": "regions",
    "SystemBus": "bus",
    "TranslationResult": "mmu",
    "TrustZoneAddressSpaceController": "tzasc",
    "WorldState": "tzasc",
    "pte_pack": "paging",
    "pte_unpack": "paging",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
