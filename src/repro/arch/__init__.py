"""Hardware-assisted security architectures (Section 3 of the paper).

Each module configures a simulated :class:`~repro.cpu.soc.SoC` the way the
real architecture configures real silicon: which bus controllers exist,
who owns the page tables, what the cache hierarchy does on enclave
switches, where attestation keys live.  The common interface in
:mod:`repro.arch.base` is what the attack suite and the comparison engine
drive.

========== ============================ ==================================
module     architecture                 defining mechanism modelled
========== ============================ ==================================
sgx        Intel SGX [16]               EPC + MEE, OS-managed paging,
                                        secure page swap, attestation keys
sanctum    Sanctum [11]                 monitor-owned paging, LLC page
                                        colouring, DMA filter
trustzone  ARM TrustZone [2]            two worlds, TZASC, monitor,
                                        secure boot, peripheral channels
sanctuary  Sanctuary [7]                core-isolated user-space enclaves,
                                        cache exclusion
smart      SMART [12]                   ROM + PC-gated key, interrupt
                                        discipline, cleanup
sancus     Sancus [33]                  zero-software TCB (HW HMAC engine)
trustlite  TrustLite [26]               Secure Loader + locked EA-MPU
tytan      TyTAN [6]                    TrustLite + secure boot/storage,
                                        real-time capable
========== ============================ ==================================
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AESVictim": "base",
    "ALL_ARCHITECTURES": "catalog",
    "ArchFeatures": "base",
    "EnclaveHandle": "base",
    "SGX": "sgx",
    "SMART": "smart",
    "Sanctuary": "sanctuary",
    "Sanctum": "sanctum",
    "Sancus": "sancus",
    "SecurityArchitecture": "base",
    "TrustLite": "trustlite",
    "TrustZone": "trustzone",
    "TyTAN": "tytan",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
