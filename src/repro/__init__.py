"""repro: a simulation framework reproducing "In Hardware We Trust:
Gains and Pains of Hardware-assisted Security" (Batina et al., DAC 2019).

The paper is a survey; this library builds every system it surveys —
simulated SoCs spanning server/mobile/embedded platform classes, eight
hardware-assisted security architectures, and the full attack spectrum
(software, cache side-channel, transient-execution, classical physical) —
and regenerates the paper's comparisons from actual experiment outcomes.

Quick start::

    from repro.cpu import make_server_soc
    from repro.arch import SGX
    from repro.attacks import ForeshadowAttack

    sgx = SGX(make_server_soc())
    victim = sgx.deploy_aes_victim(bytes(range(16)))
    print(ForeshadowAttack(sgx, victim.handle).run())
"""

__version__ = "1.10.0"

__all__ = [
    "arch",
    "attacks",
    "attestation",
    "cache",
    "common",
    "core",
    "cpu",
    "crypto",
    "errors",
    "fault",
    "isa",
    "memory",
    "obs",
    "power",
    "runner",
    "service",
    "spec",
]
