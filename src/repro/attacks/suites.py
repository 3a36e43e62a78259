"""Per-adversary attack suites as pickling-safe module functions.

These used to be methods on ``EvaluationMatrix``; they live here so a
``ProcessPoolExecutor`` worker can run any ``(platform, category)`` cell
by reference — a suite is a pure function of ``(arch, rng, knobs)`` with
no instance state behind it.  Each cell passes its *own* independently
seeded RNG (see :mod:`repro.runner.seeding`), so no suite can perturb
another's stream.

The remote and local suites need only :mod:`repro.attacks.software`,
which this module imports.  The microarchitectural and physical suites
import their attack, cipher, power and CPA modules (numpy among them)
when they run, so a service worker draining remote/local cells never
loads them.  :mod:`repro.core.matrix` loads them up front instead: a
Figure 1 run executes every suite and pays for them at setup.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import repro.obs as obs
from repro.arch.null import NullArchitecture
from repro.attacks.base import AttackCategory, AttackResult, AttackerProcess
from repro.attacks.software import (
    CodeInjectionAttack,
    DMAAttack,
    KernelMemoryProbeAttack,
)
from repro.crypto.rng import XorShiftRNG


@dataclass(frozen=True)
class MatrixKnobs:
    """Attack sizing; quick mode keeps the matrix fast for tests.

    ``fr_samples`` is 12 even in quick mode: at 8, Flush+Reload's byte
    vote is marginal and roughly 2% of ``(seed, platform)`` pairs
    measured 0.5 instead of 1.0 — the grid must be seed-invariant.
    """

    secret_len: int = 4
    traces: int = 300
    fr_samples: int = 12
    fr_values: int = 8
    rsa_bits: int = 64
    timing_samples: int = 600
    timing_bits: int = 8

    @classmethod
    def quick(cls) -> "MatrixKnobs":
        return cls()

    @classmethod
    def full(cls) -> "MatrixKnobs":
        return cls(secret_len=8, traces=1000, fr_samples=12, fr_values=8,
                   rsa_bits=96, timing_samples=1200, timing_bits=16)

    def as_key(self) -> tuple[tuple[str, int], ...]:
        """Canonical, hashable, picklable form (cache-key material)."""
        return tuple(sorted((f.name, getattr(self, f.name))
                            for f in fields(self)))

    @classmethod
    def from_key(cls, key: tuple[tuple[str, int], ...]) -> "MatrixKnobs":
        """Inverse of :meth:`as_key`; raises ``ValueError`` naming any
        knob this class does not define."""
        values = dict(key)
        unknown = sorted(set(values) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown matrix knob(s): {', '.join(unknown)}")
        return cls(**values)


def remote_suite(arch: NullArchitecture, rng: XorShiftRNG,
                 knobs: MatrixKnobs) -> list[AttackResult]:
    with obs.span("attack:code-injection", cat="attack"):
        return [CodeInjectionAttack(arch).run()]


def local_suite(arch: NullArchitecture, rng: XorShiftRNG,
                knobs: MatrixKnobs) -> list[AttackResult]:
    dram = arch.soc.regions.get("dram")
    secret_paddr = dram.base + dram.size // 2 - 0x8000
    secret = rng.bytes(8)
    arch.soc.memory.write_bytes(secret_paddr, secret)
    with obs.span("attack:kernel-memory-probe", cat="attack"):
        probe = KernelMemoryProbeAttack(arch, secret_paddr=secret_paddr,
                                        secret_value=secret).run()
    with obs.span("attack:dma", cat="attack"):
        dma = DMAAttack(arch, secret_paddr, expected=secret).run()
    return [probe, dma]


def microarch_suite(arch: NullArchitecture, rng: XorShiftRNG,
                    knobs: MatrixKnobs,
                    batch: bool = True) -> list[AttackResult]:
    """The Flush+Reload cell runs through the batched attack kernels
    (:mod:`repro.attacks.batch`): results, RNG streams and SoC end state
    are bit-identical to the scalar attack, with automatic scalar
    fallback for configurations the kernels don't cover.  ``batch=False``
    reaches the scalar reference attack (the differential suite's
    oracle switch)."""
    from repro.attacks.cache_sca import (
        FlushReloadAttack,
        SharedAESService,
        _CacheAttackConfig,
    )
    from repro.attacks.meltdown import MeltdownAttack
    from repro.attacks.spectre import SpectreV1Attack

    soc = arch.soc
    secret = bytes(0x41 + rng.next_below(26)
                   for _ in range(knobs.secret_len))
    with obs.span("attack:spectre-v1", cat="attack"):
        results = [SpectreV1Attack(soc, secret, rng=rng).run()]
    with obs.span("attack:meltdown", cat="attack"):
        results.append(MeltdownAttack(soc, secret).run())
    service = SharedAESService(soc, rng.bytes(16), core_id=0)
    attacker_core = min(1, len(soc.cores) - 1)
    attacker = AttackerProcess(arch, core_id=attacker_core)
    config = _CacheAttackConfig(
        samples_per_value=knobs.fr_samples,
        plaintext_values=knobs.fr_values,
        target_bytes=(0, 5))
    with obs.span("attack:flush-reload", cat="attack",
                  samples=knobs.fr_samples, values=knobs.fr_values):
        results.append(FlushReloadAttack(service, attacker, rng,
                                         config, batch=batch).run())
    return results


def physical_suite(arch: NullArchitecture, rng: XorShiftRNG,
                   knobs: MatrixKnobs,
                   batch: bool = True) -> list[AttackResult]:
    """``batch`` is the oracle switch as in :func:`microarch_suite`; it
    selects the batched or the scalar Kocher timing attack."""
    from repro.attacks.dpa import cpa_recover_key, key_recovery_rate
    from repro.attacks.fault_attacks import BellcoreRSAAttack
    from repro.attacks.timing import KocherTimingAttack
    from repro.crypto.aes import AES128
    from repro.crypto.rsa import RSA, generate_rsa_key
    from repro.power.instrument import capture_aes_traces
    from repro.power.leakage import HammingWeightModel

    # Power: CPA on an unprotected AES running on the device.  Acquisition
    # is batched (bit-identical to the scalar reference; repro.power.diff
    # proves it), so the cell's payload digest is unchanged.
    aes_key = rng.bytes(16)
    traces = capture_aes_traces(
        lambda leak: AES128(aes_key, leak_hook=leak), knobs.traces,
        HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(rng.next_u64())),
        rng=XorShiftRNG(rng.next_u64()), batch=True)
    with obs.span("attack:cpa-power", cat="attack", traces=knobs.traces):
        rate = key_recovery_rate(cpa_recover_key(traces), aes_key)
    cpa_result = AttackResult(
        name="cpa-power", category=AttackCategory.PHYSICAL,
        success=rate >= 0.9, score=rate,
        details={"traces": knobs.traces})
    # Faults: Bellcore on an unprotected CRT signer.
    rsa_key = generate_rsa_key(knobs.rsa_bits,
                               XorShiftRNG(rng.next_u64()))
    with obs.span("attack:bellcore-rsa", cat="attack",
                  rsa_bits=knobs.rsa_bits):
        bellcore = BellcoreRSAAttack(RSA(rsa_key),
                                     rng=XorShiftRNG(rng.next_u64())).run()
    # Timing: Kocher against square-and-multiply.
    with obs.span("attack:kocher-timing", cat="attack",
                  samples=knobs.timing_samples):
        timing = KocherTimingAttack(
            RSA(rsa_key), samples=knobs.timing_samples,
            max_bits=knobs.timing_bits,
            rng=XorShiftRNG(rng.next_u64()), batch=batch).run()
    return [cpa_result, bellcore, timing]


#: What :func:`microarch_suite` and :func:`physical_suite` import when
#: they run, themselves or through the attacks they run.
#: :mod:`repro.core.matrix` loads these up front;
#: ``tests/test_import_footprint.py`` checks that running the quick
#: matrix then loads nothing further.
SUITE_MODULES = (
    "repro.attacks.batch",
    "repro.attacks.cache_sca",
    "repro.attacks.dpa",
    "repro.attacks.fault_attacks",
    "repro.attacks.meltdown",
    "repro.attacks.spectre",
    "repro.attacks.timing",
    "repro.crypto.aes",
    "repro.crypto.rsa",
    "repro.power.instrument",
    "repro.power.leakage",
)

#: Suite entry point per adversary category, in Figure 1 row order.
SUITES = {
    AttackCategory.REMOTE: remote_suite,
    AttackCategory.LOCAL: local_suite,
    AttackCategory.MICROARCHITECTURAL: microarch_suite,
    AttackCategory.PHYSICAL: physical_suite,
}

#: PlatformProfile attribute holding the category's exposure prior.
PRIOR_ATTRS = {
    AttackCategory.MICROARCHITECTURAL: "co_residency_prior",
    AttackCategory.PHYSICAL: "physical_access_prior",
}
