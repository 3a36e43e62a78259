"""Lockstep differential harness: batched attack kernels vs scalar oracles.

The contract of :mod:`repro.attacks.batch` is **bit-identity**, the same
bar the CPU fast path (:mod:`repro.cpu.diff`) and the power instrument
(:mod:`repro.power.diff`) are held to: for any
attack configuration the kernel accepts, the batched and scalar paths
must produce

* the same :class:`~repro.attacks.base.AttackResult` (name, category,
  success, score, leaked material, details — recovered keys included);
* the same end state on the attack's RNG stream (the batched path must
  *consume* randomness exactly like the scalar loop);
* the same SoC end state: cache lines, tags, LRU stamps and per-level
  stats at every level, bus transaction count, per-core cycle/energy/
  domain state, the speculative cores' L1 views, the MMUs' identity
  caches, and the victim's encryption counter.

:func:`run_pair` builds two identically-seeded environments from one
immutable scenario, runs the scalar oracle on one and the batched kernel
on the other, and raises :class:`AttackDivergence` naming the first
mismatching observable.  ``tests/test_attack_differential.py`` drives
this with hypothesis across platforms, victims and configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.base import AES_TABLE_STRIDE
from repro.arch.null import NullArchitecture
from repro.attacks import batch
from repro.attacks.base import AttackerProcess
from repro.attacks.cache_sca import (
    EvictTimeAttack,
    FlushReloadAttack,
    PrimeProbeAttack,
    SharedAESService,
    _CacheAttackConfig,
)
from repro.attacks.timing import KocherTimingAttack
from repro.cache.partition import WayPartition
from repro.cache.randmap import RandomizedIndexing
from repro.cpu.soc import make_embedded_soc, make_mobile_soc, make_server_soc
from repro.crypto.rng import XorShiftRNG
from repro.crypto.rsa import RSA, generate_rsa_key


class AttackDivergence(AssertionError):
    """The batched and scalar attacks disagreed on an observable."""


_SOC_FACTORIES = {
    "server-desktop": make_server_soc,
    "mobile": make_mobile_soc,
    "embedded": make_embedded_soc,
}

_CACHE_ATTACKS = {
    "prime+probe": PrimeProbeAttack,
    "flush+reload": FlushReloadAttack,
    "evict+time": EvictTimeAttack,
}


#: LLC defences a scenario can install before the attack runs.
DEFENCES = ("none", "partition", "randomized", "exclude")


def _install_defence(defence: str, soc, victim, attacker, key: int) -> None:
    llc = soc.hierarchy.l2
    if defence == "partition":
        # The attacker gets the lower half of the LLC ways and everyone
        # else (the victim included) the rest; a 1-way LLC cannot be
        # split, so there the two masks overlap.
        low = (1 << max(llc.ways // 2, 1)) - 1
        partition = WayPartition(
            llc.ways, default_mask=((1 << llc.ways) - 1) & ~low or low)
        partition.assign(attacker.domain, low)
        llc.partition = partition
    elif defence == "randomized":
        llc.index_fn = RandomizedIndexing(key, line_size=llc.line_size)
    elif defence == "exclude":
        soc.hierarchy.exclude_from_llc(victim.table_paddr,
                                       5 * AES_TABLE_STRIDE)
    elif defence != "none":
        raise ValueError(f"unknown defence {defence!r}")


@dataclass(frozen=True)
class CacheScenario:
    """One cache-SCA configuration, replayable on either path."""

    attack: str = "flush+reload"  # key into _CACHE_ATTACKS
    platform: str = "server-desktop"  # key into _SOC_FACTORIES
    enclave_victim: bool = True  # False: SharedAESService
    seed: int = 0x5CA
    samples_per_value: int = 4
    plaintext_values: int = 4
    target_bytes: tuple[int, ...] = (0, 5)
    victim_core: int = 0
    defence: str = "none"  # one of DEFENCES

    def build(self):
        """Fresh (attack, rng, soc) triple; deterministic in ``self``."""
        soc = _SOC_FACTORIES[self.platform]()
        arch = NullArchitecture(soc)
        arch.install()
        rng = XorShiftRNG(self.seed)
        key = rng.bytes(16)
        if self.enclave_victim:
            victim = arch.deploy_aes_victim(key, core_id=self.victim_core)
        else:
            victim = SharedAESService(soc, key, core_id=self.victim_core)
        attacker = AttackerProcess(
            arch, core_id=min(1, len(soc.cores) - 1))
        _install_defence(self.defence, soc, victim, attacker, self.seed)
        config = _CacheAttackConfig(
            samples_per_value=self.samples_per_value,
            plaintext_values=self.plaintext_values,
            target_bytes=self.target_bytes)
        attack = _CACHE_ATTACKS[self.attack](victim, attacker, rng, config)
        return attack, rng, soc


@dataclass(frozen=True)
class TimingScenario:
    """One Kocher-timing configuration, replayable on either path."""

    rsa_bits: int = 48
    samples: int = 64
    max_bits: int = 6
    noise_std: float = 0.0
    constant_time: bool = False
    key_seed: int = 0xCE7
    seed: int = 0x70C4

    def build(self):
        key = generate_rsa_key(self.rsa_bits, XorShiftRNG(self.key_seed))
        rng = XorShiftRNG(self.seed)
        attack = KocherTimingAttack(
            RSA(key, constant_time=self.constant_time),
            samples=self.samples, max_bits=self.max_bits,
            noise_std=self.noise_std, rng=rng)
        return attack, rng, None


def soc_state(soc) -> tuple:
    """Every SoC observable a batched attack must leave bit-identical."""
    if soc is None:
        return ()
    levels = []
    for cache in (*soc.hierarchy.l1s, soc.hierarchy.l2):
        stats = cache.stats
        levels.append((
            [[None if ways is None else list(ways) for ways in per_set]
             for per_set in (cache._tags, cache._domains, cache._dirty,
                             cache._last_use)],
            cache._clock,
            (stats.hits, stats.misses, stats.evictions, stats.flushes)))
    cores = [(core.cycles, core.energy_pj, core.domain, core.instret,
              dict(getattr(core, "_l1_view", {}) or {}))
             for core in soc.cores]
    mmus = [dict(mmu._identity_cache) for mmu in soc.mmus]
    return (levels, soc.bus.transaction_count, cores, mmus)


@dataclass(frozen=True)
class AttackOutcome:
    """One path's result plus every compared side observable."""

    result: object
    rng_state: int
    encryptions: int
    soc: tuple


def scalar_run(scenario) -> AttackOutcome:
    """Run the scenario on the retained scalar oracle."""
    attack, rng, soc = scenario.build()
    result = attack._run_scalar()
    encryptions = getattr(attack.victim, "encryptions", 0)
    return AttackOutcome(result, rng._state, encryptions, soc_state(soc))


def batched_run(scenario) -> AttackOutcome:
    """Run the scenario through the batched kernel; a declined kernel is
    a :class:`AttackDivergence` (use :func:`batch.try_run_batched`
    directly to test fallback behaviour)."""
    attack, rng, soc = scenario.build()
    result = batch.try_run_batched(attack)
    if result is None:
        raise AttackDivergence(
            f"batched kernel declined scenario {scenario!r}")
    encryptions = getattr(attack.victim, "encryptions", 0)
    return AttackOutcome(result, rng._state, encryptions, soc_state(soc))


def _compare(field: str, batched, scalar) -> None:
    if batched != scalar:
        raise AttackDivergence(
            f"{field} diverged\n  batched: {batched!r}\n"
            f"  scalar:  {scalar!r}")


def assert_identical(batched: AttackOutcome, scalar: AttackOutcome) -> None:
    """Full observable equality between the two paths."""
    br, sr = batched.result, scalar.result
    _compare("result.name", br.name, sr.name)
    _compare("result.category", br.category, sr.category)
    _compare("result.success", br.success, sr.success)
    _compare("result.score", br.score, sr.score)
    _compare("result.leaked", br.leaked, sr.leaked)
    _compare("result.details", br.details, sr.details)
    _compare("rng end state", batched.rng_state, scalar.rng_state)
    _compare("victim encryptions", batched.encryptions, scalar.encryptions)
    _compare("soc end state", batched.soc, scalar.soc)


def run_pair(scenario) -> tuple[AttackOutcome, AttackOutcome]:
    """Run both paths and assert full bit-identity; return both sides."""
    batched = batched_run(scenario)
    scalar = scalar_run(scenario)
    assert_identical(batched, scalar)
    return batched, scalar
