"""Batched attack kernels: vectorized twins of the scalar attack suites.

The scalar cache side-channel attacks (:mod:`repro.attacks.cache_sca`)
interpret the T-table cipher lookup by lookup and route every probe
through ``AttackerProcess`` and the victim's core, and the Kocher timing
attack re-simulates modexp prefix timing sample-by-sample with two
redundant big-int multiplications per modelled one.  These kernels run
the *same* experiments in array form:

* plaintexts are pre-drawn with :meth:`XorShiftRNG.u64_block` (the RNG
  stream and end state are bit-identical to the scalar per-sample
  ``rng.bytes(16)`` calls);
* the victim's full 160-lookup T-table access stream per encryption is
  derived with the numpy round-state recurrence from
  :mod:`repro.crypto.aes_batch` instead of interpreting the cipher;
* every cache event goes straight to the live
  :class:`~repro.cache.hierarchy.CacheHierarchy` (``access`` /
  ``flush_line``) in the scalar attack's order, so partitions,
  randomised index functions and LLC exclusions behave exactly as they
  do for the scalar attack; the victim's core, bus and MMU bookkeeping
  is replayed once at the end;
* the Kocher measured/lookahead phases share one reduced product per
  modelled multiplication instead of recomputing it for the timing model
  and the value update separately.

**Bit-identical or bust**: every kernel either reproduces the retained
scalar attack exactly — recovered keys, scores, RNG end states, cache
contents, replacement state, per-level stats, bus transaction counts,
core cycle/energy accounting — or refuses to run (``None`` from
:func:`try_run_batched`), in which case the caller falls back to the
scalar oracle.  The gates are deliberately type-exact: bus controllers
/ snoopers / transforms, non-identity MMU roots, hooked ciphers and
subclassed RNGs all fall back.  ``tests/test_attack_differential.py``
holds the hypothesis differential suite proving the equivalence.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.arch.base import AES_KEY_OFFSET, AES_TABLE_STRIDE, AESVictim
from repro.arch.null import NullArchitecture
from repro.attacks.base import AttackerProcess
from repro.cpu.core import Core
from repro.cpu.speculative import SpeculativeCore
from repro.crypto.aes import TTableAES
from repro.crypto.aes_batch import (
    SBOX_TABLE,
    _mix_columns,
    _round_key_matrix,
    _SHIFT_ROWS,
)
from repro.crypto.modexp import EXTRA_REDUCTION_COST
from repro.crypto.rng import XorShiftRNG
from repro.crypto.rsa import RSA

#: Headroom kept below the 65536-entry clear thresholds of the MMU
#: identity cache and the speculative core's L1 view: a batched run adds
#: at most ~650 distinct entries (5*128 word-aligned table slots + two
#: key words), so staying this far under the bound guarantees the scalar
#: path would not have cleared mid-run either.
_DICT_HEADROOM = 1024


# ---------------------------------------------------------------------------
# Gates: batch only what the kernels replay exactly
# ---------------------------------------------------------------------------


def _bus_batchable(bus) -> bool:
    return (not bus._controllers and not bus._snoopers
            and not bus._transforms)


def _cipher_batchable(cipher) -> bool:
    return (type(cipher) is TTableAES and cipher.leak_hook is None
            and cipher.fault_hook is None)


def _region_ok(regions, addr: int, need_cacheable: bool = False) -> bool:
    region = regions.find(addr)
    if region is None or region.device:
        return False
    return region.cacheable if need_cacheable else True


def _victim_batchable(victim, attacker) -> bool:
    """Gate the victim shapes :class:`_VictimModel` replays exactly."""
    from repro.attacks.cache_sca import SharedAESService
    soc = attacker.soc
    if type(victim) is SharedAESService:
        return (victim.soc is soc
                and _cipher_batchable(victim._cipher)
                and 0 <= victim.core_id < len(soc.hierarchy.l1s))
    if type(victim) is not AESVictim:
        return False
    arch = victim.arch
    if type(arch) is not NullArchitecture or arch.soc is not soc:
        return False
    if not _cipher_batchable(victim._cipher):
        return False
    handle = victim.handle
    if handle.base != handle.paddr or handle.domain is not None:
        return False
    if not 0 <= handle.core_id < min(len(soc.cores),
                                     len(soc.hierarchy.l1s)):
        return False
    core = soc.cores[handle.core_id]
    if type(core) not in (Core, SpeculativeCore):
        return False
    mmu = soc.mmus[handle.core_id]
    if mmu.root is not None:
        return False
    if len(mmu._identity_cache) > 65536 - _DICT_HEADROOM:
        return False
    if (type(core) is SpeculativeCore
            and len(core._l1_view) > 65536 - _DICT_HEADROOM):
        return False
    epm = core.config.energy_per_mem_pj
    if not (float(epm).is_integer() and float(core.energy_pj).is_integer()):
        return False
    # The whole enclave range must decode to one plain cacheable region
    # for the bus fast path and the cache path to apply.
    regions = soc.regions
    if not (_region_ok(regions, handle.base, need_cacheable=True)
            and _region_ok(regions, handle.base + handle.size - 1,
                           need_cacheable=True)):
        return False
    return regions.find(handle.base) is regions.find(
        handle.base + handle.size - 1)


# ---------------------------------------------------------------------------
# Victim models: replicate every side effect of one ``encrypt`` call
# ---------------------------------------------------------------------------


class _VictimModel:
    """Drives the live hierarchy with a victim's exact access stream and
    replays the rest of the bookkeeping (`encryptions`, core cycles/
    energy, bus transactions, MMU identity cache, speculative L1 view) at
    the end.

    Two shapes are supported, matching the two victims the scalar
    attacks accept:

    * :class:`SharedAESService` — 160 bare ``hierarchy.access`` calls
      per encryption, no core, no bus;
    * :class:`AESVictim` on :class:`NullArchitecture` with an identity
      MMU — two key-word reads plus 160 lookups through
      ``Core.read_mem`` (TLB constant + bus fast path + cache latency
      charge + L1-view note), enclave enter/exit being a domain no-op.
    """

    def __init__(self, victim, soc) -> None:
        self.victim = victim
        self.soc = soc
        self.access = soc.hierarchy.access
        self.encrypts = 0
        self.is_enclave = type(victim) is AESVictim
        if self.is_enclave:
            handle = victim.handle
            self.base = handle.base
            self.core_id = handle.core_id
            self.domain = None
            self.core = soc.cores[handle.core_id]
            mmu = soc.mmus[handle.core_id]
            self.mmu = mmu
            self.tlb_lat = (mmu.tlb.access_latency(True)
                            if mmu.tlb is not None else 0)
            self.key_addrs = (self.base + AES_KEY_OFFSET,
                              self.base + AES_KEY_OFFSET + 8)
            self.word_offsets: set[int] = {AES_KEY_OFFSET,
                                           AES_KEY_OFFSET + 8}
            self.cycles = 0
        else:
            self.base = victim.table_paddr
            self.core_id = victim.core_id
            self.domain = victim.domain

    def lookup_addrs(self, plaintexts: np.ndarray) -> list[list[int]]:
        """Per-sample physical addresses of the victim's 160 T-table
        lookups, via the numpy round-state recurrence.

        Round-entry state ``E_1 = pt ^ rk0``; lookup ``j`` of round ``r``
        reads state byte ``_SHIFT_ROWS[j]`` of ``E_r`` in table ``j % 4``
        (rounds 1-9) or table 4 (round 10) — exactly the scalar
        ``TTableAES.encrypt_block`` lookup order.
        """
        n = plaintexts.shape[0]
        rk = _round_key_matrix(self.victim._cipher.round_keys)
        addrs = np.empty((n, 160), dtype=np.int64)
        round_tables = np.array([j % 4 for j in range(16)],
                                dtype=np.int64) * AES_TABLE_STRIDE
        final_tables = np.full(16, 4 * AES_TABLE_STRIDE, dtype=np.int64)
        state = plaintexts ^ rk[0]
        for rnd in range(1, 11):
            idx = state[:, _SHIFT_ROWS].astype(np.int64)
            offs = round_tables if rnd < 10 else final_tables
            # Both victims read the (offset & ~7)-aligned word: the
            # enclave masks the offset, the service masks the (64-
            # aligned) table base plus offset — identical addresses.
            aligned = (offs[np.newaxis, :] + idx * 4) & ~7
            addrs[:, (rnd - 1) * 16:rnd * 16] = self.base + aligned
            if self.is_enclave and n:
                self.word_offsets.update(np.unique(aligned).tolist())
            if rnd < 10:
                sub = SBOX_TABLE[state]
                state = _mix_columns(sub[:, _SHIFT_ROWS]) ^ rk[rnd]
        return addrs.tolist()

    def encrypt(self, addr_row: list[int]) -> int:
        """Run one encryption's cache accesses; returns the victim
        core's cycle delta (0 for the bare service victim)."""
        self.encrypts += 1
        access, core_id, domain = self.access, self.core_id, self.domain
        if not self.is_enclave:
            for paddr in addr_row:
                access(core_id, paddr, False, domain)
            return 0
        k1, k2 = self.key_addrs
        latency = (access(core_id, k1, False, domain).latency
                   + access(core_id, k2, False, domain).latency)
        for paddr in addr_row:
            latency += access(core_id, paddr, False, domain).latency
        cycles = latency + 162 * self.tlb_lat
        self.cycles += cycles
        return cycles

    def finalize(self) -> None:
        """Write the victim-side bookkeeping back to the live objects."""
        self.victim.encryptions += self.encrypts
        if not self.is_enclave or not self.encrypts:
            return
        core = self.core
        events = 162 * self.encrypts
        core.cycles += self.cycles
        core.energy_pj += events * core.config.energy_per_mem_pj
        core.domain = None  # state after the last exit_enclave
        self.soc.bus.transaction_count += events
        memory = self.soc.memory
        view = core._l1_view if type(core) is SpeculativeCore else None
        for offset in self.word_offsets:
            va = self.base + offset
            # Replay the identity translation (populates the MMU cache
            # exactly as the scalar per-access path would have).
            self.mmu.translate(va, "read", core.privilege,
                               secure=core.world.is_secure)
            if view is not None:
                view[va] = int.from_bytes(memory.read_bytes(va, 8),
                                          "little")


# ---------------------------------------------------------------------------
# Cache-SCA kernels
# ---------------------------------------------------------------------------


def _draw_plaintexts(rng: XorShiftRNG, count: int, target_byte: int,
                     values: list[int]) -> np.ndarray:
    """``count`` plaintext rows from the exact scalar RNG stream.

    Each scalar sample draws ``rng.bytes(16)`` (two ``next_u64`` values,
    little-endian) and then patches the target byte's high nibble; rows
    are grouped contiguously per candidate value in scalar loop order
    ([value][sample] for Prime+Probe / Flush+Reload, [value][line]
    [sample] for Evict+Time — the patch only depends on the value, so
    both group into ``count // len(values)`` rows per value).
    """
    if count == 0:
        return np.zeros((0, 16), dtype=np.uint8)
    block = np.array(rng.u64_block(2 * count), dtype="<u8")
    pts = block.view(np.uint8).reshape(count, 16).copy()
    col = pts[:, target_byte]
    per_value = count // len(values)
    for vi, v in enumerate(values):
        rows = slice(vi * per_value, (vi + 1) * per_value)
        col[rows] = (v << 4) | (col[rows] & 0x0F)
    return pts


def _cache_gates(attack) -> bool:
    """Common gates for the three cache attacks — pure, no side
    effects, so a ``False`` (fall back to scalar) leaves the SoC
    untouched for the scalar oracle to run."""
    attacker = attack.attacker
    if type(attacker) is not AttackerProcess:
        return False
    if type(attack.rng) is not XorShiftRNG:
        return False
    soc = attacker.soc
    if not _bus_batchable(soc.bus):
        return False
    if not 0 <= attacker.core_id < len(soc.hierarchy.l1s):
        return False
    if not _victim_batchable(attack.victim, attacker):
        return False
    # Every attacker-addressable line must decode to plain memory, or
    # the scalar bus read would have faulted instead of timing it.
    regions = soc.regions
    for page in attacker.pages:
        if not (_region_ok(regions, page)
                and _region_ok(regions, page + 4095)):
            return False
    return True


def _finalize_cache_run(attack, model: _VictimModel, timed_reads: int) -> None:
    """Victim bookkeeping plus the bus reads of the attacker's
    ``timed_read`` calls."""
    model.finalize()
    attack.attacker.soc.bus.transaction_count += timed_reads


def _run_prime_probe(attack):
    from repro.attacks.cache_sca import (
        BYTE_TO_TABLE,
        LINES_PER_TABLE,
        _best_nibble,
        _grade,
        _plaintext_nibbles,
    )
    if not _cache_gates(attack):
        return None
    attacker = attack.attacker
    model = _VictimModel(attack.victim, attacker.soc)
    access = attacker.soc.hierarchy.access
    core, domain = attacker.core_id, attacker.domain
    threshold = attacker.hit_threshold
    cfg = attack.config
    span = obs.span
    recovered: dict[int, int] = {}
    coverage = 0.0
    timed_reads = 0
    for target_byte in cfg.target_bytes:
        with span("prime+probe:byte", cat="attack", byte=target_byte):
            table = BYTE_TO_TABLE[target_byte]
            eviction = attack._eviction_sets(table)
            covered = sum(1 for addrs in eviction
                          if len(addrs) >= attack._ways)
            coverage = max(coverage, covered / LINES_PER_TABLE)
            if covered < LINES_PER_TABLE:
                obs.event("prime+probe.blocked", cat="attack",
                          byte=target_byte, covered=covered)
                continue
            values = _plaintext_nibbles(cfg)
            samples = cfg.samples_per_value
            pts = _draw_plaintexts(attack.rng, len(values) * samples,
                                   target_byte, values)
            addr_rows = model.lookup_addrs(pts)
            counts = np.zeros((len(values), LINES_PER_TABLE))
            row = 0
            for vi in range(len(values)):
                crow = counts[vi]
                for _ in range(samples):
                    for addrs in eviction:
                        for addr in addrs:
                            access(core, addr, False, domain)
                    model.encrypt(addr_rows[row])
                    row += 1
                    for li, addrs in enumerate(eviction):
                        displaced = 0
                        for addr in addrs:
                            if access(core, addr, False,
                                      domain).latency > threshold:
                                displaced += 1
                        crow[li] += displaced
            timed_reads += row * sum(len(addrs) for addrs in eviction)
            recovered[target_byte] = _best_nibble(values, counts)

    _finalize_cache_run(attack, model, timed_reads)
    score = _grade(recovered, attack.victim.key)
    from repro.attacks.base import AttackCategory, AttackResult
    return AttackResult(
        name=attack.NAME, category=AttackCategory.MICROARCHITECTURAL,
        success=score >= 0.75 and len(recovered) == len(cfg.target_bytes),
        score=score,
        leaked={b: f"high nibble {n:#x}" for b, n in recovered.items()},
        details={"recovered": recovered, "set_coverage": coverage,
                 "bytes_attacked": list(cfg.target_bytes)})


def _run_flush_reload(attack):
    from repro.attacks.base import AttackCategory, AttackResult
    from repro.attacks.cache_sca import (
        BYTE_TO_TABLE,
        LINES_PER_TABLE,
        _best_nibble,
        _grade,
        _plaintext_nibbles,
    )
    if not _cache_gates(attack):
        return None
    cfg = attack.config
    attacker = attack.attacker
    # The attacker's timed reloads go through the bus; the monitored
    # table lines must decode to plain memory (the enclave-range gate
    # covers this for AESVictim, but the shared service's tables live
    # wherever ``table_paddr`` points).
    regions = attacker.soc.regions
    lo = attack._line_paddr(0, 0)
    hi = attack._line_paddr(4, LINES_PER_TABLE - 1)
    if not (_region_ok(regions, lo) and _region_ok(regions, hi)
            and regions.find(lo) is regions.find(hi)):
        return None
    # Precondition probe, run live (scalar-identical side effects) —
    # only after the gates passed, so a fallback never double-runs it.
    ok, _ = attacker.try_read(lo)
    if not ok:
        return AttackResult(
            name=attack.NAME,
            category=AttackCategory.MICROARCHITECTURAL,
            success=False, score=0.0,
            details={"blocked": "victim memory not attacker-addressable"})

    model = _VictimModel(attack.victim, attacker.soc)
    hierarchy = attacker.soc.hierarchy
    access, flush = hierarchy.access, hierarchy.flush_line
    core, domain = attacker.core_id, attacker.domain
    threshold = attacker.hit_threshold
    span = obs.span
    recovered: dict[int, int] = {}
    timed_reads = 0
    for target_byte in cfg.target_bytes:
        with span("flush+reload:byte", cat="attack", byte=target_byte):
            table = BYTE_TO_TABLE[target_byte]
            lines = [attack._line_paddr(table, line)
                     for line in range(LINES_PER_TABLE)]
            values = _plaintext_nibbles(cfg)
            samples = cfg.samples_per_value
            pts = _draw_plaintexts(attack.rng, len(values) * samples,
                                   target_byte, values)
            addr_rows = model.lookup_addrs(pts)
            counts = np.zeros((len(values), LINES_PER_TABLE))
            row = 0
            for vi in range(len(values)):
                crow = counts[vi]
                for _ in range(samples):
                    for paddr in lines:
                        flush(paddr)
                    model.encrypt(addr_rows[row])
                    row += 1
                    for li, paddr in enumerate(lines):
                        if access(core, paddr, False,
                                  domain).latency <= threshold:
                            crow[li] += 1.0
            timed_reads += row * LINES_PER_TABLE
            recovered[target_byte] = _best_nibble(values, counts)

    _finalize_cache_run(attack, model, timed_reads)
    score = _grade(recovered, attack.victim.key)
    return AttackResult(
        name=attack.NAME, category=AttackCategory.MICROARCHITECTURAL,
        success=score >= 0.75, score=score,
        details={"recovered": recovered})


def _run_evict_time(attack):
    from repro.attacks.base import AttackCategory, AttackResult
    from repro.attacks.cache_sca import (
        BYTE_TO_TABLE,
        LINE_SIZE,
        LINES_PER_TABLE,
        _best_nibble,
        _grade,
        _plaintext_nibbles,
    )
    if type(attack.victim) is not AESVictim:
        # ``_victim_cycles`` dereferences ``victim.arch``: the bare
        # shared service has no core accounting to time.
        return None
    if not _cache_gates(attack):
        return None
    attacker = attack.attacker
    model = _VictimModel(attack.victim, attacker.soc)
    access = attacker.soc.hierarchy.access
    core, domain = attacker.core_id, attacker.domain
    cfg = attack.config
    llc = attacker.soc.hierarchy.l2
    recovered: dict[int, int] = {}
    for target_byte in cfg.target_bytes:
        table = BYTE_TO_TABLE[target_byte]
        eviction = []
        for line in range(LINES_PER_TABLE):
            paddr = attack.victim.table_paddr \
                + table * AES_TABLE_STRIDE + line * LINE_SIZE
            eviction.append(attacker.eviction_addresses_for_set(
                llc.set_index(paddr), attack._ways))
        if any(len(addrs) < attack._ways for addrs in eviction):
            continue  # defence: sets unreachable
        values = _plaintext_nibbles(cfg)
        samples = cfg.samples_per_value
        pts = _draw_plaintexts(
            attack.rng, len(values) * LINES_PER_TABLE * samples,
            target_byte, values)
        addr_rows = model.lookup_addrs(pts)
        times = np.zeros((len(values), LINES_PER_TABLE))
        row = 0
        for vi in range(len(values)):
            for line in range(LINES_PER_TABLE):
                total = 0
                addrs = eviction[line]
                for _ in range(samples):
                    for addr in addrs:
                        access(core, addr, False, domain)
                    total += model.encrypt(addr_rows[row])
                    row += 1
                times[vi, line] += total
        recovered[target_byte] = _best_nibble(values, times)

    _finalize_cache_run(attack, model, 0)
    score = _grade(recovered, attack.victim.key)
    return AttackResult(
        name=attack.NAME, category=AttackCategory.MICROARCHITECTURAL,
        success=score >= 0.75 and len(recovered) == len(cfg.target_bytes),
        score=score,
        details={"recovered": recovered})


# ---------------------------------------------------------------------------
# Kocher timing kernel
# ---------------------------------------------------------------------------


def _kocher_recover(accs, ts, ciphertexts, measured, n, attack_bits,
                    forced=None):
    """Batched twin of ``KocherTimingAttack._recover_path``.

    The scalar pass computes each modular product twice — once inside
    ``mult_time`` for the timing model and once for the value update —
    and the lookahead flags recompute next-step squares the following
    iteration needs anyway.  Here every product is computed once and the
    chosen hypothesis's square (``f0p``/``f1p``) is carried into the
    next step as its ``a0``, cutting the big-int multiplications per
    (step, sample) from six to three.  Floats are summed in the scalar
    order and the partition statistic *is* the scalar staticmethod, so
    every decision, margin, and recovered bit is bit-identical.
    """
    from repro.attacks.timing import KocherTimingAttack

    pdiff = KocherTimingAttack._partition_diff
    half = n >> 1
    nsamples = len(accs)
    ts = list(ts)
    sqs = [(a * a) % n for a in accs]
    bits: list[int] = []
    margins: list[float] = []
    for step in range(attack_bits):
        t0s = [0.0] * nsamples
        t1s = [0.0] * nsamples
        res0 = [0.0] * nsamples
        res1 = [0.0] * nsamples
        flag0 = [False] * nsamples
        flag1 = [False] * nsamples
        flag_mult = [False] * nsamples
        f0ps = [0] * nsamples
        f1ps = [0] * nsamples
        for s in range(nsamples):
            a0 = sqs[s]
            t0 = ts[s] + (3.0 if a0 >= half else 2.0)
            pm = (a0 * ciphertexts[s]) % n
            mul = pm >= half
            t1 = t0 + (3.0 if mul else 2.0)
            f0p = (a0 * a0) % n
            f1p = (pm * pm) % n
            total = measured[s]
            t0s[s] = t0
            t1s[s] = t1
            res0[s] = total - t0
            res1[s] = total - t1
            flag0[s] = f0p >= half
            flag1[s] = f1p >= half
            flag_mult[s] = mul
            f0ps[s] = f0p
            f1ps[s] = f1p
            sqs[s] = pm  # stash a1; overwritten below by the choice
        diff0 = pdiff(res0, flag0)
        diff1 = pdiff(res1, flag1)
        diff_mult = pdiff(res0, flag_mult)
        score1 = (diff1 + diff_mult) / 2
        if forced is not None and step in forced:
            bit = forced[step]
        else:
            bit = 1 if score1 > diff0 else 0
        bits.append(bit)
        margins.append(abs(score1 - diff0))
        if bit:
            ts = t1s
            sqs = f1ps
        else:
            ts = t0s
            sqs = f0ps
    return bits, margins


def _kocher_backtrack(bits, margins, accs, ts, ciphertexts, measured, n,
                      attack_bits, rounds=3):
    """Batched twin of ``KocherTimingAttack._backtrack`` (same flip
    policy over the batched recover pass)."""
    tried: set[int] = set()
    for _ in range(rounds):
        if len(margins) < 3:
            return bits
        tail_mean = sum(margins[-3:]) / 3
        if tail_mean > EXTRA_REDUCTION_COST / 6:
            return bits
        candidates = [i for i in range(len(margins)) if i not in tried]
        if not candidates:
            return bits
        weakest = min(candidates, key=lambda i: margins[i])
        tried.add(weakest)
        forced = {i: bits[i] for i in range(weakest)}
        forced[weakest] = 1 - bits[weakest]
        alt_bits, alt_margins = _kocher_recover(
            accs, ts, ciphertexts, measured, n, attack_bits, forced=forced)
        after = slice(weakest + 1, None)
        if sum(alt_margins[after]) > sum(margins[after]):
            bits, margins = alt_bits, alt_margins
    return bits


def _run_kocher_timing(attack):
    from repro.attacks.base import AttackCategory, AttackResult

    victim = attack.victim
    if type(victim) is not RSA or victim.constant_time:
        return None  # the ladder path stays on the scalar oracle
    if type(attack.rng) is not XorShiftRNG:
        return None
    n = victim.key.n
    d = victim.key.d
    if n <= 2 or d.bit_length() < 1:
        return None  # degenerate keys: identical scalar error behaviour
    rng = attack.rng
    samples = attack.samples
    half = n >> 1
    bits_total = d.bit_length()

    # Ciphertexts from the exact scalar stream: next_below(n-2) + 1.
    ciphertexts = [u % (n - 2) + 1 for u in rng.u64_block(samples)]

    # Measured phase — scalar ``modexp_square_multiply`` with each
    # reduced product computed once and reused as the timing-model
    # product (``mult_time`` recomputes it in the scalar path).
    exp_bits = [(d >> i) & 1 for i in range(bits_total - 1, -1, -1)]
    measured: list[float] = []
    for c in ciphertexts:
        r = 1 % n
        total = 0.0
        for bit in exp_bits:
            p = (r * r) % n
            total += 3.0 if p >= half else 2.0
            r = p
            if bit:
                p = (r * c) % n
                total += 3.0 if p >= half else 2.0
                r = p
        measured.append(total)
    if attack.noise_std > 0:
        for s, g in enumerate(rng.gauss_block(samples, 0.0,
                                              attack.noise_std)):
            measured[s] += abs(g)

    # Per-sample state after the exponent's leading 1-bit.
    accs: list[int] = []
    ts: list[float] = []
    for c in ciphertexts:
        acc = 1 % n
        p = (acc * acc) % n
        t = 3.0 if p >= half else 2.0
        acc = p
        p = (acc * c) % n
        t += 3.0 if p >= half else 2.0
        accs.append(p)
        ts.append(t)

    attack_bits = min(attack.max_bits, bits_total - 1)
    recovered_bits, margins = _kocher_recover(
        accs, ts, ciphertexts, measured, n, attack_bits)
    recovered_bits = _kocher_backtrack(
        recovered_bits, margins, accs, ts, ciphertexts, measured, n,
        attack_bits)

    truth = [(d >> (bits_total - 2 - i)) & 1 for i in range(attack_bits)]
    correct = sum(1 for a, b in zip(recovered_bits, truth) if a == b)
    score = correct / attack_bits if attack_bits else 0.0
    return AttackResult(
        name=attack.NAME, category=AttackCategory.PHYSICAL,
        success=score >= 0.9, score=score,
        leaked=recovered_bits if score >= 0.9 else None,
        details={"bits_attacked": attack_bits, "correct": correct,
                 "constant_time_victim": victim.constant_time,
                 "samples": attack.samples})


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_KERNELS: dict | None = None


def try_run_batched(attack):
    """Run ``attack``'s batched kernel, or ``None`` for scalar fallback.

    Dispatch is type-exact (``type(attack)``), so subclassed attacks
    always run their own (scalar) code.
    """
    global _KERNELS
    if _KERNELS is None:
        from repro.attacks.cache_sca import (
            EvictTimeAttack,
            FlushReloadAttack,
            PrimeProbeAttack,
        )
        from repro.attacks.timing import KocherTimingAttack

        _KERNELS = {
            PrimeProbeAttack: _run_prime_probe,
            FlushReloadAttack: _run_flush_reload,
            EvictTimeAttack: _run_evict_time,
            KocherTimingAttack: _run_kocher_timing,
        }
    kernel = _KERNELS.get(type(attack))
    return kernel(attack) if kernel is not None else None
