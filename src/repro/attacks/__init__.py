"""Executable attacks: the paper's Sections 4 and 5 as experiments.

Every attack is a class with a ``run()`` method returning an
:class:`~repro.attacks.base.AttackResult`; the evaluation matrix
(:mod:`repro.core.matrix`) and the benches drive them uniformly.  Attacks
never receive secrets — success is graded afterwards against ground truth
the harness kept to itself.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AESLastRoundDFA": "fault_attacks",
    "AttackCategory": "base",
    "AttackResult": "base",
    "AttackerProcess": "base",
    "BellcoreRSAAttack": "fault_attacks",
    "BranchShadowingAttack": "tlb_btb",
    "ClkscrewAttack": "clkscrew_attack",
    "CodeInjectionAttack": "software",
    "ControlledChannelAttack": "controlled_channel",
    "DMAAttack": "software",
    "EvictTimeAttack": "cache_sca",
    "FlushReloadAttack": "cache_sca",
    "ForeshadowAttack": "foreshadow",
    "KernelMemoryProbeAttack": "software",
    "KocherTimingAttack": "timing",
    "MeltdownAttack": "meltdown",
    "PagedModExpVictim": "controlled_channel",
    "PrimeProbeAttack": "cache_sca",
    "RowhammerAttack": "rowhammer",
    "SpectreBTBAttack": "spectre",
    "SpectreV1Attack": "spectre",
    "TLBContentionAttack": "tlb_btb",
    "cpa_attack": "dpa",
    "cpa_recover_key": "dpa",
    "dpa_attack": "dpa",
    "dpa_recover_key": "dpa",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
