"""The evaluation matrix: attacks × platforms, measured.

For each platform profile the engine builds the platform's SoC with **no
TEE installed** (Figure 1 characterises platform classes, not specific
architectures) and runs the representative attack of each adversary
category against undefended software.  Scores are aggregated per category
and weighted by the platform's exposure prior; the weighted score is what
Figure 1 shades.

Execution is delegated to :mod:`repro.runner`: every ``(platform,
category)`` cell is an independent :class:`~repro.runner.CellSpec` whose
RNG seed is ``sha256(f"{seed}:{platform}:{category}")`` — never Python's
per-process-salted ``hash()`` — so two fresh interpreters produce
byte-identical per-cell scores, cells can be fanned out over worker
processes, and results can be memoised on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module

from repro.attacks.base import AttackCategory, AttackResult
from repro.attacks.suites import (
    MatrixKnobs,
    PRIOR_ATTRS,
    SUITE_MODULES,
    SUITES,
)
from repro.common import PlatformClass
from repro.core.platforms import (
    PlatformProfile,
    STANDARD_PLATFORMS,
    WorkloadResult,
)
from repro.core.taxonomy import Importance, importance_from_score
from repro.cpu.soc import soc_factory_for
from repro.runner import (
    WORKLOAD_CATEGORY,
    CellSpec,
    ExperimentRunner,
    derive_cell_seed,
)
from repro.runner.engine import run_cell
from repro.runner.serialize import attack_result_from_dict, workload_from_dict

# Every Figure 1 run executes the microarchitectural and physical
# suites, so their modules (numpy among their dependencies) load here,
# at setup, and not inside the run's first cells.
for _module in SUITE_MODULES:
    import_module(_module)


@dataclass
class CellResult:
    """One (platform, adversary-category) cell.

    ``evaluated`` is ``False`` when the cell produced no trustworthy
    measurement (its every execution attempt failed under the tolerant
    runner policy); such a cell scores 0.0 but must be *rendered* as
    not-evaluated, never presented as a measured low.
    """

    platform: PlatformClass
    category: AttackCategory
    attacks: list[AttackResult] = field(default_factory=list)
    prior: float = 1.0
    evaluated: bool = True

    @property
    def raw_score(self) -> float:
        if not self.attacks:
            return 0.0
        return sum(a.score for a in self.attacks) / len(self.attacks)

    @property
    def score(self) -> float:
        return min(self.raw_score * self.prior, 1.0)

    @property
    def importance(self) -> Importance:
        return importance_from_score(self.score)


class EvaluationMatrix:
    """Runs the whole grid and holds the results.

    ``runner`` controls execution: ``None`` means a private serial,
    uncached :class:`ExperimentRunner`; pass one configured with
    ``jobs``/``cache`` to parallelise or memoise.  After
    :meth:`evaluate`, the runner's ``stats`` describe the run.
    """

    def __init__(self, platforms: tuple[PlatformProfile, ...]
                 = STANDARD_PLATFORMS, quick: bool = True,
                 seed: int = 0x2019,
                 runner: ExperimentRunner | None = None) -> None:
        self.platforms = platforms
        self.knobs = MatrixKnobs.quick() if quick else MatrixKnobs.full()
        self.seed = seed
        self.runner = runner
        self.cells: dict[tuple[PlatformClass, AttackCategory], CellResult] = {}
        self.workloads: dict[PlatformClass, WorkloadResult] = {}

    # -- per-cell inputs -------------------------------------------------------

    def cell_seed(self, platform: PlatformClass,
                  category: AttackCategory) -> int:
        """The cell's RNG seed: a pure function of its coordinates."""
        return derive_cell_seed(self.seed, platform.value, category.value)

    def _prior(self, profile: PlatformProfile,
               category: AttackCategory) -> float:
        attr = PRIOR_ATTRS.get(category)
        return getattr(profile, attr) if attr else 1.0

    def _spec(self, profile: PlatformProfile, category: str) -> CellSpec:
        return CellSpec(seed=self.seed, platform=profile.platform.value,
                        category=category, knobs=self.knobs.as_key())

    def _runnable_in_worker(self, profile: PlatformProfile) -> bool:
        """Workers rebuild SoCs from the registry; a profile with a
        custom factory must run in-process instead."""
        try:
            return soc_factory_for(profile.platform) is profile.make_soc
        except KeyError:
            return False

    # -- the grid --------------------------------------------------------------

    def evaluate(self, force: bool = False
                 ) -> dict[tuple[PlatformClass, AttackCategory], CellResult]:
        """Run every cell; idempotent unless ``force`` is set."""
        if self.cells and self.workloads and not force:
            return self.cells

        runner = self.runner or ExperimentRunner()
        categories = [c.value for c in SUITES] + [WORKLOAD_CATEGORY]
        remote = [p for p in self.platforms if self._runnable_in_worker(p)]
        specs = [self._spec(profile, category)
                 for profile in remote for category in categories]
        payloads = runner.run(specs) if specs else {}
        # Profiles with unregistered SoC factories run in-process, through
        # the same cell body as the workers (no cache, no fan-out).
        for profile in self.platforms:
            if profile not in remote:
                for category in categories:
                    spec = self._spec(profile, category)
                    payloads[spec] = run_cell(spec, profile.make_soc())

        for profile in self.platforms:
            for category in SUITES:
                payload = payloads.get(self._spec(profile, category.value))
                if payload is None:
                    # Every attempt failed: an explicit not-evaluated
                    # cell, not a crash and not a fake zero measurement.
                    self.cells[(profile.platform, category)] = CellResult(
                        profile.platform, category, [],
                        self._prior(profile, category), evaluated=False)
                    continue
                attacks = [attack_result_from_dict(d)
                           for d in payload["attacks"]]
                self.cells[(profile.platform, category)] = CellResult(
                    profile.platform, category, attacks,
                    self._prior(profile, category))
            workload = payloads.get(self._spec(profile, WORKLOAD_CATEGORY))
            if workload is not None:
                self.workloads[profile.platform] = \
                    workload_from_dict(workload["workload"])
        return self.cells

    # -- requirement rows ----------------------------------------------------------

    def not_evaluated(self) -> list[tuple[PlatformClass, AttackCategory]]:
        """Cells without a trustworthy measurement (every attempt failed)."""
        return sorted(
            (coords for coords, cell in self.cells.items()
             if not cell.evaluated),
            key=lambda coords: (coords[0].value, coords[1].value))

    def performance_scores(self) -> dict[PlatformClass, float]:
        """Relative throughput (1.0 = fastest platform).

        Evaluates the matrix lazily on first use.  Platforms whose
        reference-workload cell failed are absent from the result.
        """
        self.evaluate()
        if not self.workloads:
            return {}
        best = max(w.throughput_ops_per_s for w in self.workloads.values())
        return {p: w.throughput_ops_per_s / best
                for p, w in self.workloads.items()}

    def energy_constraint_scores(self) -> dict[PlatformClass, float]:
        """How tight each platform's energy budget is (1.0 = tightest).

        Energy budgets span orders of magnitude (mains-powered servers to
        coin-cell sensors), so the constraint level is positioned on a
        *logarithmic* scale between the loosest and tightest measured
        budget.  Evaluates the matrix lazily on first use.
        """
        import math
        self.evaluate()
        if not self.workloads:
            return {}
        energies = {p: w.energy_per_op_pj for p, w in self.workloads.items()}
        loosest = max(energies.values())
        tightest = min(energies.values())
        if loosest == tightest:
            return {p: 1.0 for p in energies}
        span = math.log(loosest / tightest)
        return {p: math.log(loosest / e) / span for p, e in energies.items()}
