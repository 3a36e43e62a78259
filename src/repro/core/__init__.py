"""The paper's contribution: the cross-platform comparison framework.

The survey's intellectual content is a taxonomy (adversaries × platforms
× architectures) and a set of qualitative judgements (Figure 1, the
Section 3-5 comparisons).  This package *derives* those judgements from
experiment outcomes on the simulated stack instead of asserting them:

* :mod:`repro.core.taxonomy` — adversary models and importance levels;
* :mod:`repro.core.platforms` — the three platform profiles with their
  exposure priors and measured performance/energy characteristics;
* :mod:`repro.core.matrix` — runs the attack suite per platform and
  aggregates per-category scores;
* :mod:`repro.core.figure1` — regenerates Figure 1 from those scores;
* :mod:`repro.core.comparison` — regenerates the Section 3/4 architecture
  comparison tables from features + live attack outcomes;
* :mod:`repro.core.advisor` — Section 6's closing advice ("select the
  optimal security architecture given the energy and performance budget")
  as a scoring engine.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "Advice": "advisor",
    "AdversaryModel": "taxonomy",
    "CellResult": "matrix",
    "EvaluationMatrix": "matrix",
    "Figure1": "figure1",
    "Importance": "taxonomy",
    "PlatformProfile": "platforms",
    "Requirements": "advisor",
    "STANDARD_PLATFORMS": "platforms",
    "architecture_feature_table": "comparison",
    "cache_defence_table": "comparison",
    "generate_figure1": "figure1",
    "importance_from_score": "taxonomy",
    "recommend_architecture": "advisor",
    "reference_workload": "platforms",
    "render_table": "comparison",
    "transient_applicability_table": "comparison",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
