"""CPU cores and SoC composition.

Two core types span the paper's spectrum:

* :class:`Core` — in-order, no speculation: the embedded/IoT design point.
  "IoT devices ... do not incorporate the performance enhancements found
  in high-end CPUs.  Hence, they are less likely to be susceptible to
  microarchitectural attacks."
* :class:`SpeculativeCore` — adds branch prediction with transient
  execution and (configurably) retirement-time fault delivery and L1
  terminal-fault forwarding: the server/desktop design point, carrying
  exactly the flaws Spectre, Meltdown and Foreshadow exploit.

:class:`SoC` composes cores with the memory and cache substrates;
:func:`make_server_soc` / :func:`make_mobile_soc` / :func:`make_embedded_soc`
build the paper's three platform classes.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "BranchPredictor": "predictor",
    "Core": "core",
    "CoreConfig": "core",
    "DVFSController": "dvfs",
    "OperatingPoint": "dvfs",
    "PredictorConfig": "predictor",
    "SoC": "soc",
    "SoCConfig": "soc",
    "SpeculativeConfig": "speculative",
    "SpeculativeCore": "speculative",
    "Trap": "exceptions",
    "TrapCause": "exceptions",
    "TrapInfo": "exceptions",
    "VoltageDomain": "dvfs",
    "make_embedded_soc": "soc",
    "make_mobile_soc": "soc",
    "make_server_soc": "soc",
    "soc_factory_for": "soc",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
