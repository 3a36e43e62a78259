"""The eight surveyed architectures, in the paper's presentation order."""

from repro.arch.sanctuary import Sanctuary
from repro.arch.sanctum import Sanctum
from repro.arch.sancus import Sancus
from repro.arch.sgx import SGX
from repro.arch.smart import SMART
from repro.arch.trustlite import TrustLite
from repro.arch.trustzone import TrustZone
from repro.arch.tytan import TyTAN

ALL_ARCHITECTURES = (
    SGX, Sanctum, TrustZone, Sanctuary, SMART, Sancus, TrustLite, TyTAN,
)
