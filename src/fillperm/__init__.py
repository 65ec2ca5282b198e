"""Filling pairs on closed orientable surfaces, represented as permutations."""

from .perm import CycleParseError, Permutation
from .filling import (
    AlternationViolation,
    EquationViolation,
    FillingError,
    FillingPermutation,
    SizeNotMultipleOf4,
    ZType,
    tau,
    validate,
)
from .twist import (
    BoundExceeded,
    are_equivalent,
    generators,
    twist_group,
)
from .surgery import (
    AssemblyMap,
    AttachmentSite,
    CaseGap,
    Decomposition,
    RoundTripReport,
    SurgeryError,
    assemble,
    attachment_site,
    decomposition_at,
    disassemble,
    extract,
    find_decompositions,
    round_trip_check,
)
from .census import (
    CensusRecord,
    census_records,
    enumerate_filling,
    read_census,
    upper_bound,
    write_census,
)

__version__ = "0.1.0"
