"""Linear codes over the ring F_q + v F_q + v^2 F_q with v^3 = v.

Gray maps, Lee weights, duals, weight enumerators with their MacWilliams
transforms, cyclic codes from divisor triples, formally self-dual
constructions, and a verification harness that reruns every claim of the
source text at desk scale and reports where it holds, fails or was
misprinted.
"""

from .errors import (
    CharacteristicTwoUnsupported,
    DivisionByZero,
    EmptyCode,
    NotADivisor,
    NotSymmetric,
    ParamMismatch,
    ParseError,
    SearchSpaceTooLarge,
    ShapeError,
    TransformInconsistent,
    VCodesError,
)
from .gf import GF, Poly, factor_xn_minus_1, format_poly, monic_divisors_of_xn_minus_1, parse_poly
from .ring import Ring, RingElem, audit_published_lee_table, format_elem, format_row, parse_elem, ring_over
from .fieldcode import LinearCodeFq, cyclic_code_fq, cyclic_dual_generator, rref
from .ringcode import LinearCodeR, combine_components
from .wenum import (
    WeightEnumerator,
    complete_enumerator,
    hamming_enumerator_fq,
    hamming_enumerator_r,
    lee_enumerator,
    macwilliams_hamming_fq,
    macwilliams_lee,
    specialize,
    symmetrized_enumerator,
)
from .cyclic import CyclicSpecR, cyclic_code_r, cyclic_dual_r, is_cyclic_r, self_dual_cyclic_search
from .fsd import (
    BorderedSpecR,
    CirculantSpecR,
    SignedPermutation,
    SymmetricMatrixR,
    construction_a,
    construction_b,
    construction_c,
    direct_product,
    gray_fsd_transfer,
    is_formally_self_dual,
    isodual_witness_check,
    odd_fsd_search,
)
from .verify import VerificationEntry, VerificationReport, run_verification_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
