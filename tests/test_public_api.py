"""The names ``vcodes`` exports: adding or removing one is a deliberate edit of this list."""

import pytest

import vcodes

PUBLIC_NAMES = [
    "BorderedSpecR",
    "CharacteristicTwoUnsupported",
    "CirculantSpecR",
    "CyclicSpecR",
    "DivisionByZero",
    "EmptyCode",
    "GF",
    "LinearCodeFq",
    "LinearCodeR",
    "NotADivisor",
    "NotSymmetric",
    "ParamMismatch",
    "ParseError",
    "Poly",
    "Ring",
    "RingElem",
    "SearchSpaceTooLarge",
    "ShapeError",
    "SignedPermutation",
    "SymmetricMatrixR",
    "TransformInconsistent",
    "VCodesError",
    "VerificationEntry",
    "VerificationReport",
    "WeightEnumerator",
    "audit_published_lee_table",
    "combine_components",
    "complete_enumerator",
    "construction_a",
    "construction_b",
    "construction_c",
    "cyclic",  # the submodules are listed too: __all__ is every public name the package imports
    "cyclic_code_fq",
    "cyclic_code_r",
    "cyclic_dual_generator",
    "cyclic_dual_r",
    "direct_product",
    "errors",
    "factor_xn_minus_1",
    "fieldcode",
    "format_elem",
    "format_poly",
    "format_row",
    "fsd",
    "gf",
    "gray_fsd_transfer",
    "hamming_enumerator_fq",
    "hamming_enumerator_r",
    "is_cyclic_r",
    "is_formally_self_dual",
    "isodual_witness_check",
    "lee_enumerator",
    "macwilliams_hamming_fq",
    "macwilliams_lee",
    "monic_divisors_of_xn_minus_1",
    "odd_fsd_search",
    "parse_elem",
    "parse_poly",
    "ring",
    "ring_over",
    "ringcode",
    "rref",
    "run_verification_suite",
    "self_dual_cyclic_search",
    "specialize",
    "submodules",
    "symmetrized_enumerator",
    "verify",
    "wenum",
]


def test_public_names_are_pinned():
    assert sorted(vcodes.__all__) == PUBLIC_NAMES


R3 = vcodes.ring_over(3)
F3 = vcodes.GF(3)
_LEE = vcodes.WeightEnumerator("lee", 1, 3, {0: 1})
_SWE = vcodes.symmetrized_enumerator(vcodes.LinearCodeR(R3, 1, [[1]]))

# bad input at a public entry point: lengths and ragged rows raise ShapeError
# (a bare [] at contains or reduce_vector is one vector of length 0), unknown
# names and non-integer row, matrix or coefficient entries ParamMismatch
BAD_INPUTS = {
    "ring-contains-length": (vcodes.ShapeError, lambda: vcodes.LinearCodeR(R3, 2, [[1, 2]]).contains([1, 2, 3])),
    "fq-contains-length": (vcodes.ShapeError, lambda: vcodes.LinearCodeFq(F3, 2, [[1, 2]]).contains([1, 2, 0])),
    "fq-reduce-length": (vcodes.ShapeError, lambda: vcodes.LinearCodeFq(F3, 2, [[1, 2]]).reduce_vector([1])),
    "gray-words-length": (vcodes.ShapeError, lambda: vcodes.LinearCodeR(R3, 2, [[1, 2]]).gray_words([[1, 2, 3]])),
    "ring-code-negative-n": (vcodes.ShapeError, lambda: vcodes.LinearCodeR(R3, -1, [])),
    "fq-code-negative-n": (vcodes.ShapeError, lambda: vcodes.LinearCodeFq(F3, -1, [])),
    "permutation-length": (vcodes.ShapeError, lambda: vcodes.SignedPermutation((1, 0), (False, True)).apply(R3, [[1, 2, 3]])),
    "distance-strategy": (vcodes.ParamMismatch, lambda: vcodes.LinearCodeR(R3, 1, [[1]]).min_lee_distance("component-lemma")),
    "enumerator-kind": (vcodes.ParamMismatch, lambda: vcodes.WeightEnumerator("rank", 1, 3, {0: 1})),
    "specialize-target": (vcodes.ParamMismatch, lambda: vcodes.specialize(_SWE, "rank")),
    "specialize-kind": (vcodes.ParamMismatch, lambda: vcodes.specialize(_LEE, "hamming")),
    "combination-mode": (vcodes.ParamMismatch, lambda: vcodes.combine_components(R3, [vcodes.LinearCodeFq(F3, 1, [[1]])] * 3, "crt")),
    "suite-scope": (vcodes.ParamMismatch, lambda: vcodes.run_verification_suite(scope="lattice")),
    "fq-code-ragged": (vcodes.ShapeError, lambda: vcodes.LinearCodeFq(F3, 2, [[1, 2], [1]])),
    "fq-code-float": (vcodes.ParamMismatch, lambda: vcodes.LinearCodeFq(F3, 2, [[1.5, 2]])),
    "fq-code-none": (vcodes.ParamMismatch, lambda: vcodes.LinearCodeFq(F3, 2, [[None, 2]])),
    "fq-code-string": (vcodes.ParamMismatch, lambda: vcodes.LinearCodeFq(F3, 2, [["1", 2]])),
    "fq-contains-float": (vcodes.ParamMismatch, lambda: vcodes.LinearCodeFq(F3, 2, [[1, 2]]).contains([1.5, 2.9])),
    "gray-words-float": (vcodes.ParamMismatch, lambda: vcodes.LinearCodeR(R3, 2, [[1, 3]]).gray_words([[1.5, 2.0]])),
    "permutation-float": (vcodes.ParamMismatch, lambda: vcodes.SignedPermutation((1, 0), (True, False)).apply(R3, [[1.5, 2]])),
    "rref-float": (vcodes.ParamMismatch, lambda: vcodes.rref([[1.5, 2]], 3)),
    "rref-stack-float": (vcodes.ParamMismatch, lambda: vcodes.fieldcode.rref_stack([[[1.5, 2]]], 3)),
    "poly-float": (vcodes.ParamMismatch, lambda: vcodes.Poly(F3, [1.5, 1])),
    "fq-contains-empty": (vcodes.ShapeError, lambda: vcodes.LinearCodeFq(F3, 2, [[1, 2]]).contains([])),
    "fq-reduce-empty": (vcodes.ShapeError, lambda: vcodes.LinearCodeFq(F3, 2, [[1, 2]]).reduce_vector([])),
    "ring-contains-empty": (vcodes.ShapeError, lambda: vcodes.LinearCodeR(R3, 2, [[1, 2]]).contains([])),
}


@pytest.mark.parametrize("error,call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_a_typed_error(error, call):
    with pytest.raises(error):
        call()
