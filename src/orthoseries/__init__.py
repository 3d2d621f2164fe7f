"""Orthogonal series in discrete direct integrals of Hilbert spaces.

A numerical library for modeling orthonormal systems of vector-valued
functions over finite atomic measure spaces, the Weyl-multiplier
convergence conditions of the Menshov-Rademacher, Tandori, and Orlicz
circle of theorems, partial-sum majorants, and a seeded harness that
verifies every finite inequality those results rest on.
"""

from .coefficients import (Classification, ConditionId, ConditionReport,
                           ReductionReport, SequenceSpec, TandoriBlocks,
                           WeightSpec, block_masses, condensation_chain,
                           orlicz_conditions, orlicz_reduction, tandori_blocks,
                           tandori_sum, weyl_sum)
from .direct_integral import (DirectIntegralElement, Field, GramReport,
                              HilbertCollection, MeasureSpace,
                              OrthonormalSystem, gram_matrix, inner_product,
                              norm, validate_ons)
from .errors import BudgetError, ContractError, StructuralError
from .majorants import (AdversarialStrategy, BlockOscillation,
                        ChainingDiagnostics, DyadicDecomposition,
                        MajorantProfile, adversarial_permutation, chaining_diagnostics,
                        dyadic_decomposition, dyadic_pointwise_bound, majorant,
                        permuted_majorant, prefix_sum, tandori_delta)
from .systems import SystemKind, SystemSpec, generate
from .verify import (Check, CheckResult, TrialConfig, VerifyReport, default_config,
                     oracle_majorant, run_suite)

__version__ = "0.1.0"

__all__ = [
    "AdversarialStrategy", "BlockOscillation", "BudgetError",
    "ChainingDiagnostics", "Check", "CheckResult", "Classification",
    "ConditionId", "ConditionReport", "ContractError",
    "DirectIntegralElement", "DyadicDecomposition", "Field", "GramReport",
    "HilbertCollection", "MajorantProfile", "MeasureSpace",
    "OrthonormalSystem", "ReductionReport", "SequenceSpec", "StructuralError", "SystemKind",
    "SystemSpec", "TandoriBlocks", "TrialConfig", "VerifyReport",
    "WeightSpec", "adversarial_permutation", "block_masses",
    "chaining_diagnostics", "condensation_chain", "default_config",
    "dyadic_decomposition", "dyadic_pointwise_bound",
    "generate", "gram_matrix",
    "inner_product", "majorant", "norm", "oracle_majorant",
    "orlicz_conditions", "orlicz_reduction", "permuted_majorant",
    "prefix_sum", "run_suite", "tandori_blocks", "tandori_delta",
    "tandori_sum", "validate_ons", "weyl_sum",
]
