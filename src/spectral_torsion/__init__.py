"""Exact verification of the spectral torsion functional.

The core pipeline computes W(u^ v^ w^ D_T |D_T|^{-n}) by exact Clifford and
pseudodifferential symbol calculus over Gaussian rationals; the model modules
cover gauge (matrix) coefficients, the doubled space, the noncommutative
torus, and the quantum-disc boundary of SU_q(2).
"""
from __future__ import annotations

from .clifford import (Multivector, chirality, clifford_action, clifford_trace,
                       reduce_word, trace_power)
from .matrices import MatrixQQ
from .scalars import QQi, parse_complex_rational, parse_rational, qi
from .symcalc import (HomogeneousSymbol, PiValue, SymbolSum, compose, moment,
                      negative_power, parametrix, sphere_integrate,
                      sphere_volume, sqrt_symbol)
from .torsion import (ContorsionTensor, OneForm, ResidueValue, TorsionTensor,
                      chirality_functional, closed_form_torsion,
                      contorsion_from_torsion, dirac_symbol,
                      inverse_power_symbol, lead_residue, metric_functional,
                      pipeline_coefficient, spectral_closedness_check,
                      sphere_average, torsion_contraction,
                      torsion_from_contorsion, torsion_functional,
                      volume_functional)
from .almostcommutative import (DoubledEvaluator, DoubledOneForm, EymModel,
                                MatrixOneForm, adjoint_matrix, adjoint_trace,
                                doubled_spanning_forms, doubled_torsion_free_test,
                                eym_dirac_symbol, eym_torsion_density,
                                left_mult_matrix)
from .qmodels import (CancellationReport, ConvergenceError, FormalSeries,
                      QuantumDiscElement, Suq2DiracSpec, TorusElement,
                      antisymmetric_theta, disc_truncated_trace,
                      suq2_paired_combination, suq2_residue_cancellation,
                      tau1, torus_exp, torus_trace_identity, zstar_z)
from .sampling import (random_anti_hermitian_traceless, random_fraction,
                       random_one_form, random_qqi, random_theta,
                       random_torsion, random_torus_h, seeded)

__version__ = "0.1.0"

__all__ = [
    "CancellationReport", "ContorsionTensor", "ConvergenceError",
    "DoubledEvaluator", "DoubledOneForm", "EymModel", "FormalSeries",
    "HomogeneousSymbol", "MatrixOneForm", "MatrixQQ", "Multivector", "OneForm",
    "PiValue", "QQi", "QuantumDiscElement", "ResidueValue", "Suq2DiracSpec",
    "SymbolSum", "TorsionTensor", "TorusElement", "adjoint_matrix",
    "adjoint_trace", "antisymmetric_theta", "chirality",
    "chirality_functional", "clifford_action", "clifford_trace",
    "closed_form_torsion", "compose", "contorsion_from_torsion",
    "dirac_symbol", "disc_truncated_trace", "doubled_spanning_forms",
    "doubled_torsion_free_test", "eym_dirac_symbol", "eym_torsion_density",
    "inverse_power_symbol", "lead_residue", "left_mult_matrix",
    "metric_functional", "moment", "negative_power", "parametrix",
    "parse_complex_rational", "parse_rational", "pipeline_coefficient", "qi",
    "random_anti_hermitian_traceless", "random_fraction", "random_one_form",
    "random_qqi", "random_theta", "random_torsion", "random_torus_h",
    "reduce_word", "seeded", "spectral_closedness_check",
    "sphere_average", "sphere_integrate", "sphere_volume", "sqrt_symbol",
    "suq2_paired_combination", "suq2_residue_cancellation", "tau1",
    "torsion_contraction", "torsion_from_contorsion", "torsion_functional",
    "torus_exp", "torus_trace_identity", "trace_power", "volume_functional",
    "zstar_z",
]
