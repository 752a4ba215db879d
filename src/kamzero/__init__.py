"""Taylor-Fourier Hamiltonian algebra and a zero-frequency normal-form engine."""

from .series import (Budgets, DomainParams, MonomialKey, SeriesDims, TFSeries,
                     fourier_truncate, lie_transform, poisson_bracket,
                     split_low_high, vector_field_norm, weighted_norm)
from .matrixkit import SingularSystem, det_modulus, kron, op_norm, solve_dense, vec
from .homological import (NormalForm, ResonanceCondition, ResonantParameter,
                          check_nonresonance, hom_residual, solve_homological)
from .driver import (BaseParams, BudgetExhausted, IterationReport, KamParams,
                     PremiseFailed, delta0, dichotomy, iterate, kam_step,
                     make_synthetic_problem, no_torus_witness, run, schedule)
from .measure import AffineFrequencyMap, MeasureReport, ParameterGrid, estimate_excluded
from .nls import (NlsModel, birkhoff_transform, build_nls, g_tensor,
                  index_solvability, parity_check, to_kam_form)

__all__ = [name for name in dir() if not name.startswith("_")]
