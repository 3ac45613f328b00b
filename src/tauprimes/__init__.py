"""Exact computation with Ramanujan's tau function.

Series tables, Hecke arithmetic at prime powers, mod-23 congruence
classification, prime-value search, even-index polynomial structure, and
explicit analytic count bounds, with a CLI (`tauprimes`) over all of it.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    DirichletSum,
    admissible_k_range,
    attainable_prime_ceiling,
    bound_report,
    bvdp_count_bound,
    decade_margin,
    density_fraction,
    dirichlet_partial_sum,
    pi_bracket,
    positivity_crossover,
    progression_decade_floor,
)
from .cache import default_cache_path, dump_cache, read_cache, table_for, tau_at, write_cache
from .congruence import (
    Class23,
    Class23Tag,
    allowed_residues_for_prime_value,
    classify_mod23,
    excluded_b_set,
    legendre,
    parity_law,
    tau_mod23,
)
from .errors import (
    BudgetExceededError,
    CacheError,
    CacheMalformedError,
    CacheTruncatedError,
    CacheVersionError,
    DegenerateDiscriminantError,
    MissingPrimeError,
)
from .hecke import (
    Factorization,
    PrimeLocalData,
    closed_form_residual,
    factorize,
    hecke_terms,
    tau_of_n,
    tau_prime_power,
)
from .primality import is_probable_prime, primes_up_to
from .search import (
    CensusReport,
    SearchHit,
    Verdict,
    census_by_residue,
    search_prime_tau,
    smallest_prime_tau,
)
from .series import TauTable, delta_series, tau_values
from .spectral import (
    ApproximationQuality,
    EvenIndexPoly,
    RootSet,
    approximation_quality,
    cyclotomic_factor_magnitudes,
    eval_dehomogenized,
    eval_even_poly,
    even_index_poly,
    growth_check,
    min_gap,
    root_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
