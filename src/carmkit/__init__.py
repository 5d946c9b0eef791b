"""carmkit: construct, search for, and certify Carmichael numbers in residue classes."""

from .arith import (
    Factorization,
    PROBABLE_PRIME_THRESHOLD,
    carmichael_lambda,
    crt,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    jacobi,
    multiplicative_order,
)
from .errors import (
    AssemblyError,
    CapacityError,
    CarmkitError,
    ConstructionError,
    CrtConflictError,
    DomainError,
    InfeasibleError,
    OrderingError,
    UnfactoredError,
)
from .korselt import Census, census, enumerate_carmichael, fermat_witness, korselt_check
from .pipeline import (
    Caps,
    ConstructionParams,
    ConstructionState,
    PoolFilters,
    build_L,
    build_pool,
    compute_x,
    erdos_pool,
    find_k0,
    is_qr_mod_L,
    run_agp_construction,
)
from .sieve import SmoothPrimeQuery, build_Q, count_smooth_primes
from .solver import (
    AssemblySpec,
    CarmichaelCertificate,
    GroupInvariants,
    GroupSpec,
    ResidueTarget,
    SubsetCountBound,
    assemble,
    compute_invariants,
    count_lower_bound,
    derive_target,
    derive_target_exponent,
    exact_identity_threshold,
    subset_product_enumerate,
    subset_product_find,
)

__version__ = "0.1.0"
