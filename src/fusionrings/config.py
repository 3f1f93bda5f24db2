"""Numerical tolerances.

The acceptance tolerance TOLERANCE = 1e-6 serves dimension matching,
residual checks and integer-bound rounding.  The one convergence threshold,
CONVERGENCE_TOL = 1e-13, stops the Perron power iteration
(graphs.perron_vector) behind both graph and ring dimensions.
MAX_DENSE_BYTES = 2**31 caps each dense 8-byte array the package allocates
(tensors built or loaded, verify_axioms' float64 blocks, the solver's arrays
of one entry per graded associativity instance or per rank^3 coefficient);
ring.check_dense raises BoundsExceededError before a larger one.
"""

TOLERANCE = 1e-6
CONVERGENCE_TOL = 1e-13
MAX_DENSE_BYTES = 2 ** 31
