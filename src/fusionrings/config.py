"""Numerical tolerances.

The acceptance tolerance TOLERANCE = 1e-6 serves dimension matching,
residual checks and integer-bound rounding.  The one convergence threshold,
CONVERGENCE_TOL = 1e-13, stops the Perron power iteration
(graphs.perron_vector) behind both graph and ring dimensions.
MAX_DENSE_BYTES = 2**31 caps each dense fusion tensor the constructions
allocate and each rank^4 contraction of the solver's associativity pass; a
larger one raises BoundsExceededError before it is allocated.
"""

TOLERANCE = 1e-6
CONVERGENCE_TOL = 1e-13
MAX_DENSE_BYTES = 2 ** 31
