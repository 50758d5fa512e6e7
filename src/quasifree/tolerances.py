"""Every threshold the formulas decide with, each defined once.

Each verdict is a zero decision (a probability that vanishes, supports that
differ, a sum that diverges), and these are its cuts. ``car``, ``ccr``,
``matcore``, ``seqmodel`` and ``cli`` hold none of their own; README "Design
notes" gives each one's scale at every site and its derivation.
"""

VALIDATION_TOL = 1e-10  # input symmetry and positivity defects, relative to 1 + max |entry|
ZERO_TOL = 1e-10  # structural zero of a spectrum or singular values, relative to its site's scale
CERTIFY_MARGIN = 2.0  # a certificate clears this x ZERO_TOL: CAR overlap LU, CCR mu x cond(2R)
FORM_BOUND = 1e307  # d x largest |entry| of sigma and R: validate_ccr refuses larger forms
EXACT_TOL = 1e-12  # absolute: an imaginary part that is zero, two symplectic forms that are one
DEGENERACY_SNAP = 1e-12  # a CAR eigenvalue this close to 0 or 1 is exactly degenerate
SUPPORT_GAP = 1e-6  # CCR supports differ when their projections are farther apart (HS)
CONDITION_BOUND = 1e12  # largest extreme-eigenvalue ratio that mutual domination allows
KERNEL_LEAK_TOL = 1e-8  # 2R_S leaks off ker 2R_T above this times 1 + ||2R_S||
COMMON_SUPPORT_TOL = 1e-8  # geometric_mean: eigenvalues of P_A + P_B this close to 2
WINDOW_EPS = 1e-3  # a window of partial sums that adds less than this converges,
DIVERGENCE_FACTOR = 10.0  # and one adding this factor more, last term not collapsed, diverges
THERMAL_MATCH_TOL = 1e-9  # qf oracle-compare: distance from single-mode thermal-diagonal
ORACLE_COMPARE_TOL = 1e-8  # qf oracle-compare: default --tol between formula and oracle
