"""Exact local computations for Iwahori p-refinements of GL(2n).

Modules: exact cyclotomic/Laurent symbolics (symring), truncated
Iwasawa-algebra coefficients for weight families (famring), p-adic linear
algebra and matrix factorizations (padiclin), permutations as image tuples
(perms), root data and Weyl transfer for GL(2n)/GSpin(2n+1) (rootspin),
classification of p-refinements (refine), principal-series Hecke operators
(princhecke), Shalika-model values and twisted zeta integrals
(shalikazeta), branching vectors and their p-adic interpolation
(branchfam), deterministic splitmix64 streams (rng), seeded matrix
samplers (sampling), and a verification CLI (cli).
"""

__version__ = "0.1.0"
