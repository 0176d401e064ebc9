"""Exact arithmetic for 4-dimensional linear systems of quadrics in P^4:
double quintic symmetroids, their 2-torsion Brauer classes as quaternion
symbols, local invariants at every place of Q, weak-approximation
obstruction certificates, lattice Nullstellensatz emptiness certificates,
and the sieve density bound for trivial evaluation at all finite primes.
"""

__version__ = "0.1.0"

from .brauer_eval import (LocalYPoint, WACertificate, certify_wa_failure,
                          evaluate_invariant, find_real_point_with_invariant,
                          lift_to_y)
from .density import (DensityReport, b_of_p, census_bp, gaussian_count,
                      monte_carlo_density, product_lower_bound, sp_member)
from .localfields import (REAL, hilbert_symbol, quaternion_invariant,
                          square_class)
from .nullstellensatz import (EmptinessCertificate, HomIdealPresentation,
                              Inconclusive, empty_all_primes,
                              empty_bihomogeneous, empty_over_fpbar)
from .pencil import (AlphaSymbol, Pencil, alpha_symbol, parse_pencil_file,
                     parse_pencil_text, rank_le2_minor_ideal,
                     regularity_certificate, x_point_from_singular_member)
from .quadform import FormClassification, QuadricForm, classify, ruling_disc

__all__ = [
    "AlphaSymbol", "DensityReport", "EmptinessCertificate",
    "FormClassification", "HomIdealPresentation", "Inconclusive",
    "LocalYPoint", "Pencil", "QuadricForm", "REAL", "WACertificate",
    "alpha_symbol", "b_of_p", "census_bp", "certify_wa_failure", "classify",
    "empty_all_primes", "empty_bihomogeneous", "empty_over_fpbar",
    "evaluate_invariant", "find_real_point_with_invariant",
    "gaussian_count", "hilbert_symbol", "lift_to_y", "monte_carlo_density",
    "parse_pencil_file", "parse_pencil_text", "product_lower_bound",
    "quaternion_invariant", "rank_le2_minor_ideal", "regularity_certificate",
    "ruling_disc", "sp_member", "square_class", "x_point_from_singular_member",
]
