"""Finite sup-lattices, involutive quantales and their open-map checkers."""

__version__ = "0.1.0"

from .suplattice import (ClosureOperator, FiniteSupLattice, SupMap,
                         closure_from_closed_family, enumerate_sup_maps,
                         is_sup_map, left_adjoint, preserves_all_meets,
                         right_adjoint, validate_lattice)
from .quantale import (EffectiveInvQuantale, FiniteInvQuantale, QuantaleMap,
                       Violation, compose_maps, find_unit, finite_subquantale,
                       identity_map, is_surjective, quantale_isomorphism,
                       validate_hom, validate_quantale)
from .nucleus import (Nucleus, QuotientQuantale, RelationPresentation,
                      equalizer, factor_sup_map, nucleus_from_relation,
                      quotient, quotient_by_relation, saturate_relation,
                      saturated_elements)
from .openness import (Check, FrobeniusReport, check_fr1, check_fr1_right,
                       check_fr2, check_locale_meet_lemma, check_semiopen,
                       frobenius_report, is_locale_quantale)
from .tensor import (BiIdeal, DirectSum, TensorLattice, associator,
                     check_bimorphism, direct_sum, induced_from_bimorphism,
                     pure_tensor, unit_iso)
from .subspaces import RationalSubspace
from .freeprod import (PullbackContext, Word, all_words, grade_of,
                       verify_adjunction_on_words, verify_beck_chevalley,
                       verify_pullback_frobenius,
                       verify_relation_compatibility, word, word_direct_image,
                       word_involution, word_multiply)
