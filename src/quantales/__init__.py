"""Finite sup-lattices, involutive quantales and their open-map checkers."""

__version__ = "0.1.0"

from .suplattice import (FiniteSupLattice, SupMap, is_sup_map, left_adjoint,
                         right_adjoint, validate_lattice)
from .quantale import (EffectiveInvQuantale, FiniteInvQuantale, QuantaleMap,
                       Violation, find_unit, finite_subquantale, identity_map,
                       is_surjective, validate_hom, validate_quantale)
from .nucleus import (Nucleus, QuotientQuantale, RelationPresentation,
                      nucleus_from_relation, quotient, quotient_by_relation,
                      saturate_relation, saturated_elements)
from .openness import (Check, FrobeniusReport, check_fr1, check_fr1_right,
                       check_fr2, check_locale_meet_lemma, check_semiopen,
                       frobenius_report, is_locale_quantale)
from .tensor import (BiIdeal, TensorLattice, check_bimorphism,
                     induced_from_bimorphism, unit_iso)
from .subspaces import RationalSubspace
from .freeprod import (PullbackContext, Word, all_words,
                       verify_adjunction_on_words, verify_beck_chevalley,
                       verify_pullback_frobenius,
                       verify_relation_compatibility, word_direct_image)
