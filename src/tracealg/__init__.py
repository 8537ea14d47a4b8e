"""Commutative nonassociative algebras with invariant trace forms."""
from .linalg import (FLOAT, RATIONAL, SymBilinearForm, Subspace, inertia,
                     nullspace, orthogonal_complement,
                     general_real_eigenvalues)
from .core import (Algebra, MetrizedAlgebra, as_float, decompose_ideals,
                   deunitalization, direct_sum, einstein_fit, from_json,
                   griess_einstein, intrinsic_unitalization, load_json,
                   retraction, tensor_product, to_json, unitalization,
                   verify_homomorphism, verify_isometric, voa_kappa)
from .catalog import (build_by_name, conformal_extension,
                      confext_idempotent_data, cyclic3, diagonal_generators,
                      gamma_vectors, herm0, herm0_coords, herm_jordan, lie_so,
                      lie_su, nahm, simplicial, simplicial_reflection,
                      su_circle, talg, tensor_witnesses, triple,
                      triple_embeddings, s4_transposition_matrices)
from .analysis import (complexified_special_elements_sect, constant_sect_check,
                       conformal_tensor, deunit_sect_shift_check,
                       group_spectrum, is_conformally_associative,
                       is_projectively_associative, isect, newton_idempotents,
                       orth_spectrum, sect, sect_extremize,
                       simplicial_idempotents, square_zero_rays,
                       talg_idempotents, triple_sect_relations_check)
from .inequalities import bw_lie_estimate, bw_reduction_check, cdk_residual

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
