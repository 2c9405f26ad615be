"""Exact invariants of abelian group C*-algebras.

Countable abelian groups are described symbolically (torsion descriptor
plus a torsion-free part presented by towers of integer matrices); the
package computes K-groups via exterior powers, rank-1 types via p-heights,
the unitary-group isomorphism invariant, and sound three-valued
isomorphism comparisons, all in exact arithmetic.
"""

from .matrices import (IntMatrix, RatMatrix, SingularMatrixError, SmithForm,
                       compound_matrix, rational_inverse, smith_normal_form)
from .fg import (Cardinal, FgAbGroup, OMEGA, TorsionDesc, TRIVIAL_GROUP,
                 fg_isomorphic, from_relations, torsion_cardinal)
from .towers import (GroupElement, INF, Supernatural, Tower, TypeClass,
                     ZeroElementError, characteristic, direct_sum_towers,
                     elements_equal, height, is_divisible, membership,
                     push_to_stage, rank1_isomorphic,
                     rank1_tower_from_supernatural, tensor_towers,
                     tower_type, types_equivalent, unit_element,
                     validate_tower)
from .groups import (AbGroupDesc, CompletelyDecomposable, DirectSum,
                     FreeOfRank, OmegaCopies, Rank1, TowerForm, describe,
                     direct_sum_of, flatten)
from .wedge import (k0, k1, wedge_divisible_by_search, wedge_power_tower,
                    wedge_square_type, wedge_unit_divisible)
from .compare import (DimensionMismatchError, SingularWitnessError,
                      UnitaryInvariant, Verdict, Witness, amplify,
                      check_witness, compare_free_parts, compare_k1,
                      compare_unitary, unitary_invariant)
from .gallery import (GalleryEntry, Claim, builtin_gallery,
                      default_pair_config, load_pair_config, render_report,
                      verify_entry, verify_gallery)
from .groupfile import (ParseError, ValidationError, emit_group,
                        parse_group_file, parse_witness_file)

__version__ = "0.1.0"
