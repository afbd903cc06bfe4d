"""Classification toolkit for finite rings of characteristic p.

The rings in scope are extensions of a Galois field GF(p^r) by a radical
with square landing in the annihilator part; a presentation is the field,
a tuple of structural matrices, and Frobenius twist data.  The package
classifies the structural data up to the matching notion of equivalence
(congruence twists plus field automorphisms), tests isomorphism of
presentations with certified witnesses, counts classes in closed form,
and builds the rings themselves for direct inspection.
"""

from .classify import (BudgetExceededError, ClassReport, OrbitClass,
                       OrbitResult, classify_congruence, classify_subspaces,
                       orbit_of)
from .counting import (NotCoveredError, Prediction, congruence_class_count,
                       count_s1, count_t_full, gaussian_binomial,
                       predicted_count, symmetric_line_count)
from .gf import GF
from .matspace import (CompatReport, SubspaceKey, bilinear_class_reps,
                       congruence_twist, enumerate_subspaces, subspace_key,
                       subspace_rows, symmetric_reps, tuple_compatible)
from .rings import (AutomorphismConstraintError, AxiomReport, IsoWitness,
                    Ring, RingSpec, StructureReport, check_axioms,
                    equivalent_spec, iso_test, ring_structure, verify_witness)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "BudgetExceededError", "ClassReport", "OrbitClass", "OrbitResult",
    "classify_congruence", "classify_subspaces", "orbit_of",
    "NotCoveredError", "Prediction", "congruence_class_count", "count_s1",
    "count_t_full", "gaussian_binomial", "predicted_count",
    "symmetric_line_count",
    "CompatReport", "SubspaceKey", "bilinear_class_reps", "congruence_twist",
    "enumerate_subspaces", "subspace_key", "subspace_rows", "symmetric_reps",
    "tuple_compatible",
    "AutomorphismConstraintError", "AxiomReport", "IsoWitness", "Ring",
    "RingSpec", "StructureReport", "check_axioms", "equivalent_spec",
    "iso_test", "ring_structure", "verify_witness",
    "__version__",
]
