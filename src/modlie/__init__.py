"""modlie: exact computer algebra for classical modular Lie algebras.

Root systems, Chevalley bases with integer structure constants, PBW normal
forms in U(L), reduced enveloping algebras and baby Verma matrix modules
over F_p, and verification reports for commuting-element product bases.
"""

from .roots import Root, RootSystem, build_root_system, cartan_integer, reflect, root_string, weyl_orbit
from .chevalley import (
    LieAlgebra,
    LieElement,
    bracket,
    build_chevalley,
    check_subalgebra,
    extend_by_cartan,
)
from .pbw import EnvelopingAlgebra, UEElement, commutator, is_central, multiply, weight
from .redenv import (
    Character,
    MatrixRep,
    baby_verma,
    evaluate,
    invertible_in_rep,
    is_irreducible,
    reduce,
    singular_constants,
)

__version__ = "0.1.0"

__all__ = [
    "Root",
    "RootSystem",
    "build_root_system",
    "cartan_integer",
    "reflect",
    "weyl_orbit",
    "root_string",
    "LieAlgebra",
    "LieElement",
    "build_chevalley",
    "bracket",
    "check_subalgebra",
    "extend_by_cartan",
    "EnvelopingAlgebra",
    "UEElement",
    "multiply",
    "commutator",
    "is_central",
    "weight",
    "Character",
    "MatrixRep",
    "reduce",
    "baby_verma",
    "evaluate",
    "invertible_in_rep",
    "is_irreducible",
    "singular_constants",
    "__version__",
]
