"""Exact-arithmetic construction and verification of n-ary bracket
superalgebras: catalog algebras and their bracket tables, the universal
graded container and subalgebra generation, top-element pairings with
polynomial carrier realizations, derivation spaces, and the prime
characteristic experiments."""

__version__ = "0.1.0"

from .fields import GF, QQ, Field, FieldError, field_from_name
from .superspace import EVEN, ODD, SuperSpace
from .catalog import algebra_O, algebra_S, algebra_SW, algebra_W
from .nlie import FiniteNAryAlgebra, check_filippov, parse_table, serialize_table
from .liegen import check_admissible, check_mu_relations, check_truncation
from .derivations import analyze_derivations
from .charp import CharPSeed, charp_fj_check, charp_generation, q_control
from .realizations import check_splits, parse_handle, verify_pair
