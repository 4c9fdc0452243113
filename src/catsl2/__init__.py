"""Exact computations with categorified Jones-Wenzl projectors.

Chain complexes over Bar-Natan's dotted cobordism categories, their
simplification calculus (delooping, Gaussian elimination, convolutions),
truncated Cooper-Krushkal projectors with their polynomial action, and
colored sl2 link homology of braid closures.
"""

from .cobordism import CobMorphism, FlatTangle, GradedObject
from .complexes import (ChainMap, Complex, SDRData, Slice, ZComplex, cone,
                        convolution_complete, deloop, direct_sum, dual, fold,
                        hom_complex, juxtapose_complexes, partial_trace_complex,
                        shift, simplify, tautological_complex, tensor)
from .config import Config
from .homology import (BigradedGroups, integer_homology, poincare_polynomial,
                       smith_normal_form, u_action_on_homology)
from .links import (ColoredDiagram, bracket_colored, cable, framing_check,
                    invariance_spotcheck, link_homology, merging_check)
from .projectors import (TruncatedProjector, braid_letter_complex, build_qn,
                         pad_columns, q1, q2, q3, quasi_projector,
                         symmetric_sequence, truncated_pn, turnback_check)
from .series import TruncatedSeries
from .tl import (Matching, TLElement, closure_evaluate, euler_characteristic,
                 jw, tl_mul)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
