"""fractarith: certified interval arithmetic on one-dimensional homogeneous
self-similar sets, with a q-expansion toolkit for univoque sets."""

from .certifier import (Certificate, ConditionReport, SignCase, auto_certify,
                        certify_rectangle, check_global_condition, check_pointwise,
                        replay, replay_explain)
from .exactnum import (AlgebraicReal, FieldElement, Interval, IntervalUnion,
                       rat_from_str, rat_to_str, root_isolate)
from .exprfn import (GradEnclosure, compile_expr, differentiate, eval_interval,
                     eval_point, grad_enclosure, parse, to_text)
from .ifs_core import Code, GapProfile, HomogeneousIfs, cantor
from .qexp import (DigitSeq, QgPrefix, certify_uq_arith, is_univoque_seq, kq_ifs,
                   lex_less, pi_q, qstar, quasi_greedy_one, verify_kq_in_uq)
from .empirics import (DimEstimate, box_dim_estimate, grid_box_count,
                       ifs_box_counts, image_cover, oracle_check, uq_cover)

__version__ = "0.1.0"
