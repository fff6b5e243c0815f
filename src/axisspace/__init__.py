"""axisspace: exact model theory of vector spaces with a union-of-axes predicate.

The library implements, over Q and GF(p):

* canonical models built from independent axis blocks and free coordinates,
  with the support / weight / projection calculus and generic witnesses,
* the quantifier-free type invariant of tuples (membership subspace plus the
  multiset of axis-projection kernels) and its reconstruction from weight
  data alone,
* extension of equivalent tuples to hull isomorphisms and the back-and-forth
  step between rich models, including a generator-level isomorphism game for
  finite fragments,
* a first-order formula language (linear equations and sumset predicates)
  with parser, printer and evaluator,
* effective quantifier elimination and sentence decision over infinite
  fields, with a witness search that checks every candidate by evaluation,
* 1-type classification over finitely generated fragments with explicit
  conjugacy witnesses, and
* the finite-field construction of quantifier-free equivalent pairs spanning
  subspaces of different weights.
"""

from .fields import FieldCtx, Scalar
from .linalg import (
    Subspace,
    intersect,
    kernel,
    member,
    subspace_from_generators,
    subspace_sum,
)
from .model import (
    ALEPH0,
    AxisId,
    Model,
    ModelDescriptor,
    ModelElement,
    SubspaceHandle,
    axes_of,
    axes_of_subspace,
    canonical_model,
    descriptor_iso,
    hull_hat,
    in_Xn,
    make_descriptor,
    parallel,
    pi_A,
    proj_axis,
    rich_model,
    support,
    weight,
    weight_of_subspace,
    witness_star,
    z_multiple_check,
)
from .invariant import (
    LinearMapFa,
    QfInvariant,
    apply_fa,
    g_of,
    g_via_inclusion_exclusion,
    kernel_candidates,
    multiplicity_via_inclusion_exclusion,
    qf_equiv,
    qf_invariant,
    weights_oracle_via_witness,
)
from .iso import PartialIso, back_and_forth_step, extend_to_hat, fragment_isomorphism_game
from .formula import Formula, Term, eval_qf, parse_formula, print_formula
from .qe import (
    decide_sentence,
    eliminate_all,
    eliminate_exists,
    witness_search,
)
from .typespace import GenericFree, Realized, SumType, classify, conjugacy_witness
from .finitefield import brute_qf_equiv, construct_counterexample
from .context import dump_context, load_context

__version__ = "0.1.0"
