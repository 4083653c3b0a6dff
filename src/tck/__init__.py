"""tck: discrete-opfibration classifiers over finite sites.

Layers, bottom up:

- fincat: finite categories, functors, natural transformations, slices,
  set-valued functors, and brute-force enumeration oracles;
- cat2: discrete opfibrations in Cat, comma objects, lax limits of arrows,
  the category of elements and its fibre-functor inverse;
- site: sieves, Grothendieck topologies, sheaf conditions, the plus
  construction and sheafification;
- prestack: strict Cat-valued presheaves, 2-naturals, modifications, and
  pointwise-certified discrete opfibrations;
- classifier: the presheaves-on-slices classifier held intensionally, with
  classify/char, the indexed-elements equivalence over representables, and
  full-faithfulness and round-trip verifiers;
- stacks: descent data, the three stack conditions, the sheaf-valued
  restriction of the classifier, and the sheaf gluing probe;
- docformat/cli: the line-oriented document format and the tck command.
"""

from .fincat import (
    DEFAULT_BOUND,
    FinCat,
    FinFunctor,
    FinSetFunctor,
    NatTransform,
    PresheafMap,
    SetFunctorMap,
    SetPresheaf,
    build_category,
    discrete_category,
    enumerate_functors,
    enumerate_nats,
    free_category,
    natural_iso,
    opposite,
    point_category,
    postcompose,
    slice_cat,
)
from .cat2 import (
    CommaCone,
    DiscOpfibCat,
    certify_dopf,
    comma,
    elements_of,
    fiber_functor,
    lax_limit_of_arrow,
    lift,
    pullback,
)
from .site import (
    GrothTopology,
    MatchingFamily,
    Sieve,
    amalgamations,
    is_separated,
    is_sheaf,
    matching_families,
    plus,
    pullback_sieve,
    sheafify,
    sieve_generate,
    slice_topology,
    subcanonical_check,
    topology_from_generators,
    validate_topology,
)
from .prestack import (
    CatPresheaf,
    DiscOpfibPre,
    Modification,
    TwoNat,
    certify_dopf_pre,
    enumerate_modifications,
    fib_hom,
    fib_iso,
    pointwise_comma,
    pointwise_pullback,
    representable,
    yoneda,
    yoneda_inv,
)
from .classifier import (
    MapToOmega,
    OmegaModification,
    char,
    classify,
    ff_check,
    gamma_mod,
    j_forward,
    j_inverse,
    omega_point,
    roundtrip_phi,
    roundtrip_z,
)
from .stacks import (
    DescentDatum,
    EffectivenessWitness,
    MapToOmegaJ,
    SheafDescentDatum,
    char_stacks,
    check_stack,
    effectiveness,
    ell_factors,
    omega_J_probe,
    validate_descent,
)

__version__ = "0.1.0"
