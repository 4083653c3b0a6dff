"""The public names of ``tck`` are part of its contract: a change to them
edits this list and is recorded in CHANGES.md."""

import importlib
import importlib.util
import inspect
import os

import tck

PUBLIC_NAMES = [
    "CatPresheaf", "CommaCone", "DEFAULT_BOUND", "DescentDatum", "DiscOpfibCat",
    "DiscOpfibPre", "EffectivenessWitness", "FinCat", "FinFunctor", "FinSetFunctor",
    "GrothTopology", "MapToOmega", "MapToOmegaJ", "MatchingFamily", "Modification",
    "NatTransform", "OmegaModification", "PresheafMap", "SetFunctorMap", "SetPresheaf",
    "SheafDescentDatum", "Sieve", "TwoNat", "amalgamations", "build_category",
    "certify_dopf", "certify_dopf_pre", "char", "char_stacks", "check_stack", "classify",
    "comma", "discrete_category", "effectiveness", "elements_of", "ell_factors",
    "ff_check", "fib_hom", "fib_iso", "fiber_functor", "free_category", "gamma_mod",
    "is_separated", "is_sheaf", "j_forward", "j_inverse", "lax_limit_of_arrow", "lift",
    "matching_families", "omega_J_probe", "omega_point", "opposite", "plus",
    "point_category", "pointwise_comma", "pointwise_pullback", "postcompose", "pullback",
    "pullback_sieve", "representable", "roundtrip_phi", "roundtrip_z", "sheafify",
    "sieve_generate", "slice_cat", "slice_topology", "subcanonical_check",
    "topology_from_generators", "validate_descent", "validate_topology", "yoneda",
    "yoneda_inv",
]


def test_public_names_of_tck_are_pinned():
    # submodules become attributes of tck once imported, so they are left out
    names = sorted(name for name, value in vars(tck).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES


def test_every_bench_span_names_a_tck_attribute():
    # bench/spans.py skips a traced name that does not resolve, so a rename
    # in tck would drop its span without an error
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, attr, _ in spans.TRACED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), (modname, attr)
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)
