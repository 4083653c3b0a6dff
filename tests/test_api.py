"""The public names of ``tck`` are part of its contract: a change to them
edits this list and is recorded in CHANGES.md."""

import ast
import functools
import glob
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


HERE = os.path.dirname(os.path.abspath(__file__))
TCK_DIR = os.path.join(HERE, "..", "src", "tck")
BENCH_DIR = os.path.join(HERE, "..", "bench")


def _tck_module(imported: str | None, level: int) -> str | None:
    """The tck module an import names: "fincat" for `.fincat` or
    `tck.fincat`, "" for `.` or `tck`, None outside tck."""
    if level:
        return imported or ""
    if imported == "tck":
        return ""
    if imported and imported.startswith("tck."):
        return imported[len("tck."):]
    return None


def _imports(tree) -> tuple[dict, dict]:
    """The names a module imports from tck, anywhere in it: local name ->
    (module, name), and local module alias -> module."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = _tck_module(node.module, node.level)
            if mod is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if mod == "":
                    modules[local] = alias.name
                else:
                    names[local] = (mod, alias.name)
    return names, modules


def _references(node, names, modules, top, mod) -> set:
    """The (module, name) pairs the code under node refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in top:
                out.add((mod, sub.id))
            elif sub.id in names:
                out.add(names[sub.id])
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            out.add((modules[sub.value.id], sub.attr))
    return out


def _tck_graph() -> tuple[set, dict]:
    """Every top-level def (function or class) and assigned name, dunders
    aside, of src/tck as (module, name), and the references out of every
    top-level name: a def's body, an assignment's value, or an import's
    source."""
    defs, edges = set(), {}
    for path in sorted(glob.glob(os.path.join(TCK_DIR, "*.py"))):
        mod = os.path.splitext(os.path.basename(path))[0]
        mod = "" if mod == "__init__" else mod
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names, modules = _imports(tree)
        top = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.add((mod, node.name))
                top[node.name] = node
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    top[t.id] = node.value
                    if not t.id.startswith("__"):
                        defs.add((mod, t.id))
        for name, (src, attr) in names.items():
            edges.setdefault((mod, name), set()).add((src, attr))
        for name, node in top.items():
            edges[(mod, name)] = _references(node, names, modules, top, mod)
    return defs, edges


def _bench_roots() -> set:
    """Every tck name bench/ reads, by AST: names imported from tck,
    attributes of tck modules it imports, and the targets of
    spans.TRACED."""
    roots = set()
    for path in sorted(glob.glob(os.path.join(BENCH_DIR, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names, modules = _imports(tree)
        roots |= set(names.values())
        roots |= _references(tree, {}, modules, {}, None)
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
                for modname, attr, _ in ast.literal_eval(node.value):
                    roots.add((_tck_module(modname, 0), attr.split(".")[0]))
    return roots


def test_every_top_level_def_in_src_tck_is_reached_from_a_command_a_public_name_or_bench():
    # oracles, fixtures and aliases that only tests call live under tests/
    defs, edges = _tck_graph()
    roots = {("", name) for name in PUBLIC_NAMES}
    roots |= {("cli", "main"), ("cli", "_HANDLERS")} | _bench_roots()
    seen, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(edges.get(node, ()))
    assert sorted(defs - seen) == []


def test_no_module_in_src_tck_but_fincat_refers_to_the_public_slice_cat():
    # tck reads a slice through fincat._slice_of: a caller of slice_cat in
    # src would build the domain projection only to discard it.  The
    # package's __init__ names slice_cat to re-export it.
    refs = []
    for path in sorted(glob.glob(os.path.join(TCK_DIR, "*.py"))):
        mod = os.path.splitext(os.path.basename(path))[0]
        if mod in ("fincat", "__init__"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "slice_cat":
                refs.append((mod, node.lineno))
    assert refs == []


def _decorator_name(node) -> str | None:
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def test_every_frozen_dataclass_in_src_tck_is_declared_through_value_class():
    # fincat.value_class gives a value's == and != their identity shortcut;
    # a class declared with dataclass(frozen=True) would compare field by
    # field even with itself
    frozen = []
    for path in sorted(glob.glob(os.path.join(TCK_DIR, "*.py"))):
        mod = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                if _decorator_name(dec) == "dataclass" and isinstance(dec, ast.Call) and any(
                        k.arg == "frozen" and getattr(k.value, "value", None) is True
                        for k in dec.keywords):
                    frozen.append((mod, node.name))
    assert frozen == []


def test_no_module_in_src_tck_reads_an_instance_dict_or_uses_functools_cached_property():
    # on CPython 3.11 reading obj.__dict__ (or vars(obj)) turns every later
    # attribute read on obj into a dict lookup, and functools.cached_property
    # stores into the instance dict; validity marks and caches go through
    # fincat.mark_valid and fincat.cached_property instead
    found = []
    for path in sorted(glob.glob(os.path.join(TCK_DIR, "*.py"))):
        mod = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                found.append((mod, node.lineno, "__dict__"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "vars"):
                found.append((mod, node.lineno, "vars"))
        if mod != "__init__":
            m = importlib.import_module(f"tck.{mod}")
            found += [(mod, cls.__qualname__, name)
                      for _, cls in inspect.getmembers(m, inspect.isclass)
                      if cls.__module__ == m.__name__
                      for name, attr in inspect.getmembers(cls)
                      if isinstance(attr, functools.cached_property)]
    assert found == []


def _warm_pass():
    """One call of each layer's main entry points on corpus inputs built
    here, so that everything the pass makes dies when it returns."""
    from fixture_corpus import (
        constant_cat_presheaf,
        dopf_corpus,
        map_to_omega_corpus,
        nonseparated_presheaf,
        open_site,
        open_site_topology,
        walking_arrow,
    )
    from test_stacks import walking_iso
    from tck.corpus import presheaf_corpus
    from tck.prestack import discrete_presheaf, fibre_diagram

    OS, j = open_site(), open_site_topology()
    for Z in presheaf_corpus(OS, 6) + [nonseparated_presheaf()]:
        tck.is_sheaf(Z, j)
        tck.is_separated(Z, j)
        tck.sheafify(Z, j)
        tck.check_stack(discrete_presheaf(OS, Z), j)
    tck.check_stack(constant_cat_presheaf(OS, walking_iso()), j)
    F = tck.representable(walking_arrow(), "b")
    for phi in dopf_corpus(F, 4):
        psi = tck.certify_dopf_pre(phi.s)
        tck.fib_iso(tck.classify(tck.char(psi)), psi)
        tck.fiber_functor(tck.elements_of(fibre_diagram(psi)))
    zs = map_to_omega_corpus(F, 3)
    for z in zs:
        tck.roundtrip_z(z)
        for w in zs:
            tck.ff_check(z, w)


def test_tck_values_die_by_reference_count():
    # under DEBUG_SAVEALL a collection keeps what it frees in gc.garbage, so
    # a tck value or function held in a reference cycle shows there
    import gc

    _warm_pass()
    enabled, debug, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[saved:]
        _warm_pass()
        gc.collect()
        cyclic = sorted({f"{kind.__module__}.{kind.__qualname__}"
                         for kind in (o if inspect.isfunction(o) else type(o)
                                      for o in gc.garbage[saved:])
                         if (kind.__module__ or "").split(".")[0] == "tck"})
    finally:
        gc.set_debug(debug)
        del gc.garbage[saved:]
        if enabled:
            gc.enable()
    assert cyclic == []
