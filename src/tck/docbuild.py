"""Assemble Documents from semantic values.

Every referenced category/functor gets a synthesized named block,
deduplicated by value, so the serialized file is self-contained and
parses back to equal values.  The benchmark builds its generated
documents with it; tests/fixture_corpus.py builds the shipped fixture
corpus with it.
"""

from __future__ import annotations

from .classifier import MapToOmega
from .docformat import Document
from .fincat import FinCat, FinFunctor, SetPresheaf
from .prestack import CatPresheaf, TwoNat
from .site import GrothTopology, Sieve
from .stacks import SheafDescentDatum


class DocumentBuilder:
    def __init__(self):
        self.doc = Document()
        self._cat_by_value: list[tuple[FinCat, str]] = []
        self._fun_by_value: list[tuple[FinFunctor, str]] = []

    # categories and functors are deduplicated by value

    def category(self, name: str, cat: FinCat) -> str:
        for value, existing in self._cat_by_value:
            if value == cat:
                return existing
        self.doc.categories[name] = cat
        self._cat_by_value.append((cat, name))
        return name

    def functor(self, name: str, fun: FinFunctor) -> str:
        for value, existing in self._fun_by_value:
            if value == fun:
                return existing
        src = self.category(f"{name}.src", fun.source)
        dst = self.category(f"{name}.dst", fun.target)
        self.doc.functors[name] = (fun, src, dst)
        self._fun_by_value.append((fun, name))
        return name

    def setpresheaf(self, name: str, Z: SetPresheaf, base_expr: tuple) -> str:
        if base_expr[0] == "cat":
            self.category(base_expr[1], Z.base)
        self.doc.setpresheaves[name] = (Z, base_expr)
        return name

    def catpresheaf(self, name: str, F: CatPresheaf, base_name: str) -> str:
        if name in self.doc.catpresheaves:
            return name
        self.category(base_name, F.base)
        at_refs = {
            c: self.category(f"{name}.at.{c}", F.on_objects[c]) for c in F.base.objects
        }
        arr_refs = {}
        for f in F.base.sorted_arrows():
            if not F.base.is_identity(f):
                arr_refs[f] = self.functor(f"{name}.arr.{f}", F.on_arrows[f])
        self.doc.catpresheaves[name] = (F, base_name, at_refs, arr_refs)
        return name

    def two_nat(self, name: str, nat: TwoNat, src_name: str, dst_name: str,
                base_name: str) -> str:
        self.catpresheaf(src_name, nat.source, base_name)
        self.catpresheaf(dst_name, nat.target, base_name)
        at_refs = {
            c: self.functor(f"{name}.at.{c}", nat.components[c])
            for c in nat.source.base.objects
        }
        self.doc.two_nats[name] = (nat, src_name, dst_name, at_refs)
        return name

    def topology(self, name: str, topo: GrothTopology, base_name: str) -> str:
        self.category(base_name, topo.base)
        self.doc.topologies[name] = (topo, base_name)
        return name

    def sieve(self, name: str, s: Sieve, base_name: str) -> str:
        self.doc.sieves[name] = (s, base_name)
        return name

    def map_to_omega(self, name: str, z: MapToOmega, over_name: str,
                     base_name: str) -> str:
        self.catpresheaf(over_name, z.source, base_name)
        part_refs = {}
        for (c, x), Z in sorted(z.object_part.items()):
            ref = self.setpresheaf(f"{name}.part.{c}.{x}", Z, ("slice", base_name, c))
            part_refs[(c, x)] = ref
        self.doc.maps_to_omega[name] = (z, over_name, part_refs)
        return name

    def sheaf_descent(self, name: str, d: SheafDescentDatum, base_name: str,
                      topo_name: str, sieve_name: str) -> str:
        self.category(base_name, d.site)
        if topo_name not in self.doc.topologies:
            self.topology(topo_name, d.topology, base_name)
        if sieve_name not in self.doc.sieves:
            self.sieve(sieve_name, d.sieve, base_name)
        object_refs = {}
        for f, M in sorted(d.objects.items()):
            object_refs[f] = self.setpresheaf(
                f"{name}.obj.{f}", M, ("slice", base_name, d.site.dom(f))
            )
        self.doc.sheaf_descent_data[name] = (d, base_name, topo_name, sieve_name,
                                             object_refs)
        return name
