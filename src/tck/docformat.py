"""Line-oriented document format.

Blocks declare named values; later blocks reference earlier ones by name.
Tables are explicit (no inference of composites) unless a category block
carries the ``freely-generate`` flag.  serialize() emits a canonical form:
sections grouped by kind, names and table lines sorted, byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .classifier import MapToOmega
from .errors import (
    DanglingReference,
    InvariantViolation,
    ParseError,
    TckError,
)
from .fincat import (
    FinCat,
    FinFunctor,
    PresheafMap,
    SetPresheaf,
    build_category,
    free_category,
    identity_functor,
    identity_presheaf_map,
    reindex_slice_presheaf,
    slice_cat,
)
from .prestack import CatPresheaf, TwoNat
from .site import GrothTopology, Sieve, sieve_generate_at, topology_from_generators
from .stacks import DescentDatum, SheafDescentDatum


@dataclass
class Document:
    categories: dict[str, FinCat] = field(default_factory=dict)
    functors: dict[str, tuple[FinFunctor, str, str]] = field(default_factory=dict)
    setpresheaves: dict[str, tuple[SetPresheaf, tuple]] = field(default_factory=dict)
    catpresheaves: dict[str, tuple[CatPresheaf, str, dict, dict]] = field(default_factory=dict)
    two_nats: dict[str, tuple[TwoNat, str, str, dict]] = field(default_factory=dict)
    topologies: dict[str, tuple[GrothTopology, str]] = field(default_factory=dict)
    sieves: dict[str, tuple[Sieve, str]] = field(default_factory=dict)
    descent_data: dict[str, tuple[DescentDatum, str, str]] = field(default_factory=dict)
    sheaf_descent_data: dict[str, tuple[SheafDescentDatum, str, str, str, dict]] = \
        field(default_factory=dict)
    maps_to_omega: dict[str, tuple[MapToOmega, str, dict]] = field(default_factory=dict)


# the Document tables that hold each block kind's names
_NAMESPACES = {
    "category": ("categories",),
    "functor": ("functors",),
    "setpresheaf": ("setpresheaves",),
    "catpresheaf": ("catpresheaves",),
    "two_nat": ("two_nats",),
    "topology": ("topologies",),
    "sieve": ("sieves",),
    "descent_datum": ("descent_data", "sheaf_descent_data"),
    "map_to_omega": ("maps_to_omega",),
}


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


class _Parser:
    def __init__(self, text: str, base_dir: str | None = None,
                 doc: Document | None = None, seen_paths: set | None = None):
        self.lines = text.splitlines()
        self.i = 0
        self.base_dir = base_dir
        self.doc = doc if doc is not None else Document()
        self.seen_paths = seen_paths if seen_paths is not None else set()

    # helpers

    def error(self, detail: str, column: int = 1) -> ParseError:
        return ParseError(self.i + 1, column, detail)

    def line_error(self, lineno: int, content: str, detail: str) -> ParseError:
        raw = self.lines[lineno - 1] if 0 < lineno <= len(self.lines) else ""
        column = raw.find(content) + 1 if content and content in raw else 1
        return ParseError(lineno, column, detail)

    def put(self, table: dict, key, value, line: int, content: str) -> None:
        """Store one table line; a key given twice is ambiguous."""
        if key in table:
            raise self.line_error(line, content, f"repeated key {key!r}")
        table[key] = value

    def next_content_line(self) -> str | None:
        while self.i < len(self.lines):
            content = _strip(self.lines[self.i])
            if content:
                return content
            self.i += 1
        return None

    def body(self) -> list[tuple[int, str]]:
        out = []
        while True:
            self.i += 1
            if self.i >= len(self.lines):
                raise self.error("unterminated block (missing 'end')")
            content = _strip(self.lines[self.i])
            if not content:
                continue
            if content == "end":
                self.i += 1
                return out
            out.append((self.i + 1, content))

    def resolve_category(self, name: str, line: int) -> FinCat:
        if name not in self.doc.categories:
            raise DanglingReference(line, name)
        return self.doc.categories[name]

    def resolve_base(self, tokens: list[str], line: int):
        """Base expression: either CAT or 'slice CAT OBJ'."""
        if tokens[0] == "slice":
            if len(tokens) != 3:
                raise ParseError(line, 1, "slice base needs a category and an object")
            cat = self.resolve_category(tokens[1], line)
            if tokens[2] not in cat.objects:
                raise DanglingReference(line, tokens[2])
            sl, _ = slice_cat(cat, tokens[2])
            return sl, ("slice", tokens[1], tokens[2])
        if len(tokens) != 1:
            raise ParseError(line, 1, "expected a category name or a slice expression")
        return self.resolve_category(tokens[0], line), ("cat", tokens[0])

    # blocks

    def parse(self) -> Document:
        while True:
            content = self.next_content_line()
            if content is None:
                return self.doc
            tokens = content.split()
            kind = tokens[0]
            if kind == "import":
                self.directive_import(tokens)
                continue
            handler = getattr(self, f"block_{kind}", None)
            if handler is None:
                raise self.error(f"unknown section kind {kind!r}")
            if len(tokens) > 1 and any(tokens[1] in getattr(self.doc, table)
                                       for table in _NAMESPACES[kind]):
                raise self.error(f"repeated {kind} name {tokens[1]!r}")
            handler(tokens)

    def directive_import(self, tokens: list[str]) -> None:
        """Merge another document's sections; paths resolve relative to the
        importing file."""
        import os

        if len(tokens) != 2:
            raise self.error("import takes exactly one path")
        rel = tokens[1]
        if self.base_dir is None and not os.path.isabs(rel):
            raise self.error("relative import outside a file context")
        path = os.path.normpath(
            rel if os.path.isabs(rel) else os.path.join(self.base_dir, rel)
        )
        if path in self.seen_paths:
            self.i += 1
            return
        self.seen_paths.add(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DanglingReference(self.i + 1, rel) from exc
        _Parser(text, os.path.dirname(path), self.doc, self.seen_paths).parse()
        self.i += 1

    def block_category(self, header: list[str]) -> None:
        start = self.i + 1
        if len(header) < 2:
            raise self.error("category block needs a name")
        name = header[1]
        free = len(header) > 2 and header[2] == "freely-generate"
        objects: list[str] = []
        arrows: dict[str, tuple[str, str]] = {}
        identities: dict[str, str] = {}
        compose: dict[tuple[str, str], str] = {}
        for line, content in self.body():
            t = content.split()
            if t[0] == "objects":
                objects.extend(t[1:])
            elif t[0] == "arrow" and len(t) == 6 and t[2] == ":" and t[4] == "->":
                self.put(arrows, t[1], (t[3], t[5]), line, content)
            elif t[0] == "identity" and len(t) == 4 and t[2] == ":":
                self.put(identities, t[1], t[3], line, content)
            elif t[0] == "compose" and len(t) == 5 and t[3] == ":":
                if free:
                    raise ParseError(line, 1, "compose lines not allowed with freely-generate")
                self.put(compose, (t[1], t[2]), t[4], line, content)
            else:
                raise self.line_error(line, content, f"bad category line: {content!r}")
        try:
            if free:
                cat = free_category(objects, arrows)
            else:
                cat = build_category(objects, arrows, identities, compose)
        except TckError as exc:
            raise InvariantViolation(start, str(exc)) from exc
        self.doc.categories[name] = cat

    def block_functor(self, header: list[str]) -> None:
        start = self.i + 1
        if len(header) != 6 or header[2] != ":" or header[4] != "->":
            raise self.error("functor header: functor NAME : SRC -> DST")
        name = header[1]
        src_name, dst_name = header[3], header[5]
        src = self.resolve_category(src_name, start)
        dst = self.resolve_category(dst_name, start)
        ob: dict[str, str] = {}
        ar: dict[str, str] = {}
        for line, content in self.body():
            t = content.split()
            if t[0] == "ob" and len(t) == 4 and t[2] == ":":
                self.put(ob, t[1], t[3], line, content)
            elif t[0] == "arr" and len(t) == 4 and t[2] == ":":
                self.put(ar, t[1], t[3], line, content)
            else:
                raise self.line_error(line, content, f"bad functor line: {content!r}")
        for x in src.objects:
            if x in ob and src.id_of(x) not in ar:
                ar[src.id_of(x)] = dst.id_of(ob[x])
        fun = FinFunctor(src, dst, ob, ar)
        try:
            fun.validate()
        except TckError as exc:
            raise InvariantViolation(start, str(exc)) from exc
        self.doc.functors[name] = (fun, src_name, dst_name)

    def _pairs(self, tokens: list[str], line: int) -> dict[str, str]:
        table: dict[str, str] = {}
        rest = list(tokens)
        while rest:
            if rest[0] == ",":
                rest = rest[1:]
                continue
            if len(rest) < 3 or rest[1] != "->":
                raise ParseError(line, 1, "expected 'x -> y' pairs")
            if rest[0] in table:
                raise ParseError(line, 1, f"repeated key {rest[0]!r} in pairs")
            table[rest[0]] = rest[2]
            rest = rest[3:]
        return table

    def block_setpresheaf(self, header: list[str]) -> None:
        start = self.i + 1
        if len(header) < 4 or header[2] != "on":
            raise self.error("setpresheaf header: setpresheaf NAME on BASE")
        name = header[1]
        base, base_expr = self.resolve_base(header[3:], start)
        at: dict[str, tuple[str, ...]] = {}
        maps: dict[str, dict[str, str]] = {}
        for line, content in self.body():
            t = content.split()
            if t[0] == "at" and len(t) >= 3 and t[2] == ":":
                self.put(at, t[1], tuple(sorted(t[3:])), line, content)
            elif t[0] == "map" and len(t) >= 3 and t[2] == ":":
                self.put(maps, t[1], self._pairs(t[3:], line), line, content)
            else:
                raise self.line_error(line, content, f"bad setpresheaf line: {content!r}")
        for c in base.objects:
            at.setdefault(c, ())
        for f in base.arrows:
            if base.is_identity(f):
                maps.setdefault(f, {x: x for x in at[base.dom(f)]})
            else:
                maps.setdefault(f, {})
        Z = SetPresheaf(base, at, maps)
        try:
            Z.validate()
        except TckError as exc:
            raise InvariantViolation(start, str(exc)) from exc
        self.doc.setpresheaves[name] = (Z, base_expr)

    def block_catpresheaf(self, header: list[str]) -> None:
        start = self.i + 1
        if len(header) != 4 or header[2] != "on":
            raise self.error("catpresheaf header: catpresheaf NAME on CAT")
        name = header[1]
        base = self.resolve_category(header[3], start)
        at_refs: dict[str, str] = {}
        arr_refs: dict[str, str] = {}
        for line, content in self.body():
            t = content.split()
            if t[0] == "at" and len(t) == 4 and t[2] == ":":
                if t[3] not in self.doc.categories:
                    raise DanglingReference(line, t[3])
                self.put(at_refs, t[1], t[3], line, content)
            elif t[0] == "arr" and len(t) == 4 and t[2] == ":":
                if t[3] not in self.doc.functors:
                    raise DanglingReference(line, t[3])
                self.put(arr_refs, t[1], t[3], line, content)
            else:
                raise self.line_error(line, content, f"bad catpresheaf line: {content!r}")
        on_objects = {c: self.doc.categories[ref] for c, ref in at_refs.items()}
        on_arrows = {f: self.doc.functors[ref][0] for f, ref in arr_refs.items()}
        for c in base.objects:
            if c not in on_objects:
                raise InvariantViolation(start, f"no category assigned at {c!r}")
        for f in base.arrows:
            if f not in on_arrows:
                if base.is_identity(f):
                    on_arrows[f] = identity_functor(on_objects[base.dom(f)])
                else:
                    raise InvariantViolation(start, f"no functor assigned at {f!r}")
        F = CatPresheaf(base, on_objects, on_arrows)
        try:
            F.validate()
        except TckError as exc:
            raise InvariantViolation(start, str(exc)) from exc
        self.doc.catpresheaves[name] = (F, header[3], at_refs, arr_refs)

    def block_two_nat(self, header: list[str]) -> None:
        start = self.i + 1
        if len(header) != 6 or header[2] != ":" or header[4] != "->":
            raise self.error("two_nat header: two_nat NAME : F -> G")
        name = header[1]
        for ref in (header[3], header[5]):
            if ref not in self.doc.catpresheaves:
                raise DanglingReference(start, ref)
        src = self.doc.catpresheaves[header[3]][0]
        dst = self.doc.catpresheaves[header[5]][0]
        at_refs: dict[str, str] = {}
        for line, content in self.body():
            t = content.split()
            if t[0] == "at" and len(t) == 4 and t[2] == ":":
                if t[3] not in self.doc.functors:
                    raise DanglingReference(line, t[3])
                self.put(at_refs, t[1], t[3], line, content)
            else:
                raise self.line_error(line, content, f"bad two_nat line: {content!r}")
        comps = {c: self.doc.functors[ref][0] for c, ref in at_refs.items()}
        nat = TwoNat(src, dst, comps)
        try:
            nat.validate()
        except TckError as exc:
            raise InvariantViolation(start, str(exc)) from exc
        self.doc.two_nats[name] = (nat, header[3], header[5], at_refs)

    def block_topology(self, header: list[str]) -> None:
        start = self.i + 1
        if len(header) < 4 or header[2] != "on":
            raise self.error("topology header: topology NAME on CAT [raw]")
        name = header[1]
        base = self.resolve_category(header[3], start)
        raw = len(header) > 4 and header[4] == "raw"
        gens: dict[str, list[list[str]]] = {}
        raw_sieves: dict[str, list[Sieve]] = {}
        for line, content in self.body():
            t = content.split()
            if t[0] == "cover" and len(t) >= 3 and t[2] == ":":
                if raw:
                    raise ParseError(line, 1, "raw topology blocks use 'sieve' lines")
                gens.setdefault(t[1], []).append(t[3:])
            elif t[0] == "sieve" and len(t) >= 3 and t[2] == ":":
                if not raw:
                    raise ParseError(line, 1, "'sieve' lines need the raw flag")
                try:
                    raw_sieves.setdefault(t[1], []).append(
                        sieve_generate_at(base, t[1], t[3:])
                    )
                except TckError as exc:
                    raise InvariantViolation(line, str(exc)) from exc
            else:
                raise self.line_error(line, content, f"bad topology line: {content!r}")
        if raw:
            covers = {c: frozenset(raw_sieves.get(c, [])) for c in base.objects}
            topo = GrothTopology(base, covers)
        else:
            try:
                topo, _ = topology_from_generators(base, gens)
            except TckError as exc:
                raise InvariantViolation(start, str(exc)) from exc
        self.doc.topologies[name] = (topo, header[3])

    def block_sieve(self, header: list[str]) -> None:
        start = self.i + 1
        if len(header) != 6 or header[2] != "on" or header[4] != "at":
            raise self.error("sieve header: sieve NAME on CAT at OBJ")
        name = header[1]
        base = self.resolve_category(header[3], start)
        arrows: list[str] = []
        for line, content in self.body():
            t = content.split()
            if t[0] == "arrows":
                arrows.extend(t[1:])
            else:
                raise self.line_error(line, content, f"bad sieve line: {content!r}")
        try:
            s = sieve_generate_at(base, header[5], arrows)
        except TckError as exc:
            raise InvariantViolation(start, str(exc)) from exc
        self.doc.sieves[name] = (s, header[3])

    def block_descent_datum(self, header: list[str]) -> None:
        if len(header) > 2 and header[2] == "sheaves":
            self._block_sheaf_descent(header)
        else:
            self._block_descent(header)

    def _block_descent(self, header: list[str]) -> None:
        start = self.i + 1
        if len(header) != 8 or header[2] != "over" or header[4] != "at" or header[6] != "sieve":
            raise self.error(
                "descent_datum header: descent_datum NAME over F at OBJ sieve S"
            )
        name = header[1]
        if header[3] not in self.doc.catpresheaves:
            raise DanglingReference(start, header[3])
        F = self.doc.catpresheaves[header[3]][0]
        if header[7] not in self.doc.sieves:
            raise DanglingReference(start, header[7])
        s = self.doc.sieves[header[7]][0]
        if s.at != header[5]:
            raise InvariantViolation(start, "sieve is not based at the stated object")
        objects: dict[str, str] = {}
        isos: dict[tuple[str, str], str] = {}
        identity_isos = False
        for line, content in self.body():
            t = content.split()
            if t[0] == "object" and len(t) == 4 and t[2] == ":":
                self.put(objects, t[1], t[3], line, content)
            elif t[0] == "iso" and len(t) == 5 and t[3] == ":":
                self.put(isos, (t[1], t[2]), t[4], line, content)
            elif t[0] == "identity-isos" and len(t) == 1:
                identity_isos = True
            else:
                raise self.line_error(line, content, f"bad descent_datum line: {content!r}")
        base = F.base
        if identity_isos:
            for f in s.arrows:
                for g in base.arrows_into(base.dom(f)):
                    if (f, g) not in isos:
                        img = F.on_arrows[g].on_objects.get(objects.get(f, ""), None)
                        if img is None:
                            raise InvariantViolation(start, f"object for {f!r} missing")
                        isos[(f, g)] = F.on_objects[base.dom(g)].id_of(img)
        datum = DescentDatum(F, s, objects, isos)
        self.doc.descent_data[name] = (datum, header[3], header[7])

    def _block_sheaf_descent(self, header: list[str]) -> None:
        start = self.i + 1
        if len(header) != 11 or header[3] != "on" or header[5] != "topology" \
           or header[7] != "at" or header[9] != "sieve":
            raise self.error(
                "header: descent_datum NAME sheaves on CAT topology J at OBJ sieve S"
            )
        name = header[1]
        base = self.resolve_category(header[4], start)
        if header[6] not in self.doc.topologies:
            raise DanglingReference(start, header[6])
        topo, topo_base = self.doc.topologies[header[6]]
        if topo_base != header[4]:
            raise InvariantViolation(start, f"topology {header[6]!r} is not on {header[4]!r}")
        if header[10] not in self.doc.sieves:
            raise DanglingReference(start, header[10])
        s, sieve_base = self.doc.sieves[header[10]]
        if sieve_base != header[4]:
            raise InvariantViolation(start, f"sieve {header[10]!r} is not on {header[4]!r}")
        if s.at != header[8]:
            raise InvariantViolation(start, "sieve is not based at the stated object")
        object_refs: dict[str, str] = {}
        object_lines: dict[str, int] = {}
        iso_tables: dict[tuple[str, str], dict[str, dict[str, str]]] = {}
        identity_isos = False
        for line, content in self.body():
            t = content.split()
            if t[0] == "object" and len(t) == 4 and t[2] == ":":
                if t[3] not in self.doc.setpresheaves:
                    raise DanglingReference(line, t[3])
                self.put(object_refs, t[1], t[3], line, content)
                object_lines[t[1]] = line
            elif t[0] == "iso" and len(t) >= 6 and t[3] == "at" and t[5] == ":":
                self.put(iso_tables.setdefault((t[1], t[2]), {}), t[4],
                         self._pairs(t[6:], line), line, content)
            elif t[0] == "identity-isos" and len(t) == 1:
                identity_isos = True
            else:
                raise self.line_error(line, content, f"bad sheaf descent line: {content!r}")
        objects = {f: self.doc.setpresheaves[ref][0] for f, ref in object_refs.items()}
        for f in s.sorted_arrows():
            if f not in objects:
                raise InvariantViolation(start, f"object for {f!r} missing")
            if objects[f].base != slice_cat(base, base.dom(f))[0]:
                raise InvariantViolation(
                    object_lines[f],
                    f"object for {f!r} is not on slice {header[4]} {base.dom(f)}")
        isos: dict[tuple[str, str], PresheafMap] = {}
        for f in s.arrows:
            for g in base.arrows_into(base.dom(f)):
                src = reindex_slice_presheaf(base, g, objects[f])
                tgt = objects[base.compose(f, g)]
                if (f, g) in iso_tables:
                    isos[(f, g)] = PresheafMap(src, tgt, iso_tables[(f, g)])
                elif identity_isos:
                    if src != tgt:
                        raise InvariantViolation(
                            start, f"identity iso ill-typed at ({f!r}, {g!r})"
                        )
                    isos[(f, g)] = identity_presheaf_map(src)
                else:
                    raise InvariantViolation(start, f"iso for ({f!r}, {g!r}) missing")
        datum = SheafDescentDatum(base, topo, s, objects, isos)
        self.doc.sheaf_descent_data[name] = (
            datum, header[4], header[6], header[10], object_refs
        )

    def block_map_to_omega(self, header: list[str]) -> None:
        start = self.i + 1
        if len(header) != 4 or header[2] != "over":
            raise self.error("map_to_omega header: map_to_omega NAME over F")
        name = header[1]
        if header[3] not in self.doc.catpresheaves:
            raise DanglingReference(start, header[3])
        F = self.doc.catpresheaves[header[3]][0]
        base = F.base
        part_refs: dict[tuple[str, str], str] = {}
        arrow_tables: dict[tuple[str, str], dict[str, dict[str, str]]] = {}
        for line, content in self.body():
            t = content.split()
            if t[0] == "part" and len(t) == 5 and t[3] == ":":
                if t[4] not in self.doc.setpresheaves:
                    raise DanglingReference(line, t[4])
                self.put(part_refs, (t[1], t[2]), t[4], line, content)
            elif t[0] == "arrowpart" and len(t) >= 6 and t[3] == "at" and t[5] == ":":
                self.put(arrow_tables.setdefault((t[1], t[2]), {}), t[4],
                         self._pairs(t[6:], line), line, content)
            else:
                raise self.line_error(line, content, f"bad map_to_omega line: {content!r}")
        object_part = {}
        for c in base.objects:
            for x in F.on_objects[c].objects:
                if (c, x) not in part_refs:
                    raise InvariantViolation(start, f"part for ({c!r}, {x!r}) missing")
                object_part[(c, x)] = self.doc.setpresheaves[part_refs[(c, x)]][0]
        arrow_part = {}
        for c in base.objects:
            Fc = F.on_objects[c]
            for nu in Fc.arrows:
                src = object_part[(c, Fc.dom(nu))]
                tgt = object_part[(c, Fc.cod(nu))]
                if (c, nu) in arrow_tables:
                    arrow_part[(c, nu)] = PresheafMap(src, tgt, arrow_tables[(c, nu)])
                elif Fc.is_identity(nu):
                    arrow_part[(c, nu)] = identity_presheaf_map(src)
                else:
                    raise InvariantViolation(start, f"arrowpart for ({c!r}, {nu!r}) missing")
        z = MapToOmega(base, F, object_part, arrow_part)
        try:
            z.validate()
        except TckError as exc:
            raise InvariantViolation(start, str(exc)) from exc
        self.doc.maps_to_omega[name] = (z, header[3], part_refs)


def parse(text: str, base_dir: str | None = None) -> Document:
    return _Parser(text, base_dir).parse()


def parse_file(path) -> Document:
    import os

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _Parser(text, os.path.dirname(os.path.abspath(path)),
                   seen_paths={os.path.normpath(os.path.abspath(path))}).parse()


# -- serialization ---------------------------------------------------------------------


def _ser_pairs(table: Mapping[str, str]) -> str:
    return " , ".join(f"{k} -> {v}" for k, v in sorted(table.items()))


def _ser_category(name: str, cat: FinCat) -> list[str]:
    out = [f"category {name}"]
    out.append(("  objects " + " ".join(cat.objects)).rstrip())
    for f in cat.sorted_arrows():
        d, c = cat.arrows[f]
        out.append(f"  arrow {f} : {d} -> {c}")
    for c in cat.objects:
        out.append(f"  identity {c} : {cat.id_of(c)}")
    for (g, f), h in sorted(cat.compose_table.items()):
        out.append(f"  compose {g} {f} : {h}")
    out.append("end")
    return out


def _ser_base(expr: tuple) -> str:
    if expr[0] == "cat":
        return expr[1]
    return f"slice {expr[1]} {expr[2]}"


def _ser_setpresheaf(name: str, Z: SetPresheaf, expr: tuple) -> list[str]:
    out = [f"setpresheaf {name} on {_ser_base(expr)}"]
    for c in sorted(Z.on_objects):
        elems = " ".join(Z.on_objects[c])
        out.append(f"  at {c} :" + (f" {elems}" if elems else ""))
    for f in sorted(Z.on_arrows):
        if Z.base.is_identity(f):
            continue
        pairs = _ser_pairs(Z.on_arrows[f])
        out.append(f"  map {f} :" + (f" {pairs}" if pairs else ""))
    out.append("end")
    return out


def serialize(doc: Document) -> str:
    out: list[str] = []
    for name in sorted(doc.categories):
        out.extend(_ser_category(name, doc.categories[name]))
        out.append("")
    for name in sorted(doc.functors):
        fun, src, dst = doc.functors[name]
        out.append(f"functor {name} : {src} -> {dst}")
        for x in sorted(fun.on_objects):
            out.append(f"  ob {x} : {fun.on_objects[x]}")
        for f in sorted(fun.on_arrows):
            if not fun.source.is_identity(f):
                out.append(f"  arr {f} : {fun.on_arrows[f]}")
        out.append("end")
        out.append("")
    for name in sorted(doc.setpresheaves):
        Z, expr = doc.setpresheaves[name]
        out.extend(_ser_setpresheaf(name, Z, expr))
        out.append("")
    for name in sorted(doc.catpresheaves):
        F, base, at_refs, arr_refs = doc.catpresheaves[name]
        out.append(f"catpresheaf {name} on {base}")
        for c in sorted(at_refs):
            out.append(f"  at {c} : {at_refs[c]}")
        for f in sorted(arr_refs):
            out.append(f"  arr {f} : {arr_refs[f]}")
        out.append("end")
        out.append("")
    for name in sorted(doc.two_nats):
        nat, src, dst, at_refs = doc.two_nats[name]
        out.append(f"two_nat {name} : {src} -> {dst}")
        for c in sorted(at_refs):
            out.append(f"  at {c} : {at_refs[c]}")
        out.append("end")
        out.append("")
    for name in sorted(doc.topologies):
        topo, base = doc.topologies[name]
        out.append(f"topology {name} on {base} raw")
        for c in sorted(topo.covers):
            for s in sorted(topo.covers[c], key=lambda s: s.sorted_arrows()):
                arrows = " ".join(s.sorted_arrows())
                out.append(f"  sieve {c} :" + (f" {arrows}" if arrows else ""))
        out.append("end")
        out.append("")
    for name in sorted(doc.sieves):
        s, base = doc.sieves[name]
        out.append(f"sieve {name} on {base} at {s.at}")
        out.append("  arrows " + " ".join(s.sorted_arrows()))
        out.append("end")
        out.append("")
    for name in sorted(doc.descent_data):
        datum, over, sieve_ref = doc.descent_data[name]
        out.append(f"descent_datum {name} over {over} at {datum.sieve.at} sieve {sieve_ref}")
        for f in sorted(datum.objects):
            out.append(f"  object {f} : {datum.objects[f]}")
        for (f, g), phi in sorted(datum.isos.items()):
            out.append(f"  iso {f} {g} : {phi}")
        out.append("end")
        out.append("")
    for name in sorted(doc.sheaf_descent_data):
        datum, base, topo_ref, sieve_ref, object_refs = doc.sheaf_descent_data[name]
        out.append(
            f"descent_datum {name} sheaves on {base} topology {topo_ref} "
            f"at {datum.sieve.at} sieve {sieve_ref}"
        )
        for f in sorted(object_refs):
            out.append(f"  object {f} : {object_refs[f]}")
        for (f, g), m in sorted(datum.isos.items()):
            for h in sorted(m.components):
                pairs = _ser_pairs(m.components[h])
                out.append(f"  iso {f} {g} at {h} :" + (f" {pairs}" if pairs else ""))
        out.append("end")
        out.append("")
    for name in sorted(doc.maps_to_omega):
        z, over, part_refs = doc.maps_to_omega[name]
        out.append(f"map_to_omega {name} over {over}")
        for (c, x) in sorted(part_refs):
            out.append(f"  part {c} {x} : {part_refs[(c, x)]}")
        F = z.source
        for (c, nu), m in sorted(z.arrow_part.items()):
            if F.on_objects[c].is_identity(nu):
                continue
            for h in sorted(m.components):
                pairs = _ser_pairs(m.components[h])
                out.append(f"  arrowpart {c} {nu} at {h} :" + (f" {pairs}" if pairs else ""))
        out.append("end")
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"
