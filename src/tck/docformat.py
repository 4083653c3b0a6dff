"""Line-oriented document format.

Blocks declare named values; later blocks reference earlier ones by name.
Tables are explicit (no inference of composites) unless a category block
carries the ``freely-generate`` flag.  serialize() emits a canonical form:
sections grouped by kind, names and table lines sorted, byte-stable.

Each block kind has its own reader and writer, since the shape of its
header and lines is its own.  Four rules are shared by every kind:

- a name resolves through ``ref``: a name missing from its table is a
  ``DanglingReference`` at the line that names it;
- a library check runs through ``checked``: its ``TckError`` becomes an
  ``InvariantViolation`` at the block's first line (a raw ``sieve`` line
  names its own line);
- a body line the block cannot read is ``bad``: a ``ParseError`` at that
  line and the column of its content, ``bad <kind> line: '<content>'``;
- a block is written by ``_ser_block``: its header, its lines indented by
  two spaces with trailing spaces stripped, then ``end``.

Two more are shared by the kinds they fit:

- a fixed-shape header (functor, catpresheaf, two_nat, sieve, both
  descent_datum kinds and map_to_omega) is read by ``header`` against the
  usage message it raises for any other shape, whose capitalized words
  are the fields it returns; category, topology and setpresheaf headers
  carry flags or a base expression and are read by their blocks;
- a presheaf map keyed by a pair (a sheaf descent datum's ``iso``, a
  map_to_omega's ``arrowpart``) is read line by line by ``keyed_line``
  from ``KIND K1 K2 at H : x -> y , ...``, built by ``_keyed_map`` from its
  tables, else as an identity where the block allows one, else refused
  as missing; a keyed line (``part`` too) whose key the block never
  builds is refused at its line by ``_refuse_strays``.

An id (a block name, an object, an arrow or an element) is a non-empty
string without whitespace or ``#``, and an element is not the ``,`` that
separates pairs; serialize() refuses any other id with ``InvalidTable``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping

from .classifier import MapToOmega, map_from_parts
from .errors import (
    DanglingReference,
    InvalidTable,
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
    _slice_of,
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


def ref(table: Mapping, name: str, line: int):
    """The entry ``name`` names in a document table, read at ``line``."""
    if name not in table:
        raise DanglingReference(line, name)
    return table[name]


def checked(start: int, build, *args):
    """``build(*args)``, a library call whose error is reported at line
    ``start`` of the document."""
    try:
        return build(*args)
    except TckError as exc:
        raise InvariantViolation(start, str(exc)) from exc


@cache
def _header_shape(usage: str):
    """The shape a fixed-shape header's usage message spells after its
    colon: its length, a getter of its literal tokens and their values,
    and a getter of its fields, the capitalized words."""
    words = usage.partition(": ")[2].split()
    literals = [k for k, word in enumerate(words) if not word.isupper()]
    fields = [k for k, word in enumerate(words) if word.isupper()]
    return (len(words), itemgetter(*literals), tuple(words[k] for k in literals),
            itemgetter(*fields))


def _keyed_map(kind: str, tables: Mapping, key, src, tgt, identity: bool,
              start: int) -> PresheafMap:
    """The presheaf map src -> tgt that the ``kind`` lines keyed ``key``
    give; else, where ``identity`` allows it, the identity of src, which
    must be tgt; else the block at line ``start`` is missing it."""
    if key in tables:
        return PresheafMap(src, tgt, tables[key][1])
    if not identity:
        raise InvariantViolation(start, f"{kind} for {key!r} missing")
    if src != tgt:
        raise InvariantViolation(start, f"identity {kind} ill-typed at {key!r}")
    return identity_presheaf_map(src)


def _refuse_strays(kind: str, tables: Mapping, known, what: str) -> None:
    """Refuse, at its first line, a ``kind`` line whose key is none of
    ``known``: it would be read and never looked at."""
    for key, (line, _) in tables.items():
        if key not in known:
            raise InvariantViolation(line, f"{kind} for {key!r} is no {what}")


class _Parser:
    def __init__(self, text: str, base_dir: str | None = None,
                 doc: Document | None = None, seen_paths: set | None = None):
        self.lines = text.splitlines()
        # each line's content, without its comment and surrounding space
        self.content = [line.partition("#")[0].strip() for line in self.lines]
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

    def bad(self, line: int, content: str, kind: str) -> ParseError:
        """A body line that a block of this kind cannot read."""
        return self.line_error(line, content, f"bad {kind} line: {content!r}")

    def put(self, table: dict, key, value, line: int, content: str) -> None:
        """Store one table line; a key given twice is ambiguous."""
        if key in table:
            raise self.line_error(line, content, f"repeated key {key!r}")
        table[key] = value

    def extra_token(self, header: list[str], k: int) -> ParseError:
        """Header token k, which its block does not read, at its column."""
        column = [m.start() + 1 for m in re.finditer(r"\S+", self.lines[self.i])][k]
        return ParseError(self.i + 1, column, f"unexpected {header[k]!r} in {header[0]} header")

    def header(self, tokens: list[str], usage: str) -> tuple[str, ...]:
        """The fields of a fixed-shape header, which ``usage`` spells out
        and names when the header has another shape."""
        n, literals, words, fields = _header_shape(usage)
        if len(tokens) != n or literals(tokens) != words:
            raise self.error(usage)
        return fields(tokens)

    def keyed_line(self, kind: str, tables: dict, line: int, content: str,
                   t: list[str]) -> bool:
        """Read a ``KIND K1 K2 at H : x -> y , ...`` line into the table at
        H of the map keyed (K1, K2), which keeps the line that first keys
        it; False for a line of another shape."""
        if t[0] != kind or len(t) < 6 or t[3] != "at" or t[5] != ":":
            return False
        self.put(tables.setdefault((t[1], t[2]), (line, {}))[1], t[4],
                 self._pairs(t[6:], line), line, content)
        return True

    def next_content_line(self) -> str | None:
        content = self.content
        while self.i < len(content) and not content[self.i]:
            self.i += 1
        return content[self.i] if self.i < len(content) else None

    def body(self) -> list[tuple[int, str, list[str]]]:
        """The block's content lines up to 'end': line number, content, tokens."""
        content, start = self.content, self.i + 1
        try:
            end = content.index("end", start)
        except ValueError:
            self.i = len(content)
            raise self.error("unterminated block (missing 'end')") from None
        self.i = end + 1
        return [(n + 1, content[n], content[n].split()) for n in range(start, end) if content[n]]

    def resolve_base(self, tokens: list[str], line: int):
        """Base expression: either CAT or 'slice CAT OBJ'."""
        if tokens[0] == "slice":
            if len(tokens) != 3:
                raise ParseError(line, 1, "slice base needs a category and an object")
            cat = ref(self.doc.categories, tokens[1], line)
            if tokens[2] not in cat.objects:
                raise DanglingReference(line, tokens[2])
            sl = _slice_of(cat, tokens[2])
            return sl, ("slice", tokens[1], tokens[2])
        if len(tokens) != 1:
            raise ParseError(line, 1, "expected a category name or a slice expression")
        return ref(self.doc.categories, tokens[0], line), ("cat", tokens[0])

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
            handler(tokens, self.i + 1)

    def directive_import(self, tokens: list[str]) -> None:
        """Merge another document's sections; paths resolve relative to the
        importing file."""
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

    def block_category(self, header: list[str], start: int) -> None:
        if len(header) < 2:
            raise self.error("category block needs a name")
        name = header[1]
        free = len(header) > 2 and header[2] == "freely-generate"
        if len(header) > 2 + free:
            raise self.extra_token(header, 2 + free)
        objects: list[str] = []
        arrows: dict[str, tuple[str, str]] = {}
        identities: dict[str, str] = {}
        compose: dict[tuple[str, str], str] = {}
        for line, content, t in self.body():
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
                raise self.bad(line, content, "category")
        if free:
            cat = checked(start, free_category, objects, arrows)
        else:
            cat = checked(start, build_category, objects, arrows, identities, compose)
        self.doc.categories[name] = cat

    def block_functor(self, header: list[str], start: int) -> None:
        name, src_name, dst_name = self.header(header, "functor header: functor NAME : SRC -> DST")
        src = ref(self.doc.categories, src_name, start)
        dst = ref(self.doc.categories, dst_name, start)
        ob: dict[str, str] = {}
        ar: dict[str, str] = {}
        for line, content, t in self.body():
            if t[0] == "ob" and len(t) == 4 and t[2] == ":":
                self.put(ob, t[1], t[3], line, content)
            elif t[0] == "arr" and len(t) == 4 and t[2] == ":":
                self.put(ar, t[1], t[3], line, content)
            else:
                raise self.bad(line, content, "functor")
        for x in src.objects:
            # only an image in the target has an identity to default to
            if x in ob and ob[x] in dst.objects and src.id_of(x) not in ar:
                ar[src.id_of(x)] = dst.id_of(ob[x])
        fun = FinFunctor(src, dst, ob, ar)
        checked(start, fun.validate)
        self.doc.functors[name] = (fun, src_name, dst_name)

    def _pairs(self, tokens: list[str], line: int) -> dict[str, str]:
        table: dict[str, str] = {}
        i, n = 0, len(tokens)
        while i < n:
            if tokens[i] == ",":
                i += 1
                continue
            if n - i < 3 or tokens[i + 1] != "->":
                raise ParseError(line, 1, "expected 'x -> y' pairs")
            if tokens[i] in table:
                raise ParseError(line, 1, f"repeated key {tokens[i]!r} in pairs")
            table[tokens[i]] = tokens[i + 2]
            i += 3
        return table

    def block_setpresheaf(self, header: list[str], start: int) -> None:
        if len(header) < 4 or header[2] != "on":
            raise self.error("setpresheaf header: setpresheaf NAME on BASE")
        name = header[1]
        base, base_expr = self.resolve_base(header[3:], start)
        at: dict[str, tuple[str, ...]] = {}
        maps: dict[str, dict[str, str]] = {}
        for line, content, t in self.body():
            if t[0] == "at" and len(t) >= 3 and t[2] == ":":
                self.put(at, t[1], tuple(sorted(t[3:])), line, content)
            elif t[0] == "map" and len(t) >= 3 and t[2] == ":":
                self.put(maps, t[1], self._pairs(t[3:], line), line, content)
            else:
                raise self.bad(line, content, "setpresheaf")
        for c in base.objects:
            at.setdefault(c, ())
        for f, (d, _) in base.arrows.items():
            if f not in maps:
                maps[f] = {x: x for x in at[d]} if base.is_identity(f) else {}
        Z = SetPresheaf(base, at, maps)
        checked(start, Z.validate)
        self.doc.setpresheaves[name] = (Z, base_expr)

    def block_catpresheaf(self, header: list[str], start: int) -> None:
        name, base_name = self.header(header, "catpresheaf header: catpresheaf NAME on CAT")
        base = ref(self.doc.categories, base_name, start)
        on_objects: dict[str, FinCat] = {}
        on_arrows: dict[str, FinFunctor] = {}
        at_refs: dict[str, str] = {}
        arr_refs: dict[str, str] = {}
        for line, content, t in self.body():
            if t[0] == "at" and len(t) == 4 and t[2] == ":":
                self.put(on_objects, t[1], ref(self.doc.categories, t[3], line), line, content)
                at_refs[t[1]] = t[3]
            elif t[0] == "arr" and len(t) == 4 and t[2] == ":":
                self.put(on_arrows, t[1], ref(self.doc.functors, t[3], line)[0], line, content)
                arr_refs[t[1]] = t[3]
            else:
                raise self.bad(line, content, "catpresheaf")
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
        checked(start, F.validate)
        self.doc.catpresheaves[name] = (F, base_name, at_refs, arr_refs)

    def block_two_nat(self, header: list[str], start: int) -> None:
        name, src_name, dst_name = self.header(header, "two_nat header: two_nat NAME : F -> G")
        src = ref(self.doc.catpresheaves, src_name, start)[0]
        dst = ref(self.doc.catpresheaves, dst_name, start)[0]
        comps: dict[str, FinFunctor] = {}
        at_refs: dict[str, str] = {}
        for line, content, t in self.body():
            if t[0] == "at" and len(t) == 4 and t[2] == ":":
                self.put(comps, t[1], ref(self.doc.functors, t[3], line)[0], line, content)
                at_refs[t[1]] = t[3]
            else:
                raise self.bad(line, content, "two_nat")
        nat = TwoNat(src, dst, comps)
        checked(start, nat.validate)
        self.doc.two_nats[name] = (nat, src_name, dst_name, at_refs)

    def block_topology(self, header: list[str], start: int) -> None:
        if len(header) < 4 or header[2] != "on":
            raise self.error("topology header: topology NAME on CAT [raw]")
        raw = len(header) > 4 and header[4] == "raw"
        if len(header) > 4 + raw:
            raise self.extra_token(header, 4 + raw)
        name = header[1]
        base = ref(self.doc.categories, header[3], start)
        gens: dict[str, list[list[str]]] = {}
        raw_sieves: dict[str, list[Sieve]] = {}
        for line, content, t in self.body():
            if t[0] == "cover" and len(t) >= 3 and t[2] == ":":
                if raw:
                    raise ParseError(line, 1, "raw topology blocks use 'sieve' lines")
                gens.setdefault(t[1], []).append(t[3:])
            elif t[0] == "sieve" and len(t) >= 3 and t[2] == ":":
                if not raw:
                    raise ParseError(line, 1, "'sieve' lines need the raw flag")
                raw_sieves.setdefault(t[1], []).append(
                    checked(line, sieve_generate_at, base, t[1], t[3:]))
            else:
                raise self.bad(line, content, "topology")
        if raw:
            covers = {c: frozenset(raw_sieves.get(c, [])) for c in base.objects}
            topo = GrothTopology(base, covers)
        else:
            topo, _ = checked(start, topology_from_generators, base, gens)
        self.doc.topologies[name] = (topo, header[3])

    def block_sieve(self, header: list[str], start: int) -> None:
        name, base_name, at = self.header(header, "sieve header: sieve NAME on CAT at OBJ")
        base = ref(self.doc.categories, base_name, start)
        arrows: list[str] = []
        for line, content, t in self.body():
            if t[0] == "arrows":
                arrows.extend(t[1:])
            else:
                raise self.bad(line, content, "sieve")
        s = checked(start, sieve_generate_at, base, at, arrows)
        self.doc.sieves[name] = (s, base_name)

    def block_descent_datum(self, header: list[str], start: int) -> None:
        if len(header) > 2 and header[2] == "sheaves":
            self._block_sheaf_descent(header, start)
        else:
            self._block_descent(header, start)

    def _block_descent(self, header: list[str], start: int) -> None:
        name, over, at, sieve_name = self.header(
            header, "descent_datum header: descent_datum NAME over F at OBJ sieve S")
        F = ref(self.doc.catpresheaves, over, start)[0]
        s = ref(self.doc.sieves, sieve_name, start)[0]
        if s.at != at:
            raise InvariantViolation(start, "sieve is not based at the stated object")
        objects: dict[str, str] = {}
        isos: dict[tuple[str, str], str] = {}
        identity_isos = False
        for line, content, t in self.body():
            if t[0] == "object" and len(t) == 4 and t[2] == ":":
                self.put(objects, t[1], t[3], line, content)
            elif t[0] == "iso" and len(t) == 5 and t[3] == ":":
                self.put(isos, (t[1], t[2]), t[4], line, content)
            elif t[0] == "identity-isos" and len(t) == 1:
                identity_isos = True
            else:
                raise self.bad(line, content, "descent_datum")
        base = F.base
        if identity_isos:
            for f in s.sorted_arrows():
                for g in base.arrows_into(base.dom(f)):
                    if (f, g) not in isos:
                        if f not in objects:
                            raise InvariantViolation(start, f"object for {f!r} missing")
                        img = F.on_arrows[g].on_objects.get(objects[f])
                        if img is None:
                            raise InvariantViolation(
                                start, f"object {objects[f]!r} for {f!r} is not in "
                                       f"{over}({base.dom(f)})")
                        isos[(f, g)] = F.on_objects[base.dom(g)].id_of(img)
        datum = DescentDatum(F, s, objects, isos)
        self.doc.descent_data[name] = (datum, over, sieve_name)

    def _block_sheaf_descent(self, header: list[str], start: int) -> None:
        name, cat, topo_name, at, sieve_name = self.header(
            header, "header: descent_datum NAME sheaves on CAT topology J at OBJ sieve S")
        base = ref(self.doc.categories, cat, start)
        topo, topo_base = ref(self.doc.topologies, topo_name, start)
        if topo_base != cat:
            raise InvariantViolation(start, f"topology {topo_name!r} is not on {cat!r}")
        s, sieve_base = ref(self.doc.sieves, sieve_name, start)
        if sieve_base != cat:
            raise InvariantViolation(start, f"sieve {sieve_name!r} is not on {cat!r}")
        if s.at != at:
            raise InvariantViolation(start, "sieve is not based at the stated object")
        objects: dict[str, SetPresheaf] = {}
        object_refs: dict[str, str] = {}
        object_lines: dict[str, int] = {}
        iso_tables: dict[tuple[str, str], tuple[int, dict[str, dict[str, str]]]] = {}
        identity_isos = False
        for line, content, t in self.body():
            if t[0] == "object" and len(t) == 4 and t[2] == ":":
                self.put(objects, t[1], ref(self.doc.setpresheaves, t[3], line)[0],
                         line, content)
                object_refs[t[1]] = t[3]
                object_lines[t[1]] = line
            elif t[0] == "identity-isos" and len(t) == 1:
                identity_isos = True
            elif not self.keyed_line("iso", iso_tables, line, content, t):
                raise self.bad(line, content, "sheaf descent")
        for f in s.sorted_arrows():
            if f not in objects:
                raise InvariantViolation(start, f"object for {f!r} missing")
            if objects[f].base != _slice_of(base, base.dom(f)):
                raise InvariantViolation(
                    object_lines[f], f"object for {f!r} is not on slice {cat} {base.dom(f)}")
        isos = {(f, g): _keyed_map("iso", iso_tables, (f, g),
                                   reindex_slice_presheaf(base, g, objects[f]),
                                   objects[base.compose(f, g)], identity_isos, start)
                for f in s.sorted_arrows() for g in base.arrows_into(base.dom(f))}
        _refuse_strays("iso", iso_tables, isos, f"composable pair of sieve {sieve_name}")
        datum = SheafDescentDatum(base, topo, s, objects, isos)
        self.doc.sheaf_descent_data[name] = (datum, cat, topo_name, sieve_name, object_refs)

    def block_map_to_omega(self, header: list[str], start: int) -> None:
        name, over = self.header(header, "map_to_omega header: map_to_omega NAME over F")
        F = ref(self.doc.catpresheaves, over, start)[0]
        base = F.base
        parts: dict[tuple[str, str], tuple[int, SetPresheaf]] = {}
        part_refs: dict[tuple[str, str], str] = {}
        arrow_tables: dict[tuple[str, str], tuple[int, dict[str, dict[str, str]]]] = {}
        for line, content, t in self.body():
            if t[0] == "part" and len(t) == 5 and t[3] == ":":
                self.put(parts, (t[1], t[2]), (line, ref(self.doc.setpresheaves, t[4], line)[0]),
                         line, content)
                part_refs[(t[1], t[2])] = t[4]
            elif not self.keyed_line("arrowpart", arrow_tables, line, content, t):
                raise self.bad(line, content, "map_to_omega")
        object_part = {}
        for c in base.objects:
            for x in F.on_objects[c].objects:
                if (c, x) not in parts:
                    raise InvariantViolation(start, f"part for ({c!r}, {x!r}) missing")
                object_part[(c, x)] = parts[(c, x)][1]
        arrow_part = {}
        for c in base.objects:
            Fc = F.on_objects[c]
            for nu in Fc.arrows:
                arrow_part[(c, nu)] = _keyed_map(
                    "arrowpart", arrow_tables, (c, nu), object_part[(c, Fc.dom(nu))],
                    object_part[(c, Fc.cod(nu))], Fc.is_identity(nu), start)
        _refuse_strays("part", parts, object_part, f"object of {over}")
        _refuse_strays("arrowpart", arrow_tables, arrow_part, f"arrow of {over}")
        z = checked(start, map_from_parts, base, F, object_part, arrow_part)
        checked(start, z.validate)
        self.doc.maps_to_omega[name] = (z, over, part_refs)


def parse(text: str, base_dir: str | None = None) -> Document:
    return _Parser(text, base_dir).parse()


def parse_file(path) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _Parser(text, os.path.dirname(os.path.abspath(path)),
                   seen_paths={os.path.normpath(os.path.abspath(path))}).parse()


# -- serialization ---------------------------------------------------------------------


def _refuse_unwritable_ids(doc: Document) -> None:
    """Raise InvalidTable naming the first id that would not read back as
    itself: block names, the objects and arrows of the categories, and the
    elements of the set-valued presheaves; or the first name that two
    tables of one block kind share, which parse refuses as repeated."""
    names = [name for f in fields(doc) for name in getattr(doc, f.name)]
    parts = [x for cat in doc.categories.values() for x in chain(cat.objects, cat.arrows)]
    elements = [x for Z, _ in doc.setpresheaves.values()
                for elems in Z.on_objects.values() for x in elems]
    for ident in chain(names, parts, elements):
        if ident.split() != [ident] or "#" in ident:
            raise InvalidTable(f"id {ident!r} cannot be written")
    if "," in elements:
        raise InvalidTable("element ',' cannot be written: it separates pairs")
    if any(expr == ("cat", "slice") for _, expr in doc.setpresheaves.values()):
        raise InvalidTable("a presheaf base named 'slice' cannot be written")
    for kind, tables in _NAMESPACES.items():
        for name in sorted({name for table in tables for name in getattr(doc, table)}):
            holders = [table for table in tables if name in getattr(doc, table)]
            if len(holders) > 1:
                raise InvalidTable(f"{kind} name {name!r} is shared by {' and '.join(holders)}")


def _ser_block(header: str, lines: Iterable[str]) -> list[str]:
    return [header, *(f"  {line}".rstrip() for line in lines), "end"]


def _ser_pairs(table: Mapping[str, str]) -> str:
    return " , ".join(f"{k} -> {v}" for k, v in sorted(table.items()))


def _ser_components(prefix: str, m: PresheafMap) -> list[str]:
    """One ``PREFIX at h : x -> y , ...`` line per component h of m."""
    return [f"{prefix} at {h} : {_ser_pairs(m.components[h])}" for h in sorted(m.components)]


def _ser_category(name: str, cat: FinCat) -> list[str]:
    lines = ["objects " + " ".join(cat.objects)]
    for f in cat.sorted_arrows():
        d, c = cat.arrows[f]
        lines.append(f"arrow {f} : {d} -> {c}")
    for c in cat.objects:
        lines.append(f"identity {c} : {cat.id_of(c)}")
    for (g, f), h in sorted(cat.compose_table.items()):
        lines.append(f"compose {g} {f} : {h}")
    return _ser_block(f"category {name}", lines)


def _ser_base(expr: tuple) -> str:
    if expr[0] == "cat":
        return expr[1]
    return f"slice {expr[1]} {expr[2]}"


def _ser_setpresheaf(name: str, Z: SetPresheaf, expr: tuple) -> list[str]:
    lines = [f"at {c} : " + " ".join(Z.on_objects[c]) for c in sorted(Z.on_objects)]
    for f in sorted(Z.on_arrows):
        if not Z.base.is_identity(f):
            lines.append(f"map {f} : {_ser_pairs(Z.on_arrows[f])}")
    return _ser_block(f"setpresheaf {name} on {_ser_base(expr)}", lines)


def serialize(doc: Document) -> str:
    _refuse_unwritable_ids(doc)
    blocks = [_ser_category(name, doc.categories[name]) for name in sorted(doc.categories)]
    for name in sorted(doc.functors):
        fun, src, dst = doc.functors[name]
        lines = [f"ob {x} : {fun.on_objects[x]}" for x in sorted(fun.on_objects)]
        for f in sorted(fun.on_arrows):
            if not fun.source.is_identity(f):
                lines.append(f"arr {f} : {fun.on_arrows[f]}")
        blocks.append(_ser_block(f"functor {name} : {src} -> {dst}", lines))
    for name in sorted(doc.setpresheaves):
        Z, expr = doc.setpresheaves[name]
        blocks.append(_ser_setpresheaf(name, Z, expr))
    for name in sorted(doc.catpresheaves):
        F, base, at_refs, arr_refs = doc.catpresheaves[name]
        lines = [f"at {c} : {at_refs[c]}" for c in sorted(at_refs)]
        lines += [f"arr {f} : {arr_refs[f]}" for f in sorted(arr_refs)]
        blocks.append(_ser_block(f"catpresheaf {name} on {base}", lines))
    for name in sorted(doc.two_nats):
        nat, src, dst, at_refs = doc.two_nats[name]
        lines = [f"at {c} : {at_refs[c]}" for c in sorted(at_refs)]
        blocks.append(_ser_block(f"two_nat {name} : {src} -> {dst}", lines))
    for name in sorted(doc.topologies):
        topo, base = doc.topologies[name]
        lines = []
        for c in sorted(topo.covers):
            for s in sorted(topo.covers[c], key=lambda s: s.sorted_arrows()):
                lines.append(f"sieve {c} : " + " ".join(s.sorted_arrows()))
        blocks.append(_ser_block(f"topology {name} on {base} raw", lines))
    for name in sorted(doc.sieves):
        s, base = doc.sieves[name]
        blocks.append(_ser_block(f"sieve {name} on {base} at {s.at}",
                                 ["arrows " + " ".join(s.sorted_arrows())]))
    for name in sorted(doc.descent_data):
        datum, over, sieve_ref = doc.descent_data[name]
        lines = [f"object {f} : {datum.objects[f]}" for f in sorted(datum.objects)]
        lines += [f"iso {f} {g} : {phi}" for (f, g), phi in sorted(datum.isos.items())]
        blocks.append(_ser_block(
            f"descent_datum {name} over {over} at {datum.sieve.at} sieve {sieve_ref}", lines))
    for name in sorted(doc.sheaf_descent_data):
        datum, base, topo_ref, sieve_ref, object_refs = doc.sheaf_descent_data[name]
        lines = [f"object {f} : {object_refs[f]}" for f in sorted(object_refs)]
        for (f, g), m in sorted(datum.isos.items()):
            lines += _ser_components(f"iso {f} {g}", m)
        blocks.append(_ser_block(
            f"descent_datum {name} sheaves on {base} topology {topo_ref} "
            f"at {datum.sieve.at} sieve {sieve_ref}", lines))
    for name in sorted(doc.maps_to_omega):
        z, over, part_refs = doc.maps_to_omega[name]
        lines = [f"part {c} {x} : {part_refs[(c, x)]}" for (c, x) in sorted(part_refs)]
        for (c, nu), m in sorted(z.arrow_part.items()):
            if not z.source.on_objects[c].is_identity(nu):
                lines += _ser_components(f"arrowpart {c} {nu}", m)
        blocks.append(_ser_block(f"map_to_omega {name} over {over}", lines))
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"
