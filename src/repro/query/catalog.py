"""The system catalog: streams, tables, and their schemas (Figure 4/5).

TelegraphCQ reuses PostgreSQL's catalog; ours is an in-memory registry
with the two object kinds the paper distinguishes:

* **streams** — unbounded, windowed access only for blocking ops;
* **tables** — static relations ("an input without a corresponding
  WindowIs statement is assumed to be a static table by default").

The catalog also resolves unqualified column names to their owning
source within a query's FROM list, and materialises alias bindings for
self-joins.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple as TypingTuple

from repro.core.tuples import Schema
from repro.errors import QueryError


class CatalogEntry:
    __slots__ = ("name", "schema", "kind", "aliases")

    def __init__(self, name: str, schema: Schema, kind: str):
        self.name = name
        self.schema = schema
        self.kind = kind
        #: alias -> this object's schema re-labelled (see alias_schema).
        self.aliases: Dict[str, Schema] = {}

    @property
    def is_stream(self) -> bool:
        return self.kind == "stream"


class Catalog:
    """Registry of every queryable object."""

    def __init__(self) -> None:
        self._entries: Dict[str, CatalogEntry] = {}

    def create_stream(self, schema: Schema) -> CatalogEntry:
        return self._create(schema, "stream")

    def create_table(self, schema: Schema) -> CatalogEntry:
        return self._create(schema, "table")

    def _create(self, schema: Schema, kind: str) -> CatalogEntry:
        if not schema.name:
            raise QueryError(f"a {kind} schema needs a name")
        if schema.name in self._entries:
            raise QueryError(f"{schema.name!r} already exists")
        entry = CatalogEntry(schema.name, schema, kind)
        self._entries[schema.name] = entry
        return entry

    def drop(self, name: str) -> None:
        if name not in self._entries:
            raise QueryError(f"unknown object {name!r}")
        del self._entries[name]

    def lookup(self, name: str) -> CatalogEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise QueryError(
                f"unknown stream or table {name!r}; known: "
                f"{sorted(self._entries)}")
        return entry

    def exists(self, name: str) -> bool:
        return name in self._entries

    def streams(self) -> List[str]:
        return [e.name for e in self._entries.values() if e.is_stream]

    def tables(self) -> List[str]:
        return [e.name for e in self._entries.values() if not e.is_stream]

    def alias_schema(self, name: str, alias: str) -> Schema:
        """The schema of ``name`` re-labelled under ``alias`` — tuples of
        a self-joined stream are replicated under each alias binding.
        One schema object per alias for the life of the entry, so joins
        over aliased rows find their joined schema again
        (:meth:`Schema.join`)."""
        entry = self.lookup(name)
        schema = entry.aliases.get(alias)
        if schema is None:
            schema = entry.aliases[alias] = Schema(entry.schema.columns,
                                                   name=alias)
        return schema

    def resolve_column(self, column: str,
                       bindings: Sequence[TypingTuple[str, str]]) -> str:
        """Resolve a possibly-unqualified column against FROM bindings.

        ``bindings`` is a list of (binding name, underlying object name);
        returns the qualified ``binding.column`` form, raising on
        ambiguity — "In the face of ambiguity, refuse the temptation to
        guess."
        """
        if "." in column:
            prefix = column.split(".", 1)[0]
            if not any(b == prefix for b, _o in bindings):
                raise QueryError(
                    f"column {column!r} references unknown binding "
                    f"{prefix!r}")
            return column
        owners = []
        for binding, obj in bindings:
            schema = self.lookup(obj).schema
            if schema.has_column(column):
                owners.append(binding)
        if not owners:
            raise QueryError(f"unknown column {column!r}")
        if len(owners) > 1:
            raise QueryError(
                f"column {column!r} is ambiguous across {owners}; "
                f"qualify it")
        return f"{owners[0]}.{column}"
