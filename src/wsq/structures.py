"""Vocabularies and weighted finite structures.

A weighted structure interprets relation symbols as tuple sets over a
finite universe and weight-function symbols as partial maps from tuples
to exact rationals; tuples absent from a weight table denote ``bot``.
Tables are checked once, where they are built, and are read-only; with
no lazy state or cache, structures are safe to share between threads.

The JSON file format is documented on :func:`structure_from_json`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import LoadError, UsageError
from .numerics import BOT, ExtRational, as_rational, rational, read_number

__all__ = [
    "Vocabulary",
    "WeightedStructure",
    "validate_structure",
    "structure_from_json",
    "structure_to_json",
    "load_structure",
    "save_structure",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass(frozen=True)
class Vocabulary:
    """Named symbols, each a relation or a weight function with an arity.

    Names are unique across both kinds, both maps are read-only, and an
    arity is an int (not a bool) of 0 or more; 0-ary weights are constants.
    Vocabularies with the same symbols, kinds and arities are equal and
    hash alike.
    """

    relations: Mapping[str, int] = field(default_factory=dict)
    weights: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        clash = set(self.relations) & set(self.weights)
        if clash:
            raise UsageError(f"symbol names used as both relation and weight: {sorted(clash)}")
        for name, arity in list(self.relations.items()) + list(self.weights.items()):
            if isinstance(arity, bool) or not isinstance(arity, int) or arity < 0:
                raise UsageError(f"bad arity for symbol {name!r}: {arity!r}")
        object.__setattr__(self, "relations", MappingProxyType(dict(self.relations)))
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))

    def __hash__(self) -> int:
        return hash((frozenset(self.relations.items()), frozenset(self.weights.items())))

    def merged(self, other: "Vocabulary") -> "Vocabulary":
        clash = (set(self.relations) | set(self.weights)) & (set(other.relations) | set(other.weights))
        if clash:
            raise UsageError(f"expansion clashes with existing symbols: {sorted(clash)}")
        return Vocabulary({**self.relations, **other.relations}, {**self.weights, **other.weights})


@dataclass(frozen=True)
class WeightedStructure:
    """A finite universe with relation tables and sparse weight tables.

    ``relations`` maps each relation symbol to a frozenset of tuples;
    ``weights`` maps each weight symbol to a map from tuples to defined
    values (``bot`` is represented by absence).  The universe is an
    ordered tuple of distinct names, in an order used only for
    iteration.  All maps are read-only views, and a structure is not
    hashable.  The constructor checks no tables: it is meant for tables
    taken from a checked structure or checked as a file is read.
    """

    universe: tuple[str, ...]
    vocabulary: Vocabulary
    relations: Mapping[str, frozenset]
    weights: Mapping[str, Mapping[tuple, ExtRational]]
    __hash__ = None

    def __post_init__(self):
        views = {k: MappingProxyType(t) if isinstance(t, dict) else t for k, t in self.weights.items()}
        object.__setattr__(self, "relations", MappingProxyType(dict(self.relations)))
        object.__setattr__(self, "weights", MappingProxyType(views))

    @classmethod
    def build(
        cls,
        universe: Sequence[str],
        relations: Optional[Mapping[str, tuple[int, Iterable[Sequence[str]]]]] = None,
        weights: Optional[Mapping[str, tuple[int, Mapping[Sequence[str], object]]]] = None,
    ) -> "WeightedStructure":
        """Construct from ``{name: (arity, tuples)}`` and ``{name: (arity, {tuple: value})}``.

        Weight values may be ints, Fractions, or ExtRationals, not bools;
        ``bot`` entries are dropped (absence means ``bot``).  A universe
        :func:`universe_problems` rejects, a bad arity, or a tuple of the wrong
        length or with an element outside the universe is a :class:`UsageError`.
        """
        universe = tuple(universe)
        problems = universe_problems(universe)
        if problems:
            raise UsageError(problems[0])
        return cls(universe, *_checked_tables(universe, relations, weights))

    # -- lookups ---------------------------------------------------------

    def _check_symbol(self, name: str, kind: str, t: Sequence[str]) -> None:
        table = self.vocabulary.relations if kind == "relation" else self.vocabulary.weights
        if name not in table:
            raise UsageError(f"unknown {kind} symbol {name!r}")
        if len(t) != table[name]:
            raise UsageError(f"{kind} {name!r} has arity {table[name]}, got tuple of length {len(t)}")
        for comp in t:
            if comp not in self.universe:
                raise UsageError(f"tuple component {comp!r} is not a universe element")

    def rel(self, name: str, t: Sequence[str]) -> bool:
        """Membership test for a relation symbol; errors on misuse."""
        self._check_symbol(name, "relation", t)
        return tuple(t) in self.relations[name]

    def weight(self, name: str, t: Sequence[str]) -> ExtRational:
        """Stored weight for a tuple; ``bot`` when the tuple is absent."""
        self._check_symbol(name, "weight", t)
        return self.weights[name].get(tuple(t), BOT)

    # -- expansion ---------------------------------------------------------

    def expand(
        self,
        relations: Optional[Mapping[str, tuple[int, Iterable[Sequence[str]]]]] = None,
        weights: Optional[Mapping[str, tuple[int, Mapping[Sequence[str], object]]]] = None,
    ) -> "WeightedStructure":
        """Interpret additional symbols over the same universe.

        New names must be disjoint from the current vocabulary; all
        existing interpretations are preserved; new tables are checked.
        """
        vocab, rels, wts = _checked_tables(self.universe, relations, weights)
        rels, wts = {**self.relations, **rels}, {**self.weights, **wts}
        return WeightedStructure(self.universe, self.vocabulary.merged(vocab), rels, wts)


def _checked_tables(universe, relations, weights) -> tuple[Vocabulary, dict, dict]:
    """:func:`_tables` of ``build``'s arguments, values made ExtRationals; raises the first problem."""
    defined = {}
    for name, (arity, table) in (weights or {}).items():
        defined[name] = arity, {}
        for t, v in table.items():
            value = as_rational(v)
            if value is None:
                raise UsageError(f"weight values must be rationals, got {type(v).__name__}")
            if not value.is_bot:
                defined[name][1][tuple(t)] = value
    vocab, rels, wts, problems = _tables(universe, relations, defined)
    if problems:
        raise UsageError(problems[0])
    return vocab, rels, wts


def _tables(universe, relations, weights: dict) -> tuple[Vocabulary, dict, dict, list[str]]:
    """The vocabulary, tables and table problems; weight tables must hold tuples and defined ExtRationals."""
    relations = relations or {}
    arities = [{name: arity for name, (arity, _) in symbols.items()} for symbols in (relations, weights)]
    vocab = Vocabulary(*arities)
    rel_tables = {name: frozenset(tuple(t) for t in tuples) for name, (_, tuples) in relations.items()}
    wt_tables = {name: table for name, (_, table) in weights.items()}
    return vocab, rel_tables, wt_tables, _table_problems(universe, vocab, rel_tables, wt_tables)


def _table_problems(universe, vocab: Vocabulary, rels: Mapping, wts: Mapping) -> list[str]:
    """The problems of the tables, per kind: symbols not both declared and
    interpreted, and tuples of the wrong length or off ``universe``."""
    members = frozenset(universe)
    out: list[str] = []
    for kind, tables, arities in (("relation", rels, vocab.relations), ("weight", wts, vocab.weights)):
        if set(tables) != set(arities):
            out.append(f"vocabulary: interpreted {kind}s do not match declared {kind} symbols")
        for name, arity in arities.items():
            table = tables.get(name, {})
            off = [t for t in table if len(t) != arity or not members.issuperset(t)]
            if off and kind == "relation":
                off.sort(key=repr)  # a frozenset iterates in hash order, which changes between processes
            out += [
                f"{kind} {name}: arity mismatch in tuple {t!r}"
                if len(t) != arity
                else f"{kind} {name}: tuple {t!r} has non-universe components"
                for t in off
            ]
    return out


def universe_problems(universe: Sequence[str]) -> list[str]:
    """The problems of a universe: empty, badly named or repeated elements."""
    out = [] if universe else ["universe: must be nonempty"]
    seen = set()
    for name in universe:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            out.append(f"universe: element name {name!r} must match [A-Za-z0-9_]+")
        if name in seen:
            out.append(f"universe: duplicate element {name!r}")
        seen.add(name)
    return out


def validate_structure(s: WeightedStructure) -> list[str]:
    """The violations of the structure invariants; empty if ``s`` is well-formed."""
    out = universe_problems(s.universe) + _table_problems(s.universe, s.vocabulary, s.relations, s.weights)
    for name, table in s.weights.items():
        bad = [t for t, v in table.items() if not isinstance(v, ExtRational) or v.is_bot]
        out += [f"weight {name}: stored value for {t!r} must be a defined rational" for t in bad]
    return out


# -- JSON file format ------------------------------------------------------


def structure_to_json(s: WeightedStructure) -> dict:
    """Serialize to the structure-file dict; inverse of :func:`structure_from_json`."""
    return {
        "universe": list(s.universe),
        "relations": {
            name: {
                "arity": s.vocabulary.relations[name],
                "tuples": sorted(list(t) for t in tuples),
            }
            for name, tuples in sorted(s.relations.items())
        },
        "weights": {
            name: {
                "arity": s.vocabulary.weights[name],
                "values": [
                    {"tuple": list(t), "value": str(v)}
                    for t, v in sorted(table.items())
                ],
            }
            for name, table in sorted(s.weights.items())
        },
    }


def _section(doc: dict, key: str):
    """The ``(name, spec)`` items of an optional object-valued section."""
    section = doc.get(key)
    if section is None:
        return ()
    if not isinstance(section, dict):
        raise LoadError(f"'{key}' must be an object mapping symbol names to entries")
    return section.items()


def _arity(raw, where: str) -> int:
    """An arity as written in JSON: a non-negative integer, not a bool, float or string."""
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
        raise LoadError(f"{where}: arity must be a non-negative integer, got {raw!r}")
    return raw


def _tuples(rows, where: str) -> list[tuple]:
    """Tuples read from a JSON list of lists of element names, of any length."""
    if not isinstance(rows, list) or not all(isinstance(t, (list, tuple)) for t in rows):
        raise LoadError(f"{where}: tuples must be lists of element names")
    tuples = [tuple(t) for t in rows]
    if not all(isinstance(x, str) for t in tuples for x in t):
        raise LoadError(f"{where}: tuple components must be element names")
    return tuples


def weight_value(raw, where: str) -> ExtRational:
    """A defined weight as written in JSON: a rational literal string or an integer."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise LoadError(f"{where}: value must be a string or integer, got {raw!r}")
    try:
        value = rational(raw) if isinstance(raw, int) else ExtRational.parse(raw)
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from exc
    if value.is_bot:
        raise LoadError(f"{where}: explicit 'bot' not allowed; omit the entry instead")
    return value


def weight_reader():
    """:func:`weight_value` for one load: each distinct text is parsed once, and only values that parsed are kept."""
    parsed: dict[str, ExtRational] = {}

    def read(raw, where: str) -> ExtRational:
        if type(raw) is not str:  # True == 1 == 1.0 and they hash alike, so only a text is looked up
            return weight_value(raw, where)
        if raw not in parsed:
            parsed[raw] = weight_value(raw, where)
        return parsed[raw]

    return read


def structure_from_json(doc: dict) -> WeightedStructure:
    """Load a structure from its JSON dict form.

    Expected shape::

        {"universe": ["v1", ...],
         "relations": {"edge": {"arity": 2, "tuples": [["v1","v2"], ...]}},
         "weights":   {"wt":   {"arity": 2, "values": [{"tuple": ["v1","v2"],
                                                        "value": "3/2"}, ...]}}}

    Weight values are strings ``"p/q"``, ``"d.ddd"`` or ``"int"`` (raw JSON
    integers are accepted too); ``bot`` is expressed by omitting the tuple.
    A tuple listed twice with different values is a load error.  Each
    distinct weight text is parsed once per load, and nothing is kept after it.
    """
    if not isinstance(doc, dict) or "universe" not in doc:
        raise LoadError("structure file must be an object with a 'universe' key")
    universe = doc["universe"]
    if not isinstance(universe, list) or not all(isinstance(x, str) for x in universe):
        raise LoadError("'universe' must be a list of element names")

    relations = {}
    for name, spec in _section(doc, "relations"):
        try:
            arity = _arity(spec["arity"], f"relation {name!r}")
            rows = spec.get("tuples", [])
        except (TypeError, KeyError) as exc:
            raise LoadError(f"relation {name!r}: malformed entry") from exc
        relations[name] = (arity, _tuples(rows, f"relation {name!r}"))

    read = weight_reader()
    weights = {}
    for name, spec in _section(doc, "weights"):
        try:
            arity = _arity(spec["arity"], f"weight {name!r}")
            entries = spec.get("values", [])
        except (TypeError, KeyError) as exc:
            raise LoadError(f"weight {name!r}: malformed entry") from exc
        try:
            rows = [entry["tuple"] for entry in entries]
            raws = [entry["value"] for entry in entries]
        except (TypeError, KeyError) as exc:
            raise LoadError(f"weight {name!r}: malformed value entry") from exc
        table: dict = {}
        where = f"weight {name!r}"
        for t, raw in zip(_tuples(rows, where), raws):
            value = read(raw, where)
            if t in table and table[t] != value:
                raise LoadError(f"{where}: tuple {list(t)} listed twice with different values")
            table[t] = value
        weights[name] = (arity, table)

    problems = universe_problems(universe)
    try:
        vocab, rels, wts, table_problems = _tables(universe, relations, weights)
    except UsageError as exc:
        raise LoadError(str(exc)) from exc
    if problems + table_problems:
        raise LoadError("invalid structure: " + "; ".join(problems + table_problems))
    return WeightedStructure(tuple(universe), vocab, rels, wts)


def read_json(path: str):
    """The JSON document in the file at ``path``.  A file that cannot be
    read, is not UTF-8, is not JSON or nests too deeply for the JSON
    parser raises :class:`LoadError` (``cannot read PATH: ...`` or
    ``PATH: not valid JSON: ...``), as does an integer over the bit bound
    (``PATH: number too long (N characters)``, from ``read_number``)."""

    def integer(text: str) -> int:
        try:
            return read_number(text).numerator
        except ValueError as exc:
            raise LoadError(f"{path}: {exc}") from None

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=integer)
    except OSError as exc:
        # an OSError's own text names the file again
        raise LoadError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise LoadError(f"{path}: not valid JSON: {exc}") from exc


def load_structure(path: str) -> WeightedStructure:
    """Load a structure file; any unreadable or malformed file is a :class:`LoadError`."""
    return structure_from_json(read_json(path))


def save_structure(s: WeightedStructure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(structure_to_json(s), fh, indent=2, sort_keys=True)
        fh.write("\n")
