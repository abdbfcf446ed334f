"""Structured-text (JSON) loading and dumping for every domain object.

Rationals travel as strings ("3/4", "2"); loaders raise SchemaError with a
JSON-style path to the offending element, and dumpers emit plain dict/list
trees that serialize byte-identically under sorted-keys JSON.
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from typing import Any, Sequence

from .attainable import AtomObstruction, CondExpBlockSet, MembershipResult, UhcAuditReport
from .correspondences import FiniteIndexedCorrespondence, MixedSelection, Selection
from .errors import SchemaError
from .games import BayesianGame, Entry, PlayerSpec, TypeCell
from .measure import Cell, CellKind, MeasureSpaceModel, StepFunction
from .piecewise import PiecePlan, convert_entry


# Python's default limit on the digits of an int converted to or from a
# string: a longer numerator or denominator could not be written in a report.
MAX_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_DIGITS


def parse_rational(value: int | str) -> Fraction:
    """``Fraction(value)`` for an int or a string such as '3/4' or '1.5e-3'.

    Raises ValueError (or ZeroDivisionError) where Fraction does, and for a
    numerator or denominator of more than MAX_DIGITS digits; an exponent
    beyond that is refused before it is expanded, which would take hours.
    """
    if isinstance(value, str):
        mantissa, e, exponent = value.lower().rpartition("e")
        if e and mantissa and abs(int(exponent)) > MAX_DIGITS:
            raise ValueError(f"exponent out of range: {value!r}")
    x = Fraction(value)
    if abs(x.numerator) >= _DIGITS_BOUND or x.denominator >= _DIGITS_BOUND:
        raise ValueError(f"more than {MAX_DIGITS} digits: {value!r}")
    return x


def _frac(value: Any, path: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, (int, str)):
            return parse_rational(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaError(path, f"expected a rational like '3/4', got {value!r}")


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _expect(obj: Any, kind: type, path: str):
    if not isinstance(obj, kind):
        raise SchemaError(path, f"expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def _int(value: Any, path: str) -> int:
    """A JSON integer; bools, floats and strings are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _int_tuple(value: Any, path: str, k: int, name: str) -> tuple[int, ...]:
    """``value``, field ``name`` of item k of the list at ``path``, as a
    tuple of JSON integers; its paths are built for a fault only."""
    if not isinstance(value, list):
        _expect(value, list, f"{path}[{k}].{name}")
    out = tuple(value)
    if not all(type(x) is int for x in out):
        out = tuple(_int(x, f"{path}[{k}].{name}[{j}]") for j, x in enumerate(value))
    return out


def _vec(value: Any, path: str) -> tuple[Fraction, ...]:
    return tuple(_frac(x, path) for x in _expect(value, list, path))


# -- piece plans ---------------------------------------------------------------
#
# JSON mirrors storage: each cell's entry is a list of {"upto": ..., key: ...}
# pieces, or on a point cell the bare payload.  ``convert_entry`` makes that
# one choice for both directions.


def _load_plan(doc: dict, cells, path: str, key: str, load) -> dict[str, object]:
    """Stored entries per cell from ``doc``; ``load(value, path)`` reads a payload."""
    entries: dict[str, object] = {}
    for c in cells:
        p = f"{path}[{c.id}]"
        if c.id not in doc:
            raise SchemaError(p, "missing cell entry")
        entries[c.id] = convert_entry(
            c, doc[c.id], lambda e: _load_pieces(e, p, key, load), lambda e: load(e, p)
        )
    return entries


def _load_pieces(entry: Any, path: str, key: str, load) -> tuple:
    pieces = []
    for k, pd in enumerate(_expect(entry, list, path)):
        q = f"{path}[{k}]"
        _expect(pd, dict, q)
        pieces.append((_frac(pd.get("upto"), f"{q}.upto"), load(pd.get(key), f"{q}.{key}")))
    return tuple(pieces)


def _dump_plan(plan: PiecePlan, cells, key: str, dump=lambda x: x) -> dict[str, object]:
    return {
        c.id: convert_entry(
            c,
            plan.entries[c.id],
            lambda pieces: [{"upto": frac_str(upto), key: dump(x)} for upto, x in pieces],
            dump,
        )
        for c in cells
    }


def _dump_vec(vec) -> list[str]:
    return [frac_str(x) for x in vec]


# -- measure space -------------------------------------------------------------


def load_space(doc: Any, path: str = "space") -> MeasureSpaceModel:
    _expect(doc, dict, path)
    cells_doc = _expect(doc.get("cells"), list, f"{path}.cells")
    cells = []
    for i, cd in enumerate(cells_doc):
        p = f"{path}.cells[{i}]"
        _expect(cd, dict, p)
        kind_raw = cd.get("kind", "rich")
        try:
            kind = CellKind(kind_raw)
        except ValueError:
            raise SchemaError(f"{p}.kind", f"unknown kind {kind_raw!r}")
        cells.append(
            Cell(
                id=str(cd.get("id", f"c{i}")),
                mass=_frac(cd.get("mass"), f"{p}.mass"),
                kind=kind,
                g_block=str(cd.get("g_block", cd.get("id", f"c{i}"))),
            )
        )
    return MeasureSpaceModel(tuple(cells))


def dump_space(space: MeasureSpaceModel) -> dict:
    return {
        "cells": [
            {
                "id": c.id,
                "mass": frac_str(c.mass),
                "kind": c.kind.value,
                "g_block": c.g_block,
            }
            for c in space.cells
        ]
    }


def load_step_function(
    doc: Any, space: MeasureSpaceModel, path: str = "f", expected_dim: int | None = None
) -> StepFunction:
    """A step function on ``space``, of dimension ``expected_dim`` when given."""
    _expect(doc, dict, path)
    dim = _int(doc.get("dim"), f"{path}.dim")
    if dim < 1:
        raise SchemaError(f"{path}.dim", "expected a positive integer")
    if expected_dim is not None and dim != expected_dim:
        raise SchemaError(f"{path}.dim", f"dimension {dim} != {expected_dim}")
    values_doc = _expect(doc.get("values"), dict, f"{path}.values")
    f = StepFunction(dim, _load_plan(values_doc, space.cells, f"{path}.values", "v", _vec))
    f.validate(space, f"{path}.values")
    return f


def load_step_functions(
    doc: Any, space: MeasureSpaceModel, path: str, expected_dim: int | None = None
) -> list[StepFunction]:
    """A JSON list of step functions on ``space``."""
    return [
        load_step_function(fd, space, f"{path}[{k}]", expected_dim)
        for k, fd in enumerate(_expect(doc, list, path))
    ]


def load_g_measurable(doc: Any, space: MeasureSpaceModel, path: str, dim: int) -> StepFunction:
    """``load_step_function``, checked to be constant on every block but a
    saturated cell's, as a conditional expectation is."""
    h = load_step_function(doc, space, path, dim)
    for label, cells in space.blocks.items():
        values = set()
        for c in cells:
            if c.kind is CellKind.SATURATED:  # alone in its block
                continue
            values.update(tuple(v) for _upto, v in h.pieces(c))
            if len(values) > 1:
                raise SchemaError(f"{path}.values[{c.id}]", f"not constant on block {label}")
    return h


def dump_step_function(f: StepFunction, space: MeasureSpaceModel) -> dict:
    return {"dim": f.dim, "values": _dump_plan(f, space.cells, "v", _dump_vec)}


def load_correspondence(doc: Any, path: str = "correspondence") -> FiniteIndexedCorrespondence:
    _expect(doc, dict, path)
    space = load_space(doc.get("space"), f"{path}.space")
    branches_doc = _expect(doc.get("branches"), list, f"{path}.branches")
    branches: list[StepFunction] = []
    for k, bd in enumerate(branches_doc):
        expected_dim = branches[0].dim if branches else None
        branches.append(load_step_function(bd, space, f"{path}.branches[{k}]", expected_dim))
    return FiniteIndexedCorrespondence(space, tuple(branches))


def dump_correspondence(F: FiniteIndexedCorrespondence) -> dict:
    return {
        "space": dump_space(F.space),
        "branches": [dump_step_function(g, F.space) for g in F.branches],
    }


def load_selection(doc: Any, space: MeasureSpaceModel, path: str = "selection") -> Selection:
    _expect(doc, dict, path)
    return Selection(_load_plan(doc, space.cells, path, "branch", _int))


def dump_selection(s: Selection, space: MeasureSpaceModel) -> dict:
    return _dump_plan(s, space.cells, "branch")


# -- games ---------------------------------------------------------------------


def load_game(doc: Any, path: str = "game") -> BayesianGame:
    """The game of ``doc``, with one ``Entry`` per distinct (const, slope,
    coord) of the document, so the game makes one integer row per distinct
    entry.  A fault raises at its JSON path under ``path``."""
    parsed: dict[str, Fraction] = {}

    def frac(value: Any, p: str) -> Fraction:
        """``_frac``, parsing each distinct string of the document once."""
        if not isinstance(value, str):
            return _frac(value, p)
        x = parsed.get(value)
        if x is None:
            x = parsed[value] = _frac(value, p)
        return x

    _expect(doc, dict, path)
    players_doc = _expect(doc.get("players"), list, f"{path}.players")
    specs = []
    for i, pd in enumerate(players_doc):
        p = f"{path}.players[{i}]"
        _expect(pd, dict, p)
        actions = _expect(pd.get("actions"), list, f"{p}.actions")
        cells_doc = _expect(pd.get("cells"), list, f"{p}.cells")
        cells = []
        for k, cd in enumerate(cells_doc):
            cp = f"{p}.cells[{k}]"
            _expect(cd, dict, cp)
            point = _expect(cd.get("point", False), bool, f"{cp}.point")
            grid = ()
            if not point:
                grid_doc = _expect(cd.get("grid"), list, f"{cp}.grid")
                grid = tuple(frac(x, f"{cp}.grid") for x in grid_doc)
            mass = frac(cd.get("mass"), f"{cp}.mass")
            try:
                cells.append(TypeCell(str(cd.get("id", f"t{i}")), mass, grid, point))
            except SchemaError as exc:  # at cells[<id>].<field>
                raise SchemaError(f"{cp}.{exc.path.rsplit('.', 1)[1]}", exc.message) from None
        try:
            specs.append(PlayerSpec(tuple(str(a) for a in actions), tuple(cells)))
        except SchemaError as exc:  # at actions or cells
            raise SchemaError(f"{p}.{exc.path}", exc.message) from None

    shared: dict[tuple, Entry] = {}  # one Entry per distinct raw (const, slope, coord)

    def load_entries(doc: Any, p: str) -> dict[tuple[int, ...], Entry]:
        """A list of entries by unit tuple; the game checks their values.

        The paths are built for a fault only.  A raw (const, slope, coord)
        is shared only when it is exactly two strings and an int or None,
        since 1, True and 1.0 compare equal and lists do not hash.
        """
        entries = {}
        for k, ed in enumerate(_expect(doc, list, p)):
            if not isinstance(ed, dict):
                _expect(ed, dict, f"{p}[{k}]")
            key = _int_tuple(ed.get("units"), p, k, "units")
            if key in entries:
                raise SchemaError(f"{p}[{k}].units", f"repeats unit tuple {key}")
            raw = (ed.get("const", "0"), ed.get("slope", "0"), ed.get("coord"))
            const, slope, coord = raw
            shareable = type(const) is str and type(slope) is str and (
                coord is None or type(coord) is int
            )
            e = shared.get(raw) if shareable else None
            if e is None:
                q = f"{p}[{k}]"
                e = Entry(
                    frac(const, f"{q}.const"),
                    frac(slope, f"{q}.slope"),
                    None if coord is None else _int(coord, f"{q}.coord"),
                )
                if shareable:
                    shared[raw] = e
            entries[key] = e
        return entries

    density = load_entries(doc.get("density"), f"{path}.density")
    payoffs_doc = _expect(doc.get("payoffs"), list, f"{path}.payoffs")
    payoffs = []
    for i, tables_doc in enumerate(payoffs_doc):
        p = f"{path}.payoffs[{i}]"
        _expect(tables_doc, list, p)
        tables = {}
        for k, td in enumerate(tables_doc):
            if not isinstance(td, dict):
                _expect(td, dict, f"{p}[{k}]")
            profile = _int_tuple(td.get("profile"), p, k, "profile")
            if profile in tables:
                raise SchemaError(f"{p}[{k}].profile", f"repeats action profile {profile}")
            tables[profile] = load_entries(td.get("entries"), f"{p}[{k}].entries")
        payoffs.append(tables)
    try:
        return BayesianGame(tuple(specs), density, tuple(payoffs))
    except SchemaError as exc:
        raise SchemaError(_json_path(exc.path, path, density, payoffs), exc.message) from None


def _json_path(game_path: str, path: str, density, payoffs) -> str:
    """The JSON path, under ``path``, of the entry or profile whose key a
    ``BayesianGame`` construction error names at ``game_path``; a fault with
    no one such key in the document keeps its game path, under ``path``.

    Each table holds its keys in document order, repeats being rejected, so
    a key's position in its table is its JSON index.
    """

    def index(table, key: str) -> int | None:
        return next((k for k, x in enumerate(table) if str(x) == key), None)

    found = re.fullmatch(r"density\[(.+)\]", game_path)
    if found and (k := index(density, found[1])) is not None:
        return f"{path}.density[{k}].units"
    found = re.fullmatch(r"payoffs\[(\d+)\]\[(\(.*?\))\](?:\[(.+)\])?", game_path)
    if found:
        i, profile, key = int(found[1]), found[2], found[3]
        k = index(payoffs[i], profile)
        if k is not None:
            if key is None:
                return f"{path}.payoffs[{i}][{k}].profile"
            j = index(list(payoffs[i].values())[k], key)
            if j is not None:
                return f"{path}.payoffs[{i}][{k}].entries[{j}].units"
    return f"{path}.{game_path}"


def dump_game(game: BayesianGame) -> dict:
    def dump_entry(key, e: Entry) -> dict:
        out = {"units": list(key), "const": frac_str(e.const)}
        if e.slope != 0:
            out["slope"] = frac_str(e.slope)
            out["coord"] = e.coord
        return out

    players = []
    for spec in game.players:
        cells = []
        for c in spec.cells:
            cd = {"id": c.id, "mass": frac_str(c.mass)}
            if c.point:
                cd["point"] = True
            else:
                cd["grid"] = [frac_str(g) for g in c.grid]
            cells.append(cd)
        players.append({"actions": list(spec.actions), "cells": cells})
    density = [dump_entry(k, e) for k, e in sorted(game.density.items())]
    payoffs = []
    for i in range(len(game.players)):
        tables = []
        for x in sorted(game.payoffs[i]):
            tables.append(
                {
                    "profile": list(x),
                    "entries": [
                        dump_entry(k, e) for k, e in sorted(game.payoffs[i][x].items())
                    ],
                }
            )
        payoffs.append(tables)
    return {"players": players, "density": density, "payoffs": payoffs}


def load_strategy(doc: Any, spec: PlayerSpec, path: str = "strategy"):
    _expect(doc, dict, path)
    plan_doc = _expect(doc.get("plan"), dict, f"{path}.plan")
    if doc.get("type", "behavioral") == "pure":
        strategy = Selection(_load_plan(plan_doc, spec.cells, f"{path}.plan", "action", _int))
    else:
        strategy = MixedSelection(_load_plan(plan_doc, spec.cells, f"{path}.plan", "w", _vec))
    strategy.validate(spec.cells, len(spec.actions), f"{path}.plan")
    return strategy


def load_profile(doc: Any, players: Sequence[PlayerSpec], path: str) -> list:
    """One strategy per player, from a JSON list."""
    return [load_strategy(sd, spec, p) for sd, spec, p in _per_player(doc, players, path)]


def load_samples(doc: Any, players: Sequence[PlayerSpec], path: str) -> list[list]:
    """Per player, a JSON list of that player's strategies."""
    return [
        [load_strategy(sd, spec, f"{p}[{k}]") for k, sd in enumerate(_expect(row, list, p))]
        for row, spec, p in _per_player(doc, players, path)
    ]


def _per_player(doc: Any, players: Sequence[PlayerSpec], path: str):
    if len(_expect(doc, list, path)) != len(players):
        raise SchemaError(path, "one strategy per player required")
    return [(entry, spec, f"{path}[{i}]") for i, (entry, spec) in enumerate(zip(doc, players))]


def dump_strategy(strategy, spec: PlayerSpec) -> dict:
    if isinstance(strategy, Selection):
        return {"type": "pure", "plan": _dump_plan(strategy, spec.cells, "action")}
    return {"type": "behavioral", "plan": _dump_plan(strategy, spec.cells, "w", _dump_vec)}


# -- reports -----------------------------------------------------------------
#
# A report is its dataclass's repr fields under their own names: rationals as
# strings, tuples and lists as lists, nested reports as dicts, and everything
# else (ints, bools, strings, None, an irrational distance's float) as it is.


def _encode(value: Any) -> Any:
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, (tuple, list)):
        return [_encode(x) for x in value]
    if dataclasses.is_dataclass(value):
        return dump_report(value)
    return value


def dump_report(obj: Any, **fields) -> dict:
    """The report of dataclass ``obj``; each keyword adds a key or takes a
    field's place (a strategy profile, which needs the players' cells, or a
    derived value such as ``all_zero``)."""
    out = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.repr}
    out.update(fields)
    return {key: _encode(value) for key, value in out.items()}


def dump_block_set(bs: CondExpBlockSet) -> dict:
    polytopes = bs.polytopes() if bs.dim <= 3 else None  # vertex lists up to dimension 3
    return {
        "block": bs.block,
        "block_mass": frac_str(bs.block_mass),
        "dim": bs.dim,
        "polytopes": _encode(polytopes),
    }


# The three names below stay as separate functions only because the
# benchmark's tracer (perfbench/tracer.py) times them by name; they can fold
# into dump_report when ROADMAP item 4 changes the benchmark.


def dump_membership(result: MembershipResult) -> dict:
    return dump_report(result)


def dump_obstruction(ob: AtomObstruction) -> dict:
    return dump_report(ob)


def dump_uhc(report: UhcAuditReport) -> dict:
    return dump_report(report)
