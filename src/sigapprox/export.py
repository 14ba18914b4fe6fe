"""Serialization: network documents (JSON) and sample grids (CSV).

The network document reads G unit by unit: each hidden neuron computes
sigma(hidden_weight * x + hidden_bias) and contributes output_coefficient
times that to the output.  All reals are serialized with shortest
round-trip decimal representation, so export is lossless.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from itertools import chain, islice, repeat
from operator import mul
from typing import IO, Any, Callable, Iterable, Iterator, Union

from .engine import Recipe, SigmoidApproximant, evaluate
from .expressions import FunctionSpec, format_ast
from .partition import unif_part, uniform_grid

__all__ = [
    "FORMAT_VERSION",
    "to_network_document",
    "write_network",
    "approximant_from_document",
    "write_network_document",
    "read_network_document",
    "write_samples",
    "samples_file",
    "SAMPLES_HEADER",
]

FORMAT_VERSION = "1"
UNIT_KEYS = ("hidden_weight", "hidden_bias", "output_coefficient")
SAMPLES_HEADER = "x,f,g,abs_err"
_MAX = sys.float_info.max

Destination = Union[str, os.PathLike, IO[str]]


def _units(g: SigmoidApproximant) -> Iterator[tuple[float, float, float]]:
    """G's (hidden_weight, hidden_bias, output_coefficient) triples in
    document order: the x_0 unit first, then k = 2..N+1 ascending, all with
    the one object w.  hidden_bias is -w * x_k exactly as computed here."""
    w = g.w
    return zip(repeat(w), map(mul, repeat(-w), g.centers), g.unit_coeffs)


def _document(recipe: Recipe, spec: FunctionSpec, units: Iterable[Any]) -> dict[str, Any]:
    source = spec.text if spec.text is not None else format_ast(spec.ast)
    return {
        "format_version": FORMAT_VERSION,
        "activation": "sigmoid",
        "units": units,
        "metadata": {
            "a": recipe.a,
            "b": recipe.b,
            "N": recipe.n,
            "epsilon": recipe.epsilon,
            "eta": recipe.eta,
            "delta": recipe.delta,
            "L": recipe.lipschitz,
            "M_f": recipe.m_f,
            "M_sigma": recipe.m_sigma,
            "source_expression": source,
        },
    }


def to_network_document(
    g: SigmoidApproximant, recipe: Recipe, spec: FunctionSpec
) -> dict[str, Any]:
    """Flat JSON-able description of the network, one record per unit in
    the order of `_units`, and the recipe as metadata."""
    return _document(recipe, spec, [
        {"hidden_weight": w, "hidden_bias": bias, "output_coefficient": coeff}
        for w, bias, coeff in _units(g)
    ])


def write_network(
    g: SigmoidApproximant, recipe: Recipe, spec: FunctionSpec, destination: Destination
) -> None:
    """Write the network document of G straight from G: the same bytes as
    write_network_document(to_network_document(g, recipe, spec), ...),
    without a record per unit."""
    _write_document(_document(recipe, spec, _units(g)), destination)


def approximant_from_document(doc: dict[str, Any]) -> SigmoidApproximant:
    """Rebuild the approximant from a network document.

    The partition is reconstructed from (a, b, N) via the same closed
    formula used at build time, so the rebuilt network evaluates
    bit-identically to the original.  The loader checks what only the
    document can get wrong: N must be an int, a and b and each unit's
    three numbers must be ints or floats (not bools, strings or null),
    the unit count must be N + 1, and every unit must be an object that
    holds unit 0's hidden weight w and the bias -w * x_k that
    `to_network_document` wrote, bit for bit.  A failing document raises
    ValueError naming its type, the metadata key, or the unit and its key.
    The slope, unit 0's hidden weight, goes through
    `SigmoidApproximant.check_slope` before any unit is compared, and the
    network through `SigmoidApproximant`, which refuses an output
    coefficient that is not finite; both raise RecipeError, a ValueError."""
    if type(doc) is not dict:
        raise ValueError(f"the document is a {type(doc).__name__}, not an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {doc.get('format_version')!r}")
    if doc.get("activation") != "sigmoid":
        raise ValueError(f"unsupported activation {doc.get('activation')!r}")
    meta, units = doc.get("metadata"), doc.get("units")
    a, b = _number(meta, "a", "metadata"), _number(meta, "b", "metadata")
    n = meta.get("N")
    if type(n) is not int:
        raise ValueError(f"N must be an integer, got {n!r}")
    if type(units) is not list:
        raise ValueError(f"units is {units!r}, not a list")
    if len(units) != n + 1:
        raise ValueError(f"expected {n + 1} units, document has {len(units)}")
    p = unif_part(a, b, n)
    w = float(_number(units[0], "hidden_weight", "unit 0"))
    # a nan slope would fail unit 0's own weight check and an inf one its
    # bias check, so the slope is refused by name before either
    SigmoidApproximant.check_slope(w)
    # the unit centers, x_0 then x_2..x_{N+1}, as G's `centers` holds them
    pts = p.points
    neg_w = -w
    coeffs = []
    for unit, center in zip(units, chain((pts[0],), islice(pts, 2, None))):
        try:
            weight, bias, coeff = (unit["hidden_weight"], unit["hidden_bias"],
                                   unit["output_coefficient"])
        except (KeyError, TypeError):
            # not an object, or a key missing: `_number` says which
            for key in UNIT_KEYS:
                _number(unit, key, f"unit {len(coeffs)}")
            raise
        # != refuses all but a number equal to the float it is compared
        # with.  Among those, True equals 1.0 and False 0.0, so the two
        # bools are refused by identity, which costs less than a type test
        # per unit
        want = neg_w * center
        if weight != w or weight is True:
            raise ValueError(f"unit {len(coeffs)} has hidden_weight {weight!r}, unit 0 has {w!r}")
        # == alone would take a bias of 0.0 for -0.0
        if bias != want or bias is True or not bias and (
                bias is False or math.copysign(1.0, bias) != math.copysign(1.0, want)):
            raise ValueError(f"unit {len(coeffs)} has hidden_bias {bias!r}, "
                             f"-w * x_k is {want!r}")
        if type(coeff) is not float:
            coeff = float(_number(unit, "output_coefficient", f"unit {len(coeffs)}"))
        coeffs.append(coeff)
    coeff0, *rest = coeffs
    return SigmoidApproximant(w=w, partition=p, coeff0=coeff0, coeffs=tuple(rest))


def _number(record: Any, key: str, where: str) -> Union[int, float]:
    """record[key] if it is a float, or an int a double can hold; a bool
    is neither.  ValueError naming `where` and the key otherwise, or
    saying that `record` is not an object."""
    if type(record) is not dict:
        raise ValueError(f"{where} is {record!r}, not an object")
    if key not in record:
        raise ValueError(f"{where} has no {key}")
    value = record[key]
    if type(value) is float:
        return value
    if type(value) is not int:
        raise ValueError(f"{where} has {key} {value!r}, which is not a number")
    if not -_MAX <= value <= _MAX:
        raise ValueError(f"{where} has {key} {value!r}, which no double can hold")
    return value


def _json_value(value: Any) -> str:
    """`value` as json.dump(..., indent=2) writes it inside a unit."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", "\n      ")


def _write_units(fh: IO[str], units: Iterable[Iterable[Any]]) -> None:
    """The units, (hidden_weight, hidden_bias, output_coefficient) triples,
    as json.dump(..., indent=2) lays them out, one write per unit.  A finite
    float is written inline, anything else through `_json_value`; the
    shared weight's text is formatted again only for another weight object."""
    write, text, finite = fh.write, float.__repr__, math.isfinite
    weight, head, sep = object(), "", ""
    for w, bias, coeff in units:
        if w is not weight:
            weight = w
            head = f'\n    {{\n      "hidden_weight": {_json_value(w)},\n      "hidden_bias": '
        bias = text(bias) if type(bias) is float and finite(bias) else _json_value(bias)
        coeff = text(coeff) if type(coeff) is float and finite(coeff) else _json_value(coeff)
        write(f'{sep}{head}{bias},\n      "output_coefficient": {coeff}\n    }}')
        sep = ","
    write("\n  ]" if sep else "]")


def _checked_units(units: Iterable[dict[str, Any]]) -> Iterator[Iterable[Any]]:
    """Each unit's values; ValueError at the first unit that is not a dict
    whose keys are UNIT_KEYS."""
    for i, unit in enumerate(units):
        if not isinstance(unit, dict):
            raise ValueError(f"unit {i} is a {type(unit).__name__}, want an object")
        if tuple(unit) != UNIT_KEYS:
            raise ValueError(f"unit {i} has keys {list(unit)}, want {list(UNIT_KEYS)}")
        yield unit.values()


def write_network_document(doc: dict[str, Any], destination: Destination) -> None:
    """Write `doc` byte for byte as json.dump(doc, fh, indent=2) and a
    newline would, streaming the units one record at a time.  Every unit
    must hold exactly UNIT_KEYS, in that order: the first unit that does
    not raises ValueError, and the output stops before it: a path keeps
    what it held, and a stream holds the units before it."""
    if "units" not in doc:
        raise ValueError("a network document needs units")
    _write_document(dict(doc, units=_checked_units(doc["units"])), destination)


def _write_document(doc: dict[str, Any], destination: Destination) -> None:
    """Both entry points' one writer: `doc`, its units given as triples."""
    with _output(destination) as fh:
        sep = "{\n"
        for key, value in doc.items():
            fh.write(sep)
            sep = ",\n"
            if key == "units":
                fh.write('  "units": [')
                _write_units(fh, value)
            else:
                # a one-member object less its braces is that member at depth 1
                fh.write(json.dumps({key: value}, indent=2)[2:-2])
        fh.write("\n}\n")


def read_network_document(source: Union[str, os.PathLike, IO[str]]) -> dict[str, Any]:
    if hasattr(source, "read"):
        return json.load(source)
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_samples(
    g: SigmoidApproximant,
    spec: FunctionSpec,
    grid_size: int,
    destination: Destination,
) -> int:
    """Emit CSV rows (x, f(x), G(x), |G - f|) on a uniform grid of [a, b]
    with both endpoints, ascending x, through `samples_file`.  Returns
    the number of data rows written."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    with samples_file(destination) as row:
        for x in uniform_grid(spec.interval.a, spec.interval.b, grid_size):
            row(x, spec(x), evaluate(g, x))
    return grid_size


@contextmanager
def _replacing(path: Union[str, os.PathLike]) -> Iterator[IO[str]]:
    """An open text file that takes the place of `path` when the block ends
    normally.  It is a temporary file beside `path`, created on entry, so
    an unwritable path fails before the block runs.  When the block raises,
    the file is removed and `path` keeps what it held: `path` never holds a
    partial output.  `path` is replaced, not written through: a symlink
    there becomes a regular file, and the file gets the permissions of a
    new file rather than those of the old one."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextmanager
def _output(destination: Destination) -> Iterator[IO[str]]:
    """The one sink of every writer here: a stream is written through and
    left open, and a path goes through `_replacing`."""
    if hasattr(destination, "write"):
        yield destination
    else:
        with _replacing(destination) as fh:
            yield fh


@contextmanager
def samples_file(destination: Destination) -> Iterator[Callable[[float, float, float], None]]:
    """The samples CSV: its header, then a row sink for
    `engine.validate(..., row=)` and `write_samples`.  row(x, f(x), G(x))
    writes x, f(x), G(x) and |G - f| at full round-trip precision."""
    with _output(destination) as fh:
        write = fh.write
        write(SAMPLES_HEADER + "\n")

        def row(x: float, fx: float, gx: float) -> None:
            write(f"{x!r},{fx!r},{gx!r},{abs(gx - fx)!r}\n")

        yield row
