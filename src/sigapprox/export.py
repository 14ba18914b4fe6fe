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
from contextlib import contextmanager, suppress
from typing import IO, Any, Callable, Iterator, Union

from .engine import Recipe, SigmoidApproximant, evaluate, unit_centers
from .expressions import FunctionSpec, format_ast
from .partition import unif_part, uniform_grid

__all__ = [
    "FORMAT_VERSION",
    "to_network_document",
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

Destination = Union[str, os.PathLike, IO[str]]


def to_network_document(
    g: SigmoidApproximant, recipe: Recipe, spec: FunctionSpec
) -> dict[str, Any]:
    """Flat JSON-able description of the network: the x_0 unit first, then
    k = 2..N+1 ascending.  hidden_bias is stored as -w * x_k exactly as
    computed here; readers must not re-derive it."""
    w = g.w
    units = [
        {"hidden_weight": w, "hidden_bias": -w * center, "output_coefficient": coeff}
        for center, coeff in zip(g.centers, g.unit_coeffs)
    ]
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


def approximant_from_document(doc: dict[str, Any]) -> SigmoidApproximant:
    """Rebuild the approximant from a network document.

    The partition is reconstructed from (a, b, N) via the same closed
    formula used at build time, so the rebuilt network evaluates
    bit-identically to the original.  The unit count is checked, and every
    unit must hold unit 0's hidden weight w and the bias -w * x_k that
    `to_network_document` wrote, bit for bit; a unit that fails a check
    raises ValueError naming it."""
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {doc.get('format_version')!r}")
    if doc.get("activation") != "sigmoid":
        raise ValueError(f"unsupported activation {doc.get('activation')!r}")
    meta = doc["metadata"]
    units = doc["units"]
    n = int(meta["N"])
    if len(units) != n + 1:
        raise ValueError(f"expected {n + 1} units, document has {len(units)}")
    w = float(units[0]["hidden_weight"])
    p = unif_part(float(meta["a"]), float(meta["b"]), n)
    # bound to a name so the tuple lives until return: freeing it when the
    # loop ends raised peak RSS by 0.7 MB on the large-n workload (N ~ 1e5)
    centers = unit_centers(p)
    neg_w = -w
    coeffs = []
    for unit, center in zip(units, centers):
        bias, want = unit["hidden_bias"], neg_w * center
        if unit["hidden_weight"] != w:
            raise ValueError(f"unit {len(coeffs)} has hidden_weight "
                             f"{unit['hidden_weight']!r}, unit 0 has {w!r}")
        # == alone would take a bias of 0.0 for -0.0
        if bias != want or (not bias and math.copysign(1.0, bias) != math.copysign(1.0, want)):
            raise ValueError(f"unit {len(coeffs)} has hidden_bias {bias!r}, "
                             f"-w * x_k is {want!r}")
        coeffs.append(unit["output_coefficient"])
    coeff0, *rest = map(float, coeffs)
    return SigmoidApproximant(w=w, partition=p, coeff0=coeff0, coeffs=tuple(rest))


def _open_destination(destination: Destination):
    if hasattr(destination, "write"):
        return destination, False
    return open(destination, "w", encoding="utf-8"), True


def _json_value(value: Any) -> str:
    """`value` as json.dump(..., indent=2) writes it inside a unit."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", "\n      ")


def _write_units(fh: IO[str], units: list[dict[str, Any]]) -> None:
    """The units as json.dump(..., indent=2) lays them out, one write per
    unit.  The shared weight's text is formatted again only when a unit
    holds a different weight object."""
    write = fh.write
    weight, head, sep = object(), "", ""
    for i, unit in enumerate(units):
        if tuple(unit) != UNIT_KEYS:
            raise ValueError(f"unit {i} has keys {list(unit)}, want {list(UNIT_KEYS)}")
        w, bias, coeff = unit.values()
        if w is not weight:
            weight = w
            head = f'\n    {{\n      "hidden_weight": {_json_value(w)},\n      "hidden_bias": '
        write(f'{sep}{head}{_json_value(bias)},\n      "output_coefficient": '
              f'{_json_value(coeff)}\n    }}')
        sep = ","
    write("\n  ]" if units else "]")


def write_network_document(doc: dict[str, Any], destination: Destination) -> None:
    """Write `doc` byte for byte as json.dump(doc, fh, indent=2) and a
    newline would, streaming the units one record at a time.  Every unit
    must hold exactly UNIT_KEYS, in that order: the first unit that does
    not raises ValueError, and the output stops before it."""
    if "units" not in doc:
        raise ValueError("a network document needs units")
    fh, owned = _open_destination(destination)
    try:
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
    finally:
        if owned:
            fh.close()


def read_network_document(source: Union[str, os.PathLike, IO[str]]) -> dict[str, Any]:
    if hasattr(source, "read"):
        return json.load(source)
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _row_writer(fh: IO[str]) -> Callable[[float, float, float], None]:
    """The samples CSV's one row format: row(x, f(x), G(x)) writes
    x, f(x), G(x) and |G - f| at full round-trip precision."""
    write = fh.write

    def row(x: float, fx: float, gx: float) -> None:
        write(f"{x!r},{fx!r},{gx!r},{abs(gx - fx)!r}\n")

    return row


def write_samples(
    g: SigmoidApproximant,
    spec: FunctionSpec,
    grid_size: int,
    destination: Destination,
) -> int:
    """Emit CSV rows (x, f(x), G(x), |G - f|) on a uniform grid of [a, b]
    with both endpoints, ascending x, full round-trip precision.  Returns
    the number of data rows written."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    a, b = spec.interval.a, spec.interval.b
    fh, owned = _open_destination(destination)
    try:
        fh.write(SAMPLES_HEADER + "\n")
        row = _row_writer(fh)
        for x in uniform_grid(a, b, grid_size):
            fx = spec(x)
            if not math.isfinite(fx):
                raise ValueError(f"f is non-finite at x={x!r}")
            row(x, fx, evaluate(g, x))
    finally:
        if owned:
            fh.close()
    return grid_size


@contextmanager
def samples_file(path: Union[str, os.PathLike]) -> Iterator[Callable[[float, float, float], None]]:
    """A row sink for `engine.validate(..., row=)` that writes the samples
    CSV of `write_samples`.  The rows go to a temporary file beside `path`,
    created on entry, so an unwritable path fails before any row is
    computed.  The file replaces `path` when the block ends normally and is
    removed when it raises, so `path` never holds a partial CSV."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(SAMPLES_HEADER + "\n")
            yield _row_writer(fh)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
