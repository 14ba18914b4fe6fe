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
from typing import IO, Any, Union

from .engine import Recipe, SigmoidApproximant, evaluate
from .expressions import FunctionSpec, format_ast
from .partition import unif_part, uniform_grid

__all__ = [
    "FORMAT_VERSION",
    "to_network_document",
    "approximant_from_document",
    "write_network_document",
    "read_network_document",
    "write_samples",
    "SAMPLES_HEADER",
]

FORMAT_VERSION = "1"
SAMPLES_HEADER = "x,f,g,abs_err"

Destination = Union[str, os.PathLike, IO[str]]


def to_network_document(
    g: SigmoidApproximant, recipe: Recipe, spec: FunctionSpec
) -> dict[str, Any]:
    """Flat JSON-able description of the network: the x_0 unit first, then
    k = 2..N+1 ascending.  hidden_bias is stored as -w * x_k exactly as
    computed here; readers must not re-derive it."""
    w = g.w
    pts = g.partition.points
    units = [
        {
            "hidden_weight": w,
            "hidden_bias": -w * pts[0],
            "output_coefficient": g.coeff0,
        }
    ]
    for k in range(2, g.partition.n_intervals + 2):
        units.append(
            {
                "hidden_weight": w,
                "hidden_bias": -w * pts[k],
                "output_coefficient": g.coeff(k),
            }
        )
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
    bit-identically to the original.  Unit count and shared weight are
    checked against the document."""
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
    if any(float(u["hidden_weight"]) != w for u in units):
        raise ValueError("units do not share a single hidden weight")
    p = unif_part(float(meta["a"]), float(meta["b"]), n)
    coeff0 = float(units[0]["output_coefficient"])
    coeffs = tuple(float(u["output_coefficient"]) for u in units[1:])
    return SigmoidApproximant(w=w, partition=p, coeff0=coeff0, coeffs=coeffs)


def _open_destination(destination: Destination):
    if hasattr(destination, "write"):
        return destination, False
    return open(destination, "w", encoding="utf-8"), True


def write_network_document(doc: dict[str, Any], destination: Destination) -> None:
    fh, owned = _open_destination(destination)
    try:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    finally:
        if owned:
            fh.close()


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
    with both endpoints, ascending x, full round-trip precision.  Returns
    the number of data rows written."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    a, b = spec.interval.a, spec.interval.b
    fh, owned = _open_destination(destination)
    try:
        fh.write(SAMPLES_HEADER + "\n")
        for x in uniform_grid(a, b, grid_size):
            fx = spec(x)
            if not math.isfinite(fx):
                raise ValueError(f"f is non-finite at x={x!r}")
            gx = evaluate(g, x)
            fh.write(f"{x!r},{fx!r},{gx!r},{abs(gx - fx)!r}\n")
    finally:
        if owned:
            fh.close()
    return grid_size
