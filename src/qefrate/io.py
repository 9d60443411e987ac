"""Model file loading and deterministic CSV/JSON artifact writers.

Model files are JSON with either physical parameters,

    {"theta": [[...]], "R": [[...]], "M": [[...]], "Pi": [[...]]}

or a direct realization,

    {"A": [[...]], "B": [[...]], "Pi": [[...]], "theta": [[...]] optional}

as row-major arrays of finite doubles.  CSV cells use the shortest
round-trip decimal representation so artifacts are reproducible across
platforms.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .model import OqhoParams, StateSpace, from_state_space, realize

__all__ = ["load_model", "write_csv", "write_summary", "validate_summary"]


def _matrix(obj, key: str) -> np.ndarray:
    try:
        arr = np.array(obj[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"field {key!r} is not a numeric matrix") from exc
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise ParameterError(f"field {key!r} must be a finite 2-d array")
    return arr


def load_model(path: str | Path) -> StateSpace:
    """Load and validate a model file, in either supported schema."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError("model file must contain a JSON object")
    if "A" in data:
        theta = _matrix(data, "theta") if "theta" in data else None
        return from_state_space(_matrix(data, "A"), _matrix(data, "B"),
                                _matrix(data, "Pi"), theta_ccr=theta)
    required = {"theta", "R", "M", "Pi"}
    if not required.issubset(data):
        missing = sorted(required - set(data))
        raise ParameterError(f"model file missing fields: {missing}")
    params = OqhoParams(theta_ccr=_matrix(data, "theta"),
                        energy=_matrix(data, "R"),
                        coupling=_matrix(data, "M"),
                        weight=_matrix(data, "Pi"))
    return realize(params)


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write rows with a header, shortest round-trip float formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _summary_schema() -> dict:
    text = resources.files("qefrate").joinpath(
        "schema/summary.schema.json").read_text()
    return json.loads(text)


def validate_summary(summary: dict) -> None:
    """Validate a summary dict against the shipped schema."""
    # imported here: jsonschema costs every import of the package
    import jsonschema
    jsonschema.validate(summary, _summary_schema())


def write_summary(path: str | Path, summary: dict) -> None:
    """Validate and write a summary JSON artifact."""
    validate_summary(summary)
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
