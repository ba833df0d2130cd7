"""Versioned flat-text persistence for trained models.

A file holds the model's header fields, then its ``state()``: ints as
``scalar`` lines and ndarrays as ``array`` blocks, each group sorted by name.
Floats are rendered with ``repr`` so a save/load round trip reproduces the
exact same parameter values and therefore identical predictions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .base import AlgorithmSpec, Scaler, TrainedModel

FORMAT_MAGIC = "capsift-model"
FORMAT_VERSION = 1

_DTYPES = {"float64": np.float64, "int64": np.int64}


class ModelFormatError(ValueError):
    """Raised when a model file is malformed; the message cites the line."""


def _render(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return repr(float(value))


def parse_number(text: str) -> float | int:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _array_lines(name: str, arr: np.ndarray) -> list[str]:
    arr = np.asarray(arr)
    dtype = "int64" if np.issubdtype(arr.dtype, np.integer) else "float64"
    shape = " ".join(str(d) for d in arr.shape)
    lines = [f"array {name} {dtype} {arr.ndim} {shape}"]
    rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
    for row in rows:
        lines.append(" ".join(_render(v) for v in row))
    return lines


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Write the model to a flat text file (see module docstring)."""
    lines = [
        f"{FORMAT_MAGIC} {FORMAT_VERSION}",
        f"algorithm {model.spec.algorithm}",
        f"seed {model.spec.seed}",
        f"n_features {model.n_features}",
        "classes " + " ".join(str(int(c)) for c in model.classes),
    ]
    for key in sorted(model.spec.hyperparams):
        lines.append(f"hyperparam {key} {_render(model.spec.hyperparams[key])}")
    lines.append(f"scaler {0 if model.scaler is None else 1}")
    if model.scaler is not None:
        lines.extend(_array_lines("scaler_mean", model.scaler.mean))
        lines.extend(_array_lines("scaler_std", model.scaler.std))
    state = model.state()
    arrays = {key for key, value in state.items() if isinstance(value, np.ndarray)}
    for key in sorted(state.keys() - arrays):
        lines.append(f"scalar {key} {_render(state[key])}")
    for key in sorted(arrays):
        lines.extend(_array_lines(key, state[key]))
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class _Reader:
    def __init__(self, path: Path):
        self.path = path
        try:
            self.lines = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: not valid UTF-8 ({exc})") from None
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"{self.path}: unexpected end of file at line {self.pos + 1}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def error(self, message: str) -> ModelFormatError:
        return ModelFormatError(f"{self.path}: line {self.pos}: {message}")


def _read_array(reader: _Reader, parts: list[str]) -> tuple[str, np.ndarray]:
    if len(parts) < 5:
        raise reader.error("malformed array header")
    name, dtype_name = parts[1], parts[2]
    if dtype_name not in _DTYPES:
        raise reader.error(f"unknown array dtype {dtype_name!r}")
    try:
        ndim = int(parts[3])
        shape = tuple(int(p) for p in parts[4:])
    except ValueError as exc:
        raise reader.error(f"bad array shape: {exc}") from None
    if ndim not in (1, 2) or len(shape) != ndim or any(d < 0 for d in shape):
        raise reader.error(f"unsupported array shape {shape}")
    n_rows = 1 if ndim == 1 else shape[0]
    n_cols = shape[0] if ndim == 1 else shape[1]
    rows = []
    for _ in range(n_rows):
        values = reader.next().split()
        if len(values) != n_cols:
            raise reader.error(f"array {name!r}: expected {n_cols} values, got {len(values)}")
        try:
            rows.append([float(v) for v in values])
        except ValueError as exc:
            raise reader.error(f"array {name!r}: {exc}") from None
    arr = np.array(rows, dtype=np.float64).reshape(shape)
    return name, arr.astype(_DTYPES[dtype_name])


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file back into a ready-to-predict model."""
    from . import MODELS

    reader = _Reader(Path(path))
    header = reader.next().split()
    if len(header) != 2 or header[0] != FORMAT_MAGIC:
        raise reader.error(f"not a {FORMAT_MAGIC} file")
    if header[1] != str(FORMAT_VERSION):
        raise reader.error(f"unsupported format version {header[1]!r}")

    algorithm = None
    seed = 0
    n_features = None
    classes = None
    hyperparams: dict[str, float | int] = {}
    has_scaler = False
    state: dict[str, np.ndarray | int] = {}

    while True:
        parts = reader.next().split()
        if not parts:
            raise reader.error("blank line inside model file")
        keyword = parts[0]
        if keyword == "end":
            break
        try:
            if keyword == "algorithm":
                algorithm = parts[1]
            elif keyword == "seed":
                seed = int(parts[1])
            elif keyword == "n_features":
                n_features = int(parts[1])
            elif keyword == "classes":
                classes = np.array([int(p) for p in parts[1:]], dtype=np.int64)
            elif keyword == "hyperparam":
                hyperparams[parts[1]] = parse_number(parts[2])
            elif keyword == "scaler":
                has_scaler = bool(int(parts[1]))
            elif keyword == "scalar":
                state[parts[1]] = int(parts[2])
            elif keyword == "array":
                name, arr = _read_array(reader, parts)
                state[name] = arr
            else:
                raise reader.error(f"unknown keyword {keyword!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ModelFormatError):
                raise
            raise reader.error(f"malformed {keyword!r} line: {exc}") from None

    if algorithm is None or n_features is None or classes is None:
        raise reader.error("missing algorithm, n_features, or classes")
    scaler = None
    if has_scaler:
        if "scaler_mean" not in state or "scaler_std" not in state:
            raise ModelFormatError(f"{reader.path}: scaler flagged but arrays missing")
        scaler = Scaler(mean=state.pop("scaler_mean"), std=state.pop("scaler_std"))
    try:
        spec = AlgorithmSpec(algorithm=algorithm, hyperparams=hyperparams, seed=seed)
        return MODELS[algorithm][1].from_state(spec, classes, scaler, n_features, state)
    except ValueError as exc:
        raise ModelFormatError(f"{reader.path}: {exc}") from None
