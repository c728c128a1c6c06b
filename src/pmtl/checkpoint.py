"""Flat binary checkpoint container.

Layout, all little-endian:

    magic   ``PMCK``
    u16     format version (currently 1)
    u32     header length in bytes
    bytes   UTF-8 JSON header with sorted keys:
            config        model configuration dict
            age_scaler    {"mean": float, "std": float}
            standardizer  {"mode":..., "degenerate_columns":[...]} or null
            tensors       [[name, [dims...]], ...] model parameters
            aux           [[name, [dims...]], ...] standardizer arrays
    bytes   float64 payload: each tensor row-major, in header order,
            ``tensors`` first then ``aux``

Tensor names are sorted lexicographically, so identical parameter sets
serialize to identical bytes and a save/load cycle is bit-exact. A load
copies the model tensors into a ``Params`` laid out for training. A save
goes to a temporary file that replaces ``path`` only when complete.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .data import AgeScaler, Standardizer, all_finite, atomic_open, read_header
from .errors import DataFormatError, ShapeError
from .model import ModelConfig, Params, check_params, param_shapes

MAGIC = b"PMCK"
VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    params: Params
    config: ModelConfig
    age_scaler: AgeScaler
    standardizer: Standardizer | None


def _tensor_index(tensors: dict[str, np.ndarray]) -> list[list]:
    return [[name, list(tensors[name].shape)] for name in sorted(tensors)]


def save_checkpoint(path, params: Params, config: ModelConfig,
                    age_scaler: AgeScaler, standardizer: Standardizer | None = None) -> None:
    aux: dict[str, np.ndarray] = {}
    std_meta = None
    if standardizer is not None:
        aux["standardizer.center"] = np.asarray(standardizer.center, dtype=np.float64)
        aux["standardizer.scale"] = np.asarray(standardizer.scale, dtype=np.float64)
        std_meta = {
            "mode": standardizer.mode,
            "degenerate_columns": list(standardizer.degenerate_columns),
        }
    header = {
        "age_scaler": {"mean": age_scaler.mean, "std": age_scaler.std},
        "aux": _tensor_index(aux),
        "config": asdict(config),
        "standardizer": std_meta,
        "tensors": _tensor_index(params),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HI", VERSION, len(blob)))
        fh.write(blob)
        for table in (params, aux):
            for name in sorted(table):
                fh.write(np.ascontiguousarray(table[name], dtype="<f8"))


def _read_table(index, payload: memoryview, offset: int, path) -> tuple[Params, int]:
    """The tensors of one header table as one read-only Params over their
    bytes, which start at ``offset`` in ``payload``; also the offset after
    them. Names must be unique and sorted, the order of the payload."""
    shapes = {entry[0]: tuple(int(v) for v in entry[1]) for entry in index}
    if [entry[0] for entry in index] != sorted(shapes):
        raise DataFormatError("tensor names are not unique and sorted", path)
    if any(d < 0 for shape in shapes.values() for d in shape):
        raise DataFormatError("negative tensor dimension", path)
    end = offset + 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(payload) < end:
        raise DataFormatError("truncated payload", path)
    return Params(shapes, np.frombuffer(payload[offset:end], dtype="<f8")), end


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint and check it against the layer plan of its config.

    A file that is truncated, malformed, holds non-finite values or whose
    tensors differ from the plan raises DataFormatError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header_len, = read_header(blob, MAGIC, "<HI", VERSION, path)
    header_raw = blob[10:10 + header_len]
    if len(header_raw) != header_len:
        raise DataFormatError("truncated header", path)
    try:
        payload = memoryview(blob)[10 + header_len:]  # no copy: the tables are views of it
        return _from_header(json.loads(header_raw.decode("utf-8")), payload, path)
    except ShapeError as exc:
        raise DataFormatError(f"tensors do not match the model config: {exc}", path) from None
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad header: {type(exc).__name__}: {exc}", path) from None


def _from_header(header: dict, payload: memoryview, path) -> Checkpoint:
    table, offset = _read_table(header["tensors"], payload, 0, path)
    aux, offset = _read_table(header["aux"], payload, offset, path)
    if offset != len(payload):
        raise DataFormatError(f"{len(payload) - offset} trailing payload bytes", path)
    scaler = AgeScaler(mean=float(header["age_scaler"]["mean"]),
                       std=float(header["age_scaler"]["std"]))
    if not (all_finite(table.flat) and all_finite(aux.flat)
            and math.isfinite(scaler.mean) and math.isfinite(scaler.std)):
        raise DataFormatError("non-finite values", path)

    config = ModelConfig(**header["config"])
    check_params(table, config)
    layout = param_shapes(config)
    params = Params(dict(layout), np.concatenate([table[name].reshape(-1) for name, _ in layout]))
    standardizer = None
    if header.get("standardizer") is not None:
        meta = header["standardizer"]
        standardizer = Standardizer(
            mode=meta["mode"],
            center=aux["standardizer.center"].copy(),
            scale=aux["standardizer.scale"].copy(),
            degenerate_columns=tuple(int(c) for c in meta["degenerate_columns"]),
        )
        if {standardizer.center.shape, standardizer.scale.shape} != {(config.input_dim,)}:
            raise DataFormatError("standardizer width differs from the model input", path)
    return Checkpoint(params=params, config=config, age_scaler=scaler,
                      standardizer=standardizer)
