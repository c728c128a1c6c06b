"""Flat binary checkpoint container.

Layout, all little-endian:

    magic   ``PMCK``
    u16     format version (currently 1)
    u32     header length in bytes
    bytes   UTF-8 JSON header with sorted keys:
            config        model configuration dict
            age_scaler    {"mean": float, "std": float} of the age Standardizer
            standardizer  {"mode":..., "degenerate_columns":[...]} or null
            tensors       [[name, [dims...]], ...] model parameters
            aux           [[name, [dims...]], ...] standardizer arrays
    bytes   float64 payload: each tensor row-major, in header order,
            ``tensors`` first then ``aux``

The config, and whether a standardizer is saved, determine both tables
(``tables``): the layer plan's parameters by sorted name, so identical
parameter sets serialize to identical bytes, and the standardizer's center
and scale, one value per input feature. A load requires exactly those
tables and a payload of their size, then copies the tensors into a
``Params`` laid out for training. A save goes to a temporary file that
replaces ``path`` only when complete.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .data import Standardizer, all_finite, atomic_open, read_header
from .errors import DataFormatError
from .model import ModelConfig, Params, param_shapes

MAGIC = b"PMCK"
VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    params: Params
    config: ModelConfig
    age_scaler: Standardizer  # one column
    standardizer: Standardizer | None


def tables(config: ModelConfig, standardized: bool) -> dict[str, list]:
    """The header's ``tensors`` and ``aux`` tables of a checkpoint of
    ``config``, with a standardizer or without one."""
    aux = ("standardizer.center", "standardizer.scale") if standardized else ()
    return {"tensors": [[name, list(shape)] for name, shape in sorted(param_shapes(config))],
            "aux": [[name, [config.input_dim]] for name in aux]}


def save_checkpoint(path, params: Params, config: ModelConfig,
                    age_scaler: Standardizer, standardizer: Standardizer | None = None) -> None:
    index = tables(config, standardizer is not None)
    std_meta = None if standardizer is None else {
        "mode": standardizer.mode,
        "degenerate_columns": list(standardizer.degenerate_columns),
    }
    header = {
        "age_scaler": {"mean": float(age_scaler.center[0]), "std": float(age_scaler.scale[0])},
        "config": asdict(config),
        "standardizer": std_meta,
        **index,
    }
    aux = () if standardizer is None else (standardizer.center, standardizer.scale)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HI", VERSION, len(blob)))
        fh.write(blob)
        for tensor in itertools.chain((params[name] for name, _ in index["tensors"]), aux):
            fh.write(np.ascontiguousarray(tensor, dtype="<f8"))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint and check it against the tables of its config.

    A file that is truncated, malformed, holds non-finite values or whose
    tables differ from those of its config raises DataFormatError.
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
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad header: {type(exc).__name__}: {exc}", path) from None


def _from_header(header: dict, payload: memoryview, path) -> Checkpoint:
    config = ModelConfig(**header["config"])
    meta = header["standardizer"]
    for key, want in tables(config, meta is not None).items():
        if header[key] != want:
            pairs = itertools.zip_longest(header[key], want, fillvalue="nothing")
            have, need = next((p for p in pairs if p[0] != p[1]), (header[key], want))
            raise DataFormatError(f"{key} holds {have}, where the config implies {need}", path)
    layout = param_shapes(config)
    n = sum(math.prod(shape) for _, shape in layout)
    d = config.input_dim if meta is not None else 0
    if len(payload) != 8 * (n + 2 * d):
        raise DataFormatError(f"payload is {len(payload)} bytes, the tables need "
                              f"{8 * (n + 2 * d)}", path)
    values = np.frombuffer(payload, dtype="<f8")
    mean, std = (float(header["age_scaler"][key]) for key in ("mean", "std"))
    if not (all_finite(values) and math.isfinite(mean) and math.isfinite(std)):
        raise DataFormatError("non-finite values", path)

    stored = Params(dict(sorted(layout)), values[:n])
    params = Params(dict(layout), np.concatenate([stored[name].reshape(-1) for name, _ in layout]))
    standardizer = None if meta is None else Standardizer(
        mode=meta["mode"],
        center=values[n:n + d].copy(),
        scale=values[n + d:].copy(),
        degenerate_columns=tuple(int(c) for c in meta["degenerate_columns"]),
    )
    return Checkpoint(params=params, config=config, standardizer=standardizer,
                      age_scaler=Standardizer("zscore", np.array([mean]), np.array([std])))
