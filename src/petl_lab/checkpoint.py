"""Bit-exact weight checkpoints.

Single-file layout:

* line 1: a JSON manifest terminated by ``\\n`` --
  ``{"format": "petl-lab-checkpoint", "version": 1, "entries": [...]}``
  where each entry is ``{"path", "shape", "offset", "frozen"}`` and
  ``offset`` is the byte position of the entry's data inside the payload;
* remainder: the concatenated parameter buffers as little-endian 64-bit
  floats in C (row-major) order, in manifest order.

Loading restores the exact bytes, so a reloaded model reproduces forward
passes bit for bit, and restores each weight's freeze state.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError

_FORMAT = "petl-lab-checkpoint"
_VERSION = 1
_DTYPE = np.dtype("<f8")


def save_checkpoint(model, path: str) -> None:
    """Write every registered parameter of ``model`` to ``path``."""
    entries = []
    offset = 0
    blobs = []
    for p in model.registry:
        raw = np.ascontiguousarray(p.tensor.data, dtype=_DTYPE).tobytes()
        entries.append({
            "path": p.path,
            "shape": list(p.shape),
            "offset": offset,
            "frozen": bool(p.frozen),
        })
        blobs.append(raw)
        offset += len(raw)
    manifest = {"format": _FORMAT, "version": _VERSION, "entries": entries}
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for raw in blobs:
            fh.write(raw)


def _read_entries(path: str) -> list[tuple[dict, np.ndarray]]:
    """Each manifest entry with its float64 array, in manifest order."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unreadable checkpoint manifest in {path}: {exc}") from exc
    if manifest.get("format") != _FORMAT:
        raise ConfigError(f"{path} is not a {_FORMAT} file")
    if manifest.get("version") != _VERSION:
        raise ConfigError(f"unsupported checkpoint version {manifest.get('version')}")
    out = []
    for entry in manifest["entries"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        stop = start + n * _DTYPE.itemsize
        if stop > len(payload):
            raise ConfigError(f"checkpoint {path} truncated at '{entry['path']}'")
        out.append((entry, np.frombuffer(
            payload[start:stop], dtype=_DTYPE).reshape(shape).astype(np.float64)))
    return out


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint into a path -> float64 array mapping."""
    return {entry["path"]: data for entry, data in _read_entries(path)}


def load_checkpoint(model, path: str) -> None:
    """Restore ``model``'s weights and freeze state in place; paths and shapes must match."""
    entries = {entry["path"]: (entry, data) for entry, data in _read_entries(path)}
    params = {p.path for p in model.registry}
    missing = sorted(params - set(entries))
    extra = sorted(set(entries) - params)
    if missing or extra:
        raise ConfigError(
            f"checkpoint/model parameter mismatch: missing={missing[:5]} extra={extra[:5]}")
    for p in model.registry:
        entry, data = entries[p.path]
        if data.shape != p.shape:
            raise ConfigError(
                f"shape mismatch for '{p.path}': checkpoint {data.shape} vs model {p.shape}")
        p.tensor.data[...] = data
        p.tensor.requires_grad = not entry.get("frozen", p.frozen)
