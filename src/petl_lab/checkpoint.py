"""Bit-exact weight checkpoints.

Single-file layout:

* line 1: a JSON manifest terminated by ``\\n`` --
  ``{"format": "petl-lab-checkpoint", "version": 1, "entries": [...]}``
  where each entry is ``{"path", "shape", "offset", "frozen"}`` and
  ``offset`` is the byte position of the entry's data inside the payload;
* remainder: the concatenated parameter buffers as little-endian 64-bit
  floats in C (row-major) order, in manifest order. The entries tile the
  payload exactly: the first starts at 0, each next one where the previous
  one ends, and the last one ends at the end of the file.

Loading restores the exact bytes, so a reloaded model reproduces forward
passes bit for bit, and restores each weight's freeze state.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ConfigError

_FORMAT = "petl-lab-checkpoint"
_VERSION = 1
_DTYPE = np.dtype("<f8")


def save_checkpoint(model, path: str) -> None:
    """Write every registered parameter of ``model`` to ``path``, atomically.

    The file is written to a sibling ``.tmp`` file and then renamed onto
    ``path``, so a failed write leaves any earlier checkpoint intact.
    """
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
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            for raw in blobs:
                fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_entries(path: str) -> list[tuple[dict, np.ndarray]]:
    """Each manifest entry with its float64 array, in manifest order."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unreadable checkpoint manifest in {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise ConfigError(f"{path} is not a {_FORMAT} file")
    if manifest.get("version") != _VERSION:
        raise ConfigError(f"unsupported checkpoint version {manifest.get('version')}")
    if not isinstance(manifest.get("entries"), list):
        raise ConfigError(f"checkpoint {path} has no entry list")
    out = []
    end = 0
    seen: set[str] = set()
    for entry in manifest["entries"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                and isinstance(entry.get("shape"), list)
                and all(isinstance(x, int) and x >= 0 for x in entry["shape"])
                and isinstance(entry.get("offset"), int)
                and isinstance(entry.get("frozen", False), bool)):
            raise ConfigError(f"malformed checkpoint entry in {path}: {entry!r}")
        if entry["path"] in seen:
            raise ConfigError(f"checkpoint {path} lists '{entry['path']}' twice")
        seen.add(entry["path"])
        if entry["offset"] != end:
            raise ConfigError(f"checkpoint {path}: '{entry['path']}' starts at byte "
                              f"{entry['offset']}, expected {end}")
        shape = tuple(entry["shape"])
        start, end = end, end + math.prod(shape) * _DTYPE.itemsize
        if end > len(payload):
            raise ConfigError(f"checkpoint {path} truncated at '{entry['path']}'")
        out.append((entry, np.frombuffer(
            payload[start:end], dtype=_DTYPE).reshape(shape).astype(np.float64)))
    if end != len(payload):
        raise ConfigError(
            f"checkpoint {path} has {len(payload) - end} bytes after its last entry")
    return out


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint into a path -> float64 array mapping."""
    return {entry["path"]: data for entry, data in _read_entries(path)}


def load_checkpoint(model, path: str) -> None:
    """Restore ``model``'s weights and freeze state in place; paths and shapes must match.

    Nothing is written unless every path and shape matches.
    """
    entries = {entry["path"]: (entry, data) for entry, data in _read_entries(path)}
    params = {p.path for p in model.registry}
    missing = sorted(params - set(entries))
    extra = sorted(set(entries) - params)
    if missing or extra:
        raise ConfigError(
            f"checkpoint/model parameter mismatch: missing={missing[:5]} extra={extra[:5]}")
    for p in model.registry:  # check every shape before writing any weight
        shape = entries[p.path][1].shape
        if shape != p.shape:
            raise ConfigError(
                f"shape mismatch for '{p.path}': checkpoint {shape} vs model {p.shape}")
    for p in model.registry:
        entry, data = entries[p.path]
        p.tensor.data[...] = data
        p.tensor.requires_grad = not entry.get("frozen", p.frozen)
