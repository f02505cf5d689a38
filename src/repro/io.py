"""Persistence: save and load computed mappings and fault specs.

Computing a coloring for a large tree costs real time (and for COLOR, the
chase tables too); a deployment computes them once and ships the tables.
:func:`save_mapping` writes a self-describing ``.npz`` with the color array
plus enough metadata to validate on load; :func:`load_mapping` returns a
:class:`FrozenMapping` that behaves like the original mapping object.

Fault specs — both static :class:`~repro.memory.faults.FaultModel`
snapshots and timed :class:`~repro.memory.faults.FaultSchedule` scripts —
round-trip through JSON via :func:`save_faults` / :func:`load_faults`, so a
chaos scenario exercised locally can be replayed byte-identically in CI or
on another machine.  A live schedule's advancement state (cursor + drop
lottery) rides along, so a spec saved mid-run resumes mid-window.

Serving-state snapshots (:mod:`repro.serve.durability`) persist through
:func:`save_snapshot` / :func:`load_snapshot`: one JSON document carrying
the payload in its canonical encoding plus a CRC-32 over it, written atomically
(temp-file + rename) so a crash mid-write never leaves a file that loads as
valid but truncated state.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from repro.core.mapping import TreeMapping
from repro.memory.faults import FaultModel, FaultSchedule
from repro.trees import CompleteBinaryTree

__all__ = [
    "FrozenMapping",
    "checksummed_json",
    "load_faults",
    "load_mapping",
    "load_snapshot",
    "save_faults",
    "save_mapping",
    "save_snapshot",
    "snapshot_document",
]

_FORMAT_VERSION = 1


class FrozenMapping(TreeMapping):
    """A mapping restored from disk: the color array plus metadata."""

    def __init__(
        self,
        tree: CompleteBinaryTree,
        num_modules: int,
        colors: np.ndarray,
        source: str = "",
        params: dict | None = None,
    ):
        super().__init__(tree, num_modules)
        colors = np.ascontiguousarray(colors, dtype=np.int64)
        if colors.shape != (tree.num_nodes,):
            raise ValueError(
                f"color array shape {colors.shape} does not match "
                f"{tree.num_nodes}-node tree"
            )
        if colors.size and (colors.min() < 0 or colors.max() >= num_modules):
            raise ValueError("colors outside 0..M-1")
        colors.setflags(write=False)
        self._colors = colors
        self.source = source
        self.params = params or {}

    def module_of(self, node: int) -> int:
        self._tree.check_node(node)
        return int(self._colors[node])

    def _compute_color_array(self) -> np.ndarray:
        return self._colors

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrozenMapping(source={self.source!r}, M={self._num_modules}, "
            f"num_levels={self._tree.num_levels})"
        )


def save_mapping(mapping: TreeMapping, path: str | Path, params: dict | None = None) -> Path:
    """Persist a mapping's coloring and metadata to ``path`` (``.npz``)."""
    path = Path(path)
    meta = {
        "format_version": _FORMAT_VERSION,
        "source": type(mapping).__name__,
        "num_levels": mapping.tree.num_levels,
        "num_modules": mapping.num_modules,
        "params": params or {},
    }
    np.savez_compressed(
        path,
        colors=mapping.color_array(),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )
    # np.savez appends .npz if missing
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_mapping(path: str | Path) -> FrozenMapping:
    """Restore a mapping saved by :func:`save_mapping`, with validation."""
    with np.load(Path(path)) as payload:
        try:
            meta = json.loads(bytes(payload["meta"]).decode())
            colors = payload["colors"]
        except KeyError as exc:
            raise ValueError(f"{path} is not a saved mapping: missing {exc}") from exc
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported mapping format {meta.get('format_version')!r} in {path}"
        )
    tree = CompleteBinaryTree(meta["num_levels"])
    return FrozenMapping(
        tree,
        meta["num_modules"],
        colors,
        source=meta.get("source", ""),
        params=meta.get("params", {}),
    )


def save_faults(faults: FaultModel | FaultSchedule, path: str | Path) -> Path:
    """Write a fault spec to ``path`` as self-describing JSON."""
    path = Path(path)
    payload = faults.to_json()
    payload["format_version"] = _FORMAT_VERSION
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_faults(path: str | Path) -> FaultModel | FaultSchedule:
    """Restore a fault spec saved by :func:`save_faults`.

    Dispatches on the payload's ``type`` field: ``"fault_model"`` restores a
    static :class:`FaultModel`, ``"fault_schedule"`` a timed
    :class:`FaultSchedule` (including its drop-lottery seed).
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not a saved fault spec: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a saved fault spec: not an object")
    kind = payload.get("type")
    if kind == "fault_model":
        return FaultModel.from_json(payload)
    if kind == "fault_schedule":
        return FaultSchedule.from_json(payload)
    raise ValueError(f"{path} is not a saved fault spec: type={kind!r}")


def checksummed_json(payload) -> tuple[str, int]:
    """Canonical JSON text of ``payload`` (sorted keys, no whitespace) and
    the CRC-32 of that text.

    The one encoder behind every checksum on disk: snapshot and journal
    writers store the text itself, so each payload is encoded once, and
    readers re-canonicalise what they parse, so a document written in any
    key order or spacing checks against the same CRC.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return text, zlib.crc32(text.encode())


def snapshot_document(payload: dict) -> str:
    """The full text :func:`save_snapshot` writes for ``payload``.

    The payload is stored in its canonical encoding, the same bytes its
    CRC covers.
    """
    text, crc = checksummed_json(payload)
    return (
        f'{{"format_version": {_FORMAT_VERSION}, "type": "engine_snapshot", '
        f'"crc": {crc}, "payload": {text}}}\n'
    )


def save_snapshot(payload: dict, path: str | Path) -> Path:
    """Write ``payload`` as a checksummed snapshot document, atomically.

    The document wraps the payload with a format version and a CRC-32 over
    its canonical encoding (see :func:`snapshot_document`);
    :func:`load_snapshot` refuses anything torn or bit-flipped.  The write
    goes to a temp file in the same directory and is renamed into place,
    so a crash mid-write leaves either the old snapshot or none — never a
    half-written one at the final path.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(snapshot_document(payload))
    os.replace(tmp, path)
    return path


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot written by :func:`save_snapshot`, verifying its CRC.

    Raises :class:`ValueError` for anything that is not a complete, intact
    snapshot document — torn JSON, wrong type/version, checksum mismatch —
    so recovery can skip a corrupt snapshot and fall back to an older one.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not a complete snapshot: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "engine_snapshot":
        raise ValueError(f"{path} is not a snapshot document")
    if doc.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot format {doc.get('format_version')!r} in {path}"
        )
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ValueError(f"{path} carries no snapshot payload")
    if checksummed_json(payload)[1] != doc.get("crc"):
        raise ValueError(f"{path} failed its checksum (torn or corrupted write)")
    return payload
