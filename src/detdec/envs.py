"""Benchmark instance facade: generation, descriptors, sizing reports."""
from __future__ import annotations

import json
from pathlib import Path

from .collecting import CollectingModel, CollectingSpec, collecting_generate
from .descriptor import require_object
from .errors import InstanceFormatError
from .mactp import MactpModel, MactpSpec, mactp_generate
from .model import DetDecModel

__all__ = [
    "MactpSpec",
    "CollectingSpec",
    "mactp_generate",
    "collecting_generate",
    "describe",
    "model_from_descriptor",
    "load_model",
    "save_descriptor",
]

_FAMILIES = {
    "mactp": MactpModel.from_descriptor,
    "collecting": CollectingModel.from_descriptor,
}


def describe(model: DetDecModel) -> dict:
    """Sizing report: exact counts where enumerable, formula bounds otherwise.

    The states actually reachable from the initial support are counted by
    ``len(value_iteration(model, state_cap=...))``.
    """
    return model.sizing_report()


def model_from_descriptor(doc: dict) -> DetDecModel:
    """Rebuild an instance; ``InstanceFormatError`` names the first bad field."""
    family = require_object(doc).get("family")
    builder = _FAMILIES.get(family) if isinstance(family, str) else None
    if builder is None:
        raise InstanceFormatError(
            f"instance descriptor: unknown family {family!r} (expected one of {sorted(_FAMILIES)})"
        )
    return builder(doc)


def load_model(path: str | Path) -> DetDecModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"instance descriptor {path}: invalid JSON ({exc})") from None
    return model_from_descriptor(doc)


def descriptor_text(model: DetDecModel) -> str:
    return json.dumps(model.descriptor(), sort_keys=True, indent=1) + "\n"


def save_descriptor(model: DetDecModel, path: str | Path) -> None:
    Path(path).write_text(descriptor_text(model), encoding="utf-8")
