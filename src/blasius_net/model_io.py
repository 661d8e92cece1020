"""Plain-text model files with exact (bit-level) round-tripping.

Format, one item per line:

    blasius-net-model v1
    mode=<paper|penalty>
    domain_end=<decimal>
    hidden=<H>
    v=<c1>,...,<cH>
    u=<c1>,...,<cH>
    w=<c1>,...,<cH>

All decimals carry 17 significant digits, so load(save(m)) == m exactly.
Writes go to a temp file in the target directory and are renamed into place.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .network import NetworkParams
from .profiles import atomic_write_text, format_float
from .trial import TrialMode, TrialSpec

__all__ = ["MODEL_HEADER", "ModelFormatError", "ModelVersionError", "save_model", "load_model"]

MODEL_HEADER = "blasius-net-model v1"
_HEADER_PREFIX = "blasius-net-model "


class ModelFormatError(ValueError):
    """Malformed model file; carries the offending line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ModelVersionError(ModelFormatError):
    """Recognized model file of an unsupported version."""


def save_model(params: NetworkParams, spec: TrialSpec, path) -> None:
    """Write params and spec to path (atomic: temp file then rename)."""
    lines = [
        MODEL_HEADER,
        f"mode={spec.mode.value}",
        f"domain_end={format_float(spec.domain_end)}",
        f"hidden={params.hidden_count}",
    ]
    lines += [key + "=" + ",".join(format_float(x) for x in row)
              for key, row in zip("vuw", params.weights)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _expect_field(line: str, line_number: int, key: str) -> str:
    prefix = key + "="
    if not line.startswith(prefix):
        raise ModelFormatError(line_number, f"expected '{prefix}...', got '{line}'")
    return line[len(prefix):]


def _parse_weights(text: str, line_number: int, key: str, hidden: int) -> np.ndarray:
    parts = text.split(",") if text else []
    if len(parts) != hidden:
        raise ModelFormatError(
            line_number, f"{key} has {len(parts)} entries, header says hidden={hidden}")
    try:
        values = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise ModelFormatError(line_number, f"bad {key} entry: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ModelFormatError(line_number, f"{key} contains non-finite entries")
    return values


def load_model(path) -> tuple[NetworkParams, TrialSpec]:
    """Parse a model file back into (params, spec); exact inverse of save_model."""
    data = Path(path).read_bytes()
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ModelFormatError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    if len(raw) < 7:
        raise ModelFormatError(len(raw) + 1, "model file truncated (expected 7 lines)")
    if raw[0] != MODEL_HEADER:
        if raw[0].startswith(_HEADER_PREFIX):
            raise ModelVersionError(1, f"unsupported version '{raw[0]}' (expected '{MODEL_HEADER}')")
        raise ModelFormatError(1, f"not a model file (header '{raw[0]}')")

    mode_text = _expect_field(raw[1], 2, "mode")
    try:
        mode = TrialMode(mode_text)
    except ValueError:
        raise ModelFormatError(2, f"unknown mode '{mode_text}'") from None

    end_text = _expect_field(raw[2], 3, "domain_end")
    try:
        spec = TrialSpec(mode, float(end_text))
    except ValueError as exc:
        raise ModelFormatError(3, f"bad domain_end '{end_text}': {exc}") from None

    hidden_text = _expect_field(raw[3], 4, "hidden")
    try:
        hidden = int(hidden_text)
    except ValueError:
        raise ModelFormatError(4, f"bad hidden count '{hidden_text}'") from None
    if hidden < 1:
        raise ModelFormatError(4, f"hidden count must be positive, got {hidden}")

    v = _parse_weights(_expect_field(raw[4], 5, "v"), 5, "v", hidden)
    u = _parse_weights(_expect_field(raw[5], 6, "u"), 6, "u", hidden)
    w = _parse_weights(_expect_field(raw[6], 7, "w"), 7, "w", hidden)
    for extra, line in enumerate(raw[7:], start=8):
        if line.strip():
            raise ModelFormatError(extra, f"unexpected content after the model: '{line}'")
    return NetworkParams(v, u, w), spec
