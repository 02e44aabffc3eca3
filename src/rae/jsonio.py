"""The one on-disk JSON convention: dataset, curve and Hamiltonian files,
and the command reports; every file the package writes goes through
:func:`write_text`.

Every document is a JSON object carrying ``"version": FORMAT_VERSION``,
written with two-space indentation, sorted keys and a trailing newline, so
reruns are byte-identical.  :func:`save` adds the version and :func:`load`
checks it, so no schema states it.  :func:`load` turns every failed read
into a :class:`DatasetFormatError` naming the file: a path that cannot be
opened, invalid JSON, a top-level value that is not an object, another
version, and a missing or mistyped field of the caller's schema.
"""

from __future__ import annotations

import hashlib
import json

FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """An input file cannot be read, or breaks the envelope or its schema."""


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def digest(doc: dict) -> str:
    """sha256 of the compact, key-sorted JSON form of ``doc``."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save(path: str, doc: dict) -> None:
    """``doc`` at ``path``, as a document of the current version."""
    write_text(path, dumps({"version": FORMAT_VERSION, **doc}))


def load(path: str, kind: str, from_dict):
    """``from_dict`` applied to the ``kind`` document stored at ``path``,
    once the file has been read as a JSON object of the current version."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError:
        raise DatasetFormatError(f"cannot read {path}") from None
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise DatasetFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError(
            f"{path}: a {kind} file must hold a JSON object, not a "
            f"{type(doc).__name__}")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # not bool
        raise DatasetFormatError(
            f"{path}: unsupported {kind} format version {version!r}")
    try:
        return from_dict(doc)
    except KeyError as exc:
        raise DatasetFormatError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def real(value) -> float:
    """A real number read from a file: a JSON integer or float, never a
    bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DatasetFormatError(f"expected a JSON number, got {value!r}")
    return float(value)


def integer(value) -> int:
    """A count read from a file: a JSON integer that fits in int64, never a
    float or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatasetFormatError(f"counts must be JSON integers, got {value!r}")
    if not -2**63 <= value < 2**63:
        raise DatasetFormatError(f"count {value} does not fit in a 64-bit integer")
    return value
