"""Estimator base class, input validation and file helpers.

The estimators in this package follow the scikit-learn parameter
conventions (``get_params`` / ``set_params``, constructor args stored
verbatim as attributes) without depending on scikit-learn itself, so
they drop into sklearn pipelines and grid-search tooling when that
library is around.

``read_json`` is the package's one JSON-file reader, ``replace_file`` its
one atomic writer.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from litclust.errors import ConfigError, LitclustError, ParseError


class BaseEstimator:
    """Parameter introspection identical in spirit to sklearn's BaseEstimator.

    Subclasses must store every constructor argument under the same name
    (``self.foo = foo``) and do no work in ``__init__``.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind != p.VAR_KEYWORD
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ConfigError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({args})"


def check_vectors(x, name: str = "X") -> np.ndarray:
    """Coerce to a 2-D float64 array of finite values."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ConfigError(f"{name} has no rows")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite values")
    return arr


def is_number(value, integer: bool = False) -> bool:
    """Whether ``value`` is a real number (an integer if ``integer``); a
    bool is neither, and a float NaN or infinity is no number."""
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, Integral if integer else Real) and not isinstance(value, bool)


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    if not is_number(value, integer=True):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def tsv_rows(path: str | Path):
    """Yield ``(line number, fields)`` for each non-blank line of the
    tab-separated file at ``path``; a line that is not UTF-8 text raises
    ParseError naming the file and line."""
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
            if line:
                yield lineno, line.split("\t")


def read_json(path: str | Path, error: type[LitclustError] = ParseError):
    """The JSON value in the file at ``path``; a directory, a file that is
    not UTF-8 text or one that is not JSON raises ``error`` naming it."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except IsADirectoryError as exc:
        raise error(f"{path}: is a directory") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc.msg})") from exc


def replace_file(path: str | Path, data: bytes) -> None:
    """Replace the file at ``path`` with ``data`` whole: written beside it,
    flushed to disk and renamed over it, so neither a write cut short nor a
    crash after the rename leaves a truncated file, nor a failure a stray one.
    The file gets the mode that ``open`` would give it under the umask."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL never opens another file; 0o666 less the umask is the mode
    # open() gives, where mkstemp would give 0o600.
    fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        tmp.write_bytes(data)
        os.fsync(fd)
        os.replace(tmp, path)
    finally:
        os.close(fd)
        tmp.unlink(missing_ok=True)
