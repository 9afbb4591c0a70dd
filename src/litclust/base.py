"""Estimator base class, the baseline configuration, input validation
and file helpers.

The estimators in this package follow the scikit-learn parameter
conventions (``get_params`` / ``set_params``, constructor args stored
verbatim as attributes) without depending on scikit-learn itself, so
they drop into sklearn pipelines and grid-search tooling when that
library is around.

``BASELINE_PRESET`` is the one statement of the paper's baseline point:
the estimators, ``build_weighted_matrix``, ``sweep.v_curve`` and the
CLI's config take their defaults from it.  ``read_json`` is the package's one
JSON-file reader, ``replace_file`` its one whole-file writer.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import re
from collections.abc import Callable, Iterable
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from litclust.errors import ConfigError, LitclustError, ParseError

# The paper's baseline configuration.
BASELINE_PRESET = {"d": 0.5, "r": 5, "n_dims": 15, "k": 4}

# A lone surrogate, which a JSON escape in \ud800-\udfff decodes to: no
# UTF-8 artifact can hold one.
_SURROGATE = re.compile("[\ud800-\udfff]")
# Strict UTF-8 decoding refuses an encoded surrogate, so in decoded JSON
# text only such an escape can give one (a pair of them gives none).
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def has_surrogate(value: object) -> bool:
    """Whether ``value`` is a string holding a lone surrogate."""
    # isascii is a flag read, so only a non-ASCII string is scanned.
    return isinstance(value, str) and not value.isascii() and _SURROGATE.search(value) is not None


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


def check_positive_int(value, name: str) -> int:
    if not is_number(value, integer=True):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
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
    not UTF-8 text or one that is not JSON, and a value holding a lone
    surrogate (which no UTF-8 output could hold), raise ``error`` naming it."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
        value = json.loads(text)
    except IsADirectoryError as exc:
        raise error(f"{path}: is a directory") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc.msg})") from exc
    # Dumped without escapes, every string of the value, keys too, is
    # written out as it decoded.
    if _SURROGATE_ESCAPE.search(text) and _SURROGATE.search(json.dumps(value, ensure_ascii=False)):
        raise error(f"{path}: holds a lone surrogate escape, which UTF-8 cannot encode")
    return value


def replace_file(
    path: str | Path, chunks: Iterable[bytes], before_rename: Callable[[], None] | None = None
) -> None:
    """Replace the file at ``path`` with the ``chunks`` joined, whole:
    written beside it, flushed to disk and renamed over it, so neither a
    failure part way nor a crash after the rename leaves a truncated file,
    nor a failure a stray one.  It gets the mode ``open`` gives under the umask.
    ``before_rename`` runs once the new file is on disk, the last moment
    before the old one is gone."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # "x" (O_EXCL) never opens a file that is already there, so only this
    # call's file is removed; it gets open's mode, where mkstemp gives 0o600.
    with open(tmp, "xb") as fh:
        try:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
            if before_rename is not None:
                before_rename()
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
