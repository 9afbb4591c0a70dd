import re

import numpy as np
import pytest

from litclust.base import BaseEstimator, check_positive_int, check_vectors, read_json, replace_file
from litclust.errors import ConfigError, ParseError


class Toy(BaseEstimator):
    def __init__(self, alpha=1.0, beta=None):
        self.alpha = alpha
        self.beta = beta


def test_get_params_reflects_constructor():
    assert Toy(alpha=2.5).get_params() == {"alpha": 2.5, "beta": None}


def test_set_params_roundtrip():
    toy = Toy().set_params(alpha=7, beta="x")
    assert toy.alpha == 7
    assert toy.beta == "x"


def test_set_params_rejects_unknown():
    with pytest.raises(ConfigError, match="invalid parameter"):
        Toy().set_params(gamma=1)


def test_repr_lists_params():
    assert repr(Toy(alpha=3)) == "Toy(alpha=3, beta=None)"


def test_check_vectors_coerces_and_validates():
    out = check_vectors([[1, 2], [3, 4]])
    assert out.dtype == np.float64
    with pytest.raises(ConfigError):
        check_vectors([1, 2, 3])
    with pytest.raises(ConfigError):
        check_vectors(np.empty((0, 3)))
    with pytest.raises(ConfigError):
        check_vectors([[np.nan, 1.0]])


def test_check_positive_int():
    assert check_positive_int(3, "k") == 3
    with pytest.raises(ConfigError):
        check_positive_int(0, "k")
    with pytest.raises(ConfigError):
        check_positive_int(2.0, "k")
    with pytest.raises(ConfigError):
        check_positive_int(True, "k")


@pytest.mark.parametrize("text", [
    r'{"a\ud800": 1}',
    r'[[{"x": ["ok", "\uDFFFz"]}]]',
    r'"\ud83d"',
])
def test_read_json_refuses_a_lone_surrogate_anywhere(tmp_path, text):
    path = tmp_path / "f.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}: holds a lone surrogate escape")):
        read_json(path)
    with pytest.raises(ConfigError, match="lone surrogate"):
        read_json(path, ConfigError)


@pytest.mark.parametrize("text,value", [
    (r'["\ud83d\ude00"]', ["\U0001f600"]),  # a surrogate pair is one code point
    (r'["\\ud800"]', ["\\ud800"]),  # an escaped backslash, then text
])
def test_read_json_takes_surrogate_pairs_and_escaped_backslashes(tmp_path, text, value):
    path = tmp_path / "f.json"
    path.write_text(text, encoding="utf-8")
    assert read_json(path) == value


def test_sklearn_clone_compatibility():
    sklearn_base = pytest.importorskip("sklearn.base")
    from litclust import CorpusVectorizer, KMeans, TruncatedLsa

    for cls in (CorpusVectorizer, TruncatedLsa, KMeans):
        est = cls()
        cloned = sklearn_base.clone(est)
        assert cloned is not est
        assert cloned.get_params() == est.get_params()


def test_replace_file_runs_before_rename_with_the_new_file_on_disk(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"old")
    seen = []

    def look():
        seen.append((path.read_bytes(), [p.read_bytes() for p in tmp_path.glob("f.*.tmp")]))

    replace_file(path, [b"ne", b"w"], look)
    assert seen == [(b"old", [b"new"])]
    assert path.read_bytes() == b"new"

    def refuse():
        raise OSError("refused")

    with pytest.raises(OSError, match="refused"):
        replace_file(path, [b"newer"], refuse)
    assert path.read_bytes() == b"new"
    assert not list(tmp_path.glob("*.tmp"))
