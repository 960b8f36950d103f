import numpy as np
import pytest

from helpers import tiny_model
from polyg2p.analysis import nearest_languages, nearest_phonemes, translate_as
from polyg2p.checkpoint import ModelBundle
from polyg2p.corpus import RESERVED, Vocabulary


def _bundle(seed=0, src_tokens=("<aaa>", "<bbb>", "a", "b"), tgt_tokens=("p", "q", "r")):
    config, params = tiny_model(seed=seed, src_vocab=4 + len(src_tokens),
                                tgt_vocab=4 + len(tgt_tokens))
    return ModelBundle(params, config, Vocabulary(RESERVED + src_tokens),
                       Vocabulary(RESERVED + tgt_tokens), {"lang_token": True})


def test_nearest_excludes_query_and_specials():
    bundle = _bundle()
    result = nearest_phonemes("p", k=10, bundle=bundle)
    names = [t for t, _ in result.neighbors]
    assert "p" not in names
    assert not set(names) & set(RESERVED)
    assert names and all(-1.0 - 1e-9 <= s <= 1.0 + 1e-9 for _, s in result.neighbors)


def test_identical_rows_have_similarity_one():
    bundle = _bundle()
    emb = bundle.params["tgt_embedding"].data
    emb[5] = emb[4]  # q copies p
    result = nearest_phonemes("p", k=1, bundle=bundle)
    assert result.neighbors[0] == ("q", pytest.approx(1.0))


def test_orthogonal_rows_have_similarity_zero():
    bundle = _bundle()
    emb = bundle.params["tgt_embedding"].data
    emb[:] = 0.0
    emb[4, 0] = 1.0  # p
    emb[5, 1] = 1.0  # q
    emb[6, 0] = -2.0  # r, anti-parallel to p
    result = nearest_phonemes("p", k=2, bundle=bundle)
    assert dict(result.neighbors)["q"] == pytest.approx(0.0, abs=1e-7)
    assert dict(result.neighbors)["r"] == pytest.approx(-1.0)


def test_similarity_is_scale_invariant():
    bundle = _bundle(seed=3)
    base = nearest_phonemes("p", k=3, bundle=bundle)
    bundle.params["tgt_embedding"].data[4] *= 7.5  # positive rescale of the query row
    scaled = nearest_phonemes("p", k=3, bundle=bundle)
    assert [t for t, _ in base.neighbors] == [t for t, _ in scaled.neighbors]
    for (_, a), (_, b) in zip(base.neighbors, scaled.neighbors):
        assert a == pytest.approx(b, abs=1e-6)


def test_two_language_model_neighbors_each_other():
    bundle = _bundle()
    result = nearest_languages("aaa", k=5, bundle=bundle)
    assert [t for t, _ in result.neighbors] == ["<bbb>"]  # only other language token


def test_unknown_queries_raise():
    bundle = _bundle()
    with pytest.raises(KeyError):
        nearest_phonemes("zz", k=1, bundle=bundle)
    with pytest.raises(KeyError):
        nearest_languages("zzz", k=1, bundle=bundle)


def test_translate_as_is_deterministic_and_keyed_by_language():
    bundle = _bundle(seed=5)
    first = translate_as("ab", ["aaa", "bbb"], bundle, width=4)
    second = translate_as("ab", ["aaa", "bbb"], bundle, width=4)
    assert first == second
    assert set(first) == {"aaa", "bbb"}
    assert all(isinstance(v, tuple) for v in first.values())


def test_translate_as_rejects_model_without_language_tokens():
    bundle = _bundle()
    bundle.meta["lang_token"] = False
    with pytest.raises(ValueError, match="language tokens"):
        translate_as("ab", ["aaa", "bbb"], bundle)
