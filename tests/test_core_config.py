"""Tests for the Table I model configurations."""

import numpy as np
import pytest

from repro.autodiff import Seq2Seq
from repro.baselines import FCBaseline
from repro.core import AdvancedFramework, BasicFramework, GraphSeq2Seq
from repro.core.config import PaperHyperParameters, paper_af, paper_bf
from repro.regions import toy_city


class TestPaperHyperParameters:
    def test_published_values(self):
        hp = PaperHyperParameters()
        assert hp.rank == 5           # factorization rank r
        assert hp.n_buckets == 7      # speed buckets K
        assert hp.dropout == 0.2
        assert hp.learning_rate == pytest.approx(1e-3)
        assert hp.decay_factor == 0.8 and hp.decay_every == 5

    def test_paper_bf_builds(self):
        model = paper_bf(n_regions=20)
        assert model.rank == 5
        history = np.random.default_rng(0).uniform(size=(1, 3, 20, 20, 7))
        pred, r, c = model(history, horizon=1)
        assert pred.shape == (1, 1, 20, 20, 7)

    def test_paper_af_builds_at_scale(self):
        city = toy_city(seed=0, n_regions=24)
        weights = city.proximity()
        model = paper_af(weights, weights)
        history = np.random.default_rng(0).uniform(size=(1, 3, 24, 24, 7))
        pred, r, c = model(history, horizon=1)
        assert pred.shape == (1, 1, 24, 24, 7)
        assert np.allclose(pred.numpy().sum(-1), 1.0)

    def test_paper_af_pools_16x(self):
        """Table I: two pool-4 stages condense each slice 16x before the
        rank projection."""
        city = toy_city(seed=0, n_regions=40)
        weights = city.proximity()
        model = paper_af(weights, weights)
        pooled_size = model.factor_r.latent_proj.weight.shape[0]
        assert pooled_size <= max(40 // 16 + 2, 3) + 2

    def test_seeds_differentiate_weights(self):
        a = paper_bf(8, seed=1)
        b = paper_bf(8, seed=2)
        assert not np.allclose(a.encode_r.weight.data,
                               b.encode_r.weight.data)

    def test_same_seed_same_weights(self):
        a = paper_bf(8, seed=3)
        b = paper_bf(8, seed=3)
        assert np.allclose(a.encode_r.weight.data, b.encode_r.weight.data)


_RNG = np.random.default_rng(0)
_W = np.eye(4)

#: ``(builder, removed keyword, a value it once accepted)``.
REMOVED_KEYWORDS = [
    (lambda **kw: BasicFramework(4, 4, 3, _RNG, **kw), "attention", True),
    (lambda **kw: BasicFramework(4, 4, 3, _RNG, **kw), "num_layers", 2),
    (lambda **kw: AdvancedFramework(_W, _W, 3, _RNG, **kw), "rnn_layers", 2),
    (lambda **kw: FCBaseline(4, 4, 3, _RNG, **kw), "num_layers", 2),
    (lambda **kw: Seq2Seq(3, 5, 3, _RNG, **kw), "num_layers", 2),
    (lambda **kw: GraphSeq2Seq(_W, 3, 5, 3, 2, _RNG, **kw), "num_layers", 2),
]


@pytest.mark.parametrize(
    "build, keyword, value", REMOVED_KEYWORDS,
    ids=["BasicFramework-attention", "BasicFramework-num_layers",
         "AdvancedFramework-rnn_layers", "FCBaseline-num_layers",
         "Seq2Seq-num_layers", "GraphSeq2Seq-num_layers"])
def test_removed_keywords_raise_type_error(build, keyword, value):
    """Each recurrence holds one cell (Table I) and none attends over
    time; the keywords that chose otherwise fail loudly."""
    with pytest.raises(TypeError, match=keyword):
        build(**{keyword: value})
