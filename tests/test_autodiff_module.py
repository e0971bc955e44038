"""Tests for Module/Parameter infrastructure."""

import numpy as np
import pytest

from repro.autodiff import Linear, Module, Parameter, Sequential, Tensor


class _Net(Module):
    def __init__(self, rng):
        super().__init__()
        self.layer1 = Linear(3, 4, rng)
        self.layer2 = Linear(4, 2, rng)
        self.scale = Parameter(np.ones(2))

    def forward(self, x):
        return self.layer2(self.layer1(x)) * self.scale


@pytest.fixture
def net(rng):
    return _Net(rng)


class TestParameters:
    def test_named_parameters_recursive(self, net):
        names = dict(net.named_parameters())
        assert "layer1.weight" in names
        assert "layer2.bias" in names
        assert "scale" in names
        assert len(names) == 5

    def test_parameters_in_lists_found(self, rng):
        class ListNet(Module):
            def __init__(self):
                super().__init__()
                self.blocks = [Linear(2, 2, rng), Linear(2, 2, rng)]

            def forward(self, x):
                return x

        names = dict(ListNet().named_parameters())
        assert "blocks.0.weight" in names and "blocks.1.bias" in names

    def test_num_parameters(self, net):
        assert net.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2 + 2

    def test_zero_grad(self, net, rng):
        x = Tensor(rng.normal(size=(5, 3)))
        (net(x) ** 2).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestModes:
    def test_train_eval_propagate(self, net):
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_modules_in_lists(self, rng):
        seq = Sequential(Linear(2, 2, rng), Linear(2, 2, rng))
        assert len(list(seq.modules())) == 3

    def test_forward_abstract(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestSharedParameters:
    """Weight tying: shared objects must be discovered exactly once."""

    def _tied_param_net(self):
        shared = Parameter(np.ones(3))

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.embed = shared
                self.project = shared            # same object, two names

            def forward(self, x):
                return x * self.embed * self.project

        return Net(), shared

    def test_shared_parameter_yielded_once(self):
        net, shared = self._tied_param_net()
        names = list(net.named_parameters())
        assert len(names) == 1
        assert names[0][0] == "embed"            # first attribute wins
        assert names[0][1] is shared

    def test_num_parameters_not_double_counted(self):
        net, _ = self._tied_param_net()
        assert net.num_parameters() == 3

    def test_optimizer_single_steps_tied_weight(self):
        from repro.autodiff import Adam
        net, shared = self._tied_param_net()
        opt = Adam(net.parameters(), lr=1.0)
        shared.grad = np.ones(3)
        opt.step()
        # One parameter slot -> exactly one update of ~lr (Adam's first
        # step), not two.
        assert np.allclose(shared.data, 0.0, atol=1e-6)

    def test_shared_module_visited_once(self, rng):
        tied = Linear(2, 2, rng)

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.encoder = tied
                self.decoder = tied

            def forward(self, x):
                return self.decoder(self.encoder(x))

        net = Net()
        assert len(list(net.modules())) == 2     # net + the one Linear
        assert len(list(net.named_parameters())) == 2   # weight + bias

    def test_state_dict_round_trip_with_tied_weights(self):
        net, shared = self._tied_param_net()
        state = net.state_dict()
        assert set(state) == {"embed"}
        shared.data += 5.0
        net.load_state_dict(state)
        assert np.allclose(shared.data, 1.0)


class TestStateDict:
    def test_round_trip(self, net, rng):
        state = net.state_dict()
        x = Tensor(rng.normal(size=(4, 3)))
        before = net(x).data.copy()
        for p in net.parameters():
            p.data += 1.0
        assert not np.allclose(net(x).data, before)
        net.load_state_dict(state)
        assert np.allclose(net(x).data, before)

    def test_state_dict_is_copy(self, net):
        state = net.state_dict()
        state["scale"][:] = 99.0
        assert not np.allclose(net.scale.data, 99.0)

    def test_missing_key_raises(self, net):
        state = net.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_unexpected_key_raises(self, net):
        state = net.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self, net):
        state = net.state_dict()
        state["scale"] = np.zeros(5)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_load_preserves_float32_dtype(self, rng):
        """A float32 model must stay float32 through a state-dict restore
        (early stopping, ``load_model``), not be clobbered to float64."""
        from repro.autodiff import set_default_dtype
        previous = set_default_dtype(np.float32)
        try:
            net = _Net(rng)
            state = net.state_dict()
            net.load_state_dict(state)
        finally:
            set_default_dtype(previous)
        assert all(p.data.dtype == np.float32 for p in net.parameters())

    @pytest.mark.usefixtures("float64")
    def test_load_preserves_float64_against_narrow_saved(self, net):
        """A float64 model loading float32-saved weights stays float64."""
        state = {name: value.astype(np.float32)
                 for name, value in net.state_dict().items()}
        net.load_state_dict(state)
        assert all(p.data.dtype == np.float64 for p in net.parameters())
