"""repro — Stochastic origin-destination matrix forecasting.

Reproduction of "Stochastic Origin-Destination Matrix Forecasting Using
Dual-Stage Graph Convolutional, Recurrent Neural Networks" (Hu, Yang,
Guo, Jensen, Xiong — ICDE 2020), built from scratch on numpy.

Top-level convenience re-exports cover the typical user path::

    from repro import (toy_dataset, prepare, full_roster, run_comparison)

    data = prepare(toy_dataset(), s=6, h=3)
    result = run_comparison(data, full_roster())
    print(result.format_table())

Subpackages
-----------
``repro.autodiff``
    Reverse-mode autodiff + neural-network substrate (Tensor, GRUCell, Adam).
``repro.graph``
    Proximity graphs, Cheby-Net convolutions, coarsening and pooling.
``repro.regions`` / ``repro.trips`` / ``repro.histograms``
    City models, synthetic taxi trips, and sparse OD tensor assembly.
``repro.core``
    The paper's contribution: BF and AF frameworks + training.
``repro.baselines``
    NH, GP, VAR, FC/RNN and MR comparison methods.
``repro.metrics``
    KL / JS / EMD and the masked DisSim evaluation.
``repro.experiments``
    The harness regenerating every table and figure of the paper.
"""

from .baselines import (FCBaseline, GaussianProcessForecaster, MRForecaster,
                        NaiveHistogram, NeuralForecaster, VARForecaster)
from .contracts import (ContractPolicy, ContractViolation, contract_policy,
                        get_contract_policy, set_contract_policy)
from .core import (AdvancedFramework, BasicFramework, TrainConfig, Trainer,
                   af_loss, bf_loss)
from .experiments import full_roster, prepare, run_comparison
from .forecast import forecast_latest
from .histograms import (HistogramSpec, ODTensorSequence, WindowDataset,
                         build_od_tensors, chronological_split)
from .metrics import emd, evaluate_forecasts, js_divergence, kl_divergence
from .regions import City, chengdu_like, manhattan_like, toy_city
from .trips import (CityDataset, chengdu_like_dataset, nyc_like_dataset,
                    toy_dataset)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BasicFramework", "AdvancedFramework", "Trainer", "TrainConfig",
    "bf_loss", "af_loss",
    "NaiveHistogram", "GaussianProcessForecaster", "VARForecaster",
    "FCBaseline", "MRForecaster", "NeuralForecaster",
    "City", "manhattan_like", "chengdu_like", "toy_city",
    "CityDataset", "nyc_like_dataset", "chengdu_like_dataset",
    "toy_dataset",
    "HistogramSpec", "ODTensorSequence", "build_od_tensors",
    "WindowDataset", "chronological_split",
    "kl_divergence", "js_divergence", "emd", "evaluate_forecasts",
    "prepare", "run_comparison", "full_roster",
    "forecast_latest",
    "ContractPolicy", "ContractViolation", "contract_policy",
    "get_contract_policy", "set_contract_policy",
]
