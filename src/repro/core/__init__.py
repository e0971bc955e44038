"""The paper's contribution: BF and AF forecasting frameworks."""

from .af import AdvancedFramework
from .bf import BasicFramework
from .cnrnn import CNRNNCell, GraphSeq2Seq
from .config import (PaperHyperParameters, PracticalHyperParameters,
                     paper_af, paper_bf)
from .losses import (af_loss, bf_loss, factor_dirichlet, factor_frobenius,
                     masked_frobenius)
from .recovery import recover
from .shardexec import ShardedExecution, ShardMemoryBudgetError
from .spatial import (DEFAULT_BLOCKS, GCNNBlock, SpatialFactorizer,
                      factorize_tensor_batch)
from .trainer import NonFiniteGradError, TrainConfig, Trainer, TrainResult

__all__ = [
    "BasicFramework", "AdvancedFramework",
    "CNRNNCell", "GraphSeq2Seq",
    "SpatialFactorizer", "GCNNBlock", "DEFAULT_BLOCKS",
    "factorize_tensor_batch",
    "ShardedExecution", "ShardMemoryBudgetError",
    "recover",
    "masked_frobenius", "bf_loss", "af_loss",
    "factor_frobenius", "factor_dirichlet",
    "Trainer", "TrainConfig", "TrainResult",
    "PaperHyperParameters", "PracticalHyperParameters",
    "paper_bf", "paper_af",
]
