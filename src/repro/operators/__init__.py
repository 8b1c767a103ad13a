"""Shared ML operator substrate.

These operators are the compute kernels used by every runtime in this
repository: the ML.Net-like black-box baseline (:mod:`repro.mlnet`), the
Clipper-like containerized baseline (:mod:`repro.clipper`) and PRETZEL's
physical stages (:mod:`repro.core`).  They are deliberately framework-free
(numpy only) so the serving systems above differ only in *how* they organise
execution, memory and scheduling -- which is exactly what the paper studies.
"""

from repro.operators.base import (
    Annotation,
    Operator,
    OperatorKind,
    Parameter,
    ValueKind,
)
from repro.operators.batch import ColumnBatch, as_column_batch, batch_matrix
from repro.operators.vectors import (
    DenseVector,
    SparseVector,
    Vector,
    concat_vectors,
)
from repro.operators.text import (
    CharNgramFeaturizer,
    NgramDictionary,
    Tokenizer,
    WordNgramFeaturizer,
)
from repro.operators.featurizers import (
    ColumnSelector,
    ConcatFeaturizer,
    HashingFeaturizer,
    L2Normalizer,
    MinMaxNormalizer,
    MissingValueImputer,
    OneHotEncoder,
)
from repro.operators.linear import (
    LinearRegressor,
    LogisticRegressionClassifier,
    PoissonRegressor,
)
from repro.operators.trees import (
    DecisionTree,
    RandomForest,
    TreeEnsembleClassifier,
    TreeFeaturizer,
)
from repro.operators.clustering import KMeans
from repro.operators.decomposition import PCA

__all__ = [
    "Annotation",
    "Operator",
    "OperatorKind",
    "Parameter",
    "ValueKind",
    "ColumnBatch",
    "as_column_batch",
    "batch_matrix",
    "DenseVector",
    "SparseVector",
    "Vector",
    "concat_vectors",
    "Tokenizer",
    "NgramDictionary",
    "CharNgramFeaturizer",
    "WordNgramFeaturizer",
    "ColumnSelector",
    "ConcatFeaturizer",
    "HashingFeaturizer",
    "L2Normalizer",
    "MinMaxNormalizer",
    "MissingValueImputer",
    "OneHotEncoder",
    "LinearRegressor",
    "LogisticRegressionClassifier",
    "PoissonRegressor",
    "DecisionTree",
    "RandomForest",
    "TreeEnsembleClassifier",
    "TreeFeaturizer",
    "KMeans",
    "PCA",
]
