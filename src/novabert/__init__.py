"""NOVA-BERT: non-invasive self-attention for sequential recommendation.

A numpy-backed implementation of a BERT-style masked-item recommender with
two attention variants (invasive baseline and non-invasive NOVA), three
side-information fusion functions, rank-all evaluation, and an analytic
FLOPs/parameter profiler.
"""

from novabert.tensor import Tensor, backward

__all__ = ["Tensor", "backward"]
__version__ = "0.1.0"
