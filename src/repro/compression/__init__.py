"""Gradient compression (the paper's stated future-work direction).

The ByzShield conclusion notes that "algorithmic improvements to make it more
communication-efficient are also interesting directions for future work" —
ByzShield workers transmit ``l`` full gradients per iteration, ``l`` times the
baseline's traffic (see Figure 12).  This package implements the standard
compression operators used for that purpose and integrates them with the
cluster cost model so the communication savings can be quantified:

* :class:`SignCompressor` — 1-bit sign quantization (signSGD-style);
* :class:`TopKCompressor` — magnitude top-k sparsification.
"""

from repro.compression.compressors import (
    CompressedGradient,
    Compressor,
    SignCompressor,
    TopKCompressor,
)

__all__ = [
    "CompressedGradient",
    "Compressor",
    "SignCompressor",
    "TopKCompressor",
]
