"""Gradient compression (the paper's stated future-work direction).

The ByzShield conclusion notes that "algorithmic improvements to make it more
communication-efficient are also interesting directions for future work" —
ByzShield workers transmit ``l`` full gradients per iteration, ``l`` times the
baseline's traffic (see Figure 12).  This package implements the standard
compression operators used for that purpose.  A scenario's ``compression``
section applies one worker-side to every file gradient; the cost model does
not price the compressed size:

* :class:`SignCompressor` — 1-bit sign quantization (signSGD-style);
* :class:`TopKCompressor` — magnitude top-k sparsification.
"""

from repro.compression.compressors import (
    Compressor,
    SignCompressor,
    TopKCompressor,
)

__all__ = [
    "Compressor",
    "SignCompressor",
    "TopKCompressor",
]
