"""msga: memory-efficient fine-tuning of a small segmentation transformer.

The package trains a toy SAM-shaped model (patch-embed transformer encoder,
learned default prompt embedding, per-token mask decoder) with a low-rank
gradient-projection optimizer wrapped around AdamW, and accounts optimizer
memory analytically. Everything runs on float64 numpy at desk scale.

The package root exports nothing: import each name from the module that
defines it, e.g. `from msga.optim import GaLore`.
"""
