"""Joint emotion-intensity / age / country prediction from acoustic
embedding vectors: a small multitask MLP with hand-written gradients, a
deterministic trainer, harmonic-mean evaluation, and a grid-sweep harness.
"""
