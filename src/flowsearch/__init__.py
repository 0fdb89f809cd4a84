"""Inference-time reward alignment for flow models on analytic benchmarks."""

from . import analytic_flow, engine, errors, harness, interpolants, rewards, rng, samplers

__version__ = "0.1.0"
