"""The repo's end-to-end benchmark: four closed-loop workloads through the
public facade, four bounded end-to-end metrics, and a per-layer table traced
from outside.  ``BENCHMARK.json`` at the repo root declares every name; see
``README.md`` beside this file for definitions and the estimator study.
"""
