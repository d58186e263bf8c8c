"""The referee benchmark: four named workloads, end to end and per layer.

``python3 benchmarks/e2e/run.py`` (or ``python -m benchmarks.e2e``)
runs ``bulk_pair``, ``fig7_drive``, ``obs_live`` and ``obs_offline``,
each in a fresh child interpreter, prints every metric named in the
root ``BENCHMARK.json`` with its unit, and checks outputs.  See
``README.md`` beside this file for the metric and workload tables.
"""
