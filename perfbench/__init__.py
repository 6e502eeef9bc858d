"""Wall-clock benchmark of the Expelliarmus reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the repository root and prints one JSON result
line last.  See ``perfbench/README.md`` for the workloads, the metrics
and the per-layer predictions.
"""
