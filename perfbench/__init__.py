"""End-to-end benchmark of the join service with a traced per-layer split.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics, and which layer should move which metric are listed
in :mod:`perfbench.spec`.
"""
