"""End-to-end benchmark for train, stream and serve (see README.md).

``python3 e2e_bench/run.py`` runs one workload once (the driver's
contract); ``python -m e2e_bench`` runs the suite and its checks.
"""
