"""The repo's end-to-end benchmark (see README.md in this directory).

``run.py`` measures one workload once (the command ``BENCHMARK.json``
declares); ``python -m benchmarks.e2e`` runs every workload in fresh
child interpreters and aggregates; ``compare.py`` judges two such
aggregates against the declared bounds.
"""
