"""End-to-end benchmark of the reproduction (see ``bench/README.md``).

``python3 bench/run.py`` is the entry point; this package holds the
workloads, the span tracer and the statistics they share.  The
benchmark depends only on the standard library and on ``src/`` of the
checkout it sits in.
"""
