"""A package, so that `tests.conftest` and `perfbench/tests/conftest.py`
can be collected in one run: pytest keeps one top-level `conftest` module."""
