"""Passes the ``pythonpath`` setting of ``pyproject.toml`` on to the
``python -m chowkit`` subprocesses that some tests start, so a plain
checkout tests with nothing installed."""

import os


def pytest_configure(config):
    paths = [*map(str, config.getini("pythonpath")), os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
