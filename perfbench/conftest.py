"""Keeps the benchmark's self-tests out of a plain ``pytest`` run from the
checkout root: they start Ray several times and take minutes. Name this
directory (or a file in it) to run them: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import os

HERE = os.path.dirname(os.path.abspath(__file__))


def _named(config) -> bool:
    """Whether a command-line argument points into this directory."""
    for arg in config.args:
        path = os.path.abspath(os.path.join(str(config.invocation_params.dir), arg.split("::")[0]))
        if path == HERE or path.startswith(HERE + os.sep):
            return True
    return False


def pytest_ignore_collect(collection_path, config):
    if not _named(config):
        return True
    return None
