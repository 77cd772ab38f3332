"""Time one fresh interpreter's set-up, or the baseline it is scaled by.

``setup_probe.py <workload> <grid seed>`` starts the interpreter, imports
``repro`` (with every module the workload uses) and builds the workload's
inputs.  ``setup_probe.py baseline`` starts the interpreter and imports a
fixed set of modules outside the repository instead: the same kind of
work (reading and running compiled modules, loading numpy's extensions),
none of it under the repository's control.  Either prints the CPU seconds
the interpreter spent, start-up included.

``bench.py`` runs the two kinds in turn and scales each set-up by the
baselines on either side of it (see ``bench.setup_seconds``): on a shared
host the same import takes from 0.28 to 0.48 CPU seconds from one moment
to the next, and a baseline run at the same moment moves with it.

Usage: ``python3 perfbench/setup_probe.py <workload> <grid seed>`` or
``python3 perfbench/setup_probe.py baseline``
"""

import sys
import time
from pathlib import Path

if sys.argv[1:] == ["baseline"]:
    import argparse  # noqa: F401
    import asyncio  # noqa: F401
    import csv  # noqa: F401
    import dataclasses  # noqa: F401
    import decimal  # noqa: F401
    import email.parser  # noqa: F401
    import fractions  # noqa: F401
    import http.client  # noqa: F401
    import inspect  # noqa: F401
    import json  # noqa: F401
    import logging  # noqa: F401
    import statistics  # noqa: F401
    import tempfile  # noqa: F401
    import typing  # noqa: F401
    import unittest  # noqa: F401
    import xml.etree.ElementTree  # noqa: F401

    import numpy  # noqa: F401
else:
    HERE = Path(__file__).resolve().parent
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

    import repro  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(repr(time.process_time()))
