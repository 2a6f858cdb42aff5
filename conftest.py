"""Repo-level pytest configuration.

Adds the ``--update-goldens`` flag used by ``tests/obs`` and
``tests/opt/test_report_golden.py``: when a trace schema change (or an
optimizer change) is intentional, rerun the golden suite with

    PYTHONPATH=src python -m pytest tests/obs --update-goldens

to regenerate ``tests/obs/goldens/*.trace.jsonl`` (or
``tests/opt/goldens/opt_reports.json``) in place, then commit the diff
alongside the change that caused it.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden trace and optimization-report files instead of comparing",
    )
