"""Golden test: the ``-O1`` optimization reports are pinned byte for byte.

Every registry and query program is derived and optimized at ``-O1``
with its validation input generator, as ``repro compile -O1`` does.
Each report's ``to_dict()`` -- one certificate per pass, carrying the
fingerprints of the AST before and after it -- must match
``goldens/opt_reports.json`` exactly.  A diff means a pass now produces
different code, a pass was accepted or rejected differently, or the
fingerprints are taken differently.

Intentional changes: rerun with ``--update-goldens`` and commit the new
file.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.programs import all_programs
from repro.query.programs import all_query_programs
from repro.stdlib import default_engine

GOLDEN = Path(__file__).parent / "goldens" / "opt_reports.json"


def current_reports() -> dict:
    engine = default_engine()
    reports = {}
    for program in [*all_programs(), *all_query_programs()]:
        compiled = engine.compile_function(program.build_model(), program.build_spec())
        optimized = compiled.optimize(1, input_gen=program.validation_input_gen())
        reports[program.name] = optimized.opt_report.to_dict()
    return reports


def test_opt_reports_match_golden(request):
    actual = json.dumps(current_reports(), indent=1, sort_keys=True) + "\n"
    if request.config.getoption("--update-goldens"):
        GOLDEN.write_text(actual)
        return
    assert actual == GOLDEN.read_text(), (
        "optimization reports changed; rerun with --update-goldens if intended"
    )
