"""The CI workflow runs every benchmark module.

Read as plain text, so no YAML parser is needed: a ``bench_*.py``
module the workflow never names would be a paper claim nobody runs.
"""

import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def test_every_bench_module_is_named_in_the_workflow():
    text = WORKFLOW.read_text(encoding="utf-8")
    modules = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
    assert modules
    unnamed = [
        module.name
        for module in modules
        if f"benchmarks/{module.name}" not in text
    ]
    assert unnamed == [], f"benchmark modules no CI job runs: {unnamed}"
