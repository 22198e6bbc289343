"""Shared test fixtures."""

import json
from pathlib import Path

import pytest

MANIFESTS = Path(__file__).parent / "fixtures" / "manifests"


@pytest.fixture
def recorded_manifest():
    """Loader of the run manifests older trees recorded, by file stem
    (see ``fixtures/manifests/README.md``)."""
    return lambda name: json.loads((MANIFESTS / f"{name}.json").read_text())
