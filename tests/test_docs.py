from __future__ import annotations

import re
from pathlib import Path

import cfpq


def test_readme_lists_the_public_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listing = readme.split("`import cfpq` exports", 1)[1].split("; everything else", 1)[0]
    assert re.findall(r"`(\w+)`", listing) == cfpq.__all__
