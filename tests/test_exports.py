"""Each name the package exports is read by some test."""

import re
from pathlib import Path

import cuntzlab

HERE = Path(__file__).resolve().parent


def test_every_export_is_named_in_another_test_file():
    texts = [p.read_text() for p in sorted(HERE.glob("*.py")) if p.name != Path(__file__).name]
    unread = [name for name in cuntzlab.__all__ if not any(re.search(rf"\b{re.escape(name)}\b", t) for t in texts)]
    assert unread == []
