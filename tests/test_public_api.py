"""The public API is what README documents: the names in the bullets of its
"**Public API.**" paragraph are exactly irlsvm.__all__."""

import re
from pathlib import Path

import irlsvm

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_api_names() -> set[str]:
    text = README.read_text()
    start = text.index("**Public API.**")
    end = text.index("`irlsvm.cli.main(argv)`", start)
    # the bullets and their continuation lines, without the paragraph's lead-in sentence
    bullets = text[start:end].partition("\n- ")[2]
    return set(re.findall(r"`([^`]+)`", bullets))


def test_readme_public_api_is_all():
    names = _readme_api_names()
    assert names == set(irlsvm.__all__)
    assert len(irlsvm.__all__) == len(names)
    assert all(hasattr(irlsvm, name) for name in names)
