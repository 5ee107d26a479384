"""Source rules: the package has one atomic writer and one decimal float
format, both in ``io.py``, so no module grows a second copy of either."""

from pathlib import Path

import pytest

import tcalign

PACKAGE = Path(tcalign.__file__).parent


@pytest.mark.parametrize("needle", ["os.replace", ".17g"])
def test_only_io_renames_files_and_formats_floats(needle):
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert needle in sources.pop("io.py")
    assert [name for name, text in sorted(sources.items()) if needle in text] == []
