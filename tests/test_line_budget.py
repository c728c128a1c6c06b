"""The source line budget: the lines of ``src/pmtl/*.py`` (as ``wc -l``
counts them) stay at or under a pin, so each change pays for the lines it
adds. Raise MAX_LINES only together with a CHANGES.md entry that gives the
reason, as for the golden digests; lower it when a change removes lines.

The test only reads files.
"""

from pathlib import Path

MAX_LINES = 3210
SRC = Path(__file__).resolve().parent.parent / "src" / "pmtl"


def test_source_lines_stay_within_the_pin():
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    assert len(counts) > 10  # the package was found
    assert sum(counts.values()) <= MAX_LINES, counts
