"""The committed trace digests still describe every byte the emulator writes.

`tests/trace_digests.txt` is the output of `tools/trace_digests.py`: a
header naming the Python, numpy and scipy builds and the machine, then one
sha256 per trace, CSV and schedule printout of a fixed set of runs. This
test recomputes those lines in process, from the tool's own case list. A
change that moves a byte regenerates the file in the same commit and names
the moved lines in CHANGES.md.
"""

from pathlib import Path

from conftest import load_tool

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "trace_digests.txt"
REGENERATE = "python3 tools/trace_digests.py > tests/trace_digests.txt"


def test_trace_digests_match_the_committed_file(monkeypatch):
    tool = load_tool("trace_digests")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    header, *expected = DIGESTS.read_text().splitlines()
    # round-off differs between builds, so digests compare only under one header
    assert tool.versions_line() == header, (
        f"the committed digests were made under\n  {header}\nbut this host is\n"
        f"  {tool.versions_line()}\nregenerate them with `{REGENERATE}`"
    )
    got = list(tool.digest_lines(set()))
    moved = [f"- {old}\n+ {new}" for old, new in zip(expected, got) if old != new]
    assert len(got) == len(expected), f"{len(got)} lines against {len(expected)} committed"
    assert not moved, (
        f"{len(moved)} of {len(expected)} digests moved:\n" + "\n".join(moved)
        + f"\nif the change means to move them, regenerate with `{REGENERATE}`"
        " and name the moved lines in CHANGES.md"
    )
