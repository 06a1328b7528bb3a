"""The stabbing engines' and the LP pipelines' outputs against the committed golden corpus."""

import json

from golden import GOLDEN, changed, compute


def test_stabbing_outputs_match_golden_corpus():
    want = json.loads(GOLDEN.read_text())
    diff = changed(compute(), want)
    assert not diff, f"{len(diff)} golden cases changed, first: {diff[:10]}"
