"""The committed corpus is exactly what ``regenerate.py`` writes.

An entry's file name carries a hash of its spec, so a schema change (a
spec field added or removed) re-keys every entry.  Without this check the
committed files keep their old names and the script quietly writes a
second set beside them.
"""

from tests.corpus.regenerate import ROOT, regenerate


def test_regenerating_the_corpus_reproduces_the_committed_files(tmp_path):
    regenerate(tmp_path)
    written = {path.name: path.read_bytes() for path in tmp_path.glob("*.json")}
    committed = {path.name: path.read_bytes() for path in ROOT.glob("*.json")}
    assert sorted(written) == sorted(committed)
    assert written == committed
