"""Byte identity of every CLI report over the digest corpus of ``scripts/report_digest.py``."""

from report_digest import report_digest

DIGEST = "f222adbe2b910e1e012b3aabd29bcb9ba95ff318fe0a3e2cfe21069587bec438"


def test_report_digest_is_pinned():
    """Every report over the corpus is byte-identical to the pinned one.

    The digest is updated only together with a report change that the same
    change states in CHANGES.md; a speed-up or a refactor never moves it.
    """
    codes, sha256 = report_digest()
    assert dict(codes) == {0: 4184, 2: 849}
    assert sha256 == DIGEST
