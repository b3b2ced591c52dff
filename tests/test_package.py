from __future__ import annotations

import msga


def test_every_exported_name_resolves() -> None:
    missing = [name for name in msga.__all__ if not hasattr(msga, name)]
    assert missing == []
