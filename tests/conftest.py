"""The call recorder that the work pins of tier-1 share."""

import pytest


@pytest.fixture
def calls(monkeypatch):
    """``calls(owner, name)`` patches ``owner.name`` until the test ends so
    that each call appends its argument tuple to a list, and returns that
    list.  A method's tuple starts with its instance."""

    def record(owner, name):
        made, inner = [], getattr(owner, name)

        def recording(*args):
            made.append(args)
            return inner(*args)

        monkeypatch.setattr(owner, name, recording)
        return made

    return record
