import inspect
import pickle

import pytest

from sbk import errors

ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.SkewBraceKitError)
]


def sample(cls):
    """An instance built through the class's own constructor."""
    if cls.__init__ is Exception.__init__:
        return cls("message")
    return cls(*range(3, 3 + len(inspect.signature(cls).parameters)))


def test_every_error_class_is_covered():
    assert len(ERROR_CLASSES) == 12


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_round_trips_through_pickle(cls):
    exc = sample(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
