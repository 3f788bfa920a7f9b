"""Every rwtkit error survives pickling, as it must to leave a worker process."""

import pickle

from rwtkit import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_round_trips_through_pickle():
    kinds = sorted(set(_subclasses(errors.RwtError)), key=lambda c: c.__name__)
    assert errors.ParseError in kinds and errors.BadVariableIndex in kinds
    for kind in [errors.RwtError] + kinds:
        args = ("bad", 3) if issubclass(kind, errors.ParseError) else ("bad",)
        error = kind(*args)
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is kind
        assert str(back) == str(error)
        assert getattr(back, "position", None) == getattr(error, "position", None)


def test_parse_error_text_keeps_its_position():
    error = errors.UnknownFunction("unknown identifier 'sinh'", 4)
    assert str(error) == "unknown identifier 'sinh' (at position 4)"
    assert error.position == 4
