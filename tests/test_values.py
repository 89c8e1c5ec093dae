"""Value semantics shared by every immutable petalgrid class.

Each class is checked against a frozen dataclass with the same fields, the
form these classes had before they were written on one slotted base.
"""
import copy
import dataclasses
import pickle

import pytest
from oracles import IndexSubset

from petalgrid.braid import BraidWord, ConjugacyWitness, NormalForm
from petalgrid.grid import GridDiagram, build_petal_grid

# (class, valid fields, other valid fields, invalid fields, their error message)
CASES = [
    (IndexSubset, (5, (1, 3)), (5, (1, 4)), (3, (1, 4)), "members must lie in 1..3: (1, 4)"),
    (BraidWord, (3, (1, -2)), (3, (-2, 1)), (3, (1, 3)), "letter 3 out of range for braid index 3"),
    (
        NormalForm,
        (3, 1, ((2, 1, 3),)),
        (3, 0, ((2, 1, 3),)),
        (3, 0, ((1, 2, 3),)),
        "normal form factors must be proper",
    ),
    (
        ConjugacyWitness,
        (BraidWord(3, (1,)), BraidWord(3, (2,)), True),
        (BraidWord(3, (1,)), BraidWord(3, (2,)), False),
        None,
        None,
    ),
    (
        GridDiagram,
        ((3, 2, 1, 5, 4), (5, 4, 3, 2, 1)),
        ((2, 3, 1), (3, 1, 2)),
        ((1, 2), (1, 3)),
        "not a permutation of 1..2: (1, 3)",
    ),
]


def twin(cls):
    """The frozen dataclass with the fields of cls, in order."""
    return dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)


@pytest.mark.parametrize("cls, fields, other, bad, message", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, fields, other, bad, message):
    value = cls(*fields)
    names = cls.__slots__
    assert tuple(getattr(value, name) for name in names) == fields
    assert cls(**dict(zip(names, fields))) == value

    if bad is not None:
        with pytest.raises(ValueError) as caught:
            cls(*bad)
        assert str(caught.value) == message
    with pytest.raises(TypeError):
        cls(*fields, fields[0])

    # Equal exactly when of one class with equal fields, and hashed alike.
    same = cls(*copy.deepcopy(fields))
    assert same is not value and same == value and not same != value
    assert hash(same) == hash(value)
    assert len({value, same, cls(*other)}) == 2
    assert value != cls(*other)
    assert value != twin(cls)(*fields) and twin(cls)(*fields) != value
    assert value != fields

    assert repr(value) == repr(twin(cls)(*fields))

    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
    with pytest.raises(TypeError):
        value < same  # noqa: B015

    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is cls and clone == value


# A field given as a list or another sequence is stored as a tuple before the
# checks run; a tuple is stored as itself.


def test_a_grid_built_from_a_list_equals_the_one_built_from_its_tuple():
    pp = (3, 5, 2, 4, 1)
    g = build_petal_grid(list(pp))
    assert g == build_petal_grid(pp) and hash(g) == hash(build_petal_grid(pp))
    assert type(g.starts) is tuple and type(g.ends) is tuple
    starts, ends = (3, 2, 1, 5, 4), (5, 4, 3, 2, 1)
    g = GridDiagram(starts, ends)
    assert g.starts is starts and g.ends is ends
    assert GridDiagram(list(starts), range(5, 0, -1)) == g


def test_braid_words_of_lists_and_tuples_multiply():
    assert BraidWord(3, [1, 2]) * BraidWord(3, (1,)) == BraidWord(3, (1, 2, 1))
    letters = (1, -2)
    assert BraidWord(3, letters).letters is letters
    assert hash(BraidWord(3, [1, -2])) == hash(BraidWord(3, letters))


def test_a_normal_form_factor_given_as_a_list_is_checked_as_a_tuple():
    for factor in ([1, 2, 3], [3, 2, 1]):
        with pytest.raises(ValueError, match="^normal form factors must be proper$"):
            NormalForm(3, 0, (factor,))
    factor = (2, 1, 3)
    nf = NormalForm(3, 1, [list(factor)])
    assert nf == NormalForm(3, 1, (factor,)) and nf.factors == (factor,)
    assert NormalForm(3, 1, (factor,)).factors[0] is factor
