"""Keyed PRNG stream properties: reproducibility, independence, stability."""

import numpy as np

from microdiag.prng import Prng, prng_new


def test_same_seed_same_stream():
    a = prng_new(42).child("x").normal(size=16)
    b = prng_new(42).child("x").normal(size=16)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = prng_new(1).child("x").normal(size=16)
    b = prng_new(2).child("x").normal(size=16)
    assert not np.array_equal(a, b)


def test_child_streams_are_independent_of_sibling_order():
    # drawing from one child must not perturb another; this is what makes
    # per-tensor init identical across backbones
    root1 = prng_new(9)
    a_first = root1.child("a").normal(size=8)

    root2 = prng_new(9)
    root2.child("b").normal(size=1000)  # interleaved sibling consumption
    a_second = root2.child("a").normal(size=8)
    assert np.array_equal(a_first, a_second)


def test_child_label_changes_stream():
    r = prng_new(3)
    assert not np.array_equal(r.child("a").normal(size=8), r.child("b").normal(size=8))


def test_nested_children_are_path_keyed():
    a = prng_new(5).child("x").child("y").uniform(size=4)
    b = prng_new(5).child("x").child("y").uniform(size=4)
    assert np.array_equal(a, b)
    c = prng_new(5).child("y").child("x").uniform(size=4)
    assert not np.array_equal(a, c)


def test_permutation_is_permutation():
    perm = prng_new(0).child("p").permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


def test_integers_bounds():
    vals = prng_new(0).child("i").integers(3, 9, size=500)
    assert vals.min() >= 3 and vals.max() < 9


def test_uniform_bounds():
    vals = prng_new(0).child("u").uniform(2.0, 3.0, size=500)
    assert np.all((vals >= 2.0) & (vals < 3.0))


def test_poisson_mean_sane():
    vals = prng_new(0).child("po").poisson(4.0, size=4000)
    assert abs(vals.mean() - 4.0) < 0.2


def test_choice_respects_zero_probability():
    r = prng_new(0).child("c")
    p = [0.5, 0.0, 0.5]
    draws = {r.choice(3, p=p) for _ in range(200)}
    assert 1 not in draws
    assert draws <= {0, 2}


def test_instantiating_prng_directly_matches_factory():
    assert np.array_equal(
        Prng(11).child("z").normal(size=4), prng_new(11).child("z").normal(size=4)
    )


def test_repr_and_str_name_seed_and_path():
    assert repr(prng_new(3)) == "Prng(seed=3, path='<root>')"
    assert str(prng_new(3).child("a").child("b")) == "Prng(seed=3, path='a/b')"
