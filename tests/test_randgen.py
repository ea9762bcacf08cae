"""The seeded random corpus, pinned: each seed yields the same instances,
atom order included, however the generators write them."""

import hashlib
import random

import pytest

from bago.randgen import (
    random_bag_abox,
    random_instance,
    random_rooted_cq,
    random_tbox_with_disjointness,
)


def _instance(rng):
    tbox, abox, q = random_instance(rng)
    return tbox.to_text(), abox.to_text(), q.to_text(), repr(q.atoms)


def _wide_cq(rng):
    q = random_rooted_cq(rng, max_atoms=6, max_vars=6)
    return q.to_text(), repr(q.atoms)


DRAWS = {
    "random_instance": _instance,
    "random_tbox_with_disjointness": lambda rng: (random_tbox_with_disjointness(rng).to_text(),),
    "random_rooted_cq": _wide_cq,
    "random_bag_abox": lambda rng: (random_bag_abox(rng, max_multiplicity=8).to_text(),),
}

# The md5 of the first 300 draws from random.Random(seed), each draw's texts
# in turn.
CORPUS_MD5 = {
    ("random_instance", 7): "9234adb2db96cd400d3df75d61747bdc",
    ("random_instance", 11): "28e96ca1254da012ece37650514adb0d",
    ("random_tbox_with_disjointness", 7): "68191410afe604ba3cfff5964fe9390a",
    ("random_tbox_with_disjointness", 11): "43f5bf2308cacd3cfa4c9b3ab84c6d3a",
    ("random_rooted_cq", 7): "9563010336c290edba0825cc08c51543",
    ("random_rooted_cq", 11): "136c698183950ca44d1e3a75f0a1145c",
    ("random_bag_abox", 7): "b2b2f93aec1d494b57a85d3a16cd7a49",
    ("random_bag_abox", 11): "2fb30c9ef7fa23afe460c91e04dbc653",
}


@pytest.mark.parametrize("name,seed", sorted(CORPUS_MD5))
def test_random_corpus_is_pinned(name, seed):
    rng, digest = random.Random(seed), hashlib.md5()
    for _ in range(300):
        for text in DRAWS[name](rng):
            digest.update(text.encode())
    assert digest.hexdigest() == CORPUS_MD5[name, seed]
