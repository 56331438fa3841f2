"""`FiniteInvQuantale.from_join_irreducibles` extends a J x J table by
peeling a distributive carrier.  `powerset_quantale` builds P(G) through it
from the products of singletons; every powerset quantale the library
builds is compared, entry for entry, with the table of all products of
subsets (`powerset_quantale_oracle` in _helpers).

A built quantale records that its rows are J-extensions, and validation
then passes that premise of distrib-left without comparing the rows.  Each
one is also validated as a plain copy of its table, whose rows are
compared, and must get the same result (`_validated_as_a_plain_copy`)."""

import pytest

from quantales import fileformats as ff
from quantales.examples import (cyclic_group, group_powerset_quantale,
                                locale_quantale, pair_groupoid,
                                powerset_quantale, product_groupoid,
                                product_quantale, rel_quantale,
                                sierpinski_topology, symmetric_group_3)
from quantales.quantale import (FiniteInvQuantale, _QuantaleFacts,
                                validate_quantale)
from quantales.suplattice import distributive_peeling, join_irreducibles

from _helpers import (full_form_doc, j_table, permuted,
                      powerset_quantale_oracle, rebuilt, reduction_corpus,
                      small_quantales)

Z2, Z3 = cyclic_group(2), cyclic_group(3)

# every groupoid with at most nine arrows that the library or its tests
# build a powerset quantale of
GROUPOIDS = {
    "Z2": Z2, "Z3": Z3, "S3": symmetric_group_3(),
    "pair1": pair_groupoid(1), "pair2": pair_groupoid(2),
    "pair3": pair_groupoid(3),
    "Z2xpair2": product_groupoid(Z2, pair_groupoid(2)),
    "Z2xZ3": product_groupoid(Z2, Z3), "Z3xZ3": product_groupoid(Z3, Z3),
    "Z2xZ2xZ2": product_groupoid(product_groupoid(Z2, Z2), Z2),
}


def _validated_as_a_plain_copy(q):
    """validate_quantale(q) for a q that from_join_irreducibles built,
    required to equal the result on a plain copy of its table: None for
    both, or the same law and witness.  The copy's rows are compared with
    their J-extensions, and the comparison passes, as the record says."""
    assert q._j_extended is q.mult_table and not q._validated
    plain = FiniteInvQuantale(q.carrier, q.mult_table, q.inv_table, q.unit)
    assert plain._j_extended is None
    assert _QuantaleFacts(plain).rows_are_j_extensions
    result = validate_quantale(q)
    assert result == validate_quantale(plain)
    return result


@pytest.mark.parametrize("name", GROUPOIDS)
def test_powerset_quantale_equals_the_table_of_all_products(name):
    groupoid = GROUPOIDS[name]
    q = powerset_quantale(groupoid)
    oracle = powerset_quantale_oracle(groupoid)
    assert q.mult_table == oracle.mult_table
    assert q == oracle
    # q is validated already; a fresh build of it is validated here
    assert _validated_as_a_plain_copy(rebuilt(q)) is None


def test_every_distributive_corpus_quantale_is_its_j_extension():
    extended = {name: q for name, q in reduction_corpus().items()
                if distributive_peeling(q.carrier) is not None}
    assert len(extended) >= 8
    for name, q in extended.items():
        again = rebuilt(q)
        assert again == q, name
        assert _validated_as_a_plain_copy(again) == \
            validate_quantale(q), name


def test_peel_predecessors_with_larger_indices():
    # P(Z/2) x chain 3 with its indices reversed: bottom is the last index,
    # so every peel predecessor of an element comes after it
    q = product_quantale(group_powerset_quantale(Z2),
                         locale_quantale(sierpinski_topology()))
    n = q.size
    reversed_q = permuted(q, [n - 1 - a for a in range(n)])
    assert validate_quantale(reversed_q) is None
    peel = distributive_peeling(reversed_q.carrier)
    assert peel is not None
    assert any(rest > a for a, (rest, _) in enumerate(peel))
    assert rebuilt(reversed_q) == reversed_q


def test_a_carrier_that_is_not_distributive_is_refused():
    m3 = small_quantales()["m3"]
    assert distributive_peeling(m3.carrier) is None
    with pytest.raises(ValueError, match="not distributive"):
        rebuilt(m3)


def test_a_j_table_with_one_changed_entry_fails_validation():
    # every entry of the J x J table of P(S3), moved to bottom, to the top
    # or to another singleton
    q = group_powerset_quantale(symmetric_group_3())
    table = j_table(q)
    J = join_irreducibles(q.carrier)
    changes = 0
    for pair, value in table.items():
        for other in [q.bottom, q.top, *J]:
            if other == value:
                continue
            changed = FiniteInvQuantale.from_join_irreducibles(
                q.carrier, {**table, pair: other}, q.inv_table, q.unit)
            assert _validated_as_a_plain_copy(changed) is not None, \
                (pair, other)
            changes += 1
    assert changes == 36 * 7


# doc_digest(full_form_doc(q)): the full-form document, the only one
# written before the compact forms, as the full tables built it
DIGESTS = {
    "P(Z/2)": "82833dd6801893dc89dba238b08ff6770ad47cd900eecb43ab2240c2051973a9",
    "P(Z/3)": "30bd1abd6b7c5bba9f2b1537ea7c9ad8751762fb579cd5a64deb633c1b04294b",
    "P(S3)": "0173d1e7e0d588d2d80a259f32b483e5e97439c8be199d663accb194e87cf9a9",
    "Rel(2)": "baedcf89dfaf73352f7205f7913aa79e34b3019a039708c83014d2f36d74be27",
    "Rel(3)": "ed4ea10ef9944b588c118db032e363666c5b2f4e7ce633dcc8a6cda3acf34d56",
}
# doc_digest(quantale_to_doc(q)): the product on J x J, the order by its
# covers
COMPACT_DIGESTS = {
    "P(Z/2)": "c567c5d9a8f91f04a4321f9fc01aac89a4351511e6326ea7aa561372aecabbc4",
    "P(Z/3)": "ef28c5ac4bd5d2d965fbf7c5d38f094c7ffe7ea85e1ba8f1e11458dc32b4ba9a",
    "P(S3)": "887130821caf044d1211488d10dcadf3c4a58fc4d51291a01b094485a0ba8cef",
    "Rel(2)": "50dd1cffb5e8a784f795f4386f45f3f68df6b09c35499c170667893838870a76",
    "Rel(3)": "7cf5b025fb04abd1cc1e4fbdce7d7e4a75227cb0a380659962b558e4126e1fb1",
}
BUILDERS = {
    "P(Z/2)": lambda: group_powerset_quantale(Z2),
    "P(Z/3)": lambda: group_powerset_quantale(Z3),
    "P(S3)": lambda: group_powerset_quantale(symmetric_group_3()),
    "Rel(2)": lambda: rel_quantale(2),
    "Rel(3)": lambda: rel_quantale(3),
}


@pytest.mark.parametrize("name", DIGESTS)
def test_written_quantale_documents_are_unchanged(name):
    q = BUILDERS[name]()
    assert ff.doc_digest(full_form_doc(q)) == DIGESTS[name]
    doc = ff.quantale_to_doc(q)
    assert doc["mult_on"] == "join-irreducibles"
    assert ff.doc_digest(doc) == COMPACT_DIGESTS[name]
