import pytest

from maxcsp import (
    Formula,
    ParseError,
    ResourceLimitError,
    and_term,
    at_least,
    instance_digest,
    majority,
    mcc_to_threshold,
    or_clause,
    parity,
    parse_instance,
    parse_mcc,
    random_formula,
    random_mcc,
    serialize_instance,
    serialize_mcc,
)
from maxcsp.formats import MAX_DECLARED_VARS


SAMPLE = """c a comment
p mcsp 3 5
o 1 -2 0
a 2 3 0
x 1 1 3 0
t 2 -1 2 3 0
m 1 2 3 0
"""


def test_parse_sample():
    f = parse_instance(SAMPLE)
    assert f.num_vars == 3 and f.num_constraints == 5
    assert f.constraints[0] == or_clause(1, -2)
    assert f.constraints[1] == and_term(2, 3)
    assert f.constraints[2] == parity(1, 1, 3)
    assert f.constraints[3] == at_least(2, -1, 2, 3)
    assert f.constraints[4] == majority(1, 2, 3)


def test_round_trip_identity():
    for seed in range(10):
        f = random_formula(
            8, 12, {"OR": 1, "AND": 1, "PARITY": 1, "THRESHOLD": 1, "MAJORITY": 1},
            (1, 4), seed=seed,
        )
        assert parse_instance(serialize_instance(f)) == f


def test_round_trip_empty_literal_lists():
    f = Formula(2, (at_least(1), or_clause(), parity(0), majority()))
    text = serialize_instance(f)
    assert "t 1 0" in text
    assert parse_instance(text) == f


def test_serialization_is_canonical():
    f = Formula(2, (or_clause(1, -2),))
    assert serialize_instance(f) == "p mcsp 2 1\no 1 -2 0\n"
    assert instance_digest(f) == instance_digest(parse_instance(serialize_instance(f)))


def test_parse_error_both_signs():
    with pytest.raises(ParseError) as err:
        parse_instance("p mcsp 2 1\no 1 -1 0\n")
    assert err.value.line_number == 2
    assert "twice" in str(err.value)


def test_parse_error_unknown_kind():
    with pytest.raises(ParseError) as err:
        parse_instance("p mcsp 1 1\nq 1 0\n")
    assert "unknown line kind" in str(err.value)


def test_parse_error_out_of_range_literal():
    with pytest.raises(ParseError):
        parse_instance("p mcsp 1 1\no 2 0\n")


def test_parse_error_missing_terminator():
    with pytest.raises(ParseError):
        parse_instance("p mcsp 1 1\no 1\n")


def test_parse_error_header_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_instance("p mcsp 1 2\no 1 0\n")
    assert "declares 2" in str(err.value)


def test_parse_error_negative_threshold():
    with pytest.raises(ParseError):
        parse_instance("p mcsp 1 1\nt -1 1 0\n")


def test_parse_error_bad_parity_rhs():
    with pytest.raises(ParseError):
        parse_instance("p mcsp 1 1\nx 2 1 0\n")


def test_parse_error_missing_header():
    with pytest.raises(ParseError):
        parse_instance("o 1 0\n")


def test_a_header_past_the_variable_limit_is_a_resource_limit():
    # checked on the header, before any constraint line, and nothing is built per variable
    assert parse_instance(f"p mcsp {MAX_DECLARED_VARS} 0\n").num_vars == MAX_DECLARED_VARS
    for header in (f"p mcsp {MAX_DECLARED_VARS + 1} 1", "p mcsp 300000000 1"):
        with pytest.raises(ResourceLimitError) as err:
            parse_instance(header + "\no 1 2 0\n")
        declared = header.split()[2]
        assert str(err.value) == f"instance declares {declared} variables, the limit is {MAX_DECLARED_VARS}"


def test_comments_and_blank_lines_ignored():
    f = parse_instance("c hi\n\np mcsp 1 1\nc mid\no 1 0\nc end\n")
    assert f.num_constraints == 1


def test_mcc_round_trip():
    for seed in range(5):
        g = random_mcc(3, 3, 0.4, seed)
        assert parse_mcc(serialize_mcc(g)) == g


def test_mcc_parse_basics():
    g = parse_mcc("p mcc 2 2\ne 1 1 2 1\n")
    assert g.parts == 2 and g.part_size == 2
    assert g.has_edge(1, 1, 2, 1)


def test_mcc_parse_normalizes_reversed_edges_and_dedupes():
    g = parse_mcc("p mcc 2 2\ne 2 1 1 1\ne 1 1 2 1\n")
    assert len(g.edges) == 1


def test_mcc_parse_errors():
    with pytest.raises(ParseError):
        parse_mcc("p mcc 2 2\ne 1 1 1 2\n")  # intra-part edge
    with pytest.raises(ParseError):
        parse_mcc("p mcc 2 2\ne 1 1 2 3\n")  # vertex out of range
    with pytest.raises(ParseError):
        parse_mcc("p mcc 2 2\ne 1 1 3 1\n")  # part out of range
    with pytest.raises(ParseError):
        parse_mcc("e 1 1 2 1\n")  # missing header


def test_mcc_empty_edge_list_is_valid():
    g = parse_mcc("p mcc 2 2\n")
    assert len(g.edges) == 0


def test_gadget_output_round_trips():
    red = mcc_to_threshold(random_mcc(2, 2, 0.5, 7))
    assert parse_instance(serialize_instance(red.formula)) == red.formula


# ``int`` alone reads "1_0" as 10 and takes non-ASCII digits such as U+0661
@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p mcsp 1_0 1\nt 1 1 0\n", 1, "header counts must be integers"),
        ("p mcsp 2 1\nt 1_0 1 0\n", 2, "threshold must be an integer, got '1_0'"),
        ("p mcsp 10 1\nt 1 1_0 0\n", 2, "literal '1_0' is not an integer"),
        ("p mcsp 10 1\no -1_0 0\n", 2, "literal '-1_0' is not an integer"),
        ("p mcsp 2 1\no 1 ١ 0\n", 2, "literal '١' is not an integer"),
        ("p mcsp ٢ 1\no 1 0\n", 1, "header counts must be integers"),
    ],
)
def test_parse_reads_only_plain_decimal_tokens(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p mcc 2_0 2\n", 1, "header counts must be integers"),
        ("p mcc 2 2\ne 1 1 2 0_2\n", 2, "edge fields must be integers"),
        ("p mcc 2 2\ne 1 1 ٢ 1\n", 2, "edge fields must be integers"),
    ],
)
def test_parse_mcc_reads_only_plain_decimal_tokens(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_mcc(text)
    assert str(err.value) == f"line {line}: {message}"


def test_explicit_plus_signs_still_parse():
    assert parse_instance("p mcsp +2 +1\nt +1 +1 -2 0\n") == Formula(2, (at_least(1, 1, -2),))
    assert parse_instance("c under_score\np mcsp 2 1\nt 1 +1 -2 0\n") == Formula(2, (at_least(1, 1, -2),))
    g = parse_mcc("p mcc +2 2\ne +1 1 2 +2\n")
    assert g.has_edge(1, 1, 2, 2)
