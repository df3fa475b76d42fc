"""Property tests: metric invariants and the config parser, over generated inputs.

Hypothesis runs derandomized and without its example database, so every run
draws the same examples and leaves nothing on disk.
"""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from ordernet.errors import OrdernetError
from ordernet.metrics import lsr_scores, pm_scores, pmr
from ordernet.training import TrainConfig, parse_config_value

PROPERTY = settings(derandomize=True, database=None, deadline=None)

# Orders of distinct sentence positions; pairwise scores need two of them.
orders = st.lists(st.integers(0, 20), min_size=2, max_size=9, unique=True)


@PROPERTY
@given(st.data())
def test_precision_equals_recall_whenever_the_lengths_match(data):
    gold = data.draw(orders)
    pred = data.draw(st.lists(st.integers(0, 20), min_size=len(gold), max_size=len(gold),
                              unique=True))
    pm, lsr = pm_scores(pred, gold), lsr_scores(pred, gold)
    assert pm.p == pm.r
    assert lsr.p == lsr.r


@PROPERTY
@given(orders)
def test_every_order_scores_one_against_itself(order):
    assert pm_scores(order, order).f == 1.0
    assert lsr_scores(order, order).f == 1.0
    assert pmr(order, order) == 1.0


setting_text = st.one_of(
    st.text(max_size=20),
    st.from_regex(r"-?[0-9]{0,6}(\.[0-9]{0,3})?(e-?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(["0", "-3", "abc", "nan", "inf", "1e999", "on", "off", "none", "one",
                     "half", "cbow", "cnn", "lstm", "3 4 5", "3,0", ""]),
)


@PROPERTY
@given(st.sampled_from([f.name for f in fields(TrainConfig)]), setting_text)
def test_config_text_raises_only_ordernet_errors(key, text):
    try:
        TrainConfig(**{key: parse_config_value(key, text)})
    except OrdernetError:
        pass
