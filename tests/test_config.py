"""Step configuration: typed params, INI loading, overrides, the step
registry."""

import pytest

from ocr_pipeline_ray.config import (
    STEP_REGISTRY,
    apply_overrides,
    coerce_params,
    default_steps,
    load_steps_ini,
    normalize_params,
    resolve_step,
)


def test_coerce_types_the_known_params():
    got = coerce_params({"min_len": "3", "max_link_density": "0.25",
                         "backup": " Yes "})
    assert got == {"min_len": 3, "max_link_density": 0.25, "backup": True}
    assert type(got["min_len"]) is int
    assert coerce_params({"backup": "off"}) == {"backup": False}


def test_coerce_leaves_other_digit_strings_alone():
    """The ReplaceCharsRegex ``old = 3`` literal must stay '3'."""
    assert coerce_params({"old": "3", "new": "s"}) == {"old": "3",
                                                       "new": "s"}


def test_coerce_is_idempotent():
    typed = {"min_len": 3, "max_link_density": 0.25, "backup": False}
    assert coerce_params(typed) == typed
    assert coerce_params(coerce_params({"min_len": "7"})) == {"min_len": 7}


def test_normalize_parses_dict_pattern_and_lexicon():
    got = normalize_params({
        "dict_chars": "{'ic)':'ich', 's<':'sc'}",
        "pattern": "r'([aeioubcglnt]3[:-]*\")'",
        "lexicon": " der, die ,,das ",
        "min_len": "2",
    })
    assert got == {
        "dict_chars": {"ic)": "ich", "s<": "sc"},
        "pattern": '([aeioubcglnt]3[:-]*")',
        "lexicon": frozenset({"der", "die", "das"}),
        "min_len": 2,
    }


def test_normalize_keeps_the_single_pair_dict_quirk():
    """The reference parses a one-pair ``dict_chars`` string to {}."""
    assert normalize_params({"dict_chars": "{'a':'b'}"}) == {
        "dict_chars": {}}


def test_resolve_step(monkeypatch):
    def builder(ds, params, ctx):
        return ds

    monkeypatch.setitem(STEP_REGISTRY, "TestStep", builder)
    assert resolve_step("TestStep") is builder
    with pytest.raises(KeyError, match="unknown step type 'Nope'") as exc:
        resolve_step("Nope")
    # the message lists the row steps and the registered builders
    assert "HtmlExtract" in str(exc.value)
    assert "TestStep" in str(exc.value)


def test_load_steps_ini_orders_sections_numerically(tmp_path):
    path = tmp_path / "steps.ini"
    path.write_text(
        "[step_10]\ntype = QualityEstimate\n\n"
        "[step_2]\ntype = ReplaceCharsRegex\npattern = r'a3'\n"
        "old = 3\nnew = s\n\n"
        "[step_1]\ntype = HtmlExtract\nmin_len = 4\n\n"
        "[notes]\ntype = Ignored\n")
    specs = load_steps_ini(str(path))
    assert [s.type for s in specs] == [
        "HtmlExtract", "ReplaceCharsRegex", "QualityEstimate"]
    assert specs[0].params == {"min_len": 4}
    assert specs[1].params == {"pattern": "a3", "old": "3", "new": "s"}
    with pytest.raises(ValueError, match="no pipeline configuration"):
        load_steps_ini(str(tmp_path / "missing.ini"))


def test_overrides_by_index_and_by_type_leave_the_input_alone():
    specs = default_steps()
    out = apply_overrides(specs, [
        "step_01.min_len=5",
        "ReplaceCharsRegex.pattern=r'x3'",
        "QualityEstimate.backup=true",
    ])
    assert out[0].params == {"min_len": 5}
    assert out[2].params["pattern"] == "x3"
    assert out[2].params["old"] == "3"
    assert out[4].params == {"backup": True}
    assert [s.params for s in specs] == [s.params for s in default_steps()]
